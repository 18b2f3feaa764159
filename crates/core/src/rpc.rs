//! RPC framing between the host and agent processes (paper §4.3).
//!
//! The hooked API interface marshals `(sequence, api id, args)` into a
//! frame sent over the shared-memory ring; the agent answers with
//! `(sequence, result)`. Objects travel as 16-byte references; their
//! payload movement is the Lazy-Data-Copy policy's job, not the frame's.
//!
//! Sequence numbers give the **exactly-once** guarantee for healthy
//! agents (duplicate deliveries are answered from a completion cache
//! without re-execution) and the **at-least-once** fallback across
//! restarts (an unacknowledged request is re-sent to the respawned
//! agent and re-executed).

use freepart_frameworks::api::ApiId;
use freepart_frameworks::Value;
use std::collections::VecDeque;

/// A marshalled API-call request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Monotone per-runtime sequence number.
    pub seq: u64,
    /// Which API to execute.
    pub api: ApiId,
    /// Arguments (objects by reference).
    pub args: Vec<Value>,
}

/// Frame magic distinguishing request frames from stray ring bytes.
const REQ_MAGIC: u16 = 0xF9A1;
/// Frame magic for response frames.
const RESP_MAGIC: u16 = 0xF9A2;

impl Request {
    /// Appends the binary frame to `out` without intermediate
    /// allocations: `[magic][seq][api][argc][tag-prefixed args...]`.
    /// Callers on the hot path keep one scratch buffer and `clear()` it
    /// between calls.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&REQ_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.api.0.to_le_bytes());
        out.extend_from_slice(&(self.args.len() as u32).to_le_bytes());
        for arg in &self.args {
            arg.encode_into(out);
        }
    }

    /// Serialized wire bytes (fresh buffer convenience).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size() as usize);
        self.encode_into(&mut out);
        out
    }

    /// Decodes wire bytes.
    ///
    /// # Errors
    ///
    /// Returns `None` on malformed frames.
    pub fn decode(bytes: &[u8]) -> Option<Request> {
        let magic = u16::from_le_bytes(bytes.get(0..2)?.try_into().ok()?);
        if magic != REQ_MAGIC {
            return None;
        }
        let seq = u64::from_le_bytes(bytes.get(2..10)?.try_into().ok()?);
        let api = ApiId(u16::from_le_bytes(bytes.get(10..12)?.try_into().ok()?));
        let argc = u32::from_le_bytes(bytes.get(12..16)?.try_into().ok()?) as usize;
        let mut pos = 16;
        let mut args = Vec::with_capacity(argc.min(64));
        for _ in 0..argc {
            args.push(Value::decode_from(bytes, &mut pos)?);
        }
        if pos != bytes.len() {
            return None;
        }
        Some(Request { seq, api, args })
    }

    /// Wire size used for cost accounting: header + per-arg sizes
    /// (object payloads excluded — they are moved by the data plane).
    pub fn wire_size(&self) -> u64 {
        16 + self.args.iter().map(Value::wire_size).sum::<u64>()
    }
}

/// A marshalled API-call response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echoed sequence number.
    pub seq: u64,
    /// The API's return value (objects by reference).
    pub result: Value,
}

impl Response {
    /// Appends the binary frame to `out`: `[magic][seq][result]`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&RESP_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        self.result.encode_into(out);
    }

    /// Serialized wire bytes (fresh buffer convenience).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size() as usize);
        self.encode_into(&mut out);
        out
    }

    /// Decodes wire bytes.
    pub fn decode(bytes: &[u8]) -> Option<Response> {
        let magic = u16::from_le_bytes(bytes.get(0..2)?.try_into().ok()?);
        if magic != RESP_MAGIC {
            return None;
        }
        let seq = u64::from_le_bytes(bytes.get(2..10)?.try_into().ok()?);
        let mut pos = 10;
        let result = Value::decode_from(bytes, &mut pos)?;
        if pos != bytes.len() {
            return None;
        }
        Some(Response { seq, result })
    }

    /// Wire size for cost accounting.
    pub fn wire_size(&self) -> u64 {
        16 + self.result.wire_size()
    }
}

/// Frame magic for batched request frames (N member requests in one
/// IPC message).
const BATCH_REQ_MAGIC: u16 = 0xF9A3;
/// Frame magic for batched response frames.
const BATCH_RESP_MAGIC: u16 = 0xF9A4;

/// Shared encoding for both batch frame directions:
/// `[magic][u32 count][(u32 len + member frame)...]`. Member frames are
/// ordinary [`Request`]/[`Response`] wire bytes, so the agent decodes
/// each with the existing single-frame path and replay/journaling see no
/// difference between a batched and an unbatched delivery.
fn encode_batch(magic: u16, members: &[Vec<u8>]) -> Vec<u8> {
    let body: usize = members.iter().map(|m| 4 + m.len()).sum();
    let mut out = Vec::with_capacity(6 + body);
    out.extend_from_slice(&magic.to_le_bytes());
    out.extend_from_slice(&(members.len() as u32).to_le_bytes());
    for m in members {
        out.extend_from_slice(&(m.len() as u32).to_le_bytes());
        out.extend_from_slice(m);
    }
    out
}

/// Shared decoding: returns the member frames, rejecting wrong magics,
/// truncation, and trailing garbage.
fn decode_batch(magic: u16, bytes: &[u8]) -> Option<Vec<Vec<u8>>> {
    let got = u16::from_le_bytes(bytes.get(0..2)?.try_into().ok()?);
    if got != magic {
        return None;
    }
    let count = u32::from_le_bytes(bytes.get(2..6)?.try_into().ok()?) as usize;
    let mut pos = 6;
    let mut members = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        let len = u32::from_le_bytes(bytes.get(pos..pos + 4)?.try_into().ok()?) as usize;
        pos += 4;
        members.push(bytes.get(pos..pos + len)?.to_vec());
        pos += len;
    }
    if pos != bytes.len() {
        return None;
    }
    Some(members)
}

/// One IPC frame carrying N marshalled [`Request`]s bound for the same
/// partition. The batch amortizes the per-frame send/recv latency; each
/// member keeps its own `seq`, so exactly-once replay and crash-mid-batch
/// recovery work per call, not per frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRequest {
    /// Member request frames, in submission order.
    pub members: Vec<Vec<u8>>,
}

impl BatchRequest {
    /// Serialized wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        encode_batch(BATCH_REQ_MAGIC, &self.members)
    }

    /// Decodes wire bytes; `None` on malformed frames.
    pub fn decode(bytes: &[u8]) -> Option<BatchRequest> {
        Some(BatchRequest {
            members: decode_batch(BATCH_REQ_MAGIC, bytes)?,
        })
    }
}

/// The answering frame: N marshalled [`Response`]s, one per member of
/// the [`BatchRequest`], in the same order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchResponse {
    /// Member response frames, in request order.
    pub members: Vec<Vec<u8>>,
}

impl BatchResponse {
    /// Serialized wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        encode_batch(BATCH_RESP_MAGIC, &self.members)
    }

    /// Decodes wire bytes; `None` on malformed frames.
    pub fn decode(bytes: &[u8]) -> Option<BatchResponse> {
        Some(BatchResponse {
            members: decode_batch(BATCH_RESP_MAGIC, bytes)?,
        })
    }
}

/// Agent-side completion cache implementing exactly-once delivery.
///
/// Entries live until the host acknowledges their sequence number
/// ([`CompletionCache::ack`]) — once the host has consumed a response
/// it will never re-send that seq, so the journal entry is dead weight.
/// Pruning below the ack watermark keeps long video/training loops at
/// O(in-flight window) journal memory instead of O(run length). The
/// `capacity` bound remains as a backstop for hosts that never ack.
#[derive(Debug, Default)]
pub struct CompletionCache {
    /// `(seq, result)` in ascending seq order: an agent completes its
    /// calls in submission order, and a crash-retry re-sends its seq
    /// before any later call is submitted.
    done: VecDeque<(u64, Value)>,
    capacity: usize,
    /// Highest sequence number the host has acknowledged consuming.
    acked: u64,
}

impl CompletionCache {
    /// A cache remembering up to `capacity` completions.
    pub fn new(capacity: usize) -> CompletionCache {
        CompletionCache {
            done: VecDeque::new(),
            capacity,
            acked: 0,
        }
    }

    /// Looks up a previously-completed sequence (duplicate delivery).
    pub fn replay(&self, seq: u64) -> Option<&Value> {
        self.done.iter().find(|(s, _)| *s == seq).map(|(_, v)| v)
    }

    /// Records a completion, evicting the oldest entries past capacity.
    /// `seq` is above every seq already recorded.
    pub fn complete(&mut self, seq: u64, result: Value) {
        debug_assert!(self.done.back().is_none_or(|(s, _)| *s < seq));
        self.done.push_back((seq, result));
        while self.done.len() > self.capacity {
            self.done.pop_front();
        }
    }

    /// Acknowledges that the host consumed the response for `seq`:
    /// every journal entry at or below the watermark is pruned. Acks
    /// arrive in seq order per partition (FIFO rings), so the watermark
    /// only moves forward.
    pub fn ack(&mut self, seq: u64) {
        if seq <= self.acked {
            return;
        }
        self.acked = seq;
        while self.done.front().is_some_and(|(s, _)| *s <= seq) {
            self.done.pop_front();
        }
    }

    /// The highest acknowledged sequence number.
    pub fn acked_watermark(&self) -> u64 {
        self.acked
    }

    /// Number of cached completions.
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freepart_frameworks::ObjectId;

    #[test]
    fn request_roundtrip() {
        let req = Request {
            seq: 42,
            api: ApiId(7),
            args: vec![Value::from("path"), Value::Obj(ObjectId(3))],
        };
        let back = Request::decode(&req.encode()).unwrap();
        assert_eq!(back, req);
        assert!(Request::decode(b"garbage").is_none());
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response {
            seq: 42,
            result: Value::Rects(vec![]),
        };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn frames_are_magic_tagged_and_length_checked() {
        let req = Request {
            seq: 9,
            api: ApiId(2),
            args: vec![Value::I64(5)],
        };
        let resp = Response {
            seq: 9,
            result: Value::Unit,
        };
        // A request frame is not a response frame and vice versa.
        assert!(Response::decode(&req.encode()).is_none());
        assert!(Request::decode(&resp.encode()).is_none());
        // Trailing garbage is rejected, not silently ignored.
        let mut padded = req.encode();
        padded.push(0);
        assert!(Request::decode(&padded).is_none());
        // encode_into appends to an existing scratch buffer.
        let mut scratch = Vec::new();
        req.encode_into(&mut scratch);
        let first_len = scratch.len();
        scratch.clear();
        req.encode_into(&mut scratch);
        assert_eq!(scratch.len(), first_len);
        assert_eq!(Request::decode(&scratch).unwrap(), req);
    }

    #[test]
    fn wire_size_counts_references_not_payloads() {
        let small = Request {
            seq: 1,
            api: ApiId(0),
            args: vec![Value::Obj(ObjectId(1))],
        };
        // 16-byte header + 16-byte reference, regardless of object size.
        assert_eq!(small.wire_size(), 32);
        let bytes = Request {
            seq: 1,
            api: ApiId(0),
            args: vec![Value::Bytes(vec![0; 1000])],
        };
        assert!(bytes.wire_size() > 1000);
    }

    #[test]
    fn batch_frames_roundtrip() {
        let reqs: Vec<Vec<u8>> = (0..3)
            .map(|i| {
                Request {
                    seq: 10 + i,
                    api: ApiId(i as u16),
                    args: vec![Value::I64(i as i64)],
                }
                .encode()
            })
            .collect();
        let batch = BatchRequest {
            members: reqs.clone(),
        };
        let back = BatchRequest::decode(&batch.encode()).unwrap();
        assert_eq!(back, batch);
        // Members decode with the ordinary single-frame path.
        for (i, m) in back.members.iter().enumerate() {
            assert_eq!(Request::decode(m).unwrap().seq, 10 + i as u64);
        }
        // Empty batches are representable (never sent, but well-formed).
        let empty = BatchResponse { members: vec![] };
        assert_eq!(BatchResponse::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn batch_frames_reject_confusion_and_truncation() {
        let breq = BatchRequest {
            members: vec![Request {
                seq: 1,
                api: ApiId(0),
                args: vec![],
            }
            .encode()],
        };
        let bresp = BatchResponse {
            members: vec![Response {
                seq: 1,
                result: Value::Unit,
            }
            .encode()],
        };
        // Direction confusion is rejected, as is batch-vs-single confusion.
        assert!(BatchResponse::decode(&breq.encode()).is_none());
        assert!(BatchRequest::decode(&bresp.encode()).is_none());
        assert!(Request::decode(&breq.encode()).is_none());
        // Truncated and padded frames are rejected.
        let wire = breq.encode();
        assert!(BatchRequest::decode(&wire[..wire.len() - 1]).is_none());
        let mut padded = wire.clone();
        padded.push(0);
        assert!(BatchRequest::decode(&padded).is_none());
    }

    #[test]
    fn completion_cache_replays_and_evicts() {
        let mut cache = CompletionCache::new(2);
        cache.complete(1, Value::I64(10));
        cache.complete(2, Value::I64(20));
        assert_eq!(cache.replay(1), Some(&Value::I64(10)));
        cache.complete(3, Value::I64(30));
        assert_eq!(cache.len(), 2);
        assert!(cache.replay(1).is_none(), "oldest evicted");
        assert_eq!(cache.replay(3), Some(&Value::I64(30)));
    }

    #[test]
    fn ack_prunes_at_and_below_watermark_only() {
        let mut cache = CompletionCache::new(64);
        for seq in 1..=5 {
            cache.complete(seq, Value::I64(seq as i64));
        }
        cache.ack(3);
        assert_eq!(cache.acked_watermark(), 3);
        assert_eq!(cache.len(), 2);
        assert!(cache.replay(3).is_none(), "acked entries pruned");
        // Un-acked seqs above the watermark still replay — the
        // at-least-once crash path depends on this.
        assert_eq!(cache.replay(4), Some(&Value::I64(4)));
        assert_eq!(cache.replay(5), Some(&Value::I64(5)));
        // Stale / duplicate acks never move the watermark backwards.
        cache.ack(2);
        assert_eq!(cache.acked_watermark(), 3);
        assert_eq!(cache.len(), 2);
    }
}
