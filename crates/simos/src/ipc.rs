//! Shared-memory ring-buffer IPC.
//!
//! FreePart's host↔agent and agent↔agent traffic runs over shared-memory
//! ring buffers synchronized with futexes (paper §4.3, footnote 8). This
//! module provides the ring itself; the kernel wraps it with permission
//! checks, cost accounting, and futex wake charging.
//!
//! The simulation is cooperative, so "blocking" receive is expressed as
//! `try_recv` returning `None` — the driving harness never actually needs
//! to park because request/response pairs are executed synchronously.

use crate::commit::{fold_bytes, mix, FINGERPRINT_SEED};
use crate::process::Pid;
use bytes::Bytes;
use std::collections::VecDeque;
use std::fmt;

/// Identifier of a kernel-registered channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub u32);

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chan{}", self.0)
    }
}

/// Which side of a channel a process holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelEnd {
    /// The end registered first (conventionally the host / requester).
    A,
    /// The end registered second (conventionally the agent / responder).
    B,
}

/// A single framed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sender pid, for bookkeeping.
    pub from: Pid,
    /// Payload bytes.
    pub payload: Bytes,
    /// Sender's virtual time when the frame was enqueued. Under
    /// per-process timelines the receiver merges this on delivery
    /// (happens-before: `recv = max(recv, send_ns + latency)`); under
    /// the global clock it is carried but ignored.
    pub send_ns: u64,
}

/// A bidirectional bounded ring: two one-way queues with a byte budget,
/// mirroring a pair of shm ring buffers.
#[derive(Debug)]
pub struct RingChannel {
    /// Endpoint A's pid.
    pub a: Pid,
    /// Endpoint B's pid.
    pub b: Pid,
    capacity_bytes: usize,
    a_to_b: VecDeque<Frame>,
    b_to_a: VecDeque<Frame>,
    a_to_b_bytes: usize,
    b_to_a_bytes: usize,
    /// Incremental fingerprint over the channel's traffic history
    /// (sends, receives, rebinds), feeding the kernel state digest.
    fp: u64,
    /// This channel's current term in the kernel state digest's
    /// multiset hash (0 until the kernel core first admits it).
    pub(crate) digest_term: u64,
}

/// Error cases for ring operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingError {
    /// The queue's byte budget is exhausted.
    Full,
    /// The pid is neither endpoint.
    NotEndpoint,
}

impl RingChannel {
    /// A channel between `a` and `b` with `capacity_bytes` per direction.
    pub fn new(a: Pid, b: Pid, capacity_bytes: usize) -> RingChannel {
        RingChannel {
            a,
            b,
            capacity_bytes,
            a_to_b: VecDeque::new(),
            b_to_a: VecDeque::new(),
            a_to_b_bytes: 0,
            b_to_a_bytes: 0,
            fp: FINGERPRINT_SEED,
            digest_term: 0,
        }
    }

    /// The traffic-history fingerprint (see the field docs on `fp`).
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// Which end `pid` holds, if any.
    pub fn end_of(&self, pid: Pid) -> Option<ChannelEnd> {
        if pid == self.a {
            Some(ChannelEnd::A)
        } else if pid == self.b {
            Some(ChannelEnd::B)
        } else {
            None
        }
    }

    /// Re-binds endpoint B to a new pid (agent restart keeps the channel).
    pub fn rebind_b(&mut self, new_b: Pid) {
        self.b = new_b;
        self.fp = mix(mix(self.fp, 3), u64::from(new_b.0));
    }

    /// Enqueues a message from `from` toward the opposite end, stamped
    /// with the sender's virtual time `send_ns`.
    pub fn send(&mut self, from: Pid, payload: Bytes, send_ns: u64) -> Result<(), RingError> {
        let end = self.end_of(from).ok_or(RingError::NotEndpoint)?;
        let (queue, used) = match end {
            ChannelEnd::A => (&mut self.a_to_b, &mut self.a_to_b_bytes),
            ChannelEnd::B => (&mut self.b_to_a, &mut self.b_to_a_bytes),
        };
        if *used + payload.len() > self.capacity_bytes {
            return Err(RingError::Full);
        }
        *used += payload.len();
        self.fp = fold_bytes(
            mix(mix(mix(self.fp, 1), u64::from(from.0)), send_ns),
            &payload,
        );
        queue.push_back(Frame {
            from,
            payload,
            send_ns,
        });
        Ok(())
    }

    /// Dequeues the next message addressed to `to`, if any.
    pub fn try_recv(&mut self, to: Pid) -> Result<Option<Frame>, RingError> {
        let end = self.end_of(to).ok_or(RingError::NotEndpoint)?;
        let (queue, used) = match end {
            ChannelEnd::A => (&mut self.b_to_a, &mut self.b_to_a_bytes),
            ChannelEnd::B => (&mut self.a_to_b, &mut self.a_to_b_bytes),
        };
        match queue.pop_front() {
            Some(frame) => {
                *used -= frame.payload.len();
                self.fp = mix(mix(self.fp, 2), frame.payload.len() as u64);
                Ok(Some(frame))
            }
            None => Ok(None),
        }
    }

    /// Messages waiting for `to`.
    pub fn pending_for(&self, to: Pid) -> usize {
        match self.end_of(to) {
            Some(ChannelEnd::A) => self.b_to_a.len(),
            Some(ChannelEnd::B) => self.a_to_b.len(),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan() -> RingChannel {
        RingChannel::new(Pid(1), Pid(2), 1024)
    }

    #[test]
    fn send_recv_roundtrip_both_directions() {
        let mut c = chan();
        c.send(Pid(1), Bytes::from_static(b"req"), 0).unwrap();
        let f = c.try_recv(Pid(2)).unwrap().unwrap();
        assert_eq!(&f.payload[..], b"req");
        assert_eq!(f.from, Pid(1));
        c.send(Pid(2), Bytes::from_static(b"resp"), 0).unwrap();
        assert_eq!(&c.try_recv(Pid(1)).unwrap().unwrap().payload[..], b"resp");
    }

    #[test]
    fn capacity_is_per_direction() {
        let mut c = RingChannel::new(Pid(1), Pid(2), 4);
        c.send(Pid(1), Bytes::from_static(b"abcd"), 0).unwrap();
        assert_eq!(
            c.send(Pid(1), Bytes::from_static(b"x"), 0),
            Err(RingError::Full)
        );
        // Opposite direction unaffected.
        c.send(Pid(2), Bytes::from_static(b"yz"), 0).unwrap();
        // Draining frees budget.
        c.try_recv(Pid(2)).unwrap().unwrap();
        c.send(Pid(1), Bytes::from_static(b"x"), 0).unwrap();
    }

    #[test]
    fn non_endpoint_is_rejected() {
        let mut c = chan();
        assert_eq!(
            c.send(Pid(9), Bytes::from_static(b"spoof"), 0),
            Err(RingError::NotEndpoint)
        );
        assert_eq!(c.try_recv(Pid(9)), Err(RingError::NotEndpoint));
    }

    #[test]
    fn recv_on_empty_returns_none() {
        let mut c = chan();
        assert_eq!(c.try_recv(Pid(1)).unwrap(), None);
    }

    #[test]
    fn rebind_b_preserves_pending_traffic() {
        let mut c = chan();
        c.send(Pid(1), Bytes::from_static(b"m"), 0).unwrap();
        c.rebind_b(Pid(7));
        assert_eq!(c.pending_for(Pid(7)), 1);
        assert!(c.try_recv(Pid(7)).unwrap().is_some());
        assert_eq!(c.end_of(Pid(2)), None);
    }

    #[test]
    fn frames_carry_the_send_timestamp() {
        let mut c = chan();
        c.send(Pid(1), Bytes::from_static(b"t"), 4_200).unwrap();
        assert_eq!(c.try_recv(Pid(2)).unwrap().unwrap().send_ns, 4_200);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut c = chan();
        for i in 0..5u8 {
            c.send(Pid(1), Bytes::copy_from_slice(&[i]), 0).unwrap();
        }
        for i in 0..5u8 {
            assert_eq!(c.try_recv(Pid(2)).unwrap().unwrap().payload[0], i);
        }
    }
}
