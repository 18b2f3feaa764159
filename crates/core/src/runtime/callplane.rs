//! The call plane: the synchronous and asynchronous hooked-call
//! surface, submission (with the state-transition drain barrier and the
//! temporal-grant sweep), bounded pipelined windows, and retirement.
//!
//! Each hooked call has one [`InFlight`] record from dispatch to
//! retirement: `dispatch_execute` builds it, a batched call's frame
//! pair waits on it until the flush, and retirement moves its outcome
//! into `retired`, the one per-call outcome store that `wait`,
//! `promise` and pooled tickets read.

use super::{CallError, CallHandle, Runtime, ThreadId};
use crate::partition::PartitionId;
use crate::policy::RestartPolicy;
use crate::rpc::{BatchRequest, BatchResponse};
use crate::state::{self, FrameworkState};
use crate::trace::{AuditRecord, CallOutcome, FlushReason, SpanEvent, SpanPhase};
use freepart_frameworks::api::ApiId;
use freepart_frameworks::{ObjectId, Value};
use std::collections::BTreeSet;

/// The one record of a hooked call, from dispatch to retirement. The
/// simulator executes calls eagerly at submission (so results and side
/// effects are identical to the synchronous path); the *overlap* lives
/// in virtual time — the host's timeline only merges past the agent's
/// at retirement.
#[derive(Debug)]
pub(super) struct InFlight {
    pub(super) api: ApiId,
    pub(super) thread: ThreadId,
    pub(super) partition: PartitionId,
    pub(super) outcome: Result<Value, CallError>,
    /// A response frame is sitting in the ring for the host to consume:
    /// `(send instant, frame bytes)`, for the `response` span.
    pub(super) response: Option<(u64, u64)>,
    /// Nothing left to book at retirement: a journal replay booked (and
    /// acked) itself when served, a failed attempt completed nothing.
    pub(super) booked: bool,
    /// Objects this call consumed or produced (pinned-return set).
    pub(super) touched: Vec<ObjectId>,
    /// Agent-timeline completion, for hazard merges of later consumers.
    pub(super) complete_ns: u64,
    /// A batch member's encoded `(request, response)` frame pair, waiting
    /// here until the flush coalesces the open batch's pairs.
    pub(super) frames: Option<(Vec<u8>, Vec<u8>)>,
    /// A flushed batch's last member: `(first member's hook-entry ns,
    /// member count)` of the `batch` span its retirement closes.
    pub(super) batch_span: Option<(u64, usize)>,
    /// Hook-entry instant, for the `call` span.
    pub(super) call_t0: u64,
}

impl InFlight {
    /// The record of an attempt no response frame answers: a failed
    /// attempt, or a journal replay (booked when it was served).
    pub(super) fn settled(
        api: ApiId,
        thread: ThreadId,
        partition: PartitionId,
        outcome: Result<Value, CallError>,
        complete_ns: u64,
    ) -> InFlight {
        InFlight {
            api,
            thread,
            partition,
            outcome,
            response: None,
            booked: true,
            touched: Vec::new(),
            complete_ns,
            frames: None,
            batch_span: None,
            call_t0: 0,
        }
    }
}

/// Consecutive same-partition calls whose frames are coalesced into one
/// `BatchRequest` / `BatchResponse` IPC frame pair at flush time. The
/// member calls have already executed eagerly agent-side (and journalled
/// their seqs individually) — only the *frame accounting* is deferred,
/// so results stay byte-identical to the unbatched runtime while the
/// per-frame send/recv latency is paid once per batch. Each member's
/// frame pair waits on its own [`InFlight`] record.
#[derive(Debug)]
pub(super) struct PendingBatch {
    pub(super) partition: PartitionId,
    pub(super) thread: ThreadId,
    /// Member seqs, in submission order.
    pub(super) members: Vec<u64>,
    /// Objects any member consumed, produced, or defined — a host
    /// dereference of one of these is a hazard that flushes the batch.
    pub(super) touched: BTreeSet<ObjectId>,
    /// First member's hook-entry time (tracing; the `batch` span start).
    pub(super) t0: u64,
}

impl Runtime {
    // ------------------------------------------------------------------
    // The hooked call path
    // ------------------------------------------------------------------

    /// Calls a framework API by qualified name.
    ///
    /// # Errors
    ///
    /// See [`CallError`].
    pub fn call(&mut self, name: &str, args: &[Value]) -> Result<Value, CallError> {
        self.call_on(ThreadId::MAIN, name, args)
    }

    /// Calls a framework API by name on a specific application thread:
    /// the call routes to *that thread's* agent set and drives that
    /// thread's framework state. Exactly equivalent to
    /// [`Runtime::call_async_on`] followed by an immediate
    /// [`Runtime::wait`] — the async machinery adds zero virtual
    /// nanoseconds to the synchronous path.
    ///
    /// # Errors
    ///
    /// See [`CallError`].
    pub fn call_on(
        &mut self,
        thread: ThreadId,
        name: &str,
        args: &[Value],
    ) -> Result<Value, CallError> {
        let handle = self.call_async_on(thread, name, args)?;
        self.wait(handle)
    }

    /// Calls a framework API on the main thread, leaving it in flight
    /// only while the open batch holds it: a call that joined the batch
    /// is peeked at with [`Runtime::promise`] so the next same-partition
    /// call can coalesce with it, and any other call (or a batch that
    /// just flushed full) retires at once, exactly like [`Runtime::call`].
    ///
    /// # Errors
    ///
    /// See [`CallError`].
    pub fn call_deferred(&mut self, name: &str, args: &[Value]) -> Result<Value, CallError> {
        let handle = self.call_async(name, args)?;
        match self.inflight.get(&handle.0) {
            Some(inf) if inf.frames.is_some() => self.promise(handle),
            _ => self.wait(handle),
        }
    }

    // ------------------------------------------------------------------
    // The asynchronous call interface
    // ------------------------------------------------------------------

    /// Submits a hooked call on the main thread without waiting for its
    /// response (see [`Runtime::call_async_with`]).
    ///
    /// # Errors
    ///
    /// See [`CallError`]. Submission-time errors (unknown API/thread)
    /// surface here; execution errors surface from [`Runtime::wait`].
    pub fn call_async(&mut self, name: &str, args: &[Value]) -> Result<CallHandle, CallError> {
        self.call_async_on(ThreadId::MAIN, name, args)
    }

    /// Submits a hooked call on a specific thread without waiting.
    ///
    /// # Errors
    ///
    /// See [`Runtime::call_async`].
    pub fn call_async_on(
        &mut self,
        thread: ThreadId,
        name: &str,
        args: &[Value],
    ) -> Result<CallHandle, CallError> {
        self.call_async_with(thread, name, args, &[])
    }

    /// Submits a hooked call with explicit dependencies: the call's
    /// agent timeline is ordered after every `deps` handle's completion
    /// (for dependencies the object table cannot see, e.g. a read of a
    /// file an earlier in-flight call writes).
    ///
    /// The call executes (agent-side) at submission, so results are
    /// byte-identical to the synchronous path; only virtual time
    /// overlaps. The response is consumed by [`Runtime::wait`].
    ///
    /// # Errors
    ///
    /// See [`Runtime::call_async`].
    pub fn call_async_with(
        &mut self,
        thread: ThreadId,
        name: &str,
        args: &[Value],
        deps: &[CallHandle],
    ) -> Result<CallHandle, CallError> {
        let api = self
            .reg
            .id_of(name)
            .ok_or_else(|| CallError::UnknownApi(name.to_owned()))?;
        self.submit(thread, api, args, deps)
    }

    /// Retires a call: consumes its response frame (merging the host's
    /// timeline past the agent's completion), runs host-side
    /// bookkeeping, and returns the result. Responses drain each
    /// partition's ring in FIFO order, so waiting on a call first
    /// retires every older in-flight call on the same partition.
    /// Waiting again on an already-retired handle returns the cached
    /// outcome without charging time.
    ///
    /// # Errors
    ///
    /// The call's execution error, if any (see [`CallError`]).
    pub fn wait(&mut self, handle: CallHandle) -> Result<Value, CallError> {
        if let Some(partition) = self.inflight.get(&handle.0).map(|i| i.partition) {
            while self.inflight.contains_key(&handle.0) {
                self.retire_one(self.inflight_by_partition[&partition][0]);
            }
        }
        self.promise(handle)
    }

    /// Peeks at an in-flight (or retired) call's result without
    /// retiring it — no response is consumed and no time is charged.
    ///
    /// # Errors
    ///
    /// The call's execution error, or `UnknownApi` for a handle that
    /// was never submitted.
    pub fn promise(&self, handle: CallHandle) -> Result<Value, CallError> {
        if let Some(inf) = self.inflight.get(&handle.0) {
            return inf.outcome.clone();
        }
        match self.retired.get(handle.0) {
            Some((outcome, _)) => outcome.clone(),
            None => Err(CallError::UnknownApi(format!(
                "call #{} was never submitted",
                handle.0
            ))),
        }
    }

    /// Retires every in-flight call, oldest first. The security
    /// barriers call this: nothing may be in flight across a
    /// framework-state transition's mprotect storm.
    pub fn drain_inflight(&mut self) {
        while let Some((&seq, _)) = self.inflight.iter().next() {
            self.retire_one(seq);
        }
    }

    /// Number of submitted-but-unretired calls.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Switches the kernel to per-process virtual timelines so
    /// asynchronous calls overlap in virtual time. Synchronous calls
    /// keep working (submit + immediate wait) and sync-only runs are
    /// unaffected — this only changes how *overlapping* calls are
    /// accounted. Host activity outside calls charges the host's
    /// timeline; read the result off [`KernelState::makespan_ns`].
    ///
    /// [`KernelState::makespan_ns`]: freepart_simos::KernelState::makespan_ns
    pub fn enable_pipelining(&mut self) {
        self.pipelining = true;
        self.kernel.enable_per_process_time();
        self.kernel.set_time_context(Some(self.host));
    }

    /// Bounds how many calls may be in flight per partition (min 1);
    /// submission force-retires the oldest beyond the window. Writes
    /// the knob table's seed: every partition the adaptive controller
    /// has not decided yet reads it.
    pub fn set_pipeline_window(&mut self, window: usize) {
        self.knob_table.seed.pipeline_window = window.max(1);
    }

    /// Completion time (agent timeline) a dependency handle resolves to.
    pub(super) fn ready_ns(&self, handle: CallHandle) -> u64 {
        self.inflight
            .get(&handle.0)
            .map(|i| i.complete_ns)
            .or_else(|| self.retired.get(handle.0).map(|(_, ns)| *ns))
            .unwrap_or(0)
    }

    /// Submission: security checks, state-transition barrier + transition,
    /// window enforcement, then one (crash-retried) delivery attempt.
    /// The call is fully executed agent-side when this returns; only
    /// the response leg and host bookkeeping remain for `wait`.
    pub(super) fn submit(
        &mut self,
        thread: ThreadId,
        api: ApiId,
        args: &[Value],
        deps: &[CallHandle],
    ) -> Result<CallHandle, CallError> {
        if !self.temporal.has_thread(thread) {
            return Err(CallError::UnknownApi(format!("{thread} not spawned")));
        }
        let api_type = self.report.type_of(api);
        let neutral = self.reg.spec(api).type_neutral && self.policy.colocate_type_neutral;

        // Security barrier: a framework-state transition runs an
        // mprotect storm over the previous state's objects — no call may
        // be in flight across it, on *any* partition. The open batch
        // flushes first (no batch may straddle a transition record),
        // then everything in flight drains before the transition is
        // observed below. Shared pools drain the same way: each pool's
        // window bounds its in-flight queue, so the drain is
        // O(pools × window) however many tenants share the pools.
        if !neutral && self.state_of(thread) != FrameworkState::InType(api_type) {
            self.flush_batch(FlushReason::Transition);
            self.drain_inflight();
        }

        // One sequence number per *logical* call: a crash-retry re-sends
        // the same seq, so an agent that completed the call just before
        // dying answers the retry from its completion journal instead of
        // executing the side effects a second time.
        self.seq += 1;
        let seq = self.seq;

        // Hook entry: the Call span opens here and the per-call byte
        // accumulation resets.
        let tracing = self.tracer.enabled();
        let call_t0 = if tracing {
            self.tracer.begin_call(seq);
            self.kernel.now_ns()
        } else {
            0
        };

        // Type-neutral APIs run in the calling context's agent and do not
        // move the framework state (§4.2).
        let base_partition = if neutral {
            match self.state_of(thread) {
                FrameworkState::InType(t) => self.policy.plan.partition_of_type(t),
                FrameworkState::Initialization => self.partition_of(api),
            }
        } else {
            // Temporal protection fires on the state change, *before* the
            // API executes (Fig. 3). Snapshot the page counter around it
            // so the audit record carries the exact protection delta this
            // transition applied.
            let before =
                tracing.then(|| (self.kernel.now_ns(), self.kernel.metrics().protected_pages));
            // Flight-recorder correlation: the commit-log slice covering
            // this transition's mprotect storm + temporal-grant sweep.
            let commits0 = self.kernel.commit_len();
            let transition = state::observe(
                &mut self.temporal,
                thread,
                api_type,
                &mut self.kernel,
                &self.objects,
            );
            if let Some(tr) = transition {
                // Temporal grants: shared-memory views issued to agents
                // of the state being left are torn down inside the same
                // barrier as the mprotect storm — the in-flight queue is
                // already drained, so no call can straddle the revokes.
                self.revoke_out_of_state_grants(thread, seq);
                // Adaptive decision point: the system is quiescent here
                // (batch flushed, in-flight retired into the registry,
                // grants revoked), so the controller may re-pick knobs
                // for the configuration epoch this call opens.
                self.adaptive_decision_point(seq);
                if let Some((t0, pages0)) = before {
                    let now = self.kernel.now_ns();
                    let pages = self.kernel.metrics().protected_pages - pages0;
                    let commits = Some((commits0, self.kernel.commit_len())).filter(|(s, e)| e > s);
                    self.tracer.record_audit(AuditRecord::StateTransition {
                        at_ns: t0,
                        thread,
                        seq,
                        from: tr.from,
                        to: tr.to,
                        objects_locked: tr.locked.len(),
                        objects_unlocked: tr.released,
                        pages,
                        commits,
                    });
                    self.tracer.span(SpanEvent {
                        phase: SpanPhase::Transition,
                        seq,
                        api: Some(api),
                        partition: None,
                        thread,
                        start_ns: t0,
                        end_ns: now,
                        bytes: 0,
                    });
                }
            }
            self.partition_of(api)
        };
        let partition = self.route_partition(thread, base_partition);

        // A call routed to a different partition than the open batch's
        // closes the batch: its frame goes out before this call runs.
        if self
            .batch
            .as_ref()
            .is_some_and(|b| b.partition != partition)
        {
            self.flush_batch(FlushReason::PartitionSwitch);
        }

        // Bounded in-flight window per partition. The open batch (now on
        // this partition, if any) counts as ONE unit however many members
        // it holds (it will become one frame); its members cannot be
        // retired until it flushes, so the loop stops rather than
        // force-flush mid-accumulation.
        while let Some(q) = self.inflight_by_partition.get(&partition) {
            let batch_members = self.batch.as_ref().map_or(0, |b| b.members.len());
            let units = q.len() - batch_members + usize::from(batch_members > 0);
            if units < self.knobs(partition).pipeline_window {
                break;
            }
            let oldest = q[0];
            if self.inflight[&oldest].frames.is_some() {
                break;
            }
            self.retire_one(oldest);
        }

        let first_attempt = self.dispatch_execute(thread, partition, seq, api, args, deps);
        let attempt = match first_attempt {
            Err(CallError::AgentCrashed(p)) if self.policy.restart == RestartPolicy::Restart => {
                // At-least-once re-delivery of the *same* request; the
                // completion journal upgrades it to exactly-once when the
                // crash happened after execution.
                if self.pipelining {
                    self.kernel.set_time_context(Some(self.host));
                }
                self.restart_agent_on(p, thread);
                self.dispatch_execute(thread, p, seq, api, args, deps)
            }
            other => other,
        };
        if self.pipelining {
            self.kernel.set_time_context(Some(self.host));
        }
        let mut inf = attempt.unwrap_or_else(|e| {
            InFlight::settled(api, thread, partition, Err(e), self.kernel.now_ns())
        });
        inf.call_t0 = call_t0;
        // Batched mode: the member's frames wait on its record; its seq
        // joins the open batch (creating one on the first member).
        // Replays and failed attempts carry no frames and never join.
        if inf.frames.is_some() {
            let b = self.batch.get_or_insert_with(|| PendingBatch {
                partition,
                thread,
                members: Vec::new(),
                touched: BTreeSet::new(),
                t0: call_t0,
            });
            debug_assert_eq!(b.partition, partition, "switch flushes first");
            b.members.push(seq);
            b.touched.extend(inf.touched.iter().copied());
        }
        self.inflight.insert(seq, inf);
        self.inflight_by_partition
            .entry(partition)
            .or_default()
            .push_back(seq);
        // Window-full flush: the batch reached the partition's window.
        if let (Some(window), Some(b)) = (self.knobs(partition).batch_window, self.batch.as_ref()) {
            if b.members.len() >= window {
                self.flush_batch(FlushReason::WindowFull);
            }
        }
        Ok(CallHandle(seq))
    }

    /// Closes the open batch, if any: one `BatchRequest` frame goes
    /// host→agent and one `BatchResponse` frame agent→host — a single
    /// send/recv latency pair however many member calls the batch holds.
    /// The batch's *first* member inherits the response frame (retiring
    /// it consumes the frame and merges the host timeline); the others
    /// ride along and only ack their journal entries at retirement.
    pub(super) fn flush_batch(&mut self, reason: FlushReason) {
        let Some(b) = self.batch.take() else {
            return;
        };
        let n = b.members.len();
        debug_assert!(n > 0, "batches are created non-empty");
        self.kernel.note_calls_batched(n as u64);
        let tracing = self.tracer.enabled();
        if tracing {
            let now = self.kernel.now_ns();
            self.tracer.note_batch_flush(now, b.thread, reason, n);
        }
        // Members are still in flight (retirement flushes first), each
        // holding its frame pair; collect the pairs in member order.
        let (reqs, resps): (Vec<_>, Vec<_>) = b
            .members
            .iter()
            .filter_map(|s| self.inflight.get_mut(s)?.frames.take())
            .unzip();
        // One frame each way — skipped entirely if the agent died (its
        // members' outcomes were computed eagerly; retirement charges
        // nothing for a dead agent, exactly like the unbatched path).
        if let Some(agent) = self.agents.get(&b.partition) {
            let (agent_pid, chan) = (agent.pid, agent.chan);
            if self.kernel.is_running(agent_pid) {
                let breq = BatchRequest { members: reqs }.encode();
                // `ipc_send` charges the host's timeline and `ipc_recv`
                // the agent's (with the happens-before merge under
                // per-process time) — no time-context switch needed.
                let send_ok = self.kernel.ipc_send(self.host, chan, &breq).is_ok();
                if send_ok {
                    let _ = self.kernel.ipc_recv(agent_pid, chan);
                }
                let resp_t0 = if tracing { self.kernel.now_ns() } else { 0 };
                let bresp = BatchResponse { members: resps }.encode();
                let resp_len = bresp.len() as u64;
                if send_ok && self.kernel.ipc_send(agent_pid, chan, &bresp).is_ok() {
                    if let Some(inf) = b.members.first().and_then(|s| self.inflight.get_mut(s)) {
                        inf.response = Some((resp_t0, resp_len));
                    }
                }
            }
        }
        if tracing {
            if let Some(inf) = b.members.last().and_then(|s| self.inflight.get_mut(s)) {
                inf.batch_span = Some((b.t0, n));
            }
        }
    }

    /// Hazard hook for host dereferences (`fetch_bytes`): reading an
    /// object an open batch's member touched forces the frames out
    /// first, so the host's timeline ordering matches the unbatched
    /// plane.
    pub(super) fn flush_batch_if_touched(&mut self, id: ObjectId) {
        if self.batch.as_ref().is_some_and(|b| b.touched.contains(&id)) {
            self.flush_batch(FlushReason::Hazard);
        }
    }

    /// Retirement: the host consumes the response frame and finishes the
    /// call's host-side bookkeeping. `seq` must be the oldest in-flight
    /// call on its partition (ring FIFO).
    fn retire_one(&mut self, seq: u64) {
        // A host `wait` (or drain) reaching into the open batch (a record
        // still holding its frames) is a hazard: the frames must go out
        // before the response can be consumed.
        if self.inflight.get(&seq).is_some_and(|i| i.frames.is_some()) {
            self.flush_batch(FlushReason::Hazard);
        }
        let Some(inf) = self.inflight.remove(&seq) else {
            return;
        };
        let partition = inf.partition;
        if let Some(q) = self.inflight_by_partition.get_mut(&partition) {
            debug_assert_eq!(q.front(), Some(&seq), "per-partition retirement is FIFO");
            q.retain(|s| *s != seq);
        }
        let tracing = self.tracer.enabled();
        let mut outcome = inf.outcome;
        if let Some((resp_t0, resp_len)) = inf.response {
            // The host consumes the response now — under per-process
            // time this merges the host's timeline past the agent's
            // completion (happens-before) and charges delivery latency.
            if let Some(chan) = self.agents.get(&partition).map(|a| a.chan) {
                let _ = self.kernel.ipc_recv(self.host, chan);
            }
            if tracing {
                let now = self.kernel.now_ns();
                self.tracer.span(SpanEvent {
                    phase: SpanPhase::Response,
                    seq,
                    api: Some(inf.api),
                    partition: Some(partition),
                    thread: inf.thread,
                    start_ns: resp_t0,
                    end_ns: now,
                    bytes: resp_len,
                });
            }
        }
        let mut snapshot_due = false;
        if !inf.booked {
            // The agent record can be gone by retirement time if the
            // supervisor degraded the partition mid-flight (a seal
            // failure after this call's successful execution): book the
            // completion, skip the per-agent counters.
            if let Some(agent) = self.agents.get_mut(&partition) {
                // The host will never re-request this seq: let the agent
                // prune its completion journal up to the watermark. Every
                // batch member acks (only the first carried the frame);
                // FIFO retirement keeps the watermark monotone.
                agent.cache.ack(seq);
                agent.calls += 1;
                snapshot_due = self.policy.snapshot_interval > 0
                    && agent.calls.is_multiple_of(self.policy.snapshot_interval);
            }
            self.stats.rpc_calls += 1;

            // Ship pinned objects back to their data processes.
            if !self.pinned.is_empty() {
                for &obj in &inf.touched {
                    if let Err(e) = self.return_pinned(seq, inf.thread, obj) {
                        outcome = Err(e);
                        snapshot_due = false;
                        break;
                    }
                }
            }
        }
        // Periodic stateful snapshots (§A.2.4).
        if snapshot_due {
            self.take_snapshot(partition);
        }
        if tracing {
            let end = self.kernel.now_ns();
            self.tracer.span(SpanEvent {
                phase: SpanPhase::Call,
                seq,
                api: Some(inf.api),
                partition: Some(partition),
                thread: inf.thread,
                start_ns: inf.call_t0,
                end_ns: end,
                bytes: 0,
            });
            let kind = match &outcome {
                Ok(_) => CallOutcome::Completed,
                Err(CallError::Framework(_)) => CallOutcome::Errored,
                Err(CallError::AgentCrashed(_)) | Err(CallError::AgentUnavailable(_)) => {
                    CallOutcome::Faulted
                }
                Err(_) => CallOutcome::Errored,
            };
            // Filter kills surface as crashes too; the dispatch path has
            // already written the finer-grained audit record.
            self.tracer
                .finish_call(seq, partition, inf.api, end - inf.call_t0, kind);
            // Closing a batch's last member closes the enclosing `batch`
            // span: first member's hook entry to here, so it spans every
            // member `call` span. `bytes` carries the member count.
            if let Some((t0, count)) = inf.batch_span {
                self.tracer.span(SpanEvent {
                    phase: SpanPhase::Batch,
                    seq,
                    api: None,
                    partition: Some(partition),
                    thread: inf.thread,
                    start_ns: t0,
                    end_ns: end,
                    bytes: count as u64,
                });
            }
        }
        self.retired.insert(seq, (outcome, inf.complete_ns));
    }

    /// Test hook: makes the agent serving `partition` crash right after
    /// its next successful execution, before the response frame is
    /// delivered — the window where a call has completed in the agent but
    /// the host cannot know it. One-shot; used by the exactly-once
    /// regression tests.
    pub fn inject_crash_before_response(&mut self, partition: PartitionId) {
        self.crash_before_response = Some(partition);
    }

    /// Test hook: forces every snapshot restore in `partition`'s next
    /// restart to fail, exercising the audit-and-quarantine path a real
    /// allocation or write error would take. One-shot.
    pub fn inject_restore_failure(&mut self, partition: PartitionId) {
        self.fail_next_restore = Some(partition);
    }
}
