//! One delivery attempt to an agent: request framing, journal replay,
//! data-plane payload moves, agent-context execution, completion
//! journaling, and the response leg. The attempt builds the call's
//! [`InFlight`] record; the host-side half of a call (response
//! consumption, bookkeeping) lives in `callplane.rs`.

use super::callplane::InFlight;
use super::{CallError, CallHandle, Runtime, ThreadId};
use crate::partition::PartitionId;
use crate::policy::{RestartPolicy, SandboxLevel};
use crate::rpc::{Request, Response};
use crate::trace::{SpanEvent, SpanPhase};
use freepart_frameworks::api::ApiId;
use freepart_frameworks::exec::execute;
use freepart_frameworks::{ApiCtx, ObjectId, Value};
use freepart_simos::FaultKind;

impl Runtime {
    /// One delivery attempt to an agent: marshals the request, moves
    /// argument payloads, executes agent-side, journals the completion,
    /// and *sends* the response — but does not consume it. Returns the
    /// call's in-flight record. `seq` identifies the logical call and is
    /// reused verbatim on crash-retries. The host-side half lives in
    /// `retire_one`.
    pub(super) fn dispatch_execute(
        &mut self,
        thread: ThreadId,
        partition: PartitionId,
        seq: u64,
        api: ApiId,
        args: &[Value],
        deps: &[CallHandle],
    ) -> Result<InFlight, CallError> {
        let agent_pid = self
            .agents
            .get(&partition)
            .ok_or(CallError::AgentUnavailable(partition))?
            .pid;
        if !self.kernel.is_running(agent_pid) {
            if self.policy.restart == RestartPolicy::Restart {
                self.restart_agent_on(partition, thread);
            } else {
                return Err(CallError::AgentUnavailable(partition));
            }
        }
        // Re-resolve: the restart may have installed a fresh pid — or
        // degraded the partition (budget exhausted, seal failure), in
        // which case the call fails fast instead of indexing a gone
        // agent record.
        let agent_pid = self
            .agents
            .get(&partition)
            .ok_or(CallError::AgentUnavailable(partition))?
            .pid;

        // --- request frame host → agent ---
        // Batched mode keeps the encoded frame on the call's record for
        // the next batch flush (one IPC frame for N calls) instead of
        // sending it now; execution stays eager either way.
        let batched = self.knobs(partition).batch_window.is_some();
        let tracing = self.tracer.enabled();
        let marshal_t0 = if tracing { self.kernel.now_ns() } else { 0 };
        let req = Request {
            seq,
            api,
            args: args.to_vec(),
        };
        let chan = self.agents[&partition].chan;
        let req_wire = req.encode();
        let frame_len = req_wire.len() as u64;
        let req = if batched {
            req
        } else {
            self.kernel
                .ipc_send(self.host, chan, &req_wire)
                .map_err(|_| CallError::AgentUnavailable(partition))?;
            let delivered = self
                .kernel
                .ipc_recv(agent_pid, chan)
                .map_err(|_| CallError::AgentUnavailable(partition))?
                .expect("request just sent");
            Request::decode(&delivered).expect("self-encoded frame")
        };
        if tracing {
            let now = self.kernel.now_ns();
            self.tracer.span(SpanEvent {
                phase: SpanPhase::Marshal,
                seq,
                api: Some(api),
                partition: Some(partition),
                thread,
                start_ns: marshal_t0,
                end_ns: now,
                bytes: frame_len,
            });
        }

        // Exactly-once: a re-delivered request whose execution already
        // completed (the agent died in the response window) is answered
        // from the completion journal without re-running side effects.
        if let Some(cached) = self.agents[&partition].cache.replay(req.seq) {
            let cached = cached.clone();
            let agent = self.agents.get_mut(&partition).expect("agent exists");
            agent.calls += 1;
            // The host has its answer: the journal entry is acked (and
            // prunable) the moment the replay is served.
            agent.cache.ack(req.seq);
            self.stats.rpc_calls += 1;
            if tracing {
                let now = self.kernel.now_ns();
                self.tracer.note_journal_hit(seq);
                self.tracer.span(SpanEvent {
                    phase: SpanPhase::Replay,
                    seq,
                    api: Some(api),
                    partition: Some(partition),
                    thread,
                    start_ns: now,
                    end_ns: now,
                    bytes: 0,
                });
            }
            if self.policy.sandbox != SandboxLevel::None && !self.agents[&partition].sealed {
                self.seal_agent(partition);
            }
            let complete_ns = self.kernel.timeline_ns(agent_pid);
            return Ok(InFlight::settled(
                api,
                thread,
                partition,
                Ok(cached),
                complete_ns,
            ));
        }

        // From here the agent does the work: charge its timeline.
        if self.pipelining {
            self.kernel.set_time_context(Some(agent_pid));
        }

        // --- data plane: move object arguments ---
        let mut needed = Vec::new();
        for a in &req.args {
            a.collect_objects(&mut needed);
        }
        // Pooled tenant gate: a call naming another tenant's object is
        // refused *here* — before hazard merges, payload moves, or
        // execution — so no foreign byte ever reaches the shared agent
        // on the caller's behalf. O(args × log objects), independent of
        // the tenant count.
        if self.pooled() && thread != ThreadId::MAIN {
            for obj in &needed {
                if !self.tenant_may_access(thread, *obj) {
                    return Err(self.deny_cross_tenant(thread, partition, *obj));
                }
            }
        }
        // Object-table hazards: consuming an object a still-in-flight
        // call touched orders this call after *that producer only* —
        // the agent's timeline merges to the producer's completion.
        for obj in &needed {
            if let Some(&ns) = self.last_touch.get(*obj) {
                self.kernel.advance_timeline_to(agent_pid, ns);
            }
        }
        for dep in deps {
            let ns = self.ready_ns(*dep);
            self.kernel.advance_timeline_to(agent_pid, ns);
        }
        for obj in &needed {
            self.move_to_agent(thread, partition, seq, *obj, agent_pid)?;
        }

        // --- execute in the agent's process context ---
        let exec_t0 = if tracing { self.kernel.now_ns() } else { 0 };
        let watermark = self.objects.next_id_watermark();
        let mut ctx = ApiCtx::new(&mut self.kernel, &mut self.objects, agent_pid);
        let exec_result = execute(&self.reg, api, &req.args, &mut ctx);
        let exploit_log = std::mem::take(&mut ctx.exploit_log);
        drop(ctx);
        self.exploit_log.extend(exploit_log);
        if tracing {
            let now = self.kernel.now_ns();
            self.tracer.span(SpanEvent {
                phase: SpanPhase::Execute,
                seq,
                api: Some(api),
                partition: Some(partition),
                thread,
                start_ns: exec_t0,
                end_ns: now,
                bytes: 0,
            });
        }

        let result = match exec_result {
            Ok(v) => v,
            Err(e) if e.is_crash() => {
                if tracing {
                    self.audit_agent_crash(partition, seq, api, agent_pid, thread);
                }
                return Err(CallError::AgentCrashed(partition));
            }
            Err(e) => return Err(CallError::Framework(e)),
        };

        // Track objects defined during this call in the current state —
        // a range scan over ids past the watermark, not a store-wide one.
        let new_ids: Vec<ObjectId> = self.objects.ids_since(watermark).collect();
        for id in &new_ids {
            self.temporal.define(thread, *id);
        }

        // --- eager copy-back without LDC ---
        if !self.policy.lazy_data_copy {
            let mut back: Vec<ObjectId> = needed.clone();
            back.extend(result.as_obj());
            for obj in back {
                // Shm-resident payloads never copy back: the host's view
                // of the segment is the object.
                let meta = self.objects.meta(obj);
                if meta.is_some_and(|m| m.home == agent_pid && m.shm.is_none()) {
                    self.copy_home(obj, self.host, seq, thread, Some(api), Some(partition))?;
                }
            }
        }

        // The call is now complete agent-side: journal it *before* the
        // response leg, so a crash in the response window is recoverable
        // by replaying the journal instead of re-executing side effects.
        let journal_t0 = if tracing { self.kernel.now_ns() } else { 0 };
        self.agents
            .get_mut(&partition)
            .expect("agent exists")
            .cache
            .complete(req.seq, result.clone());
        if tracing {
            let now = self.kernel.now_ns();
            self.tracer.span(SpanEvent {
                phase: SpanPhase::Journal,
                seq,
                api: Some(api),
                partition: Some(partition),
                thread,
                start_ns: journal_t0,
                end_ns: now,
                bytes: 0,
            });
        }

        // One-shot injected crash in exactly that window (test hook).
        if self.crash_before_response == Some(partition) {
            self.crash_before_response = None;
            self.kernel.deliver_fault(agent_pid, FaultKind::Abort, None);
            return Err(CallError::AgentCrashed(partition));
        }

        // --- response frame agent → host (sent; consumed at retire) ---
        // In batched mode the frame waits on the call's record too: the
        // batch's single response frame is sent at flush and consumed
        // when the batch's first member retires.
        let resp_t0 = if tracing { self.kernel.now_ns() } else { 0 };
        let resp = Response {
            seq: req.seq,
            result: result.clone(),
        };
        let resp_frame = resp.encode();
        let resp_len = resp_frame.len() as u64;
        if !batched {
            self.kernel
                .ipc_send(agent_pid, chan, &resp_frame)
                .map_err(|_| CallError::AgentCrashed(partition))?;
        }

        // Seal the filter after the first completed call (§4.4.1).
        if self.policy.sandbox != SandboxLevel::None && !self.agents[&partition].sealed {
            self.seal_agent(partition);
        }

        // The agent is done with this call: everything it consumed or
        // produced becomes ready at its current timeline instant.
        let complete_ns = self.kernel.timeline_ns(agent_pid);
        let mut touched: Vec<ObjectId> = needed;
        touched.extend(result.as_obj());
        for obj in touched.iter().chain(new_ids.iter()) {
            self.last_touch.insert(*obj, complete_ns);
        }
        // The batch's hazard set must also cover objects merely *defined*
        // by a member (a host deref of one flushes the batch first).
        if batched {
            touched.extend(new_ids.iter().copied());
        }

        Ok(InFlight {
            api,
            thread,
            partition,
            outcome: Ok(result),
            response: (!batched).then_some((resp_t0, resp_len)),
            booked: false,
            touched,
            complete_ns,
            frames: batched.then_some((req_wire, resp_frame)),
            batch_span: None,
            call_t0: 0,
        })
    }
}
