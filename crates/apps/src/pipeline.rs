//! Pipelined drone driver: the asynchronous hooked-call interface on
//! per-process virtual timelines.
//!
//! The synchronous drone mission ([`crate::drone::run`]) serializes
//! camera → store → load → detect per frame even though the four stages
//! run in *different agent processes*. This driver splits the mission
//! across three application threads — **L** (camera read + `imread`,
//! data loading), **S** (`imwrite`, storing), **P** (`cvtColor` +
//! `findContours`, processing) — and submits each stage with
//! [`Runtime::call_async_with`], so frame `i+1`'s loading overlaps frame
//! `i`'s detection. Dependencies are explicit where the object table
//! cannot see them (`imread` reads the file `imwrite` staged) and
//! implicit everywhere else (object-table hazards: the capture handle
//! serializes camera reads; the image object orders `cvtColor` after its
//! `imread`).
//!
//! Steering is done with a one-frame lag: frame `i`'s command is issued
//! while frame `i+1` is in flight, off [`Runtime::wait`], which merges
//! the host timeline past the detection's completion. Results are
//! byte-identical to the synchronous mission — calls still execute in
//! submission order — only the virtual-time accounting overlaps, so the
//! makespan drops to the bottleneck stage instead of the stage sum.

use crate::drone::{DroneConfig, DroneResult};
use freepart::{CallError, CallHandle, Runtime};
use freepart_frameworks::{ObjectId, Value};

/// Issues frame `i`'s steering command from its detection handle.
fn steer(rt: &mut Runtime, speed: ObjectId, h: CallHandle, result: &mut DroneResult) {
    match rt.wait(h) {
        Ok(hits) => {
            let direction = match hits {
                Value::Rects(r) => r.len() as f64,
                _ => 0.0,
            };
            let bytes = rt.fetch_bytes(speed).unwrap_or_default();
            let speed_now = bytes
                .get(..8)
                .map(|b| f64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
                .unwrap_or(0.0);
            result.commands.push(speed_now * direction.max(0.2));
            result.frames_processed += 1;
        }
        Err(_) => result.frames_lost += 1,
    }
}

/// Flies the drone mission with pipelined asynchronous calls. Same
/// inputs, same commands, same attack outcomes as [`crate::drone::run`]
/// under FreePart — read the pipelined makespan off
/// [`freepart_simos::KernelState::makespan_ns`].
pub fn run_drone_pipelined(rt: &mut Runtime, cfg: &DroneConfig) -> DroneResult {
    if rt.kernel.camera.is_none() {
        // Logged attach, as in the sync mission: a recorded run replays.
        rt.kernel
            .attach_camera(77, freepart_frameworks::exec::CAMERA_FRAME_LEN);
    }
    let speed_original = 0.3f64.to_le_bytes().to_vec();
    let speed = rt.host_data("self.speed", &speed_original);

    // One thread per pipeline stage, each with its own agent set and
    // framework-state machine, so each thread takes exactly one state
    // transition for the whole mission — no barrier drains in steady
    // state.
    let loader = freepart::ThreadId::MAIN;
    let storer = rt.spawn_thread();
    let procer = rt.spawn_thread();
    rt.enable_pipelining();

    let mut result = DroneResult {
        speed,
        speed_original,
        frames_processed: 0,
        frames_lost: 0,
        control_loop_alive: true,
        commands: Vec::new(),
    };

    let capture = match rt.call_on(loader, "cv2.VideoCapture", &[Value::I64(0)]) {
        Ok(c) => c,
        Err(_) => {
            result.control_loop_alive = rt.kernel.is_running(rt.host_pid());
            return result;
        }
    };

    // Detection handle of the previous frame: steered with a one-frame
    // lag so the next frame's stages submit first.
    let mut pending: Option<CallHandle> = None;

    for frame_idx in 0..cfg.frames {
        rt.trace_mark(&format!("drone:frame {frame_idx}"));
        let staged = format!("/drone/frame-{frame_idx}.simg");
        // 1. Grab a frame (L) and stage it to disk (S). The store
        //    depends on the read; the capture-object hazard serializes
        //    successive camera reads.
        let write_h = (|| -> Result<CallHandle, CallError> {
            let h_read = rt.call_async_on(
                loader,
                "cv2.VideoCapture.read",
                std::slice::from_ref(&capture),
            )?;
            let frame = rt.promise(h_read)?;
            let h_write = rt.call_async_with(
                storer,
                "cv2.imwrite",
                &[Value::Str(staged.clone()), frame],
                &[h_read],
            )?;
            rt.promise(h_write)?;
            Ok(h_write)
        })();
        let write_h = match write_h {
            Ok(h) => h,
            Err(_) => {
                result.frames_lost += 1;
                continue;
            }
        };
        // An attacker on the image path swaps in a crafted file.
        if let Some((at, payload)) = &cfg.evil_frame {
            if *at == frame_idx {
                let img = freepart_frameworks::image::Image::new(16, 16, 3);
                rt.kernel.fs_put(
                    &staged,
                    freepart_frameworks::fileio::encode_image(&img, Some(payload)),
                );
            }
        }
        // 2. Load (L) + detect (P). The load's file dependency on the
        //    store is invisible to the object table — declared
        //    explicitly via `deps`.
        let detect_h = (|| -> Result<CallHandle, CallError> {
            let h_img = rt.call_async_with(
                loader,
                "cv2.imread",
                &[Value::Str(staged.clone())],
                &[write_h],
            )?;
            let img = rt.promise(h_img)?;
            let h_gray = rt.call_async_on(procer, "cv2.cvtColor", &[img])?;
            let gray = rt.promise(h_gray)?;
            let h_hits = rt.call_async_on(procer, "cv2.findContours", &[gray])?;
            rt.promise(h_hits)?;
            Ok(h_hits)
        })();
        // 3. Control with a one-frame lag: steer frame i-1 while frame
        //    i's stages are in flight.
        if let Some(h) = pending.take() {
            steer(rt, speed, h, &mut result);
        }
        match detect_h {
            Ok(h) => pending = Some(h),
            Err(_) => result.frames_lost += 1,
        }
        if !rt.kernel.is_running(rt.host_pid()) {
            result.control_loop_alive = false;
            break;
        }
    }
    if let Some(h) = pending.take() {
        steer(rt, speed, h, &mut result);
    }
    rt.drain_inflight();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drone;
    use freepart::{Policy, Runtime};
    use freepart_attacks::payloads;
    use freepart_frameworks::registry::standard_registry;

    fn benign(frames: u32) -> DroneConfig {
        DroneConfig {
            frames,
            evil_frame: None,
        }
    }

    /// The pipelined mission runs on both payload transports: lazy
    /// copies and the shared-memory segment path.
    fn transports() -> [(&'static str, Policy); 2] {
        [
            ("freepart", Policy::freepart()),
            ("freepart_shm", Policy::freepart_shm()),
        ]
    }

    fn dos() -> DroneConfig {
        DroneConfig {
            frames: 5,
            evil_frame: Some((2, payloads::dos("CVE-2017-14136"))),
        }
    }

    /// The pipelined mission under `policy` steers exactly like the
    /// sequential one, in less virtual time.
    fn check_same_commands_as_sync(name: &str, policy: Policy) {
        let mut sync_rt = Runtime::install(standard_registry(), Policy::freepart());
        let sync = drone::run(&mut sync_rt, &benign(8));
        let sync_ns = sync_rt.kernel.clock().now_ns();

        let shm = policy.shm_threshold.is_some();
        let mut rt = Runtime::install(standard_registry(), policy);
        let piped = run_drone_pipelined(&mut rt, &benign(8));

        assert_eq!(piped.frames_processed, 8, "{name}");
        assert!(piped.control_loop_alive, "{name}");
        assert_eq!(
            piped.commands, sync.commands,
            "{name}: byte-identical steering"
        );
        assert_eq!(rt.in_flight(), 0, "{name}: mission ends fully drained");
        assert!(
            rt.kernel.makespan_ns() < sync_ns,
            "{name}: pipelined makespan {} should beat sequential {}",
            rt.kernel.makespan_ns(),
            sync_ns
        );
        // Camera frames clear the size threshold, so the mission really
        // rode the segment path.
        if shm {
            assert!(rt.stats().shm_grants > 0, "{name}: shm transport engaged");
        }
    }

    fn check_speed_corruption_is_contained(name: &str, policy: Policy) {
        // Same probe as the sync drone test, under the same policy:
        // host_data placement is identical (the 8-byte speed variable
        // stays buffer-backed below the shm threshold), so the attacker
        // aims at the same buffer address.
        let addr = {
            let mut probe = Runtime::install(standard_registry(), policy.clone());
            let r = drone::run(&mut probe, &benign(0));
            probe.objects.meta(r.speed).unwrap().buffer.unwrap().0
        };
        let evil_speed = (-0.3f64).to_le_bytes().to_vec();
        let mut rt = Runtime::install(standard_registry(), policy);
        let cfg = DroneConfig {
            frames: 4,
            evil_frame: Some((1, payloads::corrupt("CVE-2017-12606", addr.0, evil_speed))),
        };
        let r = run_drone_pipelined(&mut rt, &cfg);
        assert!(r.control_loop_alive, "{name}");
        assert!(
            r.commands.iter().all(|c| *c > 0.0),
            "{name}: steering unaffected: {:?}",
            r.commands
        );
    }

    fn check_survives_dos(name: &str, policy: Policy) {
        let mut rt = Runtime::install(standard_registry(), policy);
        let r = run_drone_pipelined(&mut rt, &dos());
        assert!(r.control_loop_alive, "{name}: control loop unaffected");
        assert_eq!(r.frames_processed, 4, "{name}");
        assert_eq!(r.frames_lost, 1, "{name}");
        assert!(r.commands.iter().all(|c| *c > 0.0), "{name}");
    }

    #[test]
    fn pipelined_mission_issues_the_same_commands_as_sync() {
        for (name, policy) in transports() {
            check_same_commands_as_sync(name, policy);
        }
    }

    #[test]
    fn speed_corruption_verdict_is_unchanged_under_pipelining() {
        for (name, policy) in transports() {
            check_speed_corruption_is_contained(name, policy);
        }
    }

    #[test]
    fn dos_attack_verdict_is_unchanged_under_pipelining() {
        for (name, policy) in transports() {
            check_survives_dos(name, policy);
        }
    }

    /// A recorded pipelined DoS run replays from its commit log alone:
    /// the camera attach and the crafted frame both go through logged
    /// kernel entry points.
    #[test]
    fn recorded_dos_run_replays_digest_clean() {
        let mut rt = Runtime::install(standard_registry(), Policy::freepart_recorded());
        let r = run_drone_pipelined(&mut rt, &dos());
        assert_eq!(r.frames_lost, 1);
        let live = rt.kernel.state_digest();
        let log = rt.kernel.take_commit_log().expect("recording was on");
        let (rebuilt, report) = freepart_simos::replay::replay(&log);
        assert!(
            report.is_clean(),
            "{} divergences, first: {:?}",
            report.divergences.len(),
            report.divergences.first()
        );
        assert_eq!(rebuilt.state_digest(), live, "same final digest");
    }
}
