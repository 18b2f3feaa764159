//! The autonomous object-tracking drone case study (paper §5.4.1,
//! Fig. 14).
//!
//! The drone fetches frames from its camera, stores them to a staging
//! file, loads them with the vulnerable `imread`, runs the detector, and
//! computes a steering command from the detections and its `self.speed`
//! configuration variable. Two attacks: a DoS that would drop the drone
//! out of the sky, and a corruption that flips `self.speed` so the
//! drone flies *away* from the target.

use freepart::CallError;
use freepart_baselines::ApiSurface;
use freepart_frameworks::{ExploitPayload, ObjectId, Value};

/// Drone mission configuration.
#[derive(Debug, Clone, Default)]
pub struct DroneConfig {
    /// Frames to process.
    pub frames: u32,
    /// Crafted camera frame at this index, if attacking.
    pub evil_frame: Option<(u32, ExploitPayload)>,
}

/// Mission outcome.
#[derive(Debug)]
pub struct DroneResult {
    /// The `self.speed` configuration object.
    pub speed: ObjectId,
    /// Its pristine encoding (`0.3` little-endian f64).
    pub speed_original: Vec<u8>,
    /// Frames fully processed into steering commands.
    pub frames_processed: u32,
    /// Frames lost to containment events.
    pub frames_lost: u32,
    /// True when the control loop stayed alive for the whole mission —
    /// the drone never falls out of the sky.
    pub control_loop_alive: bool,
    /// Steering commands issued (speed × detection direction).
    pub commands: Vec<f64>,
}

/// Flies the mission under any isolation scheme.
pub fn run(surface: &mut dyn ApiSurface, cfg: &DroneConfig) -> DroneResult {
    if surface.kernel().camera.is_none() {
        // Logged attach: the camera seed lands in the commit log, so a
        // recorded mission replays frame-identical.
        surface
            .kernel_mut()
            .attach_camera(77, freepart_frameworks::exec::CAMERA_FRAME_LEN);
    }
    let speed_original = 0.3f64.to_le_bytes().to_vec();
    let speed = surface.host_data("self.speed", &speed_original);
    surface.finish_setup();

    let mut result = DroneResult {
        speed,
        speed_original,
        frames_processed: 0,
        frames_lost: 0,
        control_loop_alive: true,
        commands: Vec::new(),
    };

    // Every hooked call is deferred: the mission threads results through
    // without waiting, so a batching policy coalesces same-partition
    // calls (any other call retires at once); `self.speed` is
    // host-resident, so reading it flushes nothing.
    let capture = match surface.call_deferred("cv2.VideoCapture", &[Value::I64(0)]) {
        Ok(c) => c,
        Err(_) => {
            result.control_loop_alive = surface.kernel().is_running(surface.host_pid());
            return result;
        }
    };

    for frame_idx in 0..cfg.frames {
        surface.trace_mark(&format!("drone:frame {frame_idx}"));
        // 1. Grab a frame and stage it to disk (the project's pattern:
        //    camera → file → imread).
        let staged = format!("/drone/frame-{frame_idx}.simg");
        let ok = (|| -> Result<(), CallError> {
            let frame =
                surface.call_deferred("cv2.VideoCapture.read", std::slice::from_ref(&capture))?;
            surface.call_deferred("cv2.imwrite", &[Value::Str(staged.clone()), frame])?;
            Ok(())
        })();
        if ok.is_err() {
            result.frames_lost += 1;
            continue;
        }
        // An attacker on the image path swaps in a crafted file.
        if let Some((at, payload)) = &cfg.evil_frame {
            if *at == frame_idx {
                let img = freepart_frameworks::image::Image::new(16, 16, 3);
                surface.kernel_mut().fs_put(
                    &staged,
                    freepart_frameworks::fileio::encode_image(&img, Some(payload)),
                );
            }
        }
        // 2. Load + detect.
        let detection = (|| -> Result<f64, CallError> {
            let img = surface.call_deferred("cv2.imread", &[Value::Str(staged.clone())])?;
            let gray = surface.call_deferred("cv2.cvtColor", &[img])?;
            let hits = surface.call_deferred("cv2.findContours", &[gray])?;
            Ok(match hits {
                Value::Rects(r) => r.len() as f64,
                _ => 0.0,
            })
        })();
        match detection {
            Ok(direction) => {
                // 3. Control: host reads self.speed and steers. This is
                //    the part that must survive any framework exploit.
                let bytes = surface.fetch_bytes(speed).unwrap_or_default();
                let speed_now = bytes
                    .get(..8)
                    .map(|b| f64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
                    .unwrap_or(0.0);
                result.commands.push(speed_now * direction.max(0.2));
                result.frames_processed += 1;
            }
            Err(_) => {
                result.frames_lost += 1;
            }
        }
        if !surface.kernel().is_running(surface.host_pid()) {
            result.control_loop_alive = false;
            break;
        }
    }
    surface.drain_inflight();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use freepart::{Policy, Runtime};
    use freepart_attacks::payloads;
    use freepart_baselines::MonolithicRuntime;
    use freepart_frameworks::registry::standard_registry;

    #[test]
    fn benign_mission_tracks_every_frame() {
        let mut rt = MonolithicRuntime::original(standard_registry());
        let r = run(
            &mut rt,
            &DroneConfig {
                frames: 5,
                evil_frame: None,
            },
        );
        assert_eq!(r.frames_processed, 5);
        assert!(r.control_loop_alive);
        assert!(r.commands.iter().all(|c| *c > 0.0), "positive steering");
    }

    #[test]
    fn dos_attack_downs_the_original_drone() {
        let mut rt = MonolithicRuntime::original(standard_registry());
        let cfg = DroneConfig {
            frames: 5,
            evil_frame: Some((2, payloads::dos("CVE-2017-14136"))),
        };
        let r = run(&mut rt, &cfg);
        assert!(!r.control_loop_alive, "the whole drone program crashed");
        assert!(r.frames_processed < 5);
    }

    /// Every FreePart preset steers exactly like the original; the
    /// batching presets do it in fewer IPC frames.
    #[test]
    fn freepart_steers_like_the_original_under_every_policy() {
        let benign = DroneConfig {
            frames: 8,
            evil_frame: None,
        };
        let want = run(
            &mut MonolithicRuntime::original(standard_registry()),
            &benign,
        );
        let mut unbatched_ipc = None;
        for (name, policy) in crate::freepart_policies() {
            let batches = crate::batches(&policy);
            let mut rt = Runtime::install(standard_registry(), policy);
            let r = run(&mut rt, &benign);
            assert_eq!(r.frames_processed, 8, "{name}");
            assert!(r.control_loop_alive, "{name}");
            assert_eq!(r.commands, want.commands, "{name}: byte-identical steering");
            assert_eq!(rt.in_flight(), 0, "{name}: mission ends fully drained");
            // `freepart` comes first: the per-call frame count.
            let ipc = rt.kernel.metrics().ipc_messages;
            let unbatched = *unbatched_ipc.get_or_insert(ipc);
            if batches {
                assert!(
                    ipc < unbatched,
                    "{name}: batching must cut frames: {ipc} vs {unbatched}"
                );
            }
        }
    }

    /// A DoS frame under `policy` costs that one frame; the control loop
    /// keeps steering.
    fn check_survives_dos(name: &str, policy: Policy) {
        let cfg = DroneConfig {
            frames: 5,
            evil_frame: Some((2, payloads::dos("CVE-2017-14136"))),
        };
        let mut rt = Runtime::install(standard_registry(), policy);
        let r = run(&mut rt, &cfg);
        assert!(r.control_loop_alive, "{name}: control loop unaffected");
        // The poisoned frame is lost; the rest get processed after the
        // loading agent restarts.
        assert_eq!(r.frames_processed, 4, "{name}");
        assert_eq!(r.frames_lost, 1, "{name}");
        assert!(r.commands.iter().all(|c| *c > 0.0), "{name}");
    }

    /// Under `policy`, the write that flips `self.speed` lands in the
    /// loading agent's address space and faults; steering stays positive.
    fn check_speed_corruption_is_contained(name: &str, policy: Policy) {
        // The probe runs under the same policy: host_data placement is
        // identical, so the attacker aims at the same buffer address.
        let addr = {
            let mut probe = Runtime::install(standard_registry(), policy.clone());
            let r = run(
                &mut probe,
                &DroneConfig {
                    frames: 0,
                    evil_frame: None,
                },
            );
            probe.objects.meta(r.speed).unwrap().buffer.unwrap().0
        };
        let evil_speed = (-0.3f64).to_le_bytes().to_vec();
        let cfg = DroneConfig {
            frames: 4,
            evil_frame: Some((1, payloads::corrupt("CVE-2017-12606", addr.0, evil_speed))),
        };
        let mut rt = Runtime::install(standard_registry(), policy);
        let r = run(&mut rt, &cfg);
        assert!(r.control_loop_alive, "{name}");
        assert!(
            r.commands.iter().all(|c| *c > 0.0),
            "{name}: steering unaffected: {:?}",
            r.commands
        );
    }

    #[test]
    fn freepart_drone_survives_dos_and_keeps_flying() {
        for (name, policy) in crate::freepart_policies() {
            check_survives_dos(name, policy);
        }
    }

    #[test]
    fn speed_corruption_reverses_original_but_not_freepart() {
        // Original: attacker flips self.speed to -0.3.
        let mut rt = MonolithicRuntime::original(standard_registry());
        let addr = {
            let mut probe = MonolithicRuntime::original(standard_registry());
            let r = run(
                &mut probe,
                &DroneConfig {
                    frames: 0,
                    evil_frame: None,
                },
            );
            probe.objects.meta(r.speed).unwrap().buffer.unwrap().0
        };
        let evil_speed = (-0.3f64).to_le_bytes().to_vec();
        let cfg = DroneConfig {
            frames: 4,
            evil_frame: Some((1, payloads::corrupt("CVE-2017-12606", addr.0, evil_speed))),
        };
        let r = run(&mut rt, &cfg);
        assert!(
            r.commands.iter().any(|c| *c < 0.0),
            "drone steered away from the target: {:?}",
            r.commands
        );

        // FreePart: the same attack is contained under every preset.
        for (name, policy) in crate::freepart_policies() {
            check_speed_corruption_is_contained(name, policy);
        }
    }
}
