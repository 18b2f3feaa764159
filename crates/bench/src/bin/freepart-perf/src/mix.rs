//! `mix_async`: one client submitting asynchronously
//! (`Runtime::call_async` + `promise`, retired by `drain_inflight`)
//! under `Policy::freepart_adaptive()`. Each session interleaves chatty
//! draw rounds with bulk frame rounds in seeded order, so batching, shm
//! promotion and the controller all have work. The call chains mirror
//! `apps::mixes`.

use crate::rng::SplitMix64;
use crate::session::{canon, spread, Client, Mark, Meter, Scale, SingleClient};
use crate::spans::Spans;
use freepart::Policy;
use freepart_baselines::ApiSurface;
use freepart_frameworks::image::Image;
use freepart_frameworks::{fileio, Value};

enum Round {
    /// An 8×8 canvas, then one rectangle/putText pair per mark.
    Chatty(Vec<Mark>),
    /// One bulk frame through the filter chain.
    Bulk,
}

/// The seeded input of one session: the rounds in order, each with its
/// staged frame.
pub struct Stream {
    rounds: Vec<(Round, String, Vec<u8>)>,
}

fn frame(rng: &mut SplitMix64, side: u32) -> Vec<u8> {
    let bytes = (0..side * side * 3).map(|_| rng.byte()).collect();
    fileio::encode_image(&Image::from_bytes(side, side, 3, bytes), None)
}

pub fn stream(seed: u64, session: u64, scale: &Scale) -> Stream {
    let mut rng = SplitMix64::for_session(seed, Stream::NAME, session);
    // Half the rounds are chatty with 8..=32 marks, half bulk with
    // 48..=96 px frames, both spread evenly over their range. The seed
    // deals them out in its own order and draws the pixels and mark
    // geometry, so every session carries the same amount of work.
    let half = scale.mix_rounds / 2;
    let mut rounds: Vec<Option<u32>> = spread(half, 8, 32)
        .map(Some)
        .chain(spread(scale.mix_rounds - half, 48, 96).map(|_| None))
        .collect();
    let mut sides: Vec<u32> = spread(scale.mix_rounds - half, 48, 96).collect();
    rng.shuffle(&mut rounds);
    rng.shuffle(&mut sides);
    let rounds = rounds
        .into_iter()
        .enumerate()
        .map(|(i, marks)| match marks {
            Some(n) => {
                let marks = (0..n).map(|_| Mark::seeded(&mut rng, 7, 4)).collect();
                (
                    Round::Chatty(marks),
                    format!("/mix/chat-{i}.simg"),
                    frame(&mut rng, 8),
                )
            }
            None => {
                let side = sides.pop().expect("one side per bulk round");
                (
                    Round::Bulk,
                    format!("/mix/bulk-{i}.simg"),
                    frame(&mut rng, side),
                )
            }
        })
        .collect();
    Stream { rounds }
}

impl SingleClient for Stream {
    type Staged = ();
    const NAME: &'static str = "mix_async";
    const ASYNC: bool = true;

    fn policy() -> Policy {
        Policy::freepart_adaptive()
    }

    fn stage(&self, s: &mut dyn ApiSurface) {
        for (_, path, bytes) in &self.rounds {
            s.kernel_mut().fs.put(path, bytes.clone());
        }
    }

    /// Every call result.
    fn serve(&self, c: &mut Client, m: &mut Meter, spans: &mut Spans, _: &()) -> Vec<Value> {
        let mut out = Vec::new();
        let mut call =
            |c: &mut Client, m: &mut Meter, spans: &mut Spans, name: &str, args: &[Value]| {
                let v = c.call(m, spans, name, args);
                out.push(v.as_ref().map_or(Value::Unit, canon));
                v
            };
        'rounds: for (round, path, _) in &self.rounds {
            let chain: &[&str] = match round {
                Round::Chatty(_) => &["cv2.imread", "cv2.cvtColor", "cv2.threshold"],
                Round::Bulk => &[
                    "cv2.imread",
                    "cv2.cvtColor",
                    "cv2.GaussianBlur",
                    "cv2.threshold",
                ],
            };
            let mut v = Value::Str(path.clone());
            for api in chain {
                let Some(next) = call(c, m, spans, api, &[v]) else {
                    continue 'rounds;
                };
                v = next;
            }
            call(c, m, spans, "cv2.findContours", std::slice::from_ref(&v));
            let Round::Chatty(marks) = round else {
                continue;
            };
            // Draw on a Visualizing-state canvas, as `apps::mixes` does.
            let Some(canvas) = call(c, m, spans, "cv2.merge", std::slice::from_ref(&v)) else {
                continue;
            };
            for mark in marks {
                for (api, args) in mark.calls(&canvas) {
                    call(c, m, spans, api, &args);
                }
            }
        }
        out
    }
}
