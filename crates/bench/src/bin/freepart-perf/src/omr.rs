//! `omr_session`: the paper's motivating workload. One client grades a
//! seeded batch of answer sheets with synchronous hooked calls under
//! `Policy::freepart()`. The call chain mirrors `apps::omr`.

use crate::rng::SplitMix64;
use crate::session::{canon, spread, Client, Mark, Meter, Scale, SingleClient};
use crate::spans::Spans;
use freepart::Policy;
use freepart_baselines::ApiSurface;
use freepart_frameworks::image::Image;
use freepart_frameworks::{fileio, ObjectId, Value};

/// Annotation boxes per sheet (the paper's hot rectangle/putText loop).
const BOXES: u32 = 6;
/// Host-side template reads per sheet (one per question block).
const TEMPLATE_READS: u32 = 8;
/// The per-sheet recognition chain ahead of `cv2.merge`.
const CHAIN: [&str; 6] = [
    "cv2.imread",
    "cv2.cvtColor",
    "cv2.GaussianBlur",
    "cv2.threshold",
    "cv2.warpPerspective",
    "cv2.morphologyEx",
];

/// One seeded answer sheet: its encoded image and its annotations.
struct Sheet {
    path: String,
    bytes: Vec<u8>,
    marks: Vec<Mark>,
}

/// The seeded input of one session.
pub struct Stream {
    sheets: Vec<Sheet>,
}

pub fn stream(seed: u64, session: u64, scale: &Scale) -> Stream {
    let mut rng = SplitMix64::for_session(seed, Stream::NAME, session);
    // Sheet sizes spread evenly over 44..=52 px in each dimension, dealt
    // out in seeded order.
    let mut widths: Vec<u32> = spread(scale.omr_samples, 44, 52).collect();
    let mut heights = widths.clone();
    rng.shuffle(&mut widths);
    rng.shuffle(&mut heights);
    let sheets = (0..scale.omr_samples)
        .zip(widths.into_iter().zip(heights))
        .map(|(i, (w, h))| {
            let mut img = Image::new(w, h, 3);
            // Four filled answer marks at seeded positions.
            for _ in 0..4 {
                let (x0, y0) = (rng.range(2, w - 6), rng.range(2, h - 6));
                for y in y0..y0 + 4 {
                    for x in x0..x0 + 4 {
                        for c in 0..3 {
                            img.put(x, y, c, 250);
                        }
                    }
                }
            }
            Sheet {
                path: format!("/omr/submission-{i}.simg"),
                bytes: fileio::encode_image(&img, None),
                marks: (0..BOXES)
                    .map(|_| Mark::seeded(&mut rng, w.min(h), 12))
                    .collect(),
            }
        })
        .collect();
    Stream { sheets }
}

impl SingleClient for Stream {
    /// The critical `template` object.
    type Staged = ObjectId;
    const NAME: &'static str = "omr_session";
    const ASYNC: bool = false;

    fn policy() -> Policy {
        Policy::freepart()
    }

    fn stage(&self, s: &mut dyn ApiSurface) -> ObjectId {
        let template_bytes: Vec<u8> = (0..16_384u32).map(|i| (i * 3 % 251) as u8).collect();
        let template = s.host_data("template", &template_bytes);
        s.host_data("answer_key", b"ABCDABCDABCDABCD");
        s.finish_setup();
        let fs = &mut s.kernel_mut().fs;
        fs.put("/omr/template.json", b"{\"qblocks\": 16}".to_vec());
        fs.put(
            "/omr/roster.csv",
            fileio::encode_csv(&[vec![1.0], vec![2.0]]),
        );
        for sheet in &self.sheets {
            fs.put(&sheet.path, sheet.bytes.clone());
        }
        template
    }

    /// Every call result, each sheet's score, and the scores file.
    fn serve(
        &self,
        c: &mut Client,
        m: &mut Meter,
        spans: &mut Spans,
        template: &ObjectId,
    ) -> Vec<Value> {
        let mut out = Vec::new();
        let mut call =
            |c: &mut Client, m: &mut Meter, spans: &mut Spans, name: &str, args: &[Value]| {
                let v = c.call(m, spans, name, args);
                out.push(v.as_ref().map_or(Value::Unit, canon));
                v
            };
        call(
            c,
            m,
            spans,
            "json.load",
            &[Value::from("/omr/template.json")],
        );
        let roster = call(
            c,
            m,
            spans,
            "pd.read_csv",
            &[Value::from("/omr/roster.csv")],
        );
        let mut scores = Vec::new();
        'sheets: for sheet in &self.sheets {
            let mut v = Value::Str(sheet.path.clone());
            for api in CHAIN {
                let Some(next) = call(c, m, spans, api, &[v]) else {
                    continue 'sheets;
                };
                v = next;
            }
            let Some(canvas) = call(c, m, spans, "cv2.merge", std::slice::from_ref(&v)) else {
                continue;
            };
            let found = match call(c, m, spans, "cv2.findContours", std::slice::from_ref(&v)) {
                Some(Value::Rects(r)) => r.len() as f64,
                _ => 0.0,
            };
            // Host grading logic: each question block reads the template.
            let mut acc = 0u64;
            for _ in 0..TEMPLATE_READS {
                let t0 = spans.now();
                let t = c.surface().fetch_bytes(*template).unwrap_or_default();
                spans.leaf("fetch_bytes", m.req, t0, spans.now());
                acc += u64::from(t.first().copied().unwrap_or(0));
            }
            scores.push(Value::F64(
                found * (acc as f64 / f64::from(TEMPLATE_READS) + 1.0) / 16.0,
            ));
            for mark in &sheet.marks {
                for (api, args) in mark.calls(&canvas) {
                    call(c, m, spans, api, &args);
                }
            }
            call(c, m, spans, "cv2.imshow", &[Value::from("omr"), canvas]);
            call(c, m, spans, "cv2.pollKey", &[]);
        }
        if let Some(r) = roster {
            call(
                c,
                m,
                spans,
                "pd.DataFrame.to_csv",
                &[Value::from("/omr/scores.csv"), r],
            );
        }
        out.extend(scores);
        let csv = c.kernel().fs.get("/omr/scores.csv").cloned();
        out.push(csv.map_or(Value::Unit, Value::Bytes));
        out
    }
}
