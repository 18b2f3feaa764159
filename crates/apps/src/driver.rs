//! Generic application pipeline driver.
//!
//! Executes a [`ResolvedApp`]'s call schedule against any
//! [`ApiSurface`], round by round, in the canonical pipeline order
//! (loading → processing → visualizing → storing) the paper's Study 1
//! observed in all 56 surveyed programs. The driver threads real data
//! objects between calls (images flow through filters, tensors through
//! networks), performs host-side "application logic" compute between
//! rounds, and occasionally dereferences results on the host — the
//! access pattern whose copy behaviour Table 12 measures.

use crate::spec::ResolvedApp;
use freepart::CallError;
use freepart_baselines::ApiSurface;
use freepart_frameworks::api::{ApiId, ApiKind, ApiRegistry, ApiType, WindowOp};
use freepart_frameworks::exec::CAMERA_FRAME_LEN;
use freepart_frameworks::image::Image;
use freepart_frameworks::tensor::Tensor;
use freepart_frameworks::{fileio, ObjectKind, Value};
use freepart_simos::device::Camera;

/// Driver knobs.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Host-application compute charged per round (work units) — the
    /// app's own logic between framework calls.
    pub host_work_per_round: u64,
    /// Side of seeded workload images.
    pub image_side: u32,
    /// Length of seeded workload tensors.
    pub tensor_len: u32,
    /// Dereference critical data on the host every N rounds
    /// (0 = never) — the non-lazy-copy source of Table 12.
    pub fetch_every: u32,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            host_work_per_round: 50_000,
            image_side: 32,
            tensor_len: 8_192,
            fetch_every: 4,
        }
    }
}

/// What one application run did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Pipeline rounds executed.
    pub rounds: u32,
    /// Framework-API calls completed.
    pub calls: u64,
    /// Host dereferences of results/critical data.
    pub host_fetches: u64,
    /// The critical-data object, for post-run attack judgment.
    pub critical: Option<freepart_frameworks::ObjectId>,
}

/// Threaded pipeline state: the objects flowing between calls.
#[derive(Debug, Default)]
struct Flow {
    img: Option<Value>,
    tensor: Option<Value>,
    model: Option<Value>,
    clf: Option<Value>,
    capture: Option<Value>,
    table: Option<Value>,
    figure: Option<Value>,
}

/// Per-API file cursors for seeded inputs.
struct Seeds {
    prefix: String,
    counter: u64,
}

impl Seeds {
    fn next_path(&mut self, tag: &str) -> String {
        self.counter += 1;
        format!("{}/{tag}-{}.dat", self.prefix, self.counter)
    }
}

fn seeded_image(side: u32, salt: u64) -> Image {
    let mut img = Image::new(side, side, 3);
    for y in 0..side {
        for x in 0..side {
            for c in 0..3 {
                let v = (x as u64 * 31 + y as u64 * 17 + c as u64 * 7 + salt * 13) % 256;
                img.put(x, y, c, v as u8);
            }
        }
    }
    img
}

/// Runs an application to completion under `surface`.
///
/// # Errors
///
/// Propagates the first [`CallError`] — the driver constructs valid
/// arguments, so failures indicate containment events (crashes) or
/// harness bugs, never expected behaviour.
pub fn run_app(
    app: &ResolvedApp,
    reg: &ApiRegistry,
    surface: &mut dyn ApiSurface,
    opts: &RunOptions,
) -> Result<RunReport, CallError> {
    let mut report = RunReport::default();
    let mut flow = Flow::default();
    let mut seeds = Seeds {
        prefix: format!("/apps/{}", app.spec.id),
        counter: 0,
    };

    // ---- setup: devices, critical data, protection ----
    let needs_camera = app.spec.uses_camera
        || app
            .schedules
            .values()
            .flat_map(|s| &s.calls)
            .any(|(id, _)| {
                matches!(
                    reg.spec(*id).kind,
                    ApiKind::VideoCaptureNew | ApiKind::VideoCaptureRead
                )
            });
    if needs_camera && surface.kernel().camera.is_none() {
        surface.kernel_mut().camera = Some(Camera::new(app.spec.id as u64, CAMERA_FRAME_LEN));
    }
    let critical = surface.host_data(
        &format!("critical:{}", app.spec.name),
        format!("config-and-results-of-{}", app.spec.name).as_bytes(),
    );
    report.critical = Some(critical);
    surface.finish_setup();

    // ---- build the round-by-round quota table ----
    let loading = &app.schedules[&ApiType::DataLoading];
    let rounds = {
        let unique = loading.unique().max(1) as u32;
        loading.total().div_ceil(unique)
    }
    .max(1);
    let order = [
        ApiType::DataLoading,
        ApiType::DataProcessing,
        ApiType::Visualizing,
        ApiType::Storing,
    ];

    for round in 0..rounds {
        for t in order {
            let sched = &app.schedules[&t];
            for (api, total) in sched.calls.clone() {
                // Bresenham distribution of `total` calls over `rounds`.
                let before = (total as u64 * round as u64 / rounds as u64) as u32;
                let after = (total as u64 * (round as u64 + 1) / rounds as u64) as u32;
                for _ in before..after {
                    one_call(api, reg, surface, opts, &mut flow, &mut seeds)?;
                    report.calls += 1;
                }
            }
        }
        // Host application logic between rounds.
        let host = surface.host_pid();
        surface
            .kernel_mut()
            .charge_compute(host, opts.host_work_per_round);
        // Periodic host dereference of results + critical data.
        if opts.fetch_every > 0 && round % opts.fetch_every == opts.fetch_every - 1 {
            if surface.fetch_bytes(critical).is_ok() {
                report.host_fetches += 1;
            }
            if let Some(Value::Obj(id)) = flow.img {
                if surface.fetch_bytes(id).is_ok() {
                    report.host_fetches += 1;
                }
            }
        }
        report.rounds += 1;
    }
    Ok(report)
}

/// Ensures an image object exists in the flow, creating one directly if
/// no loading API has produced one yet.
fn ensure_img(surface: &mut dyn ApiSurface, opts: &RunOptions, flow: &mut Flow) -> Value {
    if let Some(v) = &flow.img {
        return v.clone();
    }
    let img = seeded_image(opts.image_side, 999);
    let id = surface.create_object(
        ObjectKind::Mat {
            w: img.w,
            h: img.h,
            ch: img.ch,
        },
        "driver:img",
        &img.data,
    );
    let v = Value::Obj(id);
    flow.img = Some(v.clone());
    v
}

fn ensure_tensor(surface: &mut dyn ApiSurface, opts: &RunOptions, flow: &mut Flow) -> Value {
    if let Some(v) = &flow.tensor {
        return v.clone();
    }
    let t = Tensor::generate(&[opts.tensor_len], |i| (i as f32 * 0.2).sin());
    let id = surface.create_object(
        ObjectKind::Tensor {
            shape: t.shape.clone(),
        },
        "driver:tensor",
        &t.to_bytes(),
    );
    let v = Value::Obj(id);
    flow.tensor = Some(v.clone());
    v
}

fn ensure_model(surface: &mut dyn ApiSurface, opts: &RunOptions, flow: &mut Flow) -> Value {
    if let Some(v) = &flow.model {
        return v.clone();
    }
    let t = Tensor::generate(&[opts.tensor_len], |i| (i as f32 * 0.1).cos());
    let id = surface.create_object(
        ObjectKind::Tensor {
            shape: t.shape.clone(),
        },
        "driver:model",
        &t.to_bytes(),
    );
    let v = Value::Obj(id);
    flow.model = Some(v.clone());
    v
}

fn ensure_blob(surface: &mut dyn ApiSurface, flow: &mut Flow) -> Value {
    if let Some(v) = &flow.figure {
        return v.clone();
    }
    let id = surface.create_object(ObjectKind::Blob, "driver:blob", &[3u8; 64]);
    let v = Value::Obj(id);
    flow.figure = Some(v.clone());
    v
}

/// Executes one scheduled API call, threading the flow state.
fn one_call(
    api: ApiId,
    reg: &ApiRegistry,
    surface: &mut dyn ApiSurface,
    opts: &RunOptions,
    flow: &mut Flow,
    seeds: &mut Seeds,
) -> Result<(), CallError> {
    let spec = reg.spec(api);
    let name = spec.name.clone();
    use ApiKind as K;
    let result = match spec.kind {
        K::ImRead => {
            let path = seeds.next_path("img");
            let img = seeded_image(opts.image_side, seeds.counter);
            surface
                .kernel_mut()
                .fs
                .put(&path, fileio::encode_image(&img, None));
            surface.call(&name, &[Value::Str(path)])?
        }
        K::ClassifierLoad => {
            let path = seeds.next_path("cascade");
            surface.kernel_mut().fs.put(&path, vec![7u8; 128]);
            surface.call(&name, &[Value::Str(path)])?
        }
        K::TensorLoad => {
            let path = seeds.next_path("model");
            let t = Tensor::generate(&[opts.tensor_len], |i| i as f32 * 0.01);
            surface
                .kernel_mut()
                .fs
                .put(&path, fileio::encode_tensor(&t, None));
            surface.call(&name, &[Value::Str(path)])?
        }
        K::ReadCsv => {
            let path = seeds.next_path("table");
            surface
                .kernel_mut()
                .fs
                .put(&path, fileio::encode_csv(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
            surface.call(&name, &[Value::Str(path)])?
        }
        K::JsonLoad => {
            let path = seeds.next_path("json");
            surface.kernel_mut().fs.put(&path, b"{\"cfg\": 1}".to_vec());
            surface.call(&name, &[Value::Str(path)])?
        }
        K::DatasetLoad => {
            let dir = format!("{}/ds-{}/", seeds.prefix, seeds.counter);
            seeds.counter += 1;
            for i in 0..2 {
                let img = seeded_image(8, i);
                surface
                    .kernel_mut()
                    .fs
                    .put(&format!("{dir}{i}.simg"), fileio::encode_image(&img, None));
            }
            surface.call(&name, &[Value::Str(dir)])?
        }
        K::DownloadViaFile => {
            let url = format!("http://weights/{}", seeds.counter);
            seeds.counter += 1;
            surface.call(&name, &[Value::Str(url)])?
        }
        K::VideoCaptureNew => surface.call(&name, &[Value::I64(0)])?,
        K::VideoCaptureRead => {
            let cap = match &flow.capture {
                Some(c) => c.clone(),
                None => {
                    // A capture handle must exist; open one off-schedule
                    // only if the app never scheduled the constructor.
                    let c = surface.call("cv2.VideoCapture", &[Value::I64(0)])?;
                    flow.capture = Some(c.clone());
                    c
                }
            };
            surface.call(&name, &[cap])?
        }
        K::Filter(_) | K::FindContours | K::Reduce => {
            let img = ensure_img(surface, opts, flow);
            surface.call(&name, &[img])?
        }
        K::Binary(_) => {
            let img = ensure_img(surface, opts, flow);
            surface.call(&name, &[img.clone(), img])?
        }
        K::Resize => {
            let img = ensure_img(surface, opts, flow);
            surface.call(
                &name,
                &[
                    img,
                    Value::I64(opts.image_side as i64),
                    Value::I64(opts.image_side as i64),
                ],
            )?
        }
        K::Crop => {
            let img = ensure_img(surface, opts, flow);
            surface.call(
                &name,
                &[
                    img,
                    Value::I64(0),
                    Value::I64(0),
                    Value::I64(opts.image_side as i64),
                    Value::I64(opts.image_side as i64),
                ],
            )?
        }
        K::DrawRect => {
            let img = ensure_img(surface, opts, flow);
            surface.call(
                &name,
                &[
                    img,
                    Value::I64(2),
                    Value::I64(2),
                    Value::I64(9),
                    Value::I64(9),
                ],
            )?
        }
        K::PutText => {
            let img = ensure_img(surface, opts, flow);
            surface.call(
                &name,
                &[img, Value::from("ok"), Value::I64(1), Value::I64(1)],
            )?
        }
        K::DetectMultiScale => {
            let clf = match &flow.clf {
                Some(c) => c.clone(),
                None => {
                    let id = surface.create_object(
                        ObjectKind::Classifier { stages: 8 },
                        "driver:clf",
                        &[2u8; 64],
                    );
                    let v = Value::Obj(id);
                    flow.clf = Some(v.clone());
                    v
                }
            };
            let img = ensure_img(surface, opts, flow);
            surface.call(&name, &[clf, img])?
        }
        K::TensorUnary(_)
        | K::TensorConv
        | K::TensorPoolMax
        | K::TensorPoolAvg
        | K::TensorMatmul => {
            let t = ensure_tensor(surface, opts, flow);
            surface.call(&name, &[t])?
        }
        K::TensorNew => surface.call(&name, &[Value::I64(opts.tensor_len as i64)])?,
        K::Forward => {
            let m = ensure_model(surface, opts, flow);
            let t = ensure_tensor(surface, opts, flow);
            surface.call(&name, &[m, t])?
        }
        K::TrainStep => {
            let m = ensure_model(surface, opts, flow);
            surface.call(&name, &[m.clone(), m, Value::F64(1.0)])?
        }
        K::ImShow => {
            let img = ensure_img(surface, opts, flow);
            surface.call(&name, &[Value::from("preview"), img])?
        }
        K::PlotShow => {
            let b = ensure_blob(surface, flow);
            surface.call(&name, &[b])?
        }
        K::PlotAdd => surface.call(
            &name,
            &[Value::List(vec![
                Value::F64(1.0),
                Value::F64(2.0),
                Value::F64(3.0),
            ])],
        )?,
        K::Window(WindowOp::Named) => surface.call(&name, &[Value::from("preview")])?,
        K::Window(_) | K::GuiStateRead => surface.call(&name, &[])?,
        K::ImWrite | K::VideoWriterWrite => {
            let img = ensure_img(surface, opts, flow);
            let path = seeds.next_path("out");
            surface.call(&name, &[Value::Str(path), img])?
        }
        K::TensorSave => {
            let t = ensure_tensor(surface, opts, flow);
            let path = seeds.next_path("weights");
            surface.call(&name, &[Value::Str(path), t])?
        }
        K::WriteCsv | K::JsonDump | K::PlotSavefig => {
            let obj = match spec.kind {
                K::WriteCsv => flow
                    .table
                    .clone()
                    .unwrap_or_else(|| ensure_blob(surface, flow)),
                _ => ensure_blob(surface, flow),
            };
            let path = seeds.next_path("report");
            surface.call(&name, &[Value::Str(path), obj])?
        }
        K::SummaryWrite => {
            let path = format!("{}/log.txt", seeds.prefix);
            surface.call(&name, &[Value::Str(path), Value::from("step ok")])?
        }
        K::AllocUtil => surface.call(&name, &[Value::I64(128)])?,
    };
    // Thread results back into the flow.
    if let Value::Obj(id) = result {
        match surface.objects().meta(id).map(|m| m.kind.clone()) {
            Some(ObjectKind::Mat { .. }) => flow.img = Some(result),
            Some(ObjectKind::Tensor { .. }) | Some(ObjectKind::Model { .. }) => {
                flow.tensor = Some(result)
            }
            Some(ObjectKind::Capture { .. }) => flow.capture = Some(result),
            Some(ObjectKind::Classifier { .. }) => flow.clf = Some(result),
            Some(ObjectKind::Table { .. }) => flow.table = Some(result),
            Some(ObjectKind::Blob) => flow.figure = Some(result),
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{by_id, resolve, TABLE6};
    use freepart::{Policy, Runtime};
    use freepart_baselines::MonolithicRuntime;
    use freepart_frameworks::registry::standard_registry;
    use std::collections::BTreeMap;

    #[test]
    fn omr_runs_with_exact_table6_counts_under_freepart() {
        let reg = standard_registry();
        let app = resolve(by_id(8).unwrap(), &reg);
        let mut rt = Runtime::install(standard_registry(), Policy::freepart());
        rt.enable_tracing();
        let report = run_app(&app, &reg, &mut rt, &RunOptions::default()).unwrap();
        // Count completed calls by type from the tracer's registry.
        let mut by_type: BTreeMap<ApiType, (std::collections::BTreeSet<ApiId>, u32)> =
            BTreeMap::new();
        for (&(_, api), stats) in rt.tracer().stats().iter().filter(|(_, s)| s.calls > 0) {
            let t = reg.spec(api).declared_type;
            let e = by_type.entry(t).or_default();
            e.0.insert(api);
            e.1 += stats.calls as u32;
        }
        let spec = app.spec;
        assert_eq!(by_type[&ApiType::DataLoading].1, spec.loading.1);
        assert_eq!(by_type[&ApiType::DataProcessing].1, spec.processing.1);
        assert_eq!(by_type[&ApiType::Visualizing].1, spec.visualizing.1);
        assert_eq!(by_type[&ApiType::Storing].1, spec.storing.1);
        assert_eq!(
            by_type[&ApiType::DataProcessing].0.len(),
            spec.processing.0 as usize
        );
        assert!(report.calls > 0 && report.rounds > 0);
    }

    #[test]
    fn all_23_apps_run_to_completion_monolithic() {
        let reg = standard_registry();
        for spec in TABLE6 {
            let app = resolve(spec, &reg);
            let mut rt = MonolithicRuntime::original(standard_registry());
            let expected: u64 = app.schedules.values().map(|s| s.total() as u64).sum();
            let report = run_app(&app, &reg, &mut rt, &RunOptions::default())
                .unwrap_or_else(|e| panic!("{} failed: {e}", spec.name));
            assert_eq!(report.calls, expected, "{}", spec.name);
        }
    }

    #[test]
    fn camera_apps_get_frames() {
        let reg = standard_registry();
        let app = resolve(by_id(5).unwrap(), &reg); // EyeLike
        let mut rt = MonolithicRuntime::original(standard_registry());
        run_app(&app, &reg, &mut rt, &RunOptions::default()).unwrap();
        assert!(rt.kernel.camera.as_ref().unwrap().frames_served() > 0);
    }

    #[test]
    fn apps_with_viz_touch_the_display() {
        let reg = standard_registry();
        let app = resolve(by_id(1).unwrap(), &reg); // Face_classification
        let mut rt = MonolithicRuntime::original(standard_registry());
        run_app(&app, &reg, &mut rt, &RunOptions::default()).unwrap();
        assert!(rt.kernel.display.is_connected());
    }

    #[test]
    fn storing_apps_write_files() {
        let reg = standard_registry();
        let app = resolve(by_id(8).unwrap(), &reg);
        let mut rt = MonolithicRuntime::original(standard_registry());
        run_app(&app, &reg, &mut rt, &RunOptions::default()).unwrap();
        assert!(!rt.kernel.fs.list("/apps/8/").is_empty());
    }
}
