//! `freepart-perf`: one seeded command measuring the FreePart runtime
//! end to end, in wall-clock and virtual time, plus a per-layer
//! breakdown. See `README.md` next to this package for the workloads,
//! the metrics and how to read them.
//!
//! ```text
//! cargo run --release --offline --manifest-path crates/bench/src/bin/freepart-perf/Cargo.toml -- \
//!     [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! With `--workload` the named workload runs in this process and the
//! last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`, with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Without it, every workload runs in a child process of
//! its own, one after the other. The exit code is non-zero when any
//! output check fails.

mod layers;
mod mix;
mod omr;
mod pooled;
mod report;
mod rng;
mod session;
mod spans;
mod stats;

use report::{Agg, Metric, Traced};
use session::{run_single, Analysis, Opts, Scale, Session, SingleClient};
use spans::Spans;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Omr,
    Mix,
    Pooled,
    Recorded,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Omr,
        Workload::Mix,
        Workload::Pooled,
        Workload::Recorded,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Omr => omr::Stream::NAME,
            Workload::Mix => mix::Stream::NAME,
            Workload::Pooled => pooled::SERVE,
            Workload::Recorded => pooled::RECORDED,
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sessions, warm-up included, whose virtual time is reported. A
    /// fixed prefix, so virtual metrics repeat exactly for a seed however
    /// many sessions the wall-clock budget allows.
    fn virtual_sessions(self) -> u64 {
        match self {
            Workload::Omr => 8,
            Workload::Mix => 64,
            Workload::Pooled => 3,
            Workload::Recorded => 4,
        }
    }

    /// Tenants sharing the pools (0 for the single-client workloads).
    fn tenants(self, scale: &Scale) -> u32 {
        match self {
            Workload::Pooled => scale.pooled.0,
            Workload::Recorded => scale.recorded.0,
            Workload::Omr | Workload::Mix => 0,
        }
    }

    fn session(
        self,
        a: &Analysis,
        seed: u64,
        index: u64,
        scale: &Scale,
        opts: Opts,
        spans: &mut Spans,
    ) -> Session {
        match self {
            Workload::Omr => run_single(&omr::stream(seed, index, scale), a, index, opts, spans),
            Workload::Mix => run_single(&mix::stream(seed, index, scale), a, index, opts, spans),
            Workload::Pooled | Workload::Recorded => {
                let recorded = self == Workload::Recorded;
                pooled::session(a, recorded, seed, index, scale, opts, spans)
            }
        }
    }
}

struct Config {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

struct Outcome {
    metrics: Vec<Metric>,
    /// Printed beside the metrics, never compared across runs.
    extra: Vec<Metric>,
    sessions: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    spans: Spans,
}

/// Check failures kept for the report.
const MAX_ERRORS: usize = 8;

fn run(cfg: &Config) -> Outcome {
    let analysis = Analysis::new();
    let w = cfg.workload;
    let mut spans = Spans::new();
    // Untraced, spanned and runtime-traced sessions; the virtual prefix.
    let mut kinds: [Agg; 3] = Default::default();
    let mut virt = Agg::default();
    let mut rss_mb = 0.0;
    let (mut attempted, mut failed, mut errors) = (0, 0, Vec::new());
    let mut keep = |s: &Session| {
        attempted += s.calls;
        failed += s.failed;
        let room = MAX_ERRORS.saturating_sub(errors.len());
        errors.extend(s.errors.iter().take(room).cloned());
    };
    let min_sessions = w.virtual_sessions().max(if cfg.trace { 4 } else { 2 });
    let start = Instant::now();
    let mut i = 0;
    while i < min_sessions || start.elapsed().as_secs_f64() < cfg.seconds {
        // Session 0 is the warm-up. A traced run rotates the three kinds
        // session by session, so drift hits each kind alike.
        let kind = if cfg.trace && i > 0 {
            ((i - 1) % 3) as usize
        } else {
            0
        };
        spans.set_on(kind == 1);
        let opts = Opts {
            runtime_tracing: kind == 2,
            record: false,
            probe_digest: cfg.trace,
        };
        let s = w.session(&analysis, cfg.seed, i, &cfg.scale, opts, &mut spans);
        keep(&s);
        if i < w.virtual_sessions() {
            virt.add(&s);
            // Read here, after a fixed amount of work: the latency samples
            // kept later grow with the machine's speed.
            rss_mb = report::peak_rss_mb();
        }
        if i > 0 {
            kinds[kind].add(&s);
        }
        i += 1;
    }
    spans.set_on(false);
    let [plain, spanned, rt_traced] = &mut kinds;
    let (metrics, extra) = if cfg.trace {
        let opts = Opts {
            record: true,
            ..Opts::default()
        };
        let sample = w.session(
            &analysis,
            cfg.seed,
            0,
            &cfg.scale.sample(),
            opts,
            &mut spans,
        );
        keep(&sample);
        let layers = layers::measure(&analysis, &sample, w.tenants(&cfg.scale));
        let traced = Traced {
            plain,
            spanned,
            rt_traced,
            self_ns: spans.self_ns(),
            layers: &layers,
        };
        report::per_layer(&traced)
    } else {
        report::end_to_end(plain, &mut virt, rss_mb)
    };
    Outcome {
        metrics,
        extra,
        sessions: i,
        attempted,
        failed,
        errors,
        spans,
    }
}

/// The result line: one JSON object.
fn json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.errors.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn report(cfg: &Config, out: &Outcome) {
    println!(
        "# freepart-perf workload={} seed={} trace={} sessions={} attempted={} failed={}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace),
        out.sessions,
        out.attempted,
        out.failed
    );
    let extra = out.extra.iter().map(|m| ("# ", m));
    for (prefix, m) in out.metrics.iter().map(|m| ("", m)).chain(extra) {
        let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        let name = format!("{prefix}{}", m.name);
        println!("{name:<44} {:>16.4} {:<9}{n}", m.value, m.unit);
    }
    if cfg.trace {
        let path = std::path::PathBuf::from(format!(
            "target/freepart-perf/spans-{}-seed{}.json",
            cfg.workload.name(),
            cfg.seed
        ));
        match out.spans.write_json(&path, cfg.workload.name(), cfg.seed) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    for e in &out.errors {
        eprintln!("output check failed: {e}");
    }
    println!("{}", json(out));
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad())?;
                if !(a.seconds >= 0.0 && a.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => match value.as_str() {
                "0" => a.trace = false,
                "1" => a.trace = true,
                _ => return Err(bad()),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// Runs every workload in a child process of its own, one at a time.
fn run_children(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &a.seed.to_string()])
            .args([
                "--seconds",
                &a.seconds.to_string(),
                "--trace",
                if a.trace { "1" } else { "0" },
            ])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: freepart-perf [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace <0|1>]");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_children(&args);
    };
    let cfg = Config {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::full(),
    };
    let out = run(&cfg);
    report(&cfg, &out);
    if out.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload, seed: u64, trace: bool) -> Outcome {
        run(&Config {
            workload,
            seed,
            seconds: 0.0,
            trace,
            scale: Scale::tiny(),
        })
    }

    /// `(name, unit)` pairs of one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let (name, rest) = entry.split_once('"').expect("name closes");
                let unit = rest.split("\"unit\": \"").nth(1).expect("unit present");
                (
                    name.to_owned(),
                    unit.split('"').next().expect("unit closes").to_owned(),
                )
            })
            .collect()
    }

    fn emitted(out: &Outcome) -> Vec<(String, String)> {
        out.metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_owned()))
            .collect()
    }

    #[test]
    fn every_workload_reports_every_declared_metric() {
        let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
        for w in Workload::ALL {
            let plain = tiny(w, 3, false);
            assert!(
                plain.errors.is_empty() && plain.failed == 0,
                "{}: {:?}",
                w.name(),
                plain.errors
            );
            assert_eq!(emitted(&plain), end_to_end, "{}", w.name());
            let traced = tiny(w, 3, true);
            assert!(
                traced.errors.is_empty() && traced.failed == 0,
                "{}: {:?}",
                w.name(),
                traced.errors
            );
            assert_eq!(emitted(&traced), per_layer, "{}", w.name());
            assert!(json(&traced).starts_with("{\"correct\": true, \"attempted\": "));
        }
    }

    fn virtual_metrics(out: &Outcome) -> Vec<Metric> {
        out.metrics
            .iter()
            .filter(|m| m.name.starts_with("virtual_"))
            .cloned()
            .collect()
    }

    #[test]
    fn a_seed_fixes_the_virtual_metrics_and_another_changes_the_inputs() {
        for w in Workload::ALL {
            let (a, b, c) = (tiny(w, 7, false), tiny(w, 7, false), tiny(w, 8, false));
            assert!(
                c.errors.is_empty() && c.failed == 0,
                "{}: {:?}",
                w.name(),
                c.errors
            );
            assert_eq!(virtual_metrics(&a), virtual_metrics(&b), "{}", w.name());
            assert_ne!(virtual_metrics(&a), virtual_metrics(&c), "{}", w.name());
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let a = args("--workload pooled_serve --seed 9 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::Pooled), 9, 2.5, true)
        );
        for bad in [
            "--workload nope",
            "--seed x",
            "--trace 2",
            "--seconds -1",
            "--seed",
            "--frob 1",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
