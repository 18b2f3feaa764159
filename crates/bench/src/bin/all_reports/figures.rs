//! The paper's evaluation figures, each regenerated from the simulated
//! system as a table or a text chart.

use freepart::{Policy, Runtime};
use freepart_apps::omr::{self, OmrConfig};
use freepart_apps::study::study_corpus;
use freepart_attacks::study::{per_type, total, FIG7_CELLS, FRAMEWORK_TOTALS};
use freepart_bench::{fig13_sweep, fig4_sweep, Table};
use freepart_frameworks::api::ApiType;
use freepart_frameworks::registry::standard_registry;

/// **Fig. 3**: the timeline of API calls, framework-state transitions,
/// and data-protection events for the motivating example's first
/// grading cycle.
pub fn fig3() {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    rt.kernel.reset_accounting();
    omr::run(&mut rt, &OmrConfig::benign(2));

    let mut t = Table::new([
        "virtual time",
        "framework state entered",
        "objects locked read-only",
    ]);
    for (ns, state, locked) in rt.state_timeline() {
        t.row([
            format!("{:.3} ms", ns as f64 / 1e6),
            state.to_string(),
            if locked > 0 {
                format!("{locked} (previous stage sealed)")
            } else {
                "-".to_owned()
            },
        ]);
    }
    t.print("Fig. 3 — Timeline of API calls and data protection (measured)");
    println!(
        "\nAs in the paper's Fig. 3: the state starts at Initialization; the first\n\
         imread() call moves it to Data Loading and seals the Initialization-defined\n\
         `template`; each subsequent stage seals its predecessor's objects. Objects\n\
         currently protected at exit: {}.",
        rt.stats().protected_objects
    );
}

/// **Fig. 4**: average runtime of the motivating example as the number
/// of partitions grows from 4 to 25 (random fine-grained splits of the
/// data-processing partition).
pub fn fig4() {
    let seeds = 4; // random partitionings averaged per point
    let points = fig4_sweep(25, seeds);
    let base = points[0].1;
    println!("\n== Fig. 4 — Runtime vs number of partitions (measured, {seeds} seeds/point) ==");
    println!(
        "{:>10} {:>12} {:>10}  bar",
        "partitions", "avg time ms", "vs 4-part"
    );
    let max = points.iter().map(|p| p.1).fold(0.0f64, f64::max);
    for (n, t) in &points {
        let bar_len = (t / max * 40.0) as usize;
        println!(
            "{n:>10} {:>12.3} {:>9.2}x  {}",
            t / 1e6,
            t / base,
            "#".repeat(bar_len)
        );
    }
    let five = points.iter().find(|(n, _)| *n == 5).unwrap().1;
    println!(
        "\n4 → 5 partitions multiplies the runtime by {:.2}x (paper: 1.4x — the\n\
         hot-loop pair cv.rectangle/cv.putText lands in different partitions and\n\
         their shared image starts bouncing between processes).",
        five / base
    );
}

/// **Fig. 6 / Study 1**: all 56 surveyed applications follow the
/// load → process → visualize/store pipeline.
pub fn fig6() {
    let reg = standard_registry();
    let corpus = study_corpus(&reg);
    let mut pipeline_ok = 0;
    let mut with_viz = 0;
    let mut repeats = 0;
    for s in &corpus {
        if s.follows_pipeline(&reg) {
            pipeline_ok += 1;
        }
        if !s.of_type(&reg, ApiType::Visualizing).is_empty() {
            with_viz += 1;
        }
        // Video-style apps repeat the load/process cycle.
        let loads: Vec<usize> = s
            .calls
            .iter()
            .enumerate()
            .filter(|(_, id)| reg.spec(**id).declared_type == ApiType::DataLoading)
            .map(|(i, _)| i)
            .collect();
        if loads.windows(2).any(|w| w[1] - w[0] > 3) {
            repeats += 1;
        }
    }
    println!("\n== Fig. 6 / Study 1 — Pipeline pattern over the 56-app corpus ==");
    println!("apps following load→process→viz/store: {pipeline_ok}/56 (paper: 56/56)");
    println!("apps with a GUI/visualizing stage:      {with_viz}/56 (paper: 'programs without GUI may not use visualizing APIs')");
    println!("apps repeating the load/process cycle:  {repeats}/56 (video-style)");
    assert_eq!(pipeline_ok, 56);
}

/// **Fig. 7**: the 241 studied CVEs categorized by API type and
/// vulnerability class, plus our own registry's distribution.
pub fn fig7() {
    let mut t = Table::new(["API type", "Vulnerability class", "# CVEs", "bar"]);
    for cell in FIG7_CELLS {
        t.row([
            cell.api_type.to_string(),
            cell.class.to_string(),
            cell.count.to_string(),
            "#".repeat(cell.count as usize),
        ]);
    }
    t.print("Fig. 7 — 241 studied CVEs by API type × class (reconstruction)");
    println!("\nTotal: {} CVEs across:", total());
    for (fw, n) in FRAMEWORK_TOTALS {
        println!("  {fw}: {n}");
    }
    for ty in ApiType::ALL {
        println!("  per type {ty}: {}", per_type(ty));
    }

    // Our executable registry's own vulnerable-API distribution.
    let reg = standard_registry();
    println!("\nExecutable catalog's vulnerable APIs by type:");
    for ty in ApiType::ALL {
        let n = reg
            .vulnerable()
            .iter()
            .filter(|s| s.declared_type == ty)
            .count();
        println!("  {ty}: {n}");
    }
    println!(
        "\nTakeaway (paper §4.1): vulnerabilities exist across all four types, with\n\
         loading and processing dominating — motivating per-type isolation."
    );
}

/// **Fig. 13**: normalized runtime overhead of FreePart for all 23
/// applications, plus the no-LDC ablation (§5.2's 9.7%).
pub fn fig13() {
    let rows = fig13_sweep();
    let mut t = Table::new(["ID", "Application", "FreePart overhead", "w/o LDC", "bar"]);
    let mut sum = 0.0;
    let mut sum_no_ldc = 0.0;
    for r in rows {
        let o = r.overhead();
        let n = r.overhead_no_ldc();
        sum += o;
        sum_no_ldc += n;
        t.row([
            r.id.to_string(),
            r.name.to_owned(),
            format!("{:.2}%", o * 100.0),
            format!("{:.2}%", n * 100.0),
            "#".repeat((o * 400.0) as usize),
        ]);
    }
    let avg = sum / rows.len() as f64;
    let avg_no = sum_no_ldc / rows.len() as f64;
    t.print("Fig. 13 — Normalized runtime overhead of FreePart (measured)");
    println!(
        "\nAverage overhead: {:.2}% (paper: 3.68%); without Lazy Data Copy: {:.2}%\n\
         (paper: 9.7%) — LDC reduces overhead {:.1}x (paper: 2.6x).",
        avg * 100.0,
        avg_no * 100.0,
        avg_no / avg.max(1e-9),
    );
}
