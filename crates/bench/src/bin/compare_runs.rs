//! **Regression comparer** — diff two result files (before/after a
//! change) and flag metric movements beyond a threshold. Usage:
//!
//! ```text
//! compare_runs <old.json> <new.json> [tolerance-percent]
//! compare_runs --bench <old.json> <new.json> [tolerance-percent]
//! compare_runs --trace <old.ndjson> <new.ndjson> [tolerance-percent]
//! ```
//!
//! The default mode diffs `table4.json` FoM files; `--bench` diffs the
//! machine-readable `BENCH_<target>.json` files written by the bench
//! harness. Two bench shapes are understood: per-case `results`
//! (criterion-style `ns_per_iter`, regressions = slowdowns only) and
//! throughput-latency `curves` as written by `ferrotcam serve-bench`
//! (regressions = throughput drops, p99 latency rises, or — on
//! `*_approx_*` points carrying a `miscls` field — calibrated
//! misclassification-probability rises); points pair up by id.
//! `--trace` diffs two `FERROTCAM_TRACE` NDJSON event streams (as written by
//! `ferrotcam trace --ndjson`) on their per-analysis accepted and
//! rejected step counts — a stepper-behaviour drift gate — and shows
//! the device-evaluation bypass hit rate per analysis (informational,
//! summed from the `step_accept` events). Exits
//! non-zero when any metric moved more than the tolerance, making it
//! usable as a CI gate on the measured artefacts.

use ferrotcam_eval::report::FomRow;
use serde::Deserialize;
use std::process::ExitCode;

fn load(path: &str) -> Result<Vec<FomRow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// `BENCH_<target>.json` as written by the bench harness: either
/// per-case `results` (criterion-style) or throughput-latency `curves`
/// (`ferrotcam serve-bench`).
#[derive(Debug, Deserialize)]
struct BenchFile {
    target: String,
    // Optional: each shape of bench file carries one of the two.
    results: Option<Vec<BenchEntry>>,
    curves: Option<Vec<CurveEntry>>,
}

/// One benchmark case in a [`BenchFile`].
#[derive(Debug, Deserialize)]
struct BenchEntry {
    id: String,
    ns_per_iter: f64,
    samples: usize,
    throughput: Option<u64>,
}

/// One throughput-latency curve point in a [`BenchFile`]. Approximate
/// workload points (`*_approx_*` ids) may carry a calibrated
/// misclassification probability; older files lack the field.
#[derive(Debug, Deserialize)]
struct CurveEntry {
    id: String,
    achieved_qps: f64,
    /// Absent when the point's window completed nothing — an empty
    /// latency histogram has no p99 (serve-bench omits the field).
    #[serde(default)]
    p99_ns: Option<f64>,
    #[serde(default)]
    miscls: Option<f64>,
}

fn load_bench(path: &str) -> Result<BenchFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Diff two bench result files. Only slowdowns beyond `tol` percent
/// count as regressions — getting faster is never an error.
fn compare_bench(old_path: &str, new_path: &str, tol: f64) -> ExitCode {
    let (old, new) = match (load_bench(old_path), load_bench(new_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if old.target != new.target {
        eprintln!(
            "warning: comparing different targets ({} vs {})",
            old.target, new.target
        );
    }
    let (old_curves, new_curves) = (
        old.curves.as_deref().unwrap_or(&[]),
        new.curves.as_deref().unwrap_or(&[]),
    );
    let (old_results, new_results) = (
        old.results.as_deref().unwrap_or(&[]),
        new.results.as_deref().unwrap_or(&[]),
    );
    let mut regressions = 0usize;
    regressions += compare_curves(old_curves, new_curves, tol);
    if !old_results.is_empty() || !new_results.is_empty() {
        println!(
            "{:<44} {:>14} {:>14} {:>8}",
            "benchmark", "old ns/iter", "new ns/iter", "Δ%"
        );
    }
    for o in old_results {
        let Some(n) = new_results.iter().find(|r| r.id == o.id) else {
            println!("{:<44} case removed", o.id);
            regressions += 1;
            continue;
        };
        let _ = (o.samples, o.throughput);
        let d = pct(o.ns_per_iter, n.ns_per_iter);
        let flag = if d > tol {
            regressions += 1;
            "  <-- slower"
        } else {
            ""
        };
        println!(
            "{:<44} {:>14.1} {:>14.1} {:>7.1}%{flag}",
            o.id, o.ns_per_iter, n.ns_per_iter, d
        );
    }
    for n in new_results {
        if !old_results.iter().any(|o| o.id == n.id) {
            println!("{:<44} new case ({:.1} ns/iter)", n.id, n.ns_per_iter);
        }
    }
    if regressions > 0 {
        eprintln!("\n{regressions} benchmark(s) slowed beyond +{tol}%");
        ExitCode::FAILURE
    } else {
        println!("\nno benchmark slowed beyond +{tol}%");
        ExitCode::SUCCESS
    }
}

/// Diff two throughput-latency curves (serve-bench files). A point
/// regresses when its throughput drops beyond `tol` percent or its p99
/// latency rises beyond `tol` percent; faster/higher is never an error.
fn compare_curves(old: &[CurveEntry], new: &[CurveEntry], tol: f64) -> usize {
    if old.is_empty() && new.is_empty() {
        return 0;
    }
    let mut regressions = 0usize;
    println!(
        "{:<28} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "curve point", "old qps", "new qps", "old p99 ns", "new p99 ns", "Δ"
    );
    for o in old {
        let Some(n) = new.iter().find(|c| c.id == o.id) else {
            println!("{:<28} point removed", o.id);
            regressions += 1;
            continue;
        };
        let dq = pct(o.achieved_qps, n.achieved_qps);
        // Latency gates only where both runs actually have a tail; an
        // empty-window point (no completions, no histogram) is skipped
        // rather than compared against an invented number.
        let dl = match (o.p99_ns, n.p99_ns) {
            (Some(op), Some(np)) => pct(op, np),
            _ => 0.0,
        };
        // Approximate-workload points also gate on the calibrated
        // misclassification probability: the sense model getting less
        // accurate is a regression even at equal throughput.
        let dm = match (o.miscls, n.miscls) {
            (Some(om), Some(nm)) => pct(om, nm),
            _ => 0.0,
        };
        let flag = if dq < -tol {
            regressions += 1;
            "  <-- slower"
        } else if dl > tol {
            regressions += 1;
            "  <-- higher tail"
        } else if dm > tol {
            regressions += 1;
            "  <-- more misclassification"
        } else {
            ""
        };
        println!(
            "{:<28} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>+7.1}%{flag}",
            o.id,
            o.achieved_qps,
            n.achieved_qps,
            o.p99_ns.unwrap_or(f64::NAN),
            n.p99_ns.unwrap_or(f64::NAN),
            dq
        );
    }
    for n in new {
        if !old.iter().any(|o| o.id == n.id) {
            println!("{:<28} new point ({:.0} qps)", n.id, n.achieved_qps);
        }
    }
    regressions
}

/// Per-analysis accepted/rejected step counts extracted from one trace
/// NDJSON stream, plus the device-evaluation bypass totals carried on
/// `step_accept` events.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct TraceCounts {
    accepted: u64,
    rejected: u64,
    bypass_hits: u64,
    bypass_misses: u64,
}

impl TraceCounts {
    /// Fraction of device evaluations skipped via the bypass cache, or
    /// `None` when the stream predates the bypass fields.
    fn bypass_rate(&self) -> Option<f64> {
        let total = self.bypass_hits + self.bypass_misses;
        (total > 0).then(|| self.bypass_hits as f64 / total as f64)
    }
}

/// Parse a `FERROTCAM_TRACE` NDJSON file into per-analysis step counts.
/// Every line must be valid JSON with a string `kind` field (the parse
/// itself is the CI assertion that the trace format stayed machine
/// readable); unknown kinds are counted but otherwise ignored.
fn load_trace(path: &str) -> Result<std::collections::BTreeMap<String, TraceCounts>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut by_analysis: std::collections::BTreeMap<String, TraceCounts> = Default::default();
    for (ln, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: serde_json::JsonValue = serde_json::from_str(line)
            .map_err(|e| format!("{path}:{}: invalid NDJSON: {e}", ln + 1))?;
        let kind = v
            .get("kind")
            .and_then(|k| k.as_str())
            .ok_or_else(|| format!("{path}:{}: event has no \"kind\"", ln + 1))?;
        if kind == "step_accept" || kind == "step_reject" {
            let analysis = v
                .get("analysis")
                .and_then(|a| a.as_str())
                .unwrap_or("unknown")
                .to_string();
            let c = by_analysis.entry(analysis).or_default();
            if kind == "step_accept" {
                c.accepted += 1;
                c.bypass_hits += v
                    .get("bypass_hits")
                    .and_then(|h| h.as_i64())
                    .and_then(|h| u64::try_from(h).ok())
                    .unwrap_or(0);
                c.bypass_misses += v
                    .get("bypass_misses")
                    .and_then(|m| m.as_i64())
                    .and_then(|m| u64::try_from(m).ok())
                    .unwrap_or(0);
            } else {
                c.rejected += 1;
            }
        }
    }
    Ok(by_analysis)
}

/// Diff two trace NDJSON streams on accepted/rejected step counts per
/// analysis. A count moving beyond `tol` percent (or an analysis
/// appearing/disappearing) is a regression.
fn compare_trace(old_path: &str, new_path: &str, tol: f64) -> ExitCode {
    let (old, new) = match (load_trace(old_path), load_trace(new_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut regressions = 0usize;
    println!(
        "{:<16} {:<10} {:>10} {:>10} {:>8}",
        "analysis", "steps", "old", "new", "Δ%"
    );
    for (analysis, o) in &old {
        let Some(n) = new.get(analysis) else {
            println!("{analysis:<16} analysis removed");
            regressions += 1;
            continue;
        };
        for (label, ov, nv) in [
            ("accepted", o.accepted, n.accepted),
            ("rejected", o.rejected, n.rejected),
        ] {
            let d = pct(ov as f64, nv as f64);
            let flag = if d.abs() > tol {
                regressions += 1;
                "  <-- moved"
            } else {
                ""
            };
            println!("{analysis:<16} {label:<10} {ov:>10} {nv:>10} {d:>7.1}%{flag}");
        }
        // Bypass rate is informational (timestep-dependent), not a gate.
        let rate = |c: &TraceCounts| {
            c.bypass_rate()
                .map_or("n/a".to_string(), |r| format!("{:.1}%", r * 100.0))
        };
        println!(
            "{analysis:<16} {:<10} {:>10} {:>10}",
            "bypass",
            rate(o),
            rate(n)
        );
    }
    for analysis in new.keys() {
        if !old.contains_key(analysis) {
            println!("{analysis:<16} new analysis in trace");
        }
    }
    if regressions > 0 {
        eprintln!("\n{regressions} step count(s) moved beyond ±{tol}%");
        ExitCode::FAILURE
    } else {
        println!("\nstep counts within ±{tol}%");
        ExitCode::SUCCESS
    }
}

fn pct(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        return if new == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (new - old) / old * 100.0
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let bench_mode = args.first().is_some_and(|a| a == "--bench");
    let trace_mode = args.first().is_some_and(|a| a == "--trace");
    if bench_mode || trace_mode {
        args.remove(0);
    }
    let (old_path, new_path) = match (args.first(), args.get(1)) {
        (Some(a), Some(b)) => (a.clone(), b.clone()),
        _ => {
            eprintln!("usage: compare_runs [--bench|--trace] <old> <new> [tolerance-percent]");
            return ExitCode::FAILURE;
        }
    };
    let tol: f64 = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(if bench_mode { 25.0 } else { 10.0 });
    if bench_mode {
        return compare_bench(&old_path, &new_path, tol);
    }
    if trace_mode {
        return compare_trace(&old_path, &new_path, tol);
    }

    let (old, new) = match (load(&old_path), load(&new_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut regressions = 0usize;
    println!(
        "{:<12} {:<22} {:>10} {:>10} {:>8}",
        "design", "metric", "old", "new", "Δ%"
    );
    for o in &old {
        let Some(n) = new.iter().find(|r| r.design == o.design) else {
            println!("{:<12} row removed", o.design);
            regressions += 1;
            continue;
        };
        let metrics: [(&str, f64, f64); 4] = [
            ("cell_area_um2", o.cell_area_um2, n.cell_area_um2),
            ("latency_ps", o.latency_ps, n.latency_ps),
            ("energy_avg_fj", o.energy_avg_fj, n.energy_avg_fj),
            (
                "write_energy_fj",
                o.write_energy_fj.unwrap_or(0.0),
                n.write_energy_fj.unwrap_or(0.0),
            ),
        ];
        for (name, ov, nv) in metrics {
            let d = pct(ov, nv);
            let flag = if d.abs() > tol {
                regressions += 1;
                "  <-- moved"
            } else {
                ""
            };
            if ov != 0.0 || nv != 0.0 {
                println!(
                    "{:<12} {:<22} {:>10.3} {:>10.3} {:>7.1}%{flag}",
                    o.design, name, ov, nv, d
                );
            }
        }
    }
    if regressions > 0 {
        eprintln!("\n{regressions} metric(s) moved beyond ±{tol}%");
        ExitCode::FAILURE
    } else {
        println!("\nall metrics within ±{tol}%");
        ExitCode::SUCCESS
    }
}
