//! `ferrotcam bench` — Newton hot-path benchmark for the transient
//! engine.
//!
//! Runs the Fig. 7 search experiment (one 64-bit 1.5T1DG row, two-step
//! search) with the engine's one Newton configuration and reports
//! wall-clock per transient: `--reps` untraced transients, whose median
//! is the reported time, then `--reps` traced ones whose per-phase wall
//! times ([`ferrotcam_spice::PhaseTimes`]: device evaluation, assembly,
//! refactor, triangular solve, step control) give the median breakdown.
//! `--smoke` runs one repetition of each.
//!
//! Results land in `BENCH_newton.json` (results dir: `$FERROTCAM_RESULTS`
//! or `./results`), in the criterion-style `results` format understood
//! by `compare_runs --bench`, which fails on any rise in the Newton
//! iteration count.

use ferrotcam::cell::DesignKind;
use ferrotcam::SearchSim;
use ferrotcam_spice::trace::{self, TraceLevel};
use ferrotcam_spice::PhaseTimes;
use serde::Serialize;
use std::time::Instant;

/// The timed search in the `BENCH_newton.json` artefact.
#[derive(Debug, Serialize)]
struct BenchEntry {
    id: String,
    /// Wall-clock nanoseconds for one full search transient (median of
    /// the untraced repetitions).
    ns_per_iter: f64,
    samples: usize,
    /// Newton iterations per transient — the work the wall-clock buys.
    throughput: Option<u64>,
    /// Median wall time per Newton phase over `samples` traced runs.
    phases: PhaseTimes,
}

/// The `BENCH_newton.json` artefact (`compare_runs --bench` shape).
#[derive(Debug, Serialize)]
struct NewtonBenchFile {
    target: &'static str,
    results: Vec<BenchEntry>,
}

struct Opts {
    smoke: bool,
    bits: usize,
    reps: usize,
    design: DesignKind,
}

fn parse_opts(
    args: &[String],
    parse_design: impl Fn(&str) -> Result<DesignKind, String>,
) -> Result<Opts, String> {
    let mut o = Opts {
        smoke: false,
        bits: 64,
        reps: 3,
        design: DesignKind::T15Dg,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |what: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{a} needs {what}"))
        };
        match a.as_str() {
            "--smoke" => {
                o.smoke = true;
                o.reps = 1;
            }
            "--bits" => {
                o.bits = next("a word length")?
                    .parse()
                    .map_err(|e| format!("--bits: {e}"))?
            }
            "--reps" => {
                o.reps = next("a count")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?
            }
            "--design" => o.design = parse_design(next("a design")?)?,
            other => return Err(format!("unknown bench flag {other:?}")),
        }
    }
    if o.bits == 0 || o.reps == 0 {
        return Err("--bits and --reps must be positive".into());
    }
    if o.design.is_two_step() && !o.bits.is_multiple_of(2) {
        return Err("1.5T designs pair cells: use an even word length".into());
    }
    Ok(o)
}

/// Build the Fig. 7 search row: an alternating stored word with a
/// single-bit mismatch in the query, so both the discharge path and the
/// two-step machinery are exercised.
fn build_sim(opts: &Opts) -> Result<SearchSim, String> {
    let stored: String = (0..opts.bits)
        .map(|i| if i % 2 == 0 { '0' } else { '1' })
        .collect();
    let stored = crate::commands::parse_word(&stored)?;
    let mut query: Vec<bool> = (0..opts.bits).map(|i| i % 2 != 0).collect();
    query[opts.bits - 1] = !query[opts.bits - 1];
    crate::commands::build(opts.design, &stored, &query)
}

/// Median of `values` (upper median for even counts).
fn median<T: Copy + PartialOrd>(mut values: Vec<T>) -> T {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    values[values.len() / 2]
}

/// Run `reps` fresh transients untraced (timed), then `reps` traced
/// ones for the phase breakdown.
fn time_search(opts: &Opts) -> Result<BenchEntry, String> {
    let run_once = || -> Result<(f64, ferrotcam_spice::Trace), String> {
        // Rebuild per repetition: `commit` advances FeFET polarisation,
        // so a reused circuit would simulate a different trajectory.
        let mut sim = build_sim(opts)?;
        let started = Instant::now();
        let run = sim.run().map_err(|e| format!("transient failed: {e}"))?;
        Ok((started.elapsed().as_secs_f64() * 1e9, run.trace))
    };
    let level = trace::level();
    trace::set_level(TraceLevel::Off);
    let mut times = Vec::with_capacity(opts.reps);
    let mut last = None;
    for _ in 0..opts.reps {
        let (ns, tr) = run_once()?;
        times.push(ns);
        last = Some(tr);
    }
    trace::set_level(TraceLevel::Summary);
    let mut phases = Vec::with_capacity(opts.reps);
    let mut traced_ns = Vec::with_capacity(opts.reps);
    for _ in 0..opts.reps {
        let (ns, tr) = run_once()?;
        traced_ns.push(ns);
        phases.push(tr.phase_times());
    }
    trace::set_level(level);
    trace::reset();
    let phases = PhaseTimes {
        eval_ns: median(phases.iter().map(|p| p.eval_ns).collect()),
        assembly_ns: median(phases.iter().map(|p| p.assembly_ns).collect()),
        refactor_ns: median(phases.iter().map(|p| p.refactor_ns).collect()),
        solve_ns: median(phases.iter().map(|p| p.solve_ns).collect()),
        step_ns: median(phases.iter().map(|p| p.step_ns).collect()),
    };
    let ns = median(times);
    let stats = last.expect("reps >= 1").stats();
    println!(
        "  {:>9.2} ms/run   {:>6} iters   {:>6} evals / {} reuses",
        ns / 1e6,
        stats.newton_iters,
        stats.bypass_misses,
        stats.reuses
    );
    for line in crate::trace_cmd::render_phases(&phases, median(traced_ns)).lines() {
        println!("      {line}");
    }
    Ok(BenchEntry {
        id: format!("fig7_search{}", opts.bits),
        ns_per_iter: ns,
        samples: opts.reps,
        throughput: Some(stats.newton_iters),
        phases,
    })
}

/// Entry point, called from the command dispatcher.
pub fn run(
    args: &[String],
    parse_design: impl Fn(&str) -> Result<DesignKind, String>,
) -> Result<(), String> {
    let opts = parse_opts(args, parse_design)?;
    println!(
        "bench: {} search row, {} bits, {} rep(s){}",
        opts.design.name(),
        opts.bits,
        opts.reps,
        if opts.smoke { " (smoke)" } else { "" }
    );

    let file = NewtonBenchFile {
        target: "newton",
        results: vec![time_search(&opts)?],
    };
    let dir = std::env::var("FERROTCAM_RESULTS").unwrap_or_else(|_| "results".into());
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir}: {e}"))?;
    let path = std::path::Path::new(&dir).join("BENCH_newton.json");
    let json = serde_json::to_string_pretty(&file).expect("serialise bench file");
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_args(args: &[&str]) -> Result<(), String> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&v, crate::commands::parse_design)
    }

    #[test]
    fn smoke_run_small_word() {
        let _trace = crate::trace_cmd::tests::TRACE_STATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = std::env::temp_dir().join("ferrotcam-newton-bench-test");
        std::env::set_var("FERROTCAM_RESULTS", dir.to_str().unwrap());
        run_args(&["--smoke", "--bits", "4"]).unwrap();
        let body = std::fs::read_to_string(dir.join("BENCH_newton.json")).unwrap();
        assert!(body.contains("\"target\": \"newton\""));
        assert!(body.contains("\"id\": \"fig7_search4\""));
        assert!(body.contains("\"eval_ns\""));
        std::env::remove_var("FERROTCAM_RESULTS");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_flags_rejected() {
        assert!(run_args(&["--bogus"]).is_err());
        assert!(run_args(&["--bits"]).is_err());
        assert!(run_args(&["--bits", "0"]).is_err());
        assert!(run_args(&["--bits", "3"]).is_err()); // odd on a 1.5T design
    }
}
