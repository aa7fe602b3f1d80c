//! `ferrotcam bench` — Newton hot-path benchmark for the transient
//! engine.
//!
//! Runs the Fig. 7 search experiment (one 64-bit 1.5T1DG row, two-step
//! search) under pinned solver configurations and reports wall-clock
//! per transient:
//!
//! * `bypass=off, ordering=natural` — no fill-reducing ordering;
//! * `bypass=off, ordering=amd` — the default every caller runs
//!   ([`NewtonOpts::default`] with `FERROTCAM_BYPASS` and
//!   `FERROTCAM_ORDERING` unset);
//! * `bypass=safe, ordering=amd` — tolerance bypass within each solve;
//! * `bypass=aggressive, ordering=amd` — bypass bases persisted across
//!   steps.
//!
//! Each configuration runs `--reps` untraced transients, whose median
//! is the reported time, then `--reps` traced ones whose per-phase wall
//! times ([`ferrotcam_spice::PhaseTimes`]: device evaluation, assembly,
//! refactor, triangular solve, step control) give the median breakdown.
//!
//! Results land in `BENCH_newton.json` (results dir: `$FERROTCAM_RESULTS`
//! or `./results`), in the criterion-style `results` format understood
//! by `compare_runs --bench`. With `--smoke` the acceptance invariants
//! become hard failures: the bypass waveforms must agree with the
//! `bypass=off` baseline to 1e-6 V on every probed node, and
//! `SimStats.bypass_hits` must be non-zero (a silent bypass regression
//! fails CI, not just a slow one).

use ferrotcam::cell::DesignKind;
use ferrotcam::SearchSim;
use ferrotcam_spice::trace::{self, TraceLevel};
use ferrotcam_spice::{BypassPolicy, NewtonOpts, Ordering, PhaseTimes, SimStats, Trace};
use serde::Serialize;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed configuration in the `BENCH_newton.json` artefact.
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
fn build_sim(opts: &Opts, newton: NewtonOpts) -> Result<SearchSim, String> {
    let stored: String = (0..opts.bits)
        .map(|i| if i % 2 == 0 { '0' } else { '1' })
        .collect();
    let stored = crate::commands::parse_word(&stored)?;
    let mut query: Vec<bool> = (0..opts.bits).map(|i| i % 2 != 0).collect();
    query[opts.bits - 1] = !query[opts.bits - 1];
    let mut sim = crate::commands::build(opts.design, &stored, &query)?;
    sim.newton = newton;
    Ok(sim)
}

/// One pinned solver configuration.
fn config(bypass: BypassPolicy, ordering: Ordering) -> NewtonOpts {
    NewtonOpts {
        bypass,
        ordering,
        ..NewtonOpts::default()
    }
}

/// What [`time_config`] measured for one configuration.
struct Timed {
    /// Median untraced wall-clock ns per transient.
    ns: f64,
    /// Median phase times of the traced runs.
    phases: PhaseTimes,
    stats: SimStats,
    /// The last untraced run's trace.
    trace: Trace,
}

/// Median of `values` (upper median for even counts).
fn median<T: Copy + PartialOrd>(mut values: Vec<T>) -> T {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    values[values.len() / 2]
}

/// Run `reps` fresh transients of one configuration untraced (timed),
/// then `reps` traced ones for the phase breakdown.
fn time_config(opts: &Opts, label: &str, newton: &NewtonOpts) -> Result<Timed, String> {
    let run_once = || -> Result<(f64, Trace), String> {
        // Rebuild per repetition: `commit` advances FeFET polarisation,
        // so a reused circuit would simulate a different trajectory.
        let mut sim = build_sim(opts, newton.clone())?;
        let started = Instant::now();
        let run = sim
            .run()
            .map_err(|e| format!("{label}: transient failed: {e}"))?;
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
    let trace = last.expect("reps >= 1");
    let stats = trace.stats();
    println!(
        "  {label:<26} {:>9.2} ms/run   {:>6} iters   {:>6} evals / {} reuses / {} bypass hits",
        ns / 1e6,
        stats.newton_iters,
        stats.bypass_misses,
        stats.reuses,
        stats.bypass_hits
    );
    for line in crate::trace_cmd::render_phases(&phases, median(traced_ns)).lines() {
        println!("      {line}");
    }
    Ok(Timed {
        ns,
        phases,
        stats,
        trace,
    })
}

/// Maximum absolute deviation between two traces over every signal of
/// the baseline, sampled on the baseline time grid (the candidate is
/// interpolated, so accepted-step grids need not coincide).
fn max_waveform_deviation(base: &Trace, cand: &Trace) -> Result<f64, String> {
    let mut worst = 0.0f64;
    for name in base.signal_names() {
        let ys = base.signal(name).map_err(|e| e.to_string())?;
        for (&t, &y) in base.time().iter().zip(ys) {
            let yc = cand
                .value_at(name, t)
                .map_err(|e| format!("candidate trace lacks {name}: {e}"))?;
            worst = worst.max((y - yc).abs());
        }
    }
    Ok(worst)
}

/// Entry point, called from the command dispatcher.
pub fn run(
    args: &[String],
    parse_design: impl Fn(&str) -> Result<DesignKind, String>,
) -> Result<(), String> {
    let opts = parse_opts(args, parse_design)?;
    println!(
        "bench: {} search row, {} bits, {} rep(s) per config{}",
        opts.design.name(),
        opts.bits,
        opts.reps,
        if opts.smoke { " (smoke)" } else { "" }
    );

    let configs = [
        (
            "bypass_off_natural",
            config(BypassPolicy::Off, Ordering::Natural),
        ),
        ("bypass_off_amd", config(BypassPolicy::Off, Ordering::Amd)),
        ("bypass_safe_amd", config(BypassPolicy::Safe, Ordering::Amd)),
        (
            "bypass_aggressive_amd",
            config(BypassPolicy::Aggressive, Ordering::Amd),
        ),
    ];
    let mut results = Vec::new();
    let mut runs = Vec::new();
    for (name, newton) in &configs {
        let t = time_config(&opts, name, newton)?;
        results.push(BenchEntry {
            id: format!("fig7_search{}_{name}", opts.bits),
            ns_per_iter: t.ns,
            samples: opts.reps,
            throughput: Some(t.stats.newton_iters),
            phases: t.phases,
        });
        runs.push((name, t));
    }
    for (name, t) in &runs[2..] {
        println!(
            "  {name} over bypass_off_amd (the default): {:.2}x",
            runs[1].1.ns / t.ns
        );
    }

    // --- Artefact ----------------------------------------------------------
    let file = NewtonBenchFile {
        target: "newton",
        results,
    };
    let dir = std::env::var("FERROTCAM_RESULTS").unwrap_or_else(|_| "results".into());
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir}: {e}"))?;
    let path = std::path::Path::new(&dir).join("BENCH_newton.json");
    let json = serde_json::to_string_pretty(&file).expect("serialise bench file");
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());

    // --- Acceptance invariants --------------------------------------------
    let mut report = String::new();
    for (name, t) in &runs[..2] {
        if t.stats.bypass_hits != 0 {
            let _ = writeln!(
                report,
                "{name}: bypass=off recorded {} hit(s)",
                t.stats.bypass_hits
            );
        }
    }
    let off_trace = &runs[1].1.trace;
    for (name, t) in &runs[2..] {
        if t.stats.bypass_hits == 0 {
            let _ = writeln!(
                report,
                "{name}: SimStats.bypass_hits == 0 (bypass never engaged)"
            );
        }
        let dev = max_waveform_deviation(off_trace, &t.trace)?;
        println!("  {name:<26} max |ΔV| vs baseline = {dev:.3e} V");
        if dev > 1e-6 {
            let _ = writeln!(
                report,
                "{name}: waveforms deviate {dev:.3e} V from bypass=off (> 1e-6)"
            );
        }
    }
    if report.is_empty() {
        println!("bench invariants hold: bypass engaged, waveforms within 1e-6 V of baseline");
        Ok(())
    } else if opts.smoke {
        Err(format!("bench smoke failed:\n{report}"))
    } else {
        println!("warning (non-smoke run, not fatal):\n{report}");
        Ok(())
    }
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
        assert!(body.contains("fig7_search4_bypass_safe_amd"));
        assert!(body.contains("fig7_search4_bypass_off_amd"));
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
