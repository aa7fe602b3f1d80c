//! `ferrotcam trace` — run one instrumented row search and render the
//! observability output (human summary or NDJSON event stream), or,
//! with `--serve`, trace a small service under paced load.

use ferrotcam::{PackedQuery, TernaryWord};
use ferrotcam_serve::{Request, RequestKind, Route, ServiceConfig, ShardedTcam, TcamService};
use ferrotcam_spice::trace::{self, TraceLevel};
use ferrotcam_spice::PhaseTimes;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Render per-phase wall time as a table: milliseconds and share of
/// `span_ns` (the analysis span the phases tile), plus their coverage
/// of it.
fn render_phases(p: &PhaseTimes, span_ns: f64) -> String {
    let mut out = String::new();
    let share = |ns: u64| 100.0 * ns as f64 / span_ns.max(1.0);
    let _ = writeln!(out, "{:<24} {:>10} {:>8}", "phase", "ms", "% span");
    for (name, ns) in [
        ("device evaluation", p.eval_ns),
        ("assembly", p.assembly_ns),
        ("refactor", p.refactor_ns),
        ("triangular solve", p.solve_ns),
        ("step control", p.step_ns),
        ("all phases", p.total_ns()),
    ] {
        let _ = writeln!(
            out,
            "{name:<24} {:>10.3} {:>7.1}%",
            ns as f64 / 1e6,
            share(ns)
        );
    }
    out
}

/// Queries `--serve` submits.
const SERVE_QUERIES: u32 = 2000;

/// The arrival gap `--serve` paces its queries at.
const SERVE_GAP: Duration = Duration::from_micros(50);

/// The 8-bit query for `v`, most significant bit first.
fn bits8(v: u64) -> PackedQuery {
    let bits: Vec<bool> = (0..8).rev().map(|b| (v >> b) & 1 == 1).collect();
    PackedQuery::from_bits(&bits)
}

/// `trace --serve`: a 2-shard service over 256 8-bit words answers
/// [`SERVE_QUERIES`] home-routed exact searches paced [`SERVE_GAP`]
/// apart, under summary tracing. Prints the trace summary (batch span,
/// queue wait, `serve.park_ns`) and the dispatch counters, so an
/// operator can see how many requests at that arrival gap found their
/// ring empty and ran on the submitting thread (caller-runs), and of
/// those that queued, how often one found its dispatcher parked and
/// paid a wake-up, and how often the spinning dispatcher picked it up
/// instead.
fn serve() -> Result<(), String> {
    let mut table = ShardedTcam::new(8, 2);
    for v in 0..256u64 {
        let shard = table.route_packed(&bits8(v));
        table.store_in(shard, TernaryWord::from_u64(v, 8));
    }
    trace::set_level(TraceLevel::Summary);
    trace::reset();
    // Rings deep enough for every query at once: a short gap measures
    // dispatch, not shedding.
    let config = ServiceConfig {
        jobs: 1,
        queue_capacity: 2 * SERVE_QUERIES as usize,
        ..ServiceConfig::default()
    };
    let svc = TcamService::start(table, &config);
    let client = svc.client();
    let start = Instant::now();
    let mut tickets = Vec::new();
    for i in 0..SERVE_QUERIES {
        let due = start + SERVE_GAP * i;
        // Yield while pacing: a spinning client would take a core from
        // the dispatchers it is measuring.
        while Instant::now() < due {
            std::thread::yield_now();
        }
        let req = Request::search(
            RequestKind::Exact,
            bits8(u64::from(i) * 37 % 256),
            Route::Home,
        );
        tickets.push(client.submit(0, req).map_err(|e| e.to_string())?);
    }
    for t in tickets {
        t.wait().ok_or("a query went unanswered")?;
    }
    let m = svc.drain();
    println!(
        "serve: {} exact queries, {} us apart, 2 shards",
        m.completed,
        SERVE_GAP.as_micros()
    );
    print!("{}", trace::summary().render());
    println!(
        "dispatchers: {} batches, {} parks, {} wake-ups ({:.1} % of submissions), \
         {} spin pick-ups, {} spin backoffs; {} caller-runs; wall latency p50 {:.1} us",
        m.batch.batches,
        m.dispatcher_parks,
        m.dispatcher_wakeups,
        100.0 * m.dispatcher_wakeups as f64 / m.submitted.max(1) as f64,
        m.dispatcher_spin_pickups,
        m.dispatcher_spin_backoffs,
        m.caller_runs,
        m.wall_latency_ns.p50.unwrap_or(0.0) / 1e3
    );
    Ok(())
}

/// Run the `trace` subcommand.
///
/// Accepts optional `<design> <stored-word> <query-bits>` positionals
/// (default: a 4-bit 2DG row with a one-bit mismatch) plus `--summary`
/// (default) or `--full` to pick the trace level, `--ndjson` to emit
/// the raw event stream, and `--out FILE` to write it to a file.
/// `--serve` traces the serving layer instead (see [`serve`]).
///
/// # Errors
/// Human-readable messages for bad arguments, simulation failures, or
/// an unwritable `--out` path.
pub fn run(args: &[String]) -> Result<(), String> {
    let mut positional = Vec::new();
    let mut ndjson = false;
    let mut level_flag = None;
    let mut out_path: Option<String> = None;
    let mut serve_mode = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--serve" => serve_mode = true,
            "--ndjson" => ndjson = true,
            "--full" => level_flag = Some(TraceLevel::Full),
            "--summary" => level_flag = Some(TraceLevel::Summary),
            "--out" => {
                out_path = Some(
                    it.next()
                        .ok_or_else(|| "--out needs a file path".to_string())?
                        .clone(),
                );
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown trace flag {other:?}"));
            }
            other => positional.push(other.to_string()),
        }
    }
    if serve_mode {
        if !positional.is_empty() || ndjson || out_path.is_some() || level_flag.is_some() {
            return Err("--serve takes no other argument".into());
        }
        return serve();
    }

    let (design, stored, query) = match positional.len() {
        0 => ("2dg".to_string(), "0101".to_string(), "0111".to_string()),
        3 => (
            positional[0].clone(),
            positional[1].clone(),
            positional[2].clone(),
        ),
        _ => {
            return Err(
                "usage: ferrotcam trace [<design> <stored-word> <query-bits>] \
                 [--summary|--full] [--ndjson] [--out FILE]"
                    .into(),
            );
        }
    };
    let design = crate::commands::parse_design(&design)?;
    let stored = crate::commands::parse_word(&stored)?;
    let query = crate::commands::parse_query(&query, stored.len())?;
    if design.is_two_step() && stored.len() % 2 != 0 {
        return Err("1.5T designs pair cells: use an even word length".into());
    }

    // Flags win over FERROTCAM_TRACE; default is summary so the command
    // always produces output even with tracing disabled in the env.
    let level = level_flag.unwrap_or_else(|| {
        std::env::var("FERROTCAM_TRACE")
            .ok()
            .and_then(|s| TraceLevel::parse(&s))
            .filter(|&l| l != TraceLevel::Off)
            .unwrap_or(TraceLevel::Summary)
    });
    trace::set_level(level);
    trace::reset();

    let mut sim = crate::commands::build(design, &stored, &query)?;
    let run = sim.run().map_err(|e| format!("transient failed: {e}"))?;
    let stats = run.trace.stats();

    if ndjson {
        let events = trace::take_events();
        let body = trace::render_ndjson(&events);
        match out_path {
            Some(path) => {
                if let Some(dir) = std::path::Path::new(&path).parent() {
                    if !dir.as_os_str().is_empty() {
                        std::fs::create_dir_all(dir)
                            .map_err(|e| format!("creating {}: {e}", dir.display()))?;
                    }
                }
                std::fs::write(&path, &body).map_err(|e| format!("writing {path}: {e}"))?;
                println!(
                    "wrote {} event(s) to {path} ({} accepted / {} rejected step(s) in SimStats)",
                    events.len(),
                    stats.accepted_steps,
                    stats.rejected_steps
                );
            }
            None => crate::commands::write_stdout(&body)?,
        }
    } else {
        let summary = trace::summary();
        println!(
            "{} row search: stored {stored}, level {level:?}",
            design.name()
        );
        print!("{}", summary.render());
        if let Some(span) = summary.spans.iter().find(|s| s.name == "transient") {
            print!(
                "{}",
                render_phases(&run.trace.phase_times(), span.mean * span.count as f64)
            );
        }
        println!(
            "simstats cross-check: {} accepted / {} rejected step(s), {} newton iter(s), \
             {} device eval(s), {} reuse(s), {} accept-time eval(s)",
            stats.accepted_steps,
            stats.rejected_steps,
            stats.newton_iters,
            stats.bypass_misses,
            stats.reuses,
            stats.accept_evals
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by every test that sets the process-wide trace level or
    /// resets the collector, so parallel tests do not clear each
    /// other's events.
    static TRACE_STATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn run_args(args: &[&str]) -> Result<(), String> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&v)
    }

    #[test]
    fn summary_and_ndjson_paths_work() {
        let _trace = TRACE_STATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        run_args(&[]).unwrap();
        let dir = std::env::temp_dir().join("ferrotcam-trace-cmd-test");
        let path = dir.join("t.ndjson");
        run_args(&["--full", "--ndjson", "--out", path.to_str().unwrap()]).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.lines().count() > 0);
        for line in body.lines() {
            let v: serde_json::JsonValue = serde_json::from_str(line).unwrap();
            assert!(v.get("kind").is_some(), "line missing kind: {line}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_mode_runs_and_rejects_row_arguments() {
        let _trace = TRACE_STATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        run_args(&["--serve"]).unwrap();
        assert!(run_args(&["--serve", "2dg", "01", "01"]).is_err());
        assert!(run_args(&["--serve", "--full"]).is_err());
    }

    #[test]
    fn bad_flags_rejected() {
        assert!(run_args(&["--bogus"]).is_err());
        assert!(run_args(&["--out"]).is_err());
        assert!(run_args(&["2dg", "01"]).is_err());
    }
}
