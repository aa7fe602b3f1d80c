//! `perfbench` — one command that runs a named workload of the ferroTCAM
//! serve or SPICE path from a seed, checks every answer, and prints the
//! metrics as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-exact --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Run it from the repository root: the serve workloads read the
//! calibration datasheets under `results/`. `--trace 0` prints the
//! end-to-end metrics, `--trace 1` the per-layer ones (see README.md).

mod gen;
mod probe;
mod serve;
mod spans;
mod spice;
mod stats;

use std::fmt::Write as _;
use std::process::ExitCode;

/// End-to-end metrics, printed by every untraced run of every workload.
/// Only figures that repeat within a few percent on a small shared VM
/// are here; the tail and the rate ladder are per-layer (README.md).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_us", "us"),
    ("energy_fj_per_search", "fJ"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run; zero where the
/// workload does not use the layer.
const PER_LAYER: &[(&str, &str)] = &[
    ("p99_us", "us"),
    ("slo_qps", "req/s"),
    ("loadgen.lag_p99_us", "us"),
    ("service.submit_ns", "ns"),
    ("service.overhead_us", "us"),
    ("service.batch_us", "us"),
    ("admission.shed", "count"),
    ("queue.shed_full", "count"),
    ("queue.depth_max", "count"),
    ("batch.mean_size", "count"),
    ("batch.plan_ns", "ns"),
    ("backend.exact_ns", "ns"),
    ("backend.threshold_ns", "ns"),
    ("backend.topk_ns", "ns"),
    ("backend.range_ns", "ns"),
    ("backend.audit_us", "us"),
    ("backend.audit_sampled", "count"),
    ("packed.step1_survival", "ratio"),
    ("shard.apply_ns_per_write", "ns"),
    ("shard.snapshot_ns", "ns"),
    ("shard.epochs", "count"),
    ("calib.load_ms", "ms"),
    ("write_p99_us", "us"),
    ("transient_ms", "ms"),
    ("transient_p90_ms", "ms"),
    ("sim_delay_ps", "ps"),
    ("engine.newton_iters", "count"),
    ("engine.accepted_steps", "count"),
    ("engine.rejected_steps", "count"),
    ("engine.residual_ms", "ms"),
    ("matrix.factors", "count"),
    ("matrix.refactors", "count"),
    ("device.evals", "count"),
    ("device.bypass_hit_ratio", "ratio"),
    ("device.fefet_eval_ns", "ns"),
    ("device.mosfet_eval_ns", "ns"),
    ("trace.overhead_frac", "ratio"),
];

const WORKLOADS: &[&str] = &["serve-exact", "serve-approx", "serve-churn", "spice-array"];

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Corrupt one answer before it is checked (self-test only).
    pub inject_wrong: bool,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Set-up repetitions, reported in the run record.
    pub setups: usize,
    /// Why the measurement cannot be trusted (the load generator fell
    /// behind), if it cannot. Answers may still be correct.
    pub invalid: Option<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The result line: every metric of the run's list with its unit.
    /// A missing end-to-end metric or a non-finite value makes the run
    /// incorrect.
    fn json(&mut self, trace: bool) -> String {
        let list = if trace { PER_LAYER } else { END_TO_END };
        let mut body = String::new();
        for (i, &(name, unit)) in list.iter().enumerate() {
            let v = match self.value(name) {
                Some(v) if v.is_finite() => v,
                Some(_) => {
                    self.correct = false;
                    0.0
                }
                None if trace => 0.0,
                None => {
                    self.correct = false;
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

fn run_workload(name: &str, opts: &Opts, tiny: bool) -> Result<Outcome, String> {
    let mix = match name {
        "serve-exact" => serve::Mix::Exact,
        "serve-approx" => serve::Mix::Approx,
        "serve-churn" => serve::Mix::Churn,
        "spice-array" => {
            let shape = if tiny {
                spice::Shape::tiny()
            } else {
                spice::Shape::full()
            };
            return spice::run(opts, &shape);
        }
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    };
    let shape = if tiny {
        serve::Shape::tiny(mix)
    } else {
        serve::Shape::full(mix)
    };
    serve::run(mix, opts, &shape)
}

/// The commit the tree was checked out at, when it is a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "none (not a git checkout)".into(),
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-test",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        inject_wrong: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

/// Every workload at tiny sizes, untraced and traced: each completes
/// correctly and prints every metric of its list; an injected wrong
/// answer is counted as a failure.
fn self_test() -> bool {
    let mut ok = true;
    for &name in WORKLOADS {
        for trace in [false, true] {
            let opts = Opts {
                seed: 7,
                seconds: 0.6,
                trace,
                inject_wrong: false,
            };
            let verdict = match run_workload(name, &opts, true) {
                Ok(mut o) => {
                    let line = o.json(trace);
                    let list = if trace { PER_LAYER } else { END_TO_END };
                    let named = list.iter().all(|(n, u)| {
                        line.contains(&format!("\"{n}\": {{\"value\": "))
                            && line.contains(&format!("\"unit\": \"{u}\""))
                    });
                    let own = trace || END_TO_END.iter().all(|(n, _)| o.value(n).is_some());
                    if o.correct && o.failed == 0 && o.attempted > 0 && named && own {
                        Ok(())
                    } else {
                        Err(format!("incorrect or incomplete: {line}"))
                    }
                }
                Err(e) => Err(e),
            };
            ok &= report(&format!("{name} trace={}", u8::from(trace)), verdict);
        }
    }
    for name in ["serve-exact", "spice-array"] {
        let opts = Opts {
            seed: 7,
            seconds: 0.6,
            trace: false,
            inject_wrong: true,
        };
        let verdict = match run_workload(name, &opts, true) {
            Ok(o) if !o.correct && o.failed > 0 => Ok(()),
            Ok(o) => Err(format!("wrong answer not counted: failed {}", o.failed)),
            Err(e) => Err(e),
        };
        ok &= report(&format!("{name} injected wrong answer"), verdict);
    }
    ok
}

fn report(what: &str, verdict: Result<(), String>) -> bool {
    match verdict {
        Ok(()) => {
            println!("self-test {what}: ok");
            true
        }
        Err(e) => {
            println!("self-test {what}: FAILED: {e}");
            false
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--self-test") {
        return if self_test() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let (workload, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run_workload(&workload, &opts, false) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "run {{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"setups\": {}, \"nproc\": {nproc}, \"git_rev\": \"{}\", \"valid\": {}}}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        outcome.setups,
        git_rev(),
        outcome.invalid.is_none()
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    if let Some(why) = &outcome.invalid {
        println!("run invalid: {why}");
    }
    let line = outcome.json(opts.trace);
    println!("{line}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
