//! The `spice-array` workload: the two-step search transient of an
//! 8-row x 16-digit 1.5T1DG full array, rebuilt for each search from
//! seeded words and query and run one at a time on this thread.

use crate::gen::Rng;
use crate::probe::netlist_factor;
use crate::spans::Spans;
use crate::stats::{mean, median, peak_rss_mb, quantile};
use crate::{Opts, Outcome};
use ferrotcam::{
    build_full_array, BehavioralTcam, DesignKind, DesignParams, FullArrayCircuit, RowParasitics,
    SearchTiming, Ternary, TernaryWord,
};
use ferrotcam_spice::trace::{self as ftrace, TraceLevel};
use ferrotcam_spice::{transient, Circuit, DeviceStamps, Edge, EvalCtx, SimStats, Trace, TranOpts};
use std::time::Instant;

/// Sizes of one run.
#[derive(Debug, Clone)]
pub struct Shape {
    pub rows: usize,
    pub width: usize,
    /// Searches per second of `--seconds`. The count, not a clock, ends
    /// the run, so every figure covers the same seeded searches and the
    /// modelled ones (energy, delay, solver counts) repeat exactly.
    pub searches_per_s: f64,
}

impl Shape {
    pub fn full() -> Self {
        Self {
            rows: 8,
            width: 16,
            searches_per_s: 6.0,
        }
    }

    pub fn tiny() -> Self {
        Self {
            rows: 2,
            width: 4,
            searches_per_s: 20.0,
        }
    }
}

/// Seeded stored words and query of search `i`: every search has the
/// same mix of row outcomes, with a quarter of each row's digits
/// wildcards, so searches differ in their bits, not in how much of the
/// array switches.
fn inputs(seed: u64, i: u64, shape: &Shape) -> (Vec<TernaryWord>, Vec<bool>) {
    let mut rng = Rng::new(seed, 5000 + i);
    let w = shape.width;
    // A balanced query: half the search lines drive each way.
    let mut query = vec![false; w];
    let mut ones = 0;
    while ones < w / 2 {
        let c = rng.below(w);
        if !query[c] {
            query[c] = true;
            ones += 1;
        }
    }
    let rows = (0..shape.rows)
        .map(|r| {
            // Row classes cycle: match, step-1 miss, step-2 miss, step-1
            // miss. A miss differs from the query in one digit, an even
            // (step-1) or odd (step-2) one: the slow single-mismatch
            // discharge.
            let miss = match r % 4 {
                0 => None,
                2 => Some(2 * rng.below(w / 2) + 1),
                _ => Some(2 * rng.below(w / 2)),
            };
            let mut digits: Vec<Ternary> = query
                .iter()
                .enumerate()
                .map(|(c, &b)| Ternary::from_bit(b != (Some(c) == miss)))
                .collect();
            let mut wild = 0;
            while wild < w / 4 {
                let c = rng.below(w);
                if Some(c) != miss && digits[c] != Ternary::X {
                    digits[c] = Ternary::X;
                    wild += 1;
                }
            }
            TernaryWord::new(digits)
        })
        .collect();
    (rows, query)
}

fn build(
    params: &DesignParams,
    rows: &[TernaryWord],
    query: &[bool],
) -> Result<FullArrayCircuit, String> {
    build_full_array(
        params,
        rows,
        query,
        &SearchTiming::default(),
        &RowParasitics::default(),
        true,
    )
    .map_err(|e| format!("netlist build failed: {e}"))
}

fn tran_opts() -> TranOpts {
    // The same settings as `ferrotcam::search_full_array`.
    let mut opts = TranOpts::to_time(SearchTiming::default().t_stop(true));
    opts.dt_init = 1e-12;
    opts.dt_max = 4e-12;
    opts.uic = true;
    opts
}

/// One simulated search.
struct Search {
    host_ns: f64,
    /// Source energy of the whole search (J).
    energy_j: f64,
    /// Latest sense-amplifier fall among the missing rows (s).
    delay_s: f64,
    correct: bool,
    stats: SimStats,
    circuit: Circuit,
    trace: Trace,
}

fn search(
    params: &DesignParams,
    seed: u64,
    i: u64,
    shape: &Shape,
    spans: &mut Spans,
    inject_wrong: bool,
) -> Result<Search, String> {
    let (rows, query) = inputs(seed, i, shape);
    let FullArrayCircuit {
        mut circuit,
        sa_outs,
    } = build(params, &rows, &query)?;
    let t0 = Instant::now();
    let trace = spans
        .time("transient", None, || transient(&mut circuit, &tran_opts()))
        .map_err(|e| format!("search {i}: transient failed: {e}"))?;
    let host_ns = t0.elapsed().as_nanos() as f64;

    let vdd = params.vdd;
    let t1 = SearchTiming::default().step1_start();
    let mut behav = BehavioralTcam::new(query.len());
    for w in &rows {
        behav.store(w.clone());
    }
    let expected = behav.search(&query).matches;
    let mut correct = true;
    let mut delay_s = 0.0f64;
    for (r, sa) in sa_outs.iter().enumerate() {
        let sig = format!("v({sa})");
        let high = trace.final_value(&sig).map_err(|e| e.to_string())? > vdd / 2.0;
        let verdict = high != (inject_wrong && r == 0);
        correct &= verdict == expected.contains(&r);
        if !high {
            let mut nth = 1;
            while let Some(t) = trace
                .cross(&sig, vdd / 2.0, Edge::Falling, nth)
                .map_err(|e| e.to_string())?
            {
                if t >= t1 {
                    delay_s = delay_s.max(t - t1);
                    break;
                }
                nth += 1;
            }
        }
    }
    let energy_j = trace
        .signal_names()
        .iter()
        .filter(|s| s.starts_with("e("))
        .map(|s| trace.final_value(s).unwrap_or(0.0))
        .sum();
    Ok(Search {
        host_ns,
        energy_j,
        delay_s,
        correct,
        stats: trace.stats(),
        circuit,
        trace,
    })
}

/// Outcome of a series of searches.
#[derive(Default)]
struct Series {
    host_ns: Vec<f64>,
    /// `host_ns` at the probe's reference speed.
    norm_ns: Vec<f64>,
    /// The probe's speed factor before each search.
    speed: Vec<f64>,
    attempted: u64,
    failed: u64,
    energy_j: Vec<f64>,
    delay_s: Vec<f64>,
    stats: Vec<SimStats>,
    last: Option<(Circuit, Trace)>,
}

/// One timed set-up (s): the device presets and the netlist of search
/// 0, what the program does before its first transient.
fn setup(seed: u64, shape: &Shape) -> Result<(f64, DesignParams), String> {
    let t0 = Instant::now();
    let p = DesignParams::preset(DesignKind::T15Dg);
    let (rows, query) = inputs(seed, 0, shape);
    std::hint::black_box(build(&p, &rows, &query)?);
    Ok((t0.elapsed().as_secs_f64(), p))
}

/// Simulate the seeded searches `0..count`, in order, each right after
/// a host-speed probe. With `setups`, a set-up runs between each two
/// searches, so their median samples the host across the whole run, not
/// one moment of it; set-up times (s) are pushed at the reference speed.
fn series(
    params: &DesignParams,
    opts: &Opts,
    shape: &Shape,
    count: u64,
    spans: &mut Spans,
    mut setups: Option<&mut Vec<f64>>,
) -> Result<Series, String> {
    let mut s = Series::default();
    for i in 0..count {
        let speed = netlist_factor();
        s.speed.push(speed);
        if let Some(times) = setups.as_deref_mut() {
            if i > 0 {
                times.push(setup(opts.seed, shape)?.0 * speed);
            }
        }
        s.attempted += 1;
        match search(
            params,
            opts.seed,
            i,
            shape,
            spans,
            opts.inject_wrong && i == 0,
        ) {
            Ok(one) => {
                if !one.correct {
                    s.failed += 1;
                }
                s.host_ns.push(one.host_ns);
                s.norm_ns.push(one.host_ns * speed);
                s.energy_j.push(one.energy_j);
                s.delay_s.push(one.delay_s);
                s.stats.push(one.stats);
                s.last = Some((one.circuit, one.trace));
            }
            Err(e) => {
                eprintln!("{e}");
                s.failed += 1;
            }
        }
    }
    Ok(s)
}

pub fn run(opts: &Opts, shape: &Shape) -> Result<Outcome, String> {
    ftrace::set_level(TraceLevel::Off);
    // A traced run splits its time between an untraced and a traced
    // pass over the same searches.
    let secs = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let count = ((secs * shape.searches_per_s).round() as u64).max(1);
    let speed = netlist_factor();
    let (first, params) = setup(opts.seed, shape)?;
    let mut setup_s = vec![first * speed];
    let plain = series(
        &params,
        opts,
        shape,
        count,
        &mut Spans::new(false),
        Some(&mut setup_s),
    )?;
    let mut out = Outcome {
        setups: setup_s.len(),
        ..Outcome::default()
    };
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    let us: Vec<f64> = plain.host_ns.iter().map(|ns| ns / 1e3).collect();
    let raw_p50_us = median(&mut us.clone());
    let p50_us = median(&mut plain.norm_ns.clone()) / 1e3;
    let energy_fj = mean(&plain.energy_j) * 1e15;
    let delay_ps = mean(&plain.delay_s) * 1e12;
    out.notes.push(format!(
        "{} search transients: median {:.1} ms ({:.1} ms at the reference speed; median speed factor {:.3}), p90 {:.1} ms, p99 {:.1} ms; {energy_fj:.3} fJ and {delay_ps:.2} ps per search",
        us.len(),
        raw_p50_us / 1e3,
        p50_us / 1e3,
        median(&mut plain.speed.clone()),
        quantile(&mut us.clone(), 0.9) / 1e3,
        quantile(&mut us.clone(), 0.99) / 1e3,
    ));
    out.metric("setup_s", median(&mut setup_s));
    out.metric("p50_us", p50_us);
    out.metric("p99_us", quantile(&mut us.clone(), 0.99));
    // One transient at a time: the rate the array search sustains.
    out.metric("slo_qps", 1e6 / mean(&us).max(1e-9));
    out.metric("energy_fj_per_search", energy_fj);
    out.metric("peak_rss_mb", peak_rss_mb());

    if opts.trace {
        ftrace::reset();
        ftrace::set_level(TraceLevel::Summary);
        let mut spans = Spans::new(true);
        let traced = series(&params, opts, shape, count, &mut spans, None)?;
        let summary = ftrace::summary();
        ftrace::set_level(TraceLevel::Off);
        out.attempted += traced.attempted;
        out.failed += traced.failed;
        let traced_us = median(&mut traced.norm_ns.clone()) / 1e3;
        let engine_span = summary.spans.iter().find(|s| s.name == "transient");
        out.notes.push(format!(
            "traced: {} transients, program span mean {:.1} ms",
            traced.host_ns.len(),
            engine_span.map_or(0.0, |s| s.mean / 1e6)
        ));
        let per = |f: fn(&SimStats) -> u64| {
            mean(&plain.stats.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
        };
        let evals = per(|s| s.bypass_misses);
        let hits = per(|s| s.bypass_hits);
        let (circuit, trace) = plain.last.as_ref().expect("at least one search ran");
        let dev = device_eval_ns(circuit, trace, &mut spans);
        let transient_ms = raw_p50_us / 1e3;
        // The engine's MNA assembly is private, so the matrix layer is
        // counted, not timed, and its time stays in the residual.
        let residual_ms = transient_ms - evals * dev.mean_ns / 1e6;
        out.metric("transient_ms", transient_ms);
        out.metric("transient_p90_ms", quantile(&mut us.clone(), 0.9) / 1e3);
        out.metric("sim_delay_ps", delay_ps);
        out.metric("engine.newton_iters", per(|s| s.newton_iters));
        out.metric("engine.accepted_steps", per(|s| s.accepted_steps));
        out.metric("engine.rejected_steps", per(|s| s.rejected_steps));
        out.metric("engine.residual_ms", residual_ms);
        out.metric("matrix.factors", per(|s| s.full_factors));
        out.metric("matrix.refactors", per(|s| s.refactors));
        out.metric("device.evals", evals);
        out.metric(
            "device.bypass_hit_ratio",
            if hits + evals > 0.0 {
                hits / (hits + evals)
            } else {
                0.0
            },
        );
        out.metric("device.fefet_eval_ns", dev.fefet_ns);
        out.metric("device.mosfet_eval_ns", dev.mosfet_ns);
        out.metric("trace.overhead_frac", traced_us / p50_us - 1.0);
        out.notes.extend(spans.summary());
    }
    out.correct = out.failed == 0;
    Ok(out)
}

struct DeviceTimes {
    fefet_ns: f64,
    mosfet_ns: f64,
    /// Per-evaluation mean over every device instance of the array.
    mean_ns: f64,
}

/// Time `NonlinearDevice::eval` on the array's own instances at the
/// terminal voltages the transient ended on. FeFET instances are named
/// `fe<row>_<col>`; every other device of the array is a MOSFET.
fn device_eval_ns(circuit: &Circuit, trace: &Trace, spans: &mut Spans) -> DeviceTimes {
    let volts = |n: ferrotcam_spice::NodeId| {
        if n.is_ground() {
            0.0
        } else {
            trace
                .final_value(&format!("v({})", circuit.node_name(n)))
                .unwrap_or(0.0)
        }
    };
    let ctx = EvalCtx::default();
    let mut per_kind = [(0.0f64, 0usize); 2];
    let layer = spans.begin("layer.device", None, None);
    for (k, name) in ["device.fefet_eval", "device.mosfet_eval"]
        .into_iter()
        .enumerate()
    {
        let devices: Vec<_> = circuit
            .devices()
            .iter()
            .filter(|d| d.name().starts_with("fe") == (k == 0))
            .map(|d| {
                let v: Vec<f64> = d.terminals().iter().map(|&n| volts(n)).collect();
                (d, v)
            })
            .collect();
        if devices.is_empty() {
            continue;
        }
        let mut stamps: Vec<DeviceStamps> = devices
            .iter()
            .map(|(_, v)| DeviceStamps::new(v.len()))
            .collect();
        let reps = 2000;
        spans.time(name, layer, || {
            for _ in 0..reps {
                for ((d, v), s) in devices.iter().zip(stamps.iter_mut()) {
                    s.clear();
                    d.eval(v, s, &ctx);
                }
                std::hint::black_box(&stamps);
            }
        });
        per_kind[k] = (
            spans.total_ns(name) / (reps * devices.len()) as f64,
            devices.len(),
        );
    }
    spans.end(layer);
    let [(fefet_ns, n_fe), (mosfet_ns, n_mos)] = per_kind;
    DeviceTimes {
        fefet_ns,
        mosfet_ns,
        mean_ns: (fefet_ns * n_fe as f64 + mosfet_ns * n_mos as f64) / (n_fe + n_mos).max(1) as f64,
    }
}
