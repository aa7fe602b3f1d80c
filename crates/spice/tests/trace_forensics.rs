//! Integration tests for the trace collector, convergence forensics and
//! the transient-stepper defect fixes (breakpoint-clamped `dt` cuts,
//! singular-pivot propagation, breakpoint dedup tolerance).
//!
//! The trace collector is process-global, so every test that records
//! into it serialises on [`TRACE_LOCK`] and resets the collector while
//! holding the lock.

use ferrotcam_spice::engine::transient::collect_breakpoints;
use ferrotcam_spice::prelude::*;
use ferrotcam_spice::trace::{self, Event, TraceLevel};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn trace_lock() -> MutexGuard<'static, ()> {
    // A panicking test must not wedge the others behind a poisoned lock.
    TRACE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A linear conductor that poisons exactly one Newton solve: the first
/// `eval` at `t >= trip_after` reports a NaN terminal current, forcing
/// the stepper to reject that step; every later call behaves again.
#[derive(Debug)]
struct FailOnce {
    nodes: [NodeId; 2],
    ohms: f64,
    trip_after: f64,
    armed: AtomicBool,
}

impl FailOnce {
    fn new(p: NodeId, n: NodeId, ohms: f64, trip_after: f64) -> Self {
        Self {
            nodes: [p, n],
            ohms,
            trip_after,
            armed: AtomicBool::new(true),
        }
    }
}

impl NonlinearDevice for FailOnce {
    fn name(&self) -> &str {
        "XTRIP"
    }

    fn terminals(&self) -> &[NodeId] {
        &self.nodes
    }

    fn eval(&self, v: &[f64], out: &mut DeviceStamps, ctx: &EvalCtx) {
        if ctx.time >= self.trip_after && self.armed.swap(false, Ordering::SeqCst) {
            out.i[0] = f64::NAN;
            return;
        }
        let g = 1.0 / self.ohms;
        out.add_branch_current(0, 1, (v[0] - v[1]) * g, g);
    }
}

/// A device whose terminal current is always NaN: every Newton solve
/// containing it fails with a poisoned residual on its first node.
#[derive(Debug)]
struct NanDevice {
    nodes: [NodeId; 2],
}

impl NonlinearDevice for NanDevice {
    fn name(&self) -> &str {
        "XNAN"
    }

    fn terminals(&self) -> &[NodeId] {
        &self.nodes
    }

    fn eval(&self, _v: &[f64], out: &mut DeviceStamps, _ctx: &EvalCtx) {
        out.i[0] = f64::NAN;
    }
}

/// Regression for the breakpoint-rejection defect: a step whose `dt_eff`
/// is clamped to a tiny breakpoint gap gets rejected, and the retry must
/// cut the *pre-clamp* `dt` — quartering the clamped value instead used
/// to collapse the step size for the rest of the run.
///
/// Also pins the Full-level accounting: per-step NDJSON events must sum
/// exactly to `SimStats::{accepted_steps, rejected_steps}`.
#[test]
fn breakpoint_clamped_rejection_recovers_dt() {
    let _guard = trace_lock();
    trace::set_level(TraceLevel::Full);
    trace::reset();

    // Pulse rise of 1e-11 s puts two breakpoints 1e-11 apart at t = 5e-7;
    // the trip device rejects exactly the clamped step between them.
    let bp1 = 5e-7;
    let gap = 1e-11;
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.vsource(
        "V1",
        a,
        Circuit::gnd(),
        Waveform::pulse(0.0, 1.0, bp1, gap, 1e-9, 1e-6),
    );
    ckt.resistor("R1", a, b, 1e3).unwrap();
    ckt.capacitor("C1", b, Circuit::gnd(), 1e-12).unwrap();
    ckt.device(Box::new(FailOnce::new(
        b,
        Circuit::gnd(),
        1e6,
        bp1 + gap / 10.0,
    )));

    let tr = transient(&mut ckt, &TranOpts::to_time(1e-6))
        .expect("one rejected step must be survivable");
    let stats = tr.stats();
    let events = trace::take_events();
    trace::set_level(TraceLevel::Off);

    // Exact-sum property: every counted step has exactly one event.
    let accepts: Vec<(usize, f64)> = events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e {
            Event::StepAccept { dt, .. } => Some((i, *dt)),
            _ => None,
        })
        .collect();
    let rejects: Vec<(usize, f64)> = events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e {
            Event::StepReject { dt, .. } => Some((i, *dt)),
            _ => None,
        })
        .collect();
    assert_eq!(accepts.len() as u64, stats.accepted_steps);
    assert_eq!(rejects.len() as u64, stats.rejected_steps);
    assert_eq!(rejects.len(), 1, "the trip device rejects exactly one step");

    // The rejected attempt was the breakpoint-clamped one.
    let (reject_idx, rejected_dt) = rejects[0];
    assert!(
        rejected_dt <= gap * 1.01,
        "rejection should hit the clamped step, got dt = {rejected_dt:e}"
    );

    // dt must recover to within 2x of its pre-rejection value within
    // 5 accepted steps. Under the old `dt = dt_eff * 0.25` cut the
    // working dt would restart from ~2.5e-12 and still be below 1e-11
    // five growth steps later.
    let dt_pre = accepts
        .iter()
        .filter(|&&(i, _)| i < reject_idx)
        .map(|&(_, dt)| dt)
        .fold(0.0f64, f64::max);
    assert!(
        dt_pre > 1e-9,
        "steady-state dt before the edge, got {dt_pre:e}"
    );
    let recovered = accepts
        .iter()
        .filter(|&&(i, _)| i > reject_idx)
        .take(5)
        .any(|&(_, dt)| dt >= dt_pre / 2.0);
    assert!(
        recovered,
        "dt must recover to >= {:e} within 5 accepted steps",
        dt_pre / 2.0
    );

    // Span events bracket the analyses that ran.
    let span_started = |n: &str| {
        events
            .iter()
            .any(|e| matches!(e, Event::SpanStart { name, .. } if *name == n))
    };
    let span_ended = |n: &str| {
        events
            .iter()
            .any(|e| matches!(e, Event::SpanEnd { name, .. } if *name == n))
    };
    assert!(span_started("transient") && span_ended("transient"));
    assert!(span_started("dc") && span_ended("dc"));

    // Every event renders as one parseable NDJSON line with a kind.
    let body = trace::render_ndjson(&events);
    assert_eq!(body.lines().count(), events.len());
    for line in body.lines() {
        let v: serde_json::JsonValue =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("bad NDJSON line {line}: {e}"));
        assert!(v.get("kind").and_then(|k| k.as_str()).is_some());
        assert!(v
            .get("seq")
            .and_then(serde_json::JsonValue::as_i64)
            .is_some());
    }
}

/// Regression for the singular-matrix propagation defect: when step
/// shrinking cannot rescue a structural singularity the original error
/// (with its real pivot index) must surface, not a rebuilt `{index: 0}`.
#[test]
fn singular_pivot_propagates_original_index() {
    let _guard = trace_lock();
    trace::set_level(TraceLevel::Summary);
    trace::reset();

    // Two ideal sources forcing different voltages on the same node:
    // duplicate branch rows, structurally singular at every dt.
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.vsource("V1", a, Circuit::gnd(), Waveform::dc(1.0));
    ckt.vsource("V2", a, Circuit::gnd(), Waveform::dc(2.0));
    ckt.resistor("R1", a, Circuit::gnd(), 1e3).unwrap();

    let mut opts = TranOpts::to_time(1e-6);
    opts.uic = true; // skip the DC solve: exercise the stepper's arm
    let err = transient(&mut ckt, &opts).unwrap_err();
    let summary = trace::summary();
    let events = trace::take_events();
    trace::set_level(TraceLevel::Off);

    let Error::SingularMatrix { index } = err else {
        panic!("expected SingularMatrix, got {err}");
    };
    // Node `a` is variable 0; the conflicting branch rows are 1 and 2.
    // The pre-fix code re-threw `{index: 0}` unconditionally.
    assert!(index >= 1, "pivot index must be the real one, got {index}");

    assert!(summary.singular_pivots >= 1);
    assert!(
        summary.rejected_steps >= 1,
        "shrink attempts count as rejections"
    );
    let named = events.iter().any(|e| {
        matches!(e, Event::SingularPivot { index: i, node, .. }
            if *i == index && node.starts_with("i(V"))
    });
    assert!(
        named,
        "singular pivot event must map the index to a branch name"
    );
}

/// A poisoned residual in DC must surface an enriched `NonConvergence`
/// naming the worst-residual node and the device driving it, through
/// all fallback ladders.
#[test]
fn nonconvergence_names_worst_node_and_device() {
    let _guard = trace_lock();
    trace::set_level(TraceLevel::Summary);
    trace::reset();

    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let ml = ckt.node("ml");
    ckt.vsource("V1", vdd, Circuit::gnd(), Waveform::dc(1.0));
    ckt.resistor("R1", vdd, ml, 1e3).unwrap();
    ckt.device(Box::new(NanDevice {
        nodes: [ml, Circuit::gnd()],
    }));

    let err = operating_point(&ckt, &DcOpts::default()).unwrap_err();
    let summary = trace::summary();
    let events = trace::take_events();
    trace::set_level(TraceLevel::Off);

    let Error::NonConvergence {
        forensics: Some(f), ..
    } = &err
    else {
        panic!("expected enriched NonConvergence, got {err}");
    };
    assert_eq!(f.node, "ml");
    assert_eq!(f.device, "XNAN");
    let msg = err.to_string();
    assert!(msg.contains("ml") && msg.contains("XNAN"), "message: {msg}");

    // Plain Newton, the first gmin rung and the first source rung each
    // record one attributed failure before the error escapes.
    assert!(summary.newton_failures >= 3, "{summary:?}");
    let fell_back = events
        .iter()
        .any(|e| matches!(e, Event::Note { name, .. } if *name == "dc.fallback"));
    assert!(fell_back, "fallback ladders must leave note events");
}

/// Pins the breakpoint dedup tolerance: relative to the breakpoint's own
/// value, not to `t_stop`. Under the old `t_stop * 1e-12` absolute
/// tolerance, two real edges 5e-13 s apart early in a 1 s run were
/// silently merged and the stepper skated over the second one.
#[test]
fn breakpoint_dedup_is_relative_to_local_value() {
    let edges = |times: &[f64]| {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        for (k, &t) in times.iter().enumerate() {
            ckt.vsource(
                &format!("V{k}"),
                a,
                Circuit::gnd(),
                Waveform::pwl(vec![(0.0, 0.0), (t, 1.0)]),
            );
        }
        collect_breakpoints(&ckt, 1.0)
    };
    let count_near = |bps: &[f64], t: f64| bps.iter().filter(|&&b| (b - t).abs() < 0.4 * t).count();

    // Two distinct sub-picosecond-spaced edges on a 1 s run: both must
    // survive (the old absolute tolerance 1e-12 merged them).
    let bps = edges(&[1e-7, 1e-7 + 5e-13]);
    assert_eq!(count_near(&bps, 1e-7), 2, "{bps:?}");
    assert_eq!(
        *bps.last().unwrap(),
        1.0,
        "t_stop always terminates the list"
    );

    // Microsecond-spaced edges mid-run survive too.
    let bps = edges(&[0.5, 0.5 + 1e-6]);
    assert_eq!(count_near(&bps, 0.5), 2, "{bps:?}");

    // Float noise from the same edge computed two ways still collapses.
    let bps = edges(&[1e-7, 1e-7 + 1e-17]);
    assert_eq!(count_near(&bps, 1e-7), 1, "{bps:?}");
}
