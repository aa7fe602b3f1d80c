//! Exactness of slot-bound assembly and of evaluation reuse.
//!
//! In test builds every slot-bound assembly is checked against the
//! triplet oracle ([`check_against_triplets`]): the same iterate stamped
//! into [`Triplets`], passed through [`ScatterMap::scatter`] and
//! [`PermutePlan::apply`], must give the same matrix and RHS bit for bit.
//! The tests below drive that check over random nonlinear ladders with
//! stateful devices, pin the reuse counters, and force the fallback to
//! the triplet path.

use super::{Companion, NewtonWorkspace, System};
use crate::engine::transient::{transient, TranOpts};
use crate::matrix::sparse::{CscMatrix, PermutePlan, ScatterMap, Triplets};
use crate::netlist::{Circuit, NodeId};
use crate::nonlinear::{DeviceStamps, EvalCtx, NonlinearDevice};
use crate::waveform::Waveform;
use proptest::prelude::*;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

thread_local! {
    /// Slot-bound assemblies checked on this thread.
    static CHECKS: Cell<u64> = const { Cell::new(0) };
}

fn checks() -> u64 {
    CHECKS.with(Cell::get)
}

/// Assert that the system `ws` holds — the slot-bound values in the
/// solver and `ws.rhs` — equals a triplet assembly of the same iterate
/// from the same device stamps, bit for bit. Entries that are exactly
/// zero are skipped: a bound slot may hold an explicit zero where the
/// triplet stream drops the stamp.
pub(super) fn check_against_triplets(
    sys: &System<'_>,
    x: &[f64],
    time: f64,
    source_scale: f64,
    gmin: f64,
    companion: Option<&Companion>,
    ws: &NewtonWorkspace,
) {
    let mut tri = Triplets::new(sys.nvars);
    let mut rhs = vec![0.0; sys.nvars];
    sys.stamp_static(
        x,
        time,
        source_scale,
        gmin,
        companion,
        Some(&mut tri),
        &mut rhs,
    );
    for (di, dev) in sys.ckt.devices().iter().enumerate() {
        sys.stamp_device(
            dev.terminals(),
            &ws.stamps[di],
            &ws.vt_cache[ws.vt_offsets[di]..ws.vt_offsets[di + 1]],
            companion.map(|c| (c, di)),
            &mut rhs,
            &mut tri,
        );
    }
    let mut csc = CscMatrix::default();
    ScatterMap::build(&tri).scatter(&tri, &mut csc);
    let mut oracle = CscMatrix::default();
    PermutePlan::build(&csc, ws.solver.perm().to_vec()).apply(&csc, &mut oracle);
    let nonzero = |m: &CscMatrix| -> Vec<(usize, usize, u64)> {
        m.entries()
            .filter(|&(_, _, v)| v != 0.0)
            .map(|(r, c, v)| (r, c, v.to_bits()))
            .collect()
    };
    assert_eq!(
        nonzero(ws.solver.matrix()),
        nonzero(&oracle),
        "slot-bound matrix differs from the triplet oracle"
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&ws.rhs), bits(&rhs), "slot-bound RHS differs");
    CHECKS.with(|c| c.set(c.get() + 1));
}

/// Smooth cubic conductor with a voltage-dependent charge.
#[derive(Debug)]
struct CubicConductor {
    name: String,
    nodes: [NodeId; 2],
    g1: f64,
    g3: f64,
}

impl NonlinearDevice for CubicConductor {
    fn name(&self) -> &str {
        &self.name
    }

    fn terminals(&self) -> &[NodeId] {
        &self.nodes
    }

    fn eval(&self, v: &[f64], out: &mut DeviceStamps, _ctx: &EvalCtx) {
        let vd = v[0] - v[1];
        out.add_branch_current(
            0,
            1,
            self.g1 * vd + self.g3 * vd.powi(3),
            self.g1 + 3.0 * self.g3 * vd * vd,
        );
        out.add_branch_charge(0, 1, 1e-14 * vd + 1e-15 * vd * vd, 1e-14 + 2e-15 * vd);
    }
}

/// A two-terminal device with one bit of history: its conductance and
/// stored charge depend on `on`, which `commit` toggles when the
/// voltage crosses `v_on` upwards or `v_off` downwards. `evals` counts
/// `eval` calls.
#[derive(Debug)]
struct Latch {
    name: String,
    nodes: [NodeId; 2],
    v_on: f64,
    v_off: f64,
    on: bool,
    /// `commit` reports a change even when `on` did not move.
    always_report: bool,
    evals: Arc<AtomicU64>,
}

impl Latch {
    fn new(name: &str, nodes: [NodeId; 2], v_on: f64) -> Self {
        Self {
            name: name.to_string(),
            nodes,
            v_on,
            v_off: 0.5 * v_on,
            on: false,
            always_report: false,
            evals: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl NonlinearDevice for Latch {
    fn name(&self) -> &str {
        &self.name
    }

    fn terminals(&self) -> &[NodeId] {
        &self.nodes
    }

    fn eval(&self, v: &[f64], out: &mut DeviceStamps, _ctx: &EvalCtx) {
        self.evals.fetch_add(1, AtomicOrdering::Relaxed);
        let g = if self.on { 2e-4 } else { 3e-5 };
        let vd = v[0] - v[1];
        out.add_branch_current(0, 1, g * vd, g);
        let c = if self.on { 3e-15 } else { 1e-15 };
        out.add_branch_charge(0, 1, c * vd, c);
    }

    fn commit(&mut self, v: &[f64], _ctx: &EvalCtx) -> bool {
        let vd = v[0] - v[1];
        let was = self.on;
        if vd >= self.v_on {
            self.on = true;
        } else if vd <= self.v_off {
            self.on = false;
        }
        self.always_report || self.on != was
    }
}

/// Parameters of one random RC + cubic-conductor ladder.
#[derive(Debug, Clone)]
struct Ladder {
    res: Vec<f64>,
    caps: Vec<f64>,
    g1s: Vec<f64>,
    g3s: Vec<f64>,
    v_hi: f64,
}

fn ladder() -> impl Strategy<Value = Ladder> {
    (2usize..=5).prop_flat_map(|stages| {
        (
            proptest::collection::vec(500.0f64..20e3, stages),
            proptest::collection::vec(1e-14f64..5e-13, stages),
            proptest::collection::vec(1e-5f64..1e-3, stages),
            proptest::collection::vec(1e-6f64..5e-4, stages),
            0.3f64..1.5,
        )
            .prop_map(|(res, caps, g1s, g3s, v_hi)| Ladder {
                res,
                caps,
                g1s,
                g3s,
                v_hi,
            })
    })
}

/// A pulsed source drives a resistor chain; every stage node has a
/// capacitor, a cubic conductor and a latch to ground. Returns the
/// circuit and its stage nodes.
fn build(l: &Ladder) -> (Circuit, Vec<NodeId>) {
    let mut ckt = Circuit::new();
    let gnd = Circuit::gnd();
    let src = ckt.node("src");
    ckt.vsource(
        "VIN",
        src,
        gnd,
        Waveform::pulse(0.0, l.v_hi, 100e-12, 50e-12, 50e-12, 400e-12),
    );
    let mut prev = src;
    let mut nodes = Vec::new();
    for s in 0..l.res.len() {
        let node = ckt.node(&format!("n{s}"));
        ckt.resistor(&format!("R{s}"), prev, node, l.res[s])
            .unwrap();
        ckt.capacitor(&format!("C{s}"), node, gnd, l.caps[s])
            .unwrap();
        ckt.device(Box::new(CubicConductor {
            name: format!("X{s}"),
            nodes: [node, gnd],
            g1: l.g1s[s],
            g3: l.g3s[s],
        }));
        ckt.device(Box::new(Latch::new(
            &format!("L{s}"),
            [node, gnd],
            0.4 * l.v_hi,
        )));
        nodes.push(node);
        prev = node;
    }
    (ckt, nodes)
}

fn tran_opts() -> TranOpts {
    let mut opts = TranOpts::to_time(1e-9);
    opts.dt_max = 10e-12;
    opts.uic = true;
    opts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every slot-bound iterate equals its triplet assembly while
    /// latches flip their state mid-run.
    #[test]
    fn slot_bound_assembly_matches_triplets(l in ladder()) {
        let (mut ckt, _) = build(&l);
        let before = checks();
        let stats = transient(&mut ckt, &tran_opts()).expect("transient").stats();
        // Only the first assembly of the run goes through triplets.
        prop_assert_eq!(checks() - before, stats.newton_iters - 1);
        prop_assert_eq!(stats.pattern_rebuilds, 1);
    }

    /// Each device is either evaluated or exactly reused at every
    /// iteration, and a device whose `commit` reported a state change is
    /// evaluated again, never reused.
    #[test]
    fn every_iteration_evaluates_or_reuses_each_device(l in ladder()) {
        let (mut ckt, nodes) = build(&l);
        // Twin latches on the first stage that never switch: both always
        // see the same voltages, but `reporter` claims a state change
        // after every step.
        let gnd = Circuit::gnd();
        let mut reporter = Latch::new("LA", [nodes[0], gnd], 10.0);
        reporter.always_report = true;
        let quiet = Latch::new("LB", [nodes[0], gnd], 10.0);
        let (evals_reporter, evals_quiet) = (reporter.evals.clone(), quiet.evals.clone());
        ckt.device(Box::new(reporter));
        ckt.device(Box::new(quiet));
        let ndev = ckt.devices().len() as u64;
        let s = transient(&mut ckt, &tran_opts()).expect("transient").stats();
        prop_assert_eq!(s.bypass_hits, 0);
        prop_assert_eq!(s.bypass_misses + s.reuses, s.newton_iters * ndev);
        // Seeding at t = 0 and each accept evaluate every device at most
        // once, outside the Newton counts above.
        prop_assert!(s.accept_evals >= ndev, "{s:?}");
        prop_assert!(s.accept_evals <= (s.accepted_steps + 1) * ndev, "{s:?}");
        // At least the quiet twin reuses its accept-time evaluation in
        // iteration 1 of every later solve.
        prop_assert!(s.reuses >= s.accepted_steps - 1, "{s:?}");
        // The reporter is evaluated once more than its twin in each solve
        // that follows one of its commits (all but the last).
        let extra = evals_reporter.load(AtomicOrdering::Relaxed)
            - evals_quiet.load(AtomicOrdering::Relaxed);
        prop_assert_eq!(extra, s.accepted_steps - 1);
    }
}

/// A three-terminal device that, once `commit` engages it, also stamps a
/// transconductance from terminal 1's voltage into terminal 0 — a
/// Jacobian position no element of the circuit covers.
#[derive(Debug)]
struct Coupler {
    nodes: [NodeId; 3],
    engaged: bool,
}

impl NonlinearDevice for Coupler {
    fn name(&self) -> &str {
        "XCPL"
    }

    fn terminals(&self) -> &[NodeId] {
        &self.nodes
    }

    fn eval(&self, v: &[f64], out: &mut DeviceStamps, _ctx: &EvalCtx) {
        out.add_branch_current(0, 2, 1e-4 * (v[0] - v[2]), 1e-4);
        if self.engaged {
            let gm = 2e-5;
            out.i[0] += gm * v[1];
            out.i[2] -= gm * v[1];
            out.gi[1] += gm;
            out.gi[2 * 3 + 1] -= gm;
        }
    }

    fn commit(&mut self, v: &[f64], _ctx: &EvalCtx) -> bool {
        let engage = !self.engaged && v[0] - v[2] > 0.5;
        self.engaged |= engage;
        engage
    }
}

/// A device that starts stamping a new Jacobian position mid-run sends
/// that assembly through triplets, which rebuilds the map and rebinds;
/// the run continues slot-bound, still equal to the oracle.
#[test]
fn new_jacobian_position_falls_back_to_triplets() {
    let mut ckt = Circuit::new();
    let gnd = Circuit::gnd();
    let src = ckt.node("src");
    ckt.vsource(
        "VIN",
        src,
        gnd,
        Waveform::pulse(0.0, 1.0, 100e-12, 50e-12, 50e-12, 1.0),
    );
    let n: Vec<NodeId> = (0..3).map(|k| ckt.node(&format!("n{k}"))).collect();
    let mut prev = src;
    for (k, &node) in n.iter().enumerate() {
        ckt.resistor(&format!("R{k}"), prev, node, 1e3).unwrap();
        ckt.capacitor(&format!("C{k}"), node, gnd, 1e-13).unwrap();
        prev = node;
    }
    ckt.device(Box::new(Coupler {
        nodes: [n[0], n[2], gnd],
        engaged: false,
    }));
    let before = checks();
    let stats = transient(&mut ckt, &tran_opts())
        .expect("transient")
        .stats();
    assert_eq!(stats.pattern_rebuilds, 2, "{stats:?}");
    assert_eq!(stats.full_factors, 2, "{stats:?}");
    // Two triplet assemblies (first and fallback); the rest are bound
    // and checked.
    assert_eq!(checks() - before, stats.newton_iters - 2);
}
