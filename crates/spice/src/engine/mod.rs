//! Simulation engine: MNA assembly and the damped Newton–Raphson core
//! shared by DC and transient analyses.

pub mod ac;
pub mod dc;
pub mod sweep;
pub mod transient;

#[cfg(test)]
mod exactness;

use crate::error::{ConvergenceForensics, Error, Result};
use crate::matrix::cached::CachedSolver;
use crate::matrix::sparse::{Stamper, Triplets};
use crate::netlist::{Circuit, Element, NodeId};
use crate::nonlinear::{DeviceStamps, EvalCtx, NonlinearDevice};
use serde::Serialize;
use std::time::Instant;

/// Absolute node-voltage convergence tolerance (V).
const VNTOL: f64 = 1e-6;
/// Absolute branch-current convergence tolerance (A).
const ABSTOL: f64 = 1e-12;
/// Relative convergence tolerance.
const RELTOL: f64 = 1e-4;

/// Newton iterations per solve attempt.
const MAX_ITERS: usize = 100;
/// Largest node-voltage change per Newton iteration (V); larger updates
/// are scaled down (damped Newton), which keeps exponential device
/// models from overflowing.
const VLIMIT: f64 = 0.4;
/// Shunt conductance from every node to ground (S).
pub(crate) const GMIN: f64 = 1e-12;

/// Solver work counters for one analysis run.
///
/// Exposed on every engine result ([`super::engine::dc::Solution`],
/// [`crate::probe::Trace`], [`super::engine::sweep::SweepResult`]) so
/// callers can see how often the pattern-cached fast path
/// ([`crate::matrix::CachedSolver`]) was hit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Newton iterations run (each is one assemble + one linear solve).
    pub newton_iters: u64,
    /// Full LU factorisations (symbolic + numeric).
    pub full_factors: u64,
    /// Numeric-only refactorisations on a reused pattern.
    pub refactors: u64,
    /// Scatter-plan rebuilds caused by a changed assembly pattern.
    pub pattern_rebuilds: u64,
    /// Accepted transient timesteps (zero for DC analyses).
    pub accepted_steps: u64,
    /// Rejected (re-tried with a smaller dt) transient timesteps.
    pub rejected_steps: u64,
    /// Always 0: the engine has no tolerance bypass. Kept, with its
    /// name, for readers of the old counter until it is renamed.
    pub bypass_hits: u64,
    /// Device evaluations actually performed by Newton iterations.
    pub bypass_misses: u64,
    /// Device evaluations outside Newton iterations: one per device when
    /// a transient seeds its charge history at t = 0 and after each
    /// accepted step, unless the device's cached evaluation is exact.
    pub accept_evals: u64,
    /// Newton-iteration device evaluations skipped because the terminal
    /// voltages were bitwise equal to those of the cached evaluation and
    /// the device's state had not moved since: the cached stamps are
    /// what `eval` would return.
    pub reuses: u64,
}

impl SimStats {
    /// Accumulate another run's counters into this one.
    pub fn merge(&mut self, other: SimStats) {
        self.newton_iters += other.newton_iters;
        self.full_factors += other.full_factors;
        self.refactors += other.refactors;
        self.pattern_rebuilds += other.pattern_rebuilds;
        self.accepted_steps += other.accepted_steps;
        self.rejected_steps += other.rejected_steps;
        self.bypass_hits += other.bypass_hits;
        self.bypass_misses += other.bypass_misses;
        self.accept_evals += other.accept_evals;
        self.reuses += other.reuses;
    }
}

/// Wall time an analysis spent in each phase of its Newton loop.
///
/// Recorded only while tracing is on ([`crate::trace::TraceLevel`]
/// `Summary` or above): the clock is read once per phase per Newton
/// iteration, never per device, and not at all in an untraced run,
/// where every field stays zero. Consecutive phases share their clock
/// reads, so the fields tile the analysis from its first Newton solve
/// to its end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PhaseTimes {
    /// Device evaluation, including the reuse decisions (ns).
    pub eval_ns: u64,
    /// MNA assembly: stamping into the factored matrix, or the triplet
    /// path that discovers its pattern (ns).
    pub assembly_ns: u64,
    /// LU factorisation and numeric refactorisation (ns).
    pub refactor_ns: u64,
    /// Triangular solves plus the Newton update and convergence test (ns).
    pub solve_ns: u64,
    /// Step control: everything between Newton solves — accepting a step
    /// (companion history, device evaluation and commit), recording the
    /// trace point and choosing the next step (ns).
    pub step_ns: u64,
}

impl PhaseTimes {
    /// Sum of all phases (ns).
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.eval_ns + self.assembly_ns + self.refactor_ns + self.solve_ns + self.step_ns
    }

    /// Accumulate another run's phase times into this one.
    pub fn merge(&mut self, other: PhaseTimes) {
        self.eval_ns += other.eval_ns;
        self.assembly_ns += other.assembly_ns;
        self.refactor_ns += other.refactor_ns;
        self.solve_ns += other.solve_ns;
        self.step_ns += other.step_ns;
    }
}

/// One of the [`PhaseTimes`] fields.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Phase {
    Eval,
    Assembly,
    Refactor,
    Solve,
    Step,
}

/// Lap timer behind [`PhaseTimes`]; inert unless tracing was on when it
/// was created.
#[derive(Debug)]
pub(crate) struct PhaseClock {
    last: Option<Instant>,
    pub times: PhaseTimes,
}

impl PhaseClock {
    fn new() -> Self {
        Self {
            last: (crate::trace::level() != crate::trace::TraceLevel::Off).then(Instant::now),
            times: PhaseTimes::default(),
        }
    }

    /// Charge the time since the previous lap to `phase`.
    #[inline]
    pub fn lap(&mut self, phase: Phase) {
        let Some(last) = &mut self.last else { return };
        let now = Instant::now();
        let ns = u64::try_from((now - *last).as_nanos()).unwrap_or(u64::MAX);
        *last = now;
        let t = &mut self.times;
        *match phase {
            Phase::Eval => &mut t.eval_ns,
            Phase::Assembly => &mut t.assembly_ns,
            Phase::Refactor => &mut t.refactor_ns,
            Phase::Solve => &mut t.solve_ns,
            Phase::Step => &mut t.step_ns,
        } += ns;
    }
}

/// What a device's cached evaluation may still be used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cache {
    /// Nothing usable: never evaluated, or `commit` moved its state.
    Stale,
    /// An exact evaluation at the cached voltages: reused when the
    /// terminal voltages are bitwise equal to them.
    Exact,
}

/// MNA variable of a ground terminal in `NewtonWorkspace::vars`.
const GROUND: u32 = u32::MAX;

/// Where each stamp of a known topology lands in the value array of the
/// matrix the solver factors, derived once from the pattern a triplet
/// assembly discovered.
#[derive(Debug)]
struct SlotBinding {
    /// `(row, col, slot)` of every gmin and linear-element stamp, in
    /// stamping order.
    statics: Vec<(u32, u32, u32)>,
    /// `(k, slot)` of each device Jacobian position `k = a·T + b` between
    /// two non-ground terminals that the pattern has, row-major per
    /// device.
    dev_slots: Vec<(u32, u32)>,
    /// Start of each device's entries in `dev_slots`.
    dev_offsets: Vec<usize>,
    /// `k` of each position between two non-ground terminals that the
    /// pattern lacks: a nonzero there needs a rebind.
    unbound: Vec<u32>,
    /// Start of each device's entries in `unbound`.
    unbound_offsets: Vec<usize>,
}

/// One device's part of a [`SlotBinding`], with its terminals' MNA
/// variables from the workspace.
struct DevicePlan<'a> {
    /// MNA variable of each terminal ([`GROUND`] for ground).
    vars: &'a [u32],
    /// `(k, slot)` of each bound position.
    slots: &'a [(u32, u32)],
    /// `k` of each unbound position.
    unbound: &'a [u32],
}

/// Stamp one evaluated `t`-terminal device into the bound value array
/// `vals` and into `rhs` from its plan. `vt` must be the linearisation
/// point `st` was evaluated at. Returns `false` when a nonzero lands at
/// an unbound position.
///
/// Each slot and each RHS row receives its addends in the order
/// [`System::stamp_device`] gives them (all of the device's `gi`, then
/// all of its `cq`, row-major), but every bound position and every
/// Taylor term is stamped, zero or not, where the triplet path skips
/// exact zeros. That is bit-neutral:
///
/// * In round-to-nearest, `x + y` and `x − y` are `−0.0` only when `x`
///   is. Every slot and RHS row starts at `+0.0`, so none is ever
///   `−0.0`, and adding or subtracting `±0.0` returns it unchanged.
/// * Terminal voltages are finite (Newton stops at a non-finite update
///   before any device sees it), so a zero entry's Taylor term `g·v` is
///   `±0.0`. Subtracting it leaves a nonzero (or NaN) constant
///   unchanged and can flip only the sign of a zero one, which nothing
///   downstream tells apart: a zero minus a nonzero `p` is `−p` for
///   either sign, and the RHS row the constant ends in is not `−0.0`.
///
/// Callers pass `t` as a literal for the common arity so the row loops
/// compile to unrolled code with their bounds checks hoisted.
#[inline(always)]
fn stamp_bound(
    t: usize,
    plan: &DevicePlan<'_>,
    st: &DeviceStamps,
    vt: &[f64],
    companion: Option<(&Companion, usize)>,
    vals: &mut [f64],
    rhs: &mut [f64],
) -> bool {
    let (vars, vt) = (&plan.vars[..t], &vt[..t]);
    let (i, gi) = (&st.i[..t], &st.gi[..t * t]);
    let mut bound = true;
    for &(k, s) in plan.slots {
        vals[s as usize] += gi[k as usize];
    }
    for &k in plan.unbound {
        bound &= gi[k as usize] == 0.0;
    }
    for a in 0..t {
        if vars[a] == GROUND {
            continue;
        }
        let mut i_const = i[a];
        for b in 0..t {
            i_const -= gi[a * t + b] * vt[b];
        }
        rhs[vars[a] as usize] -= i_const;
    }
    if let Some((comp, di)) = companion {
        let off = comp.dev_offsets[di];
        let (q, cq) = (&st.q[..t], &st.cq[..t * t]);
        let q_prev = &comp.dev_q_prev[off..off + t];
        for &(k, s) in plan.slots {
            vals[s as usize] += comp.coeff * cq[k as usize];
        }
        for &k in plan.unbound {
            bound &= comp.coeff * cq[k as usize] == 0.0;
        }
        for a in 0..t {
            if vars[a] == GROUND {
                continue;
            }
            let mut i_const = comp.coeff * (q[a] - q_prev[a]);
            for b in 0..t {
                i_const -= comp.coeff * cq[a * t + b] * vt[b];
            }
            rhs[vars[a] as usize] -= i_const;
        }
    }
    bound
}

/// Adds static stamps into their bound slots, checking that the stream
/// is the one the binding recorded. Exact zeros are dropped, as
/// [`Triplets::add`] drops them.
struct StaticCursor<'a> {
    stream: &'a [(u32, u32, u32)],
    vals: &'a mut [f64],
    pos: usize,
    ok: bool,
}

impl StaticCursor<'_> {
    fn complete(&self) -> bool {
        self.ok && self.pos == self.stream.len()
    }
}

impl Stamper for StaticCursor<'_> {
    #[inline]
    fn add(&mut self, row: usize, col: usize, v: f64) {
        if v == 0.0 {
            return;
        }
        match self.stream.get(self.pos) {
            Some(&(r, c, slot)) if r as usize == row && c as usize == col => {
                self.vals[slot as usize] += v;
                self.pos += 1;
            }
            _ => self.ok = false,
        }
    }
}

/// Reusable Newton scratch: assembly buffers, per-device stamp caches,
/// the slot binding and the pattern-cached linear solver.
///
/// One workspace lives for a whole analysis (all Newton solves of a DC
/// ladder, every timestep of a transient, every point of a sweep), so
/// after the first assembly every iteration stamps straight into the
/// value array the solver refactors.
#[derive(Debug)]
pub(crate) struct NewtonWorkspace {
    pub tri: Triplets,
    pub rhs: Vec<f64>,
    pub solver: CachedSolver,
    /// Per-device stamp buffers. Doubles as the evaluation cache: each
    /// holds the device's last evaluation, at the voltages in `vt_cache`,
    /// usable as `cache` says.
    pub stamps: Vec<DeviceStamps>,
    /// Newton iterations run through this workspace.
    pub newton_iters: u64,
    /// MNA variable of every device terminal ([`GROUND`] for ground),
    /// laid out like `vt`.
    vars: Vec<u32>,
    /// Flat terminal-voltage scratch, one slot per device terminal.
    vt: Vec<f64>,
    /// Terminal voltages each device's `stamps` were last evaluated at —
    /// the linearisation point reuse restamps against.
    vt_cache: Vec<f64>,
    /// Start of each device's slice in `vt`/`vt_cache` (len = ndev + 1).
    vt_offsets: Vec<usize>,
    cache: Vec<Cache>,
    /// Set by the first triplet assembly; `None` until then.
    binding: Option<SlotBinding>,
    /// Matrix values of the gmin and linear-element stamps alone, per
    /// slot, for the current solve.
    static_vals: Vec<f64>,
    /// Whether `static_vals` was built for the current solve (gmin and
    /// the companion coefficient may change between solves).
    static_current: bool,
    /// Device evaluations performed by Newton iterations.
    pub evals: u64,
    /// Device evaluations performed when a transient step is accepted.
    pub accept_evals: u64,
    /// Newton-iteration evaluations replaced by an exact cached one.
    pub reuses: u64,
    pub clock: PhaseClock,
}

impl NewtonWorkspace {
    pub fn new(sys: &System<'_>) -> Self {
        let devices = sys.ckt.devices();
        let mut vt_offsets = Vec::with_capacity(devices.len() + 1);
        let mut vars = Vec::new();
        for d in devices {
            vt_offsets.push(vars.len());
            vars.extend(
                d.terminals()
                    .iter()
                    .map(|&n| sys.var_of(n).map_or(GROUND, |v| v as u32)),
            );
        }
        vt_offsets.push(vars.len());
        let total = vars.len();
        Self {
            tri: Triplets::new(sys.nvars),
            rhs: vec![0.0; sys.nvars],
            solver: CachedSolver::new(),
            stamps: devices
                .iter()
                .map(|d| DeviceStamps::new(d.terminals().len()))
                .collect(),
            newton_iters: 0,
            vars,
            vt: vec![0.0; total],
            vt_cache: vec![0.0; total],
            vt_offsets,
            cache: vec![Cache::Stale; devices.len()],
            binding: None,
            static_vals: Vec::new(),
            static_current: false,
            evals: 0,
            accept_evals: 0,
            reuses: 0,
            clock: PhaseClock::new(),
        }
    }

    /// Load device `di`'s terminal voltages from `x` into `vt`.
    pub fn load_vt(&mut self, di: usize, x: &[f64]) {
        let terms = self.vt_offsets[di]..self.vt_offsets[di + 1];
        for (v, &var) in self.vt[terms.clone()].iter_mut().zip(&self.vars[terms]) {
            *v = if var == GROUND { 0.0 } else { x[var as usize] };
        }
    }

    /// Make `stamps[di]` an evaluation of device `di` at the voltages
    /// already loaded into `vt` — the cached one when those voltages are
    /// bitwise equal to the cached ones and its state has not moved, a
    /// fresh `eval` otherwise. Returns whether it evaluated.
    pub fn refresh(&mut self, di: usize, dev: &dyn NonlinearDevice, ctx: &EvalCtx) -> bool {
        let (off, end) = (self.vt_offsets[di], self.vt_offsets[di + 1]);
        let vt = &self.vt[off..end];
        let same = vt
            .iter()
            .zip(&self.vt_cache[off..end])
            .all(|(a, b)| a.to_bits() == b.to_bits());
        let fresh = !same || self.cache[di] == Cache::Stale;
        if fresh {
            let st = &mut self.stamps[di];
            st.clear();
            dev.eval(vt, st, ctx);
            self.vt_cache[off..end].copy_from_slice(vt);
        }
        self.cache[di] = Cache::Exact;
        fresh
    }

    /// Terminal voltages last loaded for device `di`.
    pub fn device_vt(&self, di: usize) -> &[f64] {
        &self.vt[self.vt_offsets[di]..self.vt_offsets[di + 1]]
    }

    /// Drop device `di`'s cached evaluation: its state moved.
    pub fn mark_stale(&mut self, di: usize) {
        self.cache[di] = Cache::Stale;
    }

    /// Snapshot of the counters (step counts are the caller's concern).
    pub fn stats(&self) -> SimStats {
        let s = self.solver.stats();
        SimStats {
            newton_iters: self.newton_iters,
            full_factors: s.full_factors,
            refactors: s.refactors,
            pattern_rebuilds: s.pattern_rebuilds,
            accepted_steps: 0,
            rejected_steps: 0,
            bypass_hits: 0,
            bypass_misses: self.evals,
            accept_evals: self.accept_evals,
            reuses: self.reuses,
        }
    }
}

/// Backward-Euler companion state for charge storage during transient
/// analysis.
#[derive(Debug, Clone)]
pub(crate) struct Companion {
    /// Integration coefficient `1/dt`.
    pub coeff: f64,
    /// Per linear capacitor: previous branch charge.
    pub cap_q_prev: Vec<f64>,
    /// Per device: previous terminal charges (flattened, offsets parallel
    /// to `dev_offsets`).
    pub dev_q_prev: Vec<f64>,
    /// Start offset of each device's terminals in the flat arrays.
    pub dev_offsets: Vec<usize>,
}

/// The assembled view of a circuit: variable numbering plus stamping.
pub(crate) struct System<'a> {
    pub ckt: &'a Circuit,
    pub num_nodes: usize,
    pub nvars: usize,
}

impl<'a> System<'a> {
    pub fn new(ckt: &'a Circuit) -> Self {
        let num_nodes = ckt.num_nodes();
        let nvars = (num_nodes - 1) + ckt.num_branches();
        Self {
            ckt,
            num_nodes,
            nvars,
        }
    }

    /// MNA variable of a node (`None` for ground).
    #[inline]
    pub fn var_of(&self, node: NodeId) -> Option<usize> {
        let i = node.index();
        (i != 0).then(|| i - 1)
    }

    /// MNA variable of a voltage-source branch.
    #[inline]
    pub fn branch_var(&self, branch: usize) -> usize {
        (self.num_nodes - 1) + branch
    }

    /// Voltage of `node` in solution vector `x`.
    #[inline]
    pub fn voltage(&self, x: &[f64], node: NodeId) -> f64 {
        match self.var_of(node) {
            Some(v) => x[v],
            None => 0.0,
        }
    }

    /// Fresh companion state (all charges continue from `x` at accept
    /// time; initialised lazily by the transient driver).
    pub fn new_companion(&self) -> Companion {
        let mut dev_offsets = Vec::with_capacity(self.ckt.devices().len() + 1);
        let mut total = 0usize;
        for d in self.ckt.devices() {
            dev_offsets.push(total);
            total += d.terminals().len();
        }
        dev_offsets.push(total);
        // Companion state of the capacitors is indexed by their position
        // among the capacitor elements.
        let caps = self
            .ckt
            .elements()
            .iter()
            .filter(|e| matches!(e, Element::Capacitor { .. }))
            .count();
        Companion {
            coeff: 0.0,
            cap_q_prev: vec![0.0; caps],
            dev_q_prev: vec![0.0; total],
            dev_offsets,
        }
    }

    /// Bring every device's stamps up to date for operating point `x`.
    /// Each device is reused when its voltages are bitwise equal to its
    /// exact cached evaluation, and evaluated otherwise. Afterwards
    /// `ws.stamps`/`ws.vt_cache` hold each device's linearisation.
    pub fn eval_devices(&self, x: &[f64], ctx: &EvalCtx, ws: &mut NewtonWorkspace) {
        for (di, dev) in self.ckt.devices().iter().enumerate() {
            ws.load_vt(di, x);
            if ws.refresh(di, dev.as_ref(), ctx) {
                ws.evals += 1;
            } else {
                ws.reuses += 1;
            }
        }
    }

    /// Stamp gmin and every linear element. Matrix entries go to `mat`
    /// when present; RHS contributions always go to `rhs`. Within one
    /// Newton solve the matrix entries (gmin, conductances, companion
    /// `geq`, source incidence) are constant, so later iterations pass
    /// `None` and recompute only the RHS at the new `x`.
    #[allow(clippy::too_many_arguments)]
    fn stamp_static<S: Stamper>(
        &self,
        x: &[f64],
        time: f64,
        source_scale: f64,
        gmin: f64,
        companion: Option<&Companion>,
        mut mat: Option<&mut S>,
        rhs: &mut [f64],
    ) {
        // Shunt gmin keeps floating nodes solvable and aids convergence.
        if let Some(t) = mat.as_deref_mut() {
            for v in 0..self.num_nodes - 1 {
                t.add(v, v, gmin);
            }
        }
        let mut cap_pos = 0usize;
        for elem in self.ckt.elements() {
            match elem {
                Element::Resistor { p, n, ohms, .. } => {
                    if let Some(t) = mat.as_deref_mut() {
                        self.stamp_conductance(t, *p, *n, 1.0 / ohms);
                    }
                }
                Element::Capacitor { p, n, farads, .. } => {
                    if let Some(comp) = companion {
                        let vp = self.voltage(x, *p);
                        let vn = self.voltage(x, *n);
                        let q0 = farads * (vp - vn);
                        let geq = comp.coeff * farads;
                        if let Some(t) = mat.as_deref_mut() {
                            self.stamp_conductance(t, *p, *n, geq);
                        }
                        // i ≈ coeff·(q0 + C·Δv − q_prev); constants → RHS
                        // with opposite sign.
                        let i_const =
                            comp.coeff * (q0 - comp.cap_q_prev[cap_pos]) - geq * (vp - vn);
                        self.stamp_current_pn(rhs, *p, *n, i_const);
                    }
                    cap_pos += 1;
                }
                Element::VSource {
                    p, n, wave, branch, ..
                } => {
                    let bv = self.branch_var(*branch);
                    if let Some(t) = mat.as_deref_mut() {
                        if let Some(vp) = self.var_of(*p) {
                            t.add(vp, bv, 1.0);
                            t.add(bv, vp, 1.0);
                        }
                        if let Some(vn) = self.var_of(*n) {
                            t.add(vn, bv, -1.0);
                            t.add(bv, vn, -1.0);
                        }
                        // Keep the branch row well-scaled even if both
                        // ends are ground (degenerate but legal).
                        if self.var_of(*p).is_none() && self.var_of(*n).is_none() {
                            t.add(bv, bv, 1.0);
                        }
                    }
                    rhs[bv] += wave.value(time) * source_scale;
                }
            }
        }
    }

    /// Stamp one evaluated device into triplets: Taylor-constant
    /// currents into `rhs`, each nonzero Jacobian entry into `mat`. `vt`
    /// must be the linearisation point the stamps in `st` were evaluated
    /// at. Within a device, all `gi` entries come before all `cq`
    /// entries; [`stamp_bound`] keeps that order to sum each matrix slot
    /// identically, and test builds check it against this stamping.
    fn stamp_device<S: Stamper>(
        &self,
        terms: &[NodeId],
        st: &DeviceStamps,
        vt: &[f64],
        companion: Option<(&Companion, usize)>,
        rhs: &mut [f64],
        mat: &mut S,
    ) {
        let t = terms.len();
        // Static currents: stamp G and move the Taylor constant to RHS.
        for a in 0..t {
            let Some(ra) = self.var_of(terms[a]) else {
                continue;
            };
            let mut i_const = st.i[a];
            for b in 0..t {
                let g = st.gi[a * t + b];
                if g != 0.0 {
                    if let Some(cb) = self.var_of(terms[b]) {
                        mat.add(ra, cb, g);
                    }
                    i_const -= g * vt[b];
                }
            }
            rhs[ra] -= i_const;
        }
        // Charge storage via companion model.
        if let Some((comp, di)) = companion {
            let off = comp.dev_offsets[di];
            for a in 0..t {
                let Some(ra) = self.var_of(terms[a]) else {
                    continue;
                };
                let mut i_const = comp.coeff * (st.q[a] - comp.dev_q_prev[off + a]);
                for b in 0..t {
                    let c = st.cq[a * t + b];
                    if c != 0.0 {
                        let geq = comp.coeff * c;
                        if let Some(cb) = self.var_of(terms[b]) {
                            mat.add(ra, cb, geq);
                        }
                        i_const -= geq * vt[b];
                    }
                }
                rhs[ra] -= i_const;
            }
        }
    }

    /// Assemble the system around `x` from the devices' current stamps
    /// (see [`System::eval_devices`]) into the matrix the solver factors
    /// next, with the RHS in `ws.rhs`.
    ///
    /// Once a topology's pattern is known, each stamp is added straight
    /// into its bound value slot: static part first, then devices in
    /// order, `gi` before `cq` — the order of the triplet stream, so
    /// every slot sums to the bits `ScatterMap::scatter` +
    /// `PermutePlan::apply` would produce. The first assembly, and any
    /// that stamps a nonzero at a position the pattern lacks, goes
    /// through triplets instead and rebinds.
    fn assemble(
        &self,
        x: &[f64],
        time: f64,
        source_scale: f64,
        gmin: f64,
        companion: Option<&Companion>,
        ws: &mut NewtonWorkspace,
    ) {
        if self.assemble_bound(x, time, source_scale, gmin, companion, ws) {
            #[cfg(test)]
            exactness::check_against_triplets(self, x, time, source_scale, gmin, companion, ws);
            return;
        }
        let n_static = self.stamp_triplets(x, time, source_scale, gmin, companion, ws);
        ws.solver.load(&ws.tri);
        self.bind(n_static, ws);
    }

    /// Slot-bound assembly; `false` when the binding is missing or does
    /// not cover this system.
    fn assemble_bound(
        &self,
        x: &[f64],
        time: f64,
        source_scale: f64,
        gmin: f64,
        companion: Option<&Companion>,
        ws: &mut NewtonWorkspace,
    ) -> bool {
        let Some(bind) = &ws.binding else {
            return false;
        };
        ws.rhs.fill(0.0);
        if ws.static_current {
            self.stamp_static(
                x,
                time,
                source_scale,
                gmin,
                companion,
                None::<&mut Triplets>,
                &mut ws.rhs,
            );
        } else {
            ws.static_vals.fill(0.0);
            let mut cursor = StaticCursor {
                stream: &bind.statics,
                vals: &mut ws.static_vals,
                pos: 0,
                ok: true,
            };
            self.stamp_static(
                x,
                time,
                source_scale,
                gmin,
                companion,
                Some(&mut cursor),
                &mut ws.rhs,
            );
            if !cursor.complete() {
                return false;
            }
            ws.static_current = true;
        }
        let vals = ws.solver.values_mut();
        vals.copy_from_slice(&ws.static_vals);
        for (di, st) in ws.stamps.iter().enumerate() {
            let terms = ws.vt_offsets[di]..ws.vt_offsets[di + 1];
            let plan = DevicePlan {
                vars: &ws.vars[terms.clone()],
                slots: &bind.dev_slots[bind.dev_offsets[di]..bind.dev_offsets[di + 1]],
                unbound: &bind.unbound[bind.unbound_offsets[di]..bind.unbound_offsets[di + 1]],
            };
            let vt = &ws.vt_cache[terms];
            let comp = companion.map(|c| (c, di));
            let rhs = &mut ws.rhs;
            let bound = match vt.len() {
                4 => stamp_bound(4, &plan, st, vt, comp, vals, rhs),
                t => stamp_bound(t, &plan, st, vt, comp, vals, rhs),
            };
            if !bound {
                return false;
            }
        }
        true
    }

    /// Triplet assembly into `ws.tri`/`ws.rhs`; returns how many leading
    /// entries are static (gmin and linear elements).
    pub fn stamp_triplets(
        &self,
        x: &[f64],
        time: f64,
        source_scale: f64,
        gmin: f64,
        companion: Option<&Companion>,
        ws: &mut NewtonWorkspace,
    ) -> usize {
        ws.tri.clear();
        ws.rhs.fill(0.0);
        self.stamp_static(
            x,
            time,
            source_scale,
            gmin,
            companion,
            Some(&mut ws.tri),
            &mut ws.rhs,
        );
        let n_static = ws.tri.len();
        for (di, dev) in self.ckt.devices().iter().enumerate() {
            self.stamp_device(
                dev.terminals(),
                &ws.stamps[di],
                &ws.vt_cache[ws.vt_offsets[di]..ws.vt_offsets[di + 1]],
                companion.map(|c| (c, di)),
                &mut ws.rhs,
                &mut ws.tri,
            );
        }
        n_static
    }

    /// Derive the slot binding from the triplets just loaded into the
    /// solver, whose first `n_static` entries are the static part.
    fn bind(&self, n_static: usize, ws: &mut NewtonWorkspace) {
        let solver = &ws.solver;
        let slot = |r: u32, c: u32| solver.slot(r as usize, c as usize).map(|s| s as u32);
        ws.static_vals.clear();
        ws.static_vals.resize(solver.matrix().nnz(), 0.0);
        let mut statics = Vec::with_capacity(n_static);
        for (r, c, v) in ws.tri.iter().take(n_static) {
            let (r, c) = (r as u32, c as u32);
            let s = slot(r, c).expect("a loaded entry is in the pattern");
            ws.static_vals[s as usize] += v;
            statics.push((r, c, s));
        }
        let mut dev_slots = Vec::new();
        let mut dev_offsets = Vec::with_capacity(ws.vt_offsets.len());
        let mut unbound = Vec::new();
        let mut unbound_offsets = Vec::with_capacity(ws.vt_offsets.len());
        for terms in ws.vt_offsets.windows(2) {
            dev_offsets.push(dev_slots.len());
            unbound_offsets.push(unbound.len());
            let vars = &ws.vars[terms[0]..terms[1]];
            let pairs = vars
                .iter()
                .flat_map(|&ra| vars.iter().map(move |&cb| (ra, cb)));
            for (k, (ra, cb)) in (0u32..).zip(pairs) {
                if ra == GROUND || cb == GROUND {
                    continue;
                }
                match slot(ra, cb) {
                    Some(s) => dev_slots.push((k, s)),
                    None => unbound.push(k),
                }
            }
        }
        dev_offsets.push(dev_slots.len());
        unbound_offsets.push(unbound.len());
        ws.binding = Some(SlotBinding {
            statics,
            dev_slots,
            dev_offsets,
            unbound,
            unbound_offsets,
        });
        ws.static_current = true;
    }

    #[inline]
    fn stamp_conductance<S: Stamper>(&self, tri: &mut S, p: NodeId, n: NodeId, g: f64) {
        let vp = self.var_of(p);
        let vn = self.var_of(n);
        if let Some(a) = vp {
            tri.add(a, a, g);
        }
        if let Some(b) = vn {
            tri.add(b, b, g);
        }
        if let (Some(a), Some(b)) = (vp, vn) {
            tri.add(a, b, -g);
            tri.add(b, a, -g);
        }
    }

    /// Constant current `j` flowing from `p` to `n` through an element:
    /// RHS gets `−j` at `p`, `+j` at `n`.
    #[inline]
    fn stamp_current_pn(&self, rhs: &mut [f64], p: NodeId, n: NodeId, j: f64) {
        if let Some(a) = self.var_of(p) {
            rhs[a] -= j;
        }
        if let Some(b) = self.var_of(n) {
            rhs[b] += j;
        }
    }

    /// Worst-residual attribution from the system last assembled into
    /// `ws` around operating point `x`.
    ///
    /// Recomputes the Newton residual `r = b − A·x` from the matrix the
    /// solver holds — the one assembled, and factored if the solve got
    /// that far (no re-assembly, no factorisation) — and blames the row
    /// with the largest `|r|`. Node rows (KCL, amperes) are scanned
    /// before branch rows (source constraints, volts) because the two
    /// carry incomparable units. NaN residuals sort as +∞ so a poisoned
    /// row always wins.
    pub(crate) fn forensics(
        &self,
        ws: &NewtonWorkspace,
        x: &[f64],
        dx_norm: f64,
    ) -> ConvergenceForensics {
        let key = |v: f64| if v.is_nan() { f64::INFINITY } else { v.abs() };
        let r = ws.solver.residual(&ws.rhs, x);
        let nnode_vars = self.num_nodes - 1;
        let scan = if nnode_vars > 0 {
            0..nnode_vars
        } else {
            0..self.nvars
        };
        let mut worst = scan.start;
        let mut f_norm = -1.0f64;
        for v in scan {
            let k = key(r[v]);
            if k > f_norm {
                f_norm = k;
                worst = v;
            }
        }
        let node = crate::trace::mna_var_name(self.ckt, worst);
        // Blame the nonlinear device injecting the largest current at the
        // worst row; fall back to any linear element touching it.
        let mut device = String::new();
        let mut best = -1.0f64;
        for (di, dev) in self.ckt.devices().iter().enumerate() {
            for (a, &term) in dev.terminals().iter().enumerate() {
                if self.var_of(term) == Some(worst) {
                    let m = key(ws.stamps[di].i[a]);
                    if m > best {
                        best = m;
                        device = dev.name().to_string();
                    }
                }
            }
        }
        if device.is_empty() {
            if let Some(name) = self.element_at_row(worst) {
                device = name.to_string();
            }
        }
        ConvergenceForensics {
            node,
            device,
            f_norm: f_norm.max(0.0),
            dx_norm,
        }
    }

    /// First linear element whose terminals (or branch row) touch MNA
    /// row `row`.
    fn element_at_row(&self, row: usize) -> Option<&str> {
        let at = |nd: NodeId| self.var_of(nd) == Some(row);
        self.ckt
            .elements()
            .iter()
            .find(|e| match e {
                Element::Resistor { p, n, .. } | Element::Capacitor { p, n, .. } => {
                    at(*p) || at(*n)
                }
                Element::VSource { p, n, branch, .. } => {
                    self.branch_var(*branch) == row || at(*p) || at(*n)
                }
            })
            .map(Element::name)
    }

    /// One damped Newton solve. Returns `(x, iterations)` on convergence.
    ///
    /// The workspace carries the stamp caches, the slot binding and the
    /// pattern-cached solver across calls: after the first assembly of a
    /// topology every iteration stamps in place and refactors on the
    /// known pattern, and each device is evaluated at most once per
    /// operating point.
    ///
    /// `rhs_patch` adds `dv` to RHS row `var` after every assembly
    /// (sweep drivers override one source value without re-stamping).
    #[allow(clippy::too_many_arguments)]
    pub fn newton(
        &self,
        x0: &[f64],
        time: f64,
        source_scale: f64,
        temp: f64,
        gmin: f64,
        companion: Option<&Companion>,
        ws: &mut NewtonWorkspace,
        rhs_patch: Option<(usize, f64)>,
        analysis: &'static str,
    ) -> Result<(Vec<f64>, usize)> {
        ws.clock.lap(Phase::Step);
        let mut x = x0.to_vec();
        let ctx = EvalCtx { temp, gmin, time };
        // The static matrix part (gmin shunts, companion geq) may have
        // changed since the last solve: rebuild it on iteration 1.
        ws.static_current = false;
        let mut last_dx = f64::INFINITY;
        for iter in 1..=MAX_ITERS {
            self.eval_devices(&x, &ctx, ws);
            ws.clock.lap(Phase::Eval);
            self.assemble(&x, time, source_scale, gmin, companion, ws);
            if let Some((var, dv)) = rhs_patch {
                ws.rhs[var] += dv;
            }
            ws.clock.lap(Phase::Assembly);
            ws.newton_iters += 1;
            ws.solver.refactor()?;
            ws.clock.lap(Phase::Refactor);
            let x_new = ws.solver.solve_factored(&ws.rhs);

            // Convergence check on the raw (undamped) update.
            let nnode_vars = self.num_nodes - 1;
            let mut converged = true;
            let mut max_dv = 0.0f64;
            let mut max_dx = 0.0f64;
            for v in 0..self.nvars {
                let d = (x_new[v] - x[v]).abs();
                let (atol, val) = if v < nnode_vars {
                    (VNTOL, x_new[v].abs().max(x[v].abs()))
                } else {
                    (ABSTOL, x_new[v].abs().max(x[v].abs()))
                };
                if d > atol + RELTOL * val {
                    converged = false;
                }
                if v < nnode_vars {
                    max_dv = max_dv.max(d);
                }
                max_dx = max_dx.max(d);
                if !x_new[v].is_finite() {
                    // The solver still holds the system assembled around
                    // `x`, so the residual attribution is consistent
                    // with the failing solve.
                    let fo = self.forensics(ws, &x, f64::INFINITY);
                    crate::trace::newton_failure(analysis, time, iter, &fo);
                    return Err(Error::NonConvergence {
                        analysis,
                        time,
                        iterations: iter,
                        forensics: Some(Box::new(fo)),
                    });
                }
            }
            last_dx = max_dx;
            if converged && iter > 1 {
                ws.clock.lap(Phase::Solve);
                return Ok((x_new, iter));
            }
            // Damped update.
            if max_dv > VLIMIT {
                let scale = VLIMIT / max_dv;
                for v in 0..self.nvars {
                    x[v] += (x_new[v] - x[v]) * scale;
                }
            } else {
                x = x_new;
            }
            ws.clock.lap(Phase::Solve);
        }
        // Re-assemble around the final iterate so the residual matches
        // the point Newton was left at (the loop body updated `x` after
        // the last assembly).
        self.eval_devices(&x, &ctx, ws);
        self.assemble(&x, time, source_scale, gmin, companion, ws);
        if let Some((var, dv)) = rhs_patch {
            ws.rhs[var] += dv;
        }
        let fo = self.forensics(ws, &x, last_dx);
        crate::trace::newton_failure(analysis, time, MAX_ITERS, &fo);
        Err(Error::NonConvergence {
            analysis,
            time,
            iterations: MAX_ITERS,
            forensics: Some(Box::new(fo)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;

    #[test]
    fn voltage_divider_dc() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("V1", a, Circuit::gnd(), Waveform::dc(2.0));
        ckt.resistor("R1", a, b, 1e3).unwrap();
        ckt.resistor("R2", b, Circuit::gnd(), 1e3).unwrap();
        let sys = System::new(&ckt);
        let mut ws = NewtonWorkspace::new(&sys);
        let x0 = vec![0.0; sys.nvars];
        let (x, _) = sys
            .newton(
                &x0,
                0.0,
                1.0,
                crate::units::TEMP_NOMINAL,
                GMIN,
                None,
                &mut ws,
                None,
                "dc",
            )
            .unwrap();
        assert!((sys.voltage(&x, a) - 2.0).abs() < 1e-6);
        assert!((sys.voltage(&x, b) - 1.0).abs() < 1e-4);
        // Branch current: 2V across 2k = 1 mA flowing a->gnd inside source
        // means −1 mA through the source p→n convention.
        let i = x[sys.branch_var(0)];
        assert!((i + 1e-3).abs() < 1e-6, "i = {i}");
    }
}
