//! Interface implemented by nonlinear, possibly state-holding devices
//! (MOSFETs, FeFETs, diodes).
//!
//! The engine linearises each device at every Newton iteration from the
//! currents/charges and their Jacobians reported through [`DeviceStamps`].
//! Charge storage uses the charge formulation (`Q(v)` rather than `C`),
//! which is what lets the ferroelectric hysteresis integrate correctly.

use crate::netlist::NodeId;
use std::fmt;

/// Evaluation context shared by all devices.
#[derive(Debug, Clone)]
pub struct EvalCtx {
    /// Simulation temperature in kelvin.
    pub temp: f64,
    /// Extra conductance from ground to every node (gmin stepping).
    pub gmin: f64,
    /// Current simulation time (0 for DC).
    pub time: f64,
}

impl Default for EvalCtx {
    fn default() -> Self {
        Self {
            temp: crate::units::TEMP_NOMINAL,
            gmin: 1e-12,
            time: 0.0,
        }
    }
}

/// Output buffers a device fills during [`NonlinearDevice::eval`].
///
/// All quantities use the *into-device* sign convention: `i[t]` is the
/// static current flowing from node `terminals()[t]` into the device and
/// `q[t]` the charge stored on that terminal.
#[derive(Debug, Clone, Default)]
pub struct DeviceStamps {
    /// Static terminal currents (A), length `T`.
    pub i: Vec<f64>,
    /// Terminal charges (C), length `T`.
    pub q: Vec<f64>,
    /// `di[t]/dv[u]` row-major `T × T` (S).
    pub gi: Vec<f64>,
    /// `dq[t]/dv[u]` row-major `T × T` (F).
    pub cq: Vec<f64>,
}

impl DeviceStamps {
    /// Allocate buffers for a `t`-terminal device.
    #[must_use]
    pub fn new(t: usize) -> Self {
        Self {
            i: vec![0.0; t],
            q: vec![0.0; t],
            gi: vec![0.0; t * t],
            cq: vec![0.0; t * t],
        }
    }

    /// Zero all buffers (engine calls this before each `eval`).
    pub fn clear(&mut self) {
        self.i.fill(0.0);
        self.q.fill(0.0);
        self.gi.fill(0.0);
        self.cq.fill(0.0);
    }

    /// Number of terminals these buffers were sized for.
    #[must_use]
    pub fn terminals(&self) -> usize {
        self.i.len()
    }

    /// Accumulate a conductance `g` between terminal indices `a` and `b`
    /// plus the current `i` it carries from `a` to `b` (helper for
    /// two-terminal branches inside multi-terminal devices).
    pub fn add_branch_current(&mut self, a: usize, b: usize, i: f64, g: f64) {
        let t = self.terminals();
        self.i[a] += i;
        self.i[b] -= i;
        self.gi[a * t + a] += g;
        self.gi[a * t + b] -= g;
        self.gi[b * t + a] -= g;
        self.gi[b * t + b] += g;
    }

    /// Accumulate a charge branch: charge `q` stored from `a` to `b` with
    /// incremental capacitance `c`.
    pub fn add_branch_charge(&mut self, a: usize, b: usize, q: f64, c: f64) {
        let t = self.terminals();
        self.q[a] += q;
        self.q[b] -= q;
        self.cq[a * t + a] += c;
        self.cq[a * t + b] -= c;
        self.cq[b * t + a] -= c;
        self.cq[b * t + b] += c;
    }
}

/// A nonlinear device living in a [`crate::netlist::Circuit`].
///
/// Implementations evaluate currents/charges as pure functions of the
/// terminal voltages; history-dependent devices (ferroelectrics) keep
/// internal state which is only advanced in [`NonlinearDevice::commit`],
/// called once per *accepted* time step.
///
/// # Reuse safety
///
/// The engine evaluates each device at most once per operating point:
/// it reuses the cached [`DeviceStamps`] when the terminal voltages are
/// bitwise equal to the cached ones. Three properties make this sound,
/// and implementations must preserve them:
///
/// 1. `eval` takes `&self` and must be a *pure function* of
///    `(v, ctx.temp)` and committed state — deterministic, no interior
///    mutability, no dependence on `ctx.time` or `ctx.gmin` (the engine
///    stamps gmin itself). Re-evaluating at the cached voltages must
///    reproduce the cached stamps bit for bit.
/// 2. History (e.g. Preisach hysteresis) advances **only** in `commit`,
///    which the engine calls exactly once per accepted timestep with a
///    freshly evaluated operating point — never from a reused
///    iteration. A skipped `eval` therefore can never advance or skip
///    ferroelectric state.
/// 3. `commit` returns `true` whenever it changed what a later `eval`
///    returns at the same voltages; the engine then drops the device's
///    cache, so no stale pre-commit linearisation is ever stamped.
pub trait NonlinearDevice: fmt::Debug + Send + Sync {
    /// Instance name (unique within a circuit by convention).
    fn name(&self) -> &str;

    /// Terminal nodes, in the device's canonical order.
    fn terminals(&self) -> &[NodeId];

    /// Evaluate currents, charges and Jacobians at terminal voltages `v`
    /// (same order as [`Self::terminals`]). Buffers arrive zeroed.
    /// Must be pure — see the trait-level *Reuse safety* notes.
    fn eval(&self, v: &[f64], out: &mut DeviceStamps, ctx: &EvalCtx);

    /// Accept the state at the end of a converged time step and report
    /// whether it moved: `true` when a later `eval` at the *same*
    /// voltages may return something else (e.g. a ferroelectric domain
    /// flipped). A `true` drops the device's cached evaluation; a device
    /// that returns `false` after changing state gets stamped from a
    /// stale linearisation. Default: stateless no-op (`false`).
    fn commit(&mut self, v: &[f64], ctx: &EvalCtx) -> bool {
        let _ = (v, ctx);
        false
    }

    /// Expose a named internal state (e.g. `"polarization"`) for probing.
    fn state(&self, key: &str) -> Option<f64> {
        let _ = key;
        None
    }

    /// Terminal-index pairs between which the device conducts at DC
    /// (used by the ERC connectivity pass). The default — every pair —
    /// is conservative: it can only hide a missing-DC-path defect, never
    /// invent one. Transistor-like devices should narrow this to the
    /// channel (e.g. drain–source) so floating gates are caught.
    fn dc_paths(&self) -> Vec<(usize, usize)> {
        let t = self.terminals().len();
        let mut pairs = Vec::new();
        for a in 0..t {
            for b in (a + 1)..t {
                pairs.push((a, b));
            }
        }
        pairs
    }

    /// Model parameters exposed for ERC domain checking. Default: none.
    fn erc_params(&self) -> Vec<crate::erc::ErcParam> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_current_is_antisymmetric() {
        let mut s = DeviceStamps::new(3);
        s.add_branch_current(0, 2, 1e-3, 1e-4);
        assert_eq!(s.i[0], 1e-3);
        assert_eq!(s.i[2], -1e-3);
        assert_eq!(s.i[1], 0.0);
        assert_eq!(s.gi[0], 1e-4);
        assert_eq!(s.gi[2], -1e-4);
        assert_eq!(s.gi[2 * 3 + 2], 1e-4);
        // Row sums zero (floating device: no net current creation).
        let i_sum: f64 = s.i.iter().sum();
        assert!(i_sum.abs() < 1e-18);
    }

    #[test]
    fn branch_charge_mirrors_current_layout() {
        let mut s = DeviceStamps::new(2);
        s.add_branch_charge(0, 1, 2e-15, 1e-15);
        assert_eq!(s.q[0], 2e-15);
        assert_eq!(s.q[1], -2e-15);
        assert_eq!(s.cq[0], 1e-15);
        assert_eq!(s.cq[3], 1e-15);
        assert_eq!(s.cq[1], -1e-15);
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = DeviceStamps::new(2);
        s.add_branch_current(0, 1, 1.0, 1.0);
        s.add_branch_charge(0, 1, 1.0, 1.0);
        s.clear();
        assert!(s
            .i
            .iter()
            .chain(&s.q)
            .chain(&s.gi)
            .chain(&s.cq)
            .all(|&x| x == 0.0));
    }
}
