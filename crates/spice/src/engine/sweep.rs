//! DC sweep analysis: step one source through a list of values, solving
//! the operating point at each step with warm-started Newton.
//!
//! This is the workhorse behind transfer curves — Id–Vg of a device in
//! its circuit context, or the SL_bar divider characteristics of
//! Fig. 5(b)/(c).

use super::dc::Solution;
use super::{NewtonWorkspace, SimStats, System, GMIN};
use crate::erc;
use crate::error::{Error, Result};
use crate::netlist::{Circuit, Element, NodeId};
use crate::units::TEMP_NOMINAL;

/// Result of a DC sweep: the swept values and one solution per point.
#[derive(Debug, Clone)]
pub struct SweepResult {
    values: Vec<f64>,
    solutions: Vec<Solution>,
    stats: SimStats,
}

impl SweepResult {
    /// The swept source values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Solutions, parallel to [`SweepResult::values`].
    #[must_use]
    pub fn solutions(&self) -> &[Solution] {
        &self.solutions
    }

    /// Number of sweep points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the sweep is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Voltage of `node` as a function of the swept value:
    /// `(value, v(node))` pairs.
    #[must_use]
    pub fn voltage_curve(&self, node: NodeId) -> Vec<(f64, f64)> {
        self.values
            .iter()
            .zip(&self.solutions)
            .map(|(&v, s)| (v, s.voltage(node)))
            .collect()
    }

    /// Branch current of voltage source `branch` vs the swept value.
    #[must_use]
    pub fn current_curve(&self, branch: usize) -> Vec<(f64, f64)> {
        self.values
            .iter()
            .zip(&self.solutions)
            .map(|(&v, s)| (v, s.branch_current(branch)))
            .collect()
    }

    /// Solver work counters accumulated over every sweep point.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        self.stats
    }
}

/// Sweep the voltage source named `source` through `values`, solving the
/// DC operating point at each step (capacitors open). Newton warm-starts
/// from the previous point, which is what lets strongly nonlinear curves
/// trace through without gmin stepping at every point.
///
/// # Errors
/// * [`Error::UnknownSignal`] when no voltage source has that name;
/// * DC convergence errors from any sweep point.
pub fn dc_sweep(ckt: &Circuit, source: &str, values: &[f64]) -> Result<SweepResult> {
    let _span = crate::trace::span("sweep");
    erc::preflight(ckt)?;
    // Locate the source's branch so we can override its value.
    let branch = ckt
        .elements()
        .iter()
        .find_map(|e| match e {
            Element::VSource { name, branch, .. } if name == source => Some(*branch),
            _ => None,
        })
        .ok_or_else(|| Error::UnknownSignal {
            name: source.to_string(),
        })?;

    let sys = System::new(ckt);
    // One workspace for the whole sweep: every point shares the matrix
    // pattern, so points 2..N only refactor numerically.
    let mut ws = NewtonWorkspace::new(&sys);

    let mut solutions = Vec::with_capacity(values.len());
    let mut x = vec![0.0; sys.nvars];
    let mut warm = false;
    for &v in values {
        let ov = SourceOverride { branch, value: v };
        let solved = solve_newton_override(&sys, ckt, &x, &ov, &mut ws);
        let xs = match solved {
            Ok(xs) => xs,
            Err(_) if warm => {
                // A hard corner: retry cold from zero.
                let x0 = vec![0.0; sys.nvars];
                solve_newton_override(&sys, ckt, &x0, &ov, &mut ws)?
            }
            Err(e) => return Err(e),
        };
        x = xs.clone();
        warm = true;
        solutions.push(Solution::new(xs, sys.num_nodes));
    }
    Ok(SweepResult {
        values: values.to_vec(),
        solutions,
        stats: ws.stats(),
    })
}

struct SourceOverride {
    branch: usize,
    value: f64,
}

/// One Newton solve with the overridden source value: delegates to
/// [`System::newton`] with an RHS patch on the source's branch row
/// (`override − nominal`, replacing rather than adding to the stamped
/// t = 0 value). The shared Newton loop brings exact device reuse and
/// slot-bound assembly to sweeps for free.
fn solve_newton_override(
    sys: &System<'_>,
    ckt: &Circuit,
    x0: &[f64],
    ov: &SourceOverride,
    ws: &mut NewtonWorkspace,
) -> Result<Vec<f64>> {
    let bv = sys.branch_var(ov.branch);
    // Find the nominal (t = 0) value of the overridden source so we can
    // replace it rather than add to it.
    let nominal = ckt
        .elements()
        .iter()
        .find_map(|e| match e {
            Element::VSource { branch, wave, .. } if *branch == ov.branch => Some(wave.value(0.0)),
            _ => None,
        })
        .unwrap_or(0.0);
    let patch = Some((bv, ov.value - nominal));
    sys.newton(
        x0,
        0.0,
        1.0,
        TEMP_NOMINAL,
        GMIN,
        None,
        ws,
        patch,
        "dc-sweep",
    )
    .map(|(x, _iters)| x)
}

/// Linearly spaced sweep values, inclusive of both ends.
#[must_use]
pub fn linspace(start: f64, stop: f64, points: usize) -> Vec<f64> {
    assert!(points >= 2, "need at least two points");
    (0..points)
        .map(|i| start + (stop - start) * i as f64 / (points - 1) as f64)
        .collect()
}

/// Convenience: sweep and return `(value, v(node))` directly.
///
/// # Errors
/// Propagates [`dc_sweep`] errors.
pub fn transfer_curve(
    ckt: &Circuit,
    source: &str,
    values: &[f64],
    node: NodeId,
) -> Result<Vec<(f64, f64)>> {
    Ok(dc_sweep(ckt, source, values)?.voltage_curve(node))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform as W;

    #[test]
    fn linspace_endpoints() {
        let v = linspace(-1.0, 1.0, 5);
        assert_eq!(v, vec![-1.0, -0.5, 0.0, 0.5, 1.0]);
    }

    #[test]
    fn divider_transfer_is_linear() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("VIN", a, Circuit::gnd(), W::dc(0.0));
        ckt.resistor("R1", a, b, 2e3).unwrap();
        ckt.resistor("R2", b, Circuit::gnd(), 1e3).unwrap();
        let vals = linspace(0.0, 3.0, 7);
        let curve = transfer_curve(&ckt, "VIN", &vals, b).unwrap();
        for (vin, vout) in curve {
            assert!((vout - vin / 3.0).abs() < 1e-4, "{vin} -> {vout}");
        }
    }

    #[test]
    fn unknown_source_is_an_error() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor("R1", a, Circuit::gnd(), 1e3).unwrap();
        let r = dc_sweep(&ckt, "VX", &[0.0]);
        assert!(matches!(r, Err(Error::UnknownSignal { .. })));
    }

    #[test]
    fn current_curve_follows_ohm() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let br = ckt.vsource("VIN", a, Circuit::gnd(), W::dc(0.0));
        ckt.resistor("R1", a, Circuit::gnd(), 1e3).unwrap();
        let res = dc_sweep(&ckt, "VIN", &linspace(0.0, 1.0, 3)).unwrap();
        for (v, i) in res.current_curve(br) {
            // Source current flows p→n internally: −v/R.
            assert!((i + v / 1e3).abs() < 1e-7, "{v} -> {i}");
        }
    }

    #[test]
    fn sweep_reuses_factorisation_across_points() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("VIN", a, Circuit::gnd(), W::dc(0.0));
        ckt.resistor("R1", a, Circuit::gnd(), 1e3).unwrap();
        let res = dc_sweep(&ckt, "VIN", &linspace(0.0, 1.0, 9)).unwrap();
        let s = res.stats();
        assert_eq!(s.full_factors, 1, "only the first solve should factor");
        assert!(s.refactors >= 8, "later points must refactor: {s:?}");
        assert_eq!(s.pattern_rebuilds, 1);
    }

    #[test]
    fn waveform_sources_sweep_from_their_t0_value() {
        // The override replaces the nominal (t=0) value, not adds.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("VIN", a, Circuit::gnd(), W::dc(5.0));
        ckt.resistor("R1", a, Circuit::gnd(), 1e3).unwrap();
        let res = dc_sweep(&ckt, "VIN", &[1.0]).unwrap();
        assert!((res.solutions()[0].voltage(a) - 1.0).abs() < 1e-6);
    }
}
