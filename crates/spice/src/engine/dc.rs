//! DC operating-point analysis with gmin and source stepping fallbacks.

use super::{NewtonWorkspace, PhaseTimes, SimStats, System, GMIN};
use crate::erc;
use crate::error::{Error, Result};
use crate::netlist::{Circuit, NodeId};

/// Options for [`operating_point`].
#[derive(Debug, Clone)]
pub struct DcOpts {
    /// Simulation temperature (K).
    pub temp: f64,
}

impl Default for DcOpts {
    fn default() -> Self {
        Self {
            temp: crate::units::TEMP_NOMINAL,
        }
    }
}

/// A solved operating point.
#[derive(Debug, Clone)]
pub struct Solution {
    x: Vec<f64>,
    num_nodes: usize,
    stats: SimStats,
    phase_times: PhaseTimes,
}

impl Solution {
    pub(crate) fn new(x: Vec<f64>, num_nodes: usize) -> Self {
        Self {
            x,
            num_nodes,
            stats: SimStats::default(),
            phase_times: PhaseTimes::default(),
        }
    }

    /// Attach the counters and phase times of the workspace that solved it.
    pub(crate) fn with_run(mut self, ws: &NewtonWorkspace) -> Self {
        self.stats = ws.stats();
        self.phase_times = ws.clock.times;
        self
    }

    /// Solver work counters for this solve (iterations, factorisations).
    #[must_use]
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Wall time per Newton phase (zero unless tracing was on).
    pub(crate) fn phase_times(&self) -> PhaseTimes {
        self.phase_times
    }

    /// Node voltage (0 for ground).
    #[must_use]
    pub fn voltage(&self, node: NodeId) -> f64 {
        let i = node.index();
        if i == 0 {
            0.0
        } else {
            self.x[i - 1]
        }
    }

    /// Branch current of voltage source `branch` (the value returned by
    /// [`Circuit::vsource`]), flowing `p → n` through the source.
    #[must_use]
    pub fn branch_current(&self, branch: usize) -> f64 {
        self.x[(self.num_nodes - 1) + branch]
    }

    /// The raw solution vector (node voltages then branch currents).
    #[must_use]
    pub fn as_vec(&self) -> &[f64] {
        &self.x
    }
}

/// Gmin stepping ladder: progressively relax the shunt, reconverging from
/// the previous rung.
const GMIN_LADDER: [f64; 6] = [1e-3, 1e-5, 1e-7, 1e-9, 1e-11, GMIN];

/// Source stepping ramp.
const SRC_STEPS: usize = 10;

/// Compute the DC operating point of `ckt`.
///
/// Capacitors are open; each independent source is evaluated at t = 0.
/// Tries plain Newton first, then gmin stepping, then source stepping.
///
/// # Errors
/// [`Error::NonConvergence`] if every strategy fails,
/// [`Error::SingularMatrix`] for a structurally defective circuit, or
/// the typed validation errors of [`erc::preflight`].
pub fn operating_point(ckt: &Circuit, opts: &DcOpts) -> Result<Solution> {
    erc::preflight(ckt)?;
    solve(ckt, opts.temp)
}

/// [`operating_point`] without the pre-flight, for an analysis that has
/// already run its own.
pub(crate) fn solve(ckt: &Circuit, temp: f64) -> Result<Solution> {
    let _span = crate::trace::span("dc");
    let sys = System::new(ckt);
    // One workspace for the whole ladder: the gmin/source-stepping rungs
    // all share the matrix pattern, so only the first solve pays for
    // symbolic analysis.
    let mut ws = NewtonWorkspace::new(&sys);
    let x0 = vec![0.0; sys.nvars];

    // 1. Plain Newton from zero.
    match sys.newton(&x0, 0.0, 1.0, temp, GMIN, None, &mut ws, None, "dc") {
        Ok((x, _)) => return Ok(Solution::new(x, sys.num_nodes).with_run(&ws)),
        Err(Error::SingularMatrix { .. }) => {
            // Structural problem — stepping will not fix a floating
            // subcircuit; retry once with a heavy shunt before giving up.
        }
        Err(_) => {}
    }

    // 2. Gmin stepping.
    crate::trace::note("dc.fallback", "plain newton failed; gmin stepping");
    let mut x = x0.clone();
    let mut ok = true;
    for &gmin in &GMIN_LADDER {
        match sys.newton(&x, 0.0, 1.0, temp, gmin, None, &mut ws, None, "dc") {
            Ok((xn, _)) => x = xn,
            Err(_) => {
                ok = false;
                break;
            }
        }
    }
    if ok {
        return Ok(Solution::new(x, sys.num_nodes).with_run(&ws));
    }

    // 3. Source stepping.
    crate::trace::note("dc.fallback", "gmin stepping failed; source stepping");
    let mut x = x0;
    for step in 1..=SRC_STEPS {
        let scale = step as f64 / SRC_STEPS as f64;
        let (xn, _) = sys.newton(&x, 0.0, scale, temp, 1e-9, None, &mut ws, None, "dc")?;
        x = xn;
    }
    // Final polish at full sources and the nominal gmin.
    let (x, _) = sys.newton(&x, 0.0, 1.0, temp, GMIN, None, &mut ws, None, "dc")?;
    Ok(Solution::new(x, sys.num_nodes).with_run(&ws))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;

    #[test]
    fn ladder_network() {
        // Three-rung R ladder driven by 3 V: analytically solvable.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let c = ckt.node("c");
        ckt.vsource("V1", a, Circuit::gnd(), Waveform::dc(3.0));
        ckt.resistor("R1", a, b, 1e3).unwrap();
        ckt.resistor("R2", b, c, 1e3).unwrap();
        ckt.resistor("R3", c, Circuit::gnd(), 1e3).unwrap();
        let sol = operating_point(&ckt, &DcOpts::default()).unwrap();
        assert!((sol.voltage(a) - 3.0).abs() < 1e-6);
        assert!((sol.voltage(b) - 2.0).abs() < 1e-4);
        assert!((sol.voltage(c) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn capacitor_is_open_in_dc() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("V1", a, Circuit::gnd(), Waveform::dc(1.0));
        ckt.resistor("R1", a, b, 1e3).unwrap();
        ckt.capacitor("C1", b, Circuit::gnd(), 1e-12).unwrap();
        let sol = operating_point(&ckt, &DcOpts::default()).unwrap();
        // No DC path to ground through C: b floats to a's potential
        // (through R1, held by gmin at ~1 V).
        assert!((sol.voltage(b) - 1.0).abs() < 1e-3);
    }
}
