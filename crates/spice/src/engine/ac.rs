//! AC small-signal analysis.
//!
//! The circuit is linearised at its DC operating point (device
//! conductances `∂I/∂V` and capacitances `∂Q/∂V`), then the complex
//! system `(G + jωC)·x = b` is solved at each requested frequency. The
//! complex system is solved through its real-equivalent block form
//!
//! ```text
//! ┌ G  −ωC ┐ ┌ Re x ┐   ┌ Re b ┐
//! └ ωC   G ┘ └ Im x ┘ = └ Im b ┘
//! ```
//!
//! which reuses the real sparse LU unchanged.

use super::dc::{operating_point, DcOpts, Solution};
use super::{NewtonWorkspace, System, GMIN};
use crate::error::{Error, Result};
use crate::matrix::sparse::Triplets;
use crate::netlist::{Circuit, Element, NodeId};
use crate::nonlinear::EvalCtx;

/// A complex phasor value.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Phasor {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Phasor {
    /// Magnitude.
    #[must_use]
    pub fn mag(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Phase in radians.
    #[must_use]
    pub fn phase(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Magnitude in decibels (20·log10).
    #[must_use]
    pub fn db(self) -> f64 {
        20.0 * self.mag().max(1e-300).log10()
    }
}

/// Result of an AC sweep.
#[derive(Debug, Clone)]
pub struct AcResult {
    freqs: Vec<f64>,
    /// `solutions[f][var]`, node variables then branch currents.
    solutions: Vec<Vec<Phasor>>,
    num_nodes: usize,
}

impl AcResult {
    /// Swept frequencies (Hz).
    #[must_use]
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Node phasor at sweep point `i`.
    #[must_use]
    pub fn voltage(&self, i: usize, node: NodeId) -> Phasor {
        let idx = node.index();
        if idx == 0 {
            Phasor::default()
        } else {
            self.solutions[i][idx - 1]
        }
    }

    /// `(freq, |v(node)|)` magnitude response.
    #[must_use]
    pub fn magnitude_curve(&self, node: NodeId) -> Vec<(f64, f64)> {
        self.freqs
            .iter()
            .enumerate()
            .map(|(i, &f)| (f, self.voltage(i, node).mag()))
            .collect()
    }

    /// −3 dB corner relative to the first sweep point's magnitude
    /// (linear interpolation in log-log); `None` when never reached.
    #[must_use]
    pub fn corner_frequency(&self, node: NodeId) -> Option<f64> {
        let curve = self.magnitude_curve(node);
        let m0 = curve.first()?.1;
        let target = m0 / std::f64::consts::SQRT_2;
        for w in curve.windows(2) {
            let (f0, v0) = w[0];
            let (f1, v1) = w[1];
            if v0 > target && v1 <= target {
                let lf =
                    f0.ln() + (target.ln() - v0.ln()) * (f1.ln() - f0.ln()) / (v1.ln() - v0.ln());
                return Some(lf.exp());
            }
        }
        None
    }

    /// The underlying DC operating point is not stored; sweep length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// Whether the sweep is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// Number of circuit nodes (including ground).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }
}

/// Run an AC sweep: unit-magnitude stimulus on the voltage source named
/// `source`, at the given frequencies, around the DC operating point.
///
/// # Errors
/// * [`Error::UnknownSignal`] when the source does not exist;
/// * DC or factorisation errors.
pub fn ac_analysis(ckt: &Circuit, source: &str, freqs: &[f64]) -> Result<AcResult> {
    let _span = crate::trace::span("ac");
    let ac_branch = ckt
        .elements()
        .iter()
        .find_map(|e| match e {
            Element::VSource { name, branch, .. } if name == source => Some(*branch),
            _ => None,
        })
        .ok_or_else(|| Error::UnknownSignal {
            name: source.to_string(),
        })?;

    // DC operating point for linearisation.
    let op: Solution = operating_point(ckt, &DcOpts::default())?;
    let sys = System::new(ckt);
    let n = sys.nvars;
    let x = op.as_vec();

    // Assemble G (resistive part incl. device conductances) and C
    // (capacitive part) separately, from one evaluation per device.
    let ctx = EvalCtx {
        temp: crate::units::TEMP_NOMINAL,
        gmin: GMIN,
        time: 0.0,
    };
    let mut ws = NewtonWorkspace::new(&sys);
    sys.eval_devices(x, &ctx, &mut ws);
    // Conductance assembly (sources at DC values; RHS unused here).
    sys.stamp_triplets(x, 0.0, 1.0, ctx.gmin, None, &mut ws);

    // Capacitances: linear capacitors + device ∂Q/∂V at the OP.
    let mut c_tri = Triplets::new(n);
    for elem in ckt.elements() {
        if let Element::Capacitor {
            p, n: nn, farads, ..
        } = elem
        {
            let (vp, vn) = (sys.var_of(*p), sys.var_of(*nn));
            if let Some(a) = vp {
                c_tri.add(a, a, *farads);
            }
            if let Some(b) = vn {
                c_tri.add(b, b, *farads);
            }
            if let (Some(a), Some(b)) = (vp, vn) {
                c_tri.add(a, b, -farads);
                c_tri.add(b, a, -farads);
            }
        }
    }
    for (di, dev) in ckt.devices().iter().enumerate() {
        let terms = dev.terminals();
        let t = terms.len();
        let st = &ws.stamps[di];
        for (a, &term_a) in terms.iter().enumerate() {
            let Some(ra) = sys.var_of(term_a) else {
                continue;
            };
            for (b, &term_b) in terms.iter().enumerate() {
                let c = st.cq[a * t + b];
                if c != 0.0 {
                    if let Some(cb) = sys.var_of(term_b) {
                        c_tri.add(ra, cb, c);
                    }
                }
            }
        }
    }

    // Real-equivalent 2n system per frequency. The stamp order is
    // frequency-independent, so the cached solver's scatter plan and LU
    // pattern survive across the whole frequency grid: every frequency
    // after the first is a numeric-only refactorisation.
    let mut g_compressed = crate::matrix::CscMatrix::default();
    let mut c_compressed = crate::matrix::CscMatrix::default();
    ws.tri.compress_into(&mut g_compressed);
    c_tri.compress_into(&mut c_compressed);
    let mut solver = crate::matrix::CachedSolver::new();
    let mut big = Triplets::new(2 * n);
    let mut solutions = Vec::with_capacity(freqs.len());
    for &f in freqs {
        let w = 2.0 * std::f64::consts::PI * f;
        big.clear();
        for (r, c, gv) in g_compressed.entries() {
            big.add(r, c, gv);
            big.add(n + r, n + c, gv);
        }
        for (r, c, cv) in c_compressed.entries() {
            big.add(r, n + c, -cv * w);
            big.add(n + r, c, cv * w);
        }
        let mut b = vec![0.0; 2 * n];
        // Unit AC stimulus on the chosen source branch; all other
        // sources are AC-grounded (their branch RHS stays 0 — note the
        // DC RHS is *not* reused: AC solves the perturbation).
        b[sys.branch_var(ac_branch)] = 1.0;
        let xs = solver.solve(&big, &b)?;
        let sol: Vec<Phasor> = (0..n)
            .map(|v| Phasor {
                re: xs[v],
                im: xs[n + v],
            })
            .collect();
        solutions.push(sol);
    }
    Ok(AcResult {
        freqs: freqs.to_vec(),
        solutions,
        num_nodes: sys.num_nodes,
    })
}

/// Logarithmically spaced frequencies, inclusive of both ends.
///
/// # Panics
/// Panics unless `0 < start < stop` and `points ≥ 2`.
#[must_use]
pub fn logspace(start: f64, stop: f64, points: usize) -> Vec<f64> {
    assert!(points >= 2 && start > 0.0 && stop > start, "bad logspace");
    let (l0, l1) = (start.ln(), stop.ln());
    (0..points)
        .map(|i| (l0 + (l1 - l0) * i as f64 / (points - 1) as f64).exp())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;

    #[test]
    fn rc_lowpass_corner() {
        let mut ckt = Circuit::new();
        let a = ckt.node("in");
        let b = ckt.node("out");
        ckt.vsource("VIN", a, Circuit::gnd(), Waveform::dc(0.0));
        ckt.resistor("R1", a, b, 1e3).unwrap();
        ckt.capacitor("C1", b, Circuit::gnd(), 1e-9).unwrap();
        // f_c = 1/(2πRC) ≈ 159.2 kHz.
        let freqs = logspace(1e3, 1e8, 101);
        let ac = ac_analysis(&ckt, "VIN", &freqs).unwrap();
        let fc = ac.corner_frequency(b).expect("corner in range");
        assert!(
            (fc - 159.2e3).abs() < 0.05 * 159.2e3,
            "corner {fc:.3e} vs 159.2 kHz"
        );
        // Low-frequency gain ≈ 1, high-frequency rolls off 20 dB/dec.
        let lo = ac.voltage(0, b).mag();
        assert!((lo - 1.0).abs() < 1e-3);
        let hi1 = ac.voltage(90, b);
        let hi2 = ac.voltage(95, b);
        let dec = (freqs[95] / freqs[90]).log10();
        let slope = (hi2.db() - hi1.db()) / dec;
        assert!((slope + 20.0).abs() < 1.0, "slope {slope:.1} dB/dec");
    }

    #[test]
    fn divider_is_frequency_flat() {
        let mut ckt = Circuit::new();
        let a = ckt.node("in");
        let b = ckt.node("out");
        ckt.vsource("VIN", a, Circuit::gnd(), Waveform::dc(1.0));
        ckt.resistor("R1", a, b, 3e3).unwrap();
        ckt.resistor("R2", b, Circuit::gnd(), 1e3).unwrap();
        let ac = ac_analysis(&ckt, "VIN", &logspace(1e3, 1e9, 7)).unwrap();
        for i in 0..7 {
            let v = ac.voltage(i, b);
            assert!((v.mag() - 0.25).abs() < 1e-6);
            assert!(v.phase().abs() < 1e-6);
        }
    }

    #[test]
    fn phase_lags_through_the_pole() {
        let mut ckt = Circuit::new();
        let a = ckt.node("in");
        let b = ckt.node("out");
        ckt.vsource("VIN", a, Circuit::gnd(), Waveform::dc(0.0));
        ckt.resistor("R1", a, b, 1e3).unwrap();
        ckt.capacitor("C1", b, Circuit::gnd(), 1e-9).unwrap();
        let fc = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
        let ac = ac_analysis(&ckt, "VIN", &[fc]).unwrap();
        // At the pole: 45° lag.
        let ph = ac.voltage(0, b).phase().to_degrees();
        assert!((ph + 45.0).abs() < 1.0, "phase {ph:.1}");
    }

    #[test]
    fn unknown_source_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor("R", a, Circuit::gnd(), 1e3).unwrap();
        assert!(matches!(
            ac_analysis(&ckt, "nope", &[1e3]),
            Err(Error::UnknownSignal { .. })
        ));
    }

    #[test]
    fn logspace_shape() {
        let f = logspace(1.0, 1000.0, 4);
        assert!((f[0] - 1.0).abs() < 1e-12);
        assert!((f[3] - 1000.0).abs() < 1e-9);
        assert!((f[1] - 10.0).abs() < 1e-9);
    }
}
