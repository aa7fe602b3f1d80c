//! EKV-style all-region MOSFET compact model.
//!
//! A single smooth expression covers weak and strong inversion, which is
//! what the Newton solver needs to converge through the large signal
//! swings of TCAM search/write waveforms:
//!
//! `I_DS = 2·n·β·U_T² · [F(v_p − v_s) − F(v_p − v_d)] · (1 + λ·v_ds)`
//!
//! with `F(x) = ln(1 + e^{x/(2·U_T)})²`, `v_p = (v_g − V_TH)/n` and
//! `β = k'·W/L`. The model is symmetric in source/drain and mirrored for
//! PMOS. Subthreshold slope is `n·U_T·ln 10` per decade.

use ferrotcam_spice::erc::{ErcParam, ParamKind};
use ferrotcam_spice::nonlinear::{DeviceStamps, EvalCtx, NonlinearDevice};
use ferrotcam_spice::units::thermal_voltage;
use ferrotcam_spice::NodeId;
use serde::{Deserialize, Serialize};

/// Channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Polarity {
    /// n-channel.
    Nmos,
    /// p-channel.
    Pmos,
}

impl Polarity {
    /// Voltage mirror sign: +1 for NMOS, −1 for PMOS.
    #[must_use]
    pub fn sign(self) -> f64 {
        match self {
            Polarity::Nmos => 1.0,
            Polarity::Pmos => -1.0,
        }
    }
}

/// Parameters of the EKV-style model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MosfetParams {
    /// Channel polarity.
    pub polarity: Polarity,
    /// Threshold voltage magnitude (V); the PMOS mirror is applied
    /// internally.
    pub vth0: f64,
    /// Process transconductance `k' = µ·C_ox` (A/V²).
    pub kp: f64,
    /// Channel width (m).
    pub w: f64,
    /// Channel length (m).
    pub l: f64,
    /// Subthreshold slope factor `n` (≥ 1); SS = `n·U_T·ln10`.
    pub n: f64,
    /// Channel-length modulation (1/V).
    pub lambda: f64,
    /// Total gate capacitance (F), split half to source, half to drain.
    pub c_gate: f64,
    /// Source/drain junction capacitance to body (F each).
    pub c_junction: f64,
}

impl MosfetParams {
    /// 14 nm-class FDSOI logic NMOS with width `w_nm` nanometres
    /// (L = 20 nm, SS ≈ 75 mV/dec, V_TH = 0.35 V).
    #[must_use]
    pub fn nmos_14nm(w_nm: f64) -> Self {
        Self {
            polarity: Polarity::Nmos,
            vth0: 0.35,
            kp: 300e-6,
            w: w_nm * 1e-9,
            l: 20e-9,
            n: 1.25,
            lambda: 0.08,
            // ~1 µF/cm² effective gate stack.
            c_gate: 1e-2 * (w_nm * 1e-9) * 20e-9,
            c_junction: 0.02e-15 * (w_nm / 50.0),
        }
    }

    /// 14 nm-class FDSOI logic PMOS (lower mobility than NMOS).
    #[must_use]
    pub fn pmos_14nm(w_nm: f64) -> Self {
        Self {
            polarity: Polarity::Pmos,
            kp: 120e-6,
            ..Self::nmos_14nm(w_nm)
        }
    }

    /// High-voltage (I/O-class) NMOS able to pass FeFET write voltages;
    /// thicker oxide: higher V_TH, softer slope.
    #[must_use]
    pub fn nmos_hv(w_nm: f64) -> Self {
        Self {
            vth0: 0.55,
            kp: 180e-6,
            n: 1.45,
            l: 60e-9,
            c_gate: 0.6e-2 * (w_nm * 1e-9) * 60e-9,
            ..Self::nmos_14nm(w_nm)
        }
    }

    /// High-voltage (I/O-class) PMOS.
    #[must_use]
    pub fn pmos_hv(w_nm: f64) -> Self {
        Self {
            polarity: Polarity::Pmos,
            kp: 75e-6,
            ..Self::nmos_hv(w_nm)
        }
    }

    /// Gain factor β = k'·W/L.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.kp * self.w / self.l
    }

    /// Subthreshold slope (V/decade).
    #[must_use]
    pub fn subthreshold_slope(&self, temp: f64) -> f64 {
        self.n * thermal_voltage(temp) * std::f64::consts::LN_10
    }
}

/// Large-signal output of [`ekv_ids`]: drain current plus conductances.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EkvOut {
    /// Drain current (A), positive into the drain for NMOS conduction.
    pub ids: f64,
    /// ∂I/∂V_G (S).
    pub gm: f64,
    /// ∂I/∂V_D (S).
    pub gds: f64,
    /// ∂I/∂V_S (S).
    pub gms: f64,
}

/// Numerically safe softplus `ln(1+e^x)` and logistic sigmoid
/// `1/(1+e^{−x})` of one argument. For `x < 0` both are built from one
/// `e^x` (the sigmoid as `e^x/(1+e^x)`); for `x ≥ 0` the sigmoid uses
/// `e^{−x}`.
#[inline]
fn softplus_sigmoid(x: f64) -> (f64, f64) {
    if x >= 0.0 {
        let sp = if x > 40.0 { x } else { x.exp().ln_1p() };
        (sp, 1.0 / (1.0 + (-x).exp()))
    } else {
        let e = x.exp();
        let sp = if x < -40.0 { e } else { e.ln_1p() };
        (sp, e / (1.0 + e))
    }
}

/// Evaluate the EKV drain current for an **NMOS-referred** device
/// (callers handle the PMOS mirror). Valid for any `v_d`, `v_s` ordering;
/// source/drain symmetry is applied internally. `vth` is the effective
/// threshold (possibly shifted by ferroelectric polarisation).
#[must_use]
pub fn ekv_ids(p: &MosfetParams, vth: f64, vg: f64, vd: f64, vs: f64, temp: f64) -> EkvOut {
    // Symmetry: I(vg, vd, vs) = −I(vg, vs, vd).
    if vd < vs {
        let m = ekv_ids(p, vth, vg, vs, vd, temp);
        return EkvOut {
            ids: -m.ids,
            gm: -m.gm,
            gds: -m.gms,
            gms: -m.gds,
        };
    }
    let ut = thermal_voltage(temp);
    let i0 = 2.0 * p.n * p.beta() * ut * ut;
    let vp = (vg - vth) / p.n;
    let xf = (vp - vs) / (2.0 * ut);
    let xr = (vp - vd) / (2.0 * ut);
    let (sf, sig_f) = softplus_sigmoid(xf);
    let (sr, sig_r) = softplus_sigmoid(xr);
    let ff = sf * sf;
    let fr = sr * sr;
    // dF/d(arg): F(x) = sp(x/2Ut)² → F' = sp·sig/Ut.
    let dff = sf * sig_f / ut;
    let dfr = sr * sig_r / ut;
    let vds = vd - vs;
    let clm = 1.0 + p.lambda * vds;
    let core = i0 * (ff - fr);
    EkvOut {
        ids: core * clm,
        gm: i0 * (dff - dfr) / p.n * clm,
        gds: i0 * dfr * clm + core * p.lambda,
        gms: -i0 * dff * clm - core * p.lambda,
    }
}

/// The [`DeviceStamps`] buffers of a four-terminal device as fixed-size
/// arrays: one length check per buffer, none per entry.
pub(crate) struct Stamps4<'a> {
    pub i: &'a mut [f64; 4],
    pub q: &'a mut [f64; 4],
    pub gi: &'a mut [f64; 16],
    pub cq: &'a mut [f64; 16],
}

impl<'a> Stamps4<'a> {
    /// # Panics
    /// Panics when `out` was not sized for four terminals.
    #[inline]
    pub(crate) fn new(out: &'a mut DeviceStamps) -> Self {
        const SIZED: &str = "stamp buffers sized for four terminals";
        let DeviceStamps { i, q, gi, cq } = out;
        Self {
            i: i.as_mut_slice().try_into().expect(SIZED),
            q: q.as_mut_slice().try_into().expect(SIZED),
            gi: gi.as_mut_slice().try_into().expect(SIZED),
            cq: cq.as_mut_slice().try_into().expect(SIZED),
        }
    }

    /// [`DeviceStamps::add_branch_charge`] on the fixed-size views, with
    /// the same operations in the same order.
    #[inline]
    pub(crate) fn add_branch_charge(&mut self, a: usize, b: usize, q: f64, c: f64) {
        self.q[a] += q;
        self.q[b] -= q;
        self.cq[a * 4 + a] += c;
        self.cq[a * 4 + b] -= c;
        self.cq[b * 4 + a] -= c;
        self.cq[b * 4 + b] += c;
    }
}

/// A four-terminal MOSFET device: terminals `[D, G, S, B]`.
///
/// The body terminal carries junction-capacitance charge only (FDSOI
/// devices in this workspace model back-gate effects at the FeFET level
/// instead).
#[derive(Debug)]
pub struct Mosfet {
    name: String,
    nodes: [NodeId; 4],
    params: MosfetParams,
}

/// Terminal indices of [`Mosfet`].
pub mod terminal {
    /// Drain.
    pub const D: usize = 0;
    /// Gate.
    pub const G: usize = 1;
    /// Source.
    pub const S: usize = 2;
    /// Body.
    pub const B: usize = 3;
}

impl Mosfet {
    /// Create a MOSFET named `name` with terminals drain/gate/source/body.
    #[must_use]
    pub fn new(
        name: &str,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        params: MosfetParams,
    ) -> Self {
        Self {
            name: name.to_string(),
            nodes: [d, g, s, b],
            params,
        }
    }

    /// Model parameters.
    #[must_use]
    pub fn params(&self) -> &MosfetParams {
        &self.params
    }

    /// Drain current at the given terminal voltages (sign per polarity:
    /// positive current flows into the drain of a conducting NMOS). All
    /// voltages are referenced to the body `vb` internally, so a PMOS
    /// with its body at VDD mirrors an NMOS with its body at ground.
    #[must_use]
    pub fn drain_current(&self, vd: f64, vg: f64, vs: f64, vb: f64, temp: f64) -> f64 {
        let s = self.params.polarity.sign();
        s * ekv_ids(
            &self.params,
            self.params.vth0,
            s * (vg - vb),
            s * (vd - vb),
            s * (vs - vb),
            temp,
        )
        .ids
    }

    /// Effective resistance `v_ds / i_ds` at an operating point; returns
    /// a huge-but-finite value when the device is fully off.
    #[must_use]
    pub fn resistance(&self, vd: f64, vg: f64, vs: f64, vb: f64, temp: f64) -> f64 {
        let i = self.drain_current(vd, vg, vs, vb, temp).abs();
        let v = (vd - vs).abs().max(1e-6);
        (v / i.max(1e-18)).min(1e15)
    }
}

impl NonlinearDevice for Mosfet {
    fn name(&self) -> &str {
        &self.name
    }

    fn terminals(&self) -> &[NodeId] {
        &self.nodes
    }

    fn eval(&self, v: &[f64], out: &mut DeviceStamps, ctx: &EvalCtx) {
        use terminal::{B, D, G, S};
        let v: &[f64; 4] = v.try_into().expect("four terminal voltages");
        let p = &self.params;
        let sgn = p.polarity.sign();
        let m = ekv_ids(
            p,
            p.vth0,
            sgn * (v[G] - v[B]),
            sgn * (v[D] - v[B]),
            sgn * (v[S] - v[B]),
            ctx.temp,
        );
        // Current into drain = sgn·ids; into source the negative. All
        // Jacobian signs cancel (sgn² = 1).
        // Body-referenced: ∂I/∂v_B = −(gm + gds + gms) by the chain rule.
        let gmb = -(m.gm + m.gds + m.gms);
        let mut st = Stamps4::new(out);
        st.i[D] += sgn * m.ids;
        st.i[S] -= sgn * m.ids;
        st.gi[D * 4 + D] += m.gds;
        st.gi[D * 4 + G] += m.gm;
        st.gi[D * 4 + S] += m.gms;
        st.gi[D * 4 + B] += gmb;
        st.gi[S * 4 + D] -= m.gds;
        st.gi[S * 4 + G] -= m.gm;
        st.gi[S * 4 + S] -= m.gms;
        st.gi[S * 4 + B] -= gmb;
        // Charge storage: gate cap split to S/D, junctions to body.
        let cg_half = 0.5 * p.c_gate;
        st.add_branch_charge(G, S, cg_half * (v[G] - v[S]), cg_half);
        st.add_branch_charge(G, D, cg_half * (v[G] - v[D]), cg_half);
        st.add_branch_charge(D, B, p.c_junction * (v[D] - v[B]), p.c_junction);
        st.add_branch_charge(S, B, p.c_junction * (v[S] - v[B]), p.c_junction);
    }

    fn dc_paths(&self) -> Vec<(usize, usize)> {
        // Static conduction only through the channel: a gate or body
        // node reached through nothing but MOS gates has no DC path.
        vec![(terminal::D, terminal::S)]
    }

    fn erc_params(&self) -> Vec<ErcParam> {
        let p = &self.params;
        vec![
            ErcParam::new("w", p.w, ParamKind::Geometry),
            ErcParam::new("l", p.l, ParamKind::Geometry),
            ErcParam::new("vth0", p.vth0, ParamKind::Value),
            ErcParam::new("kp", p.kp, ParamKind::Value),
            ErcParam::new("n", p.n, ParamKind::Value),
            ErcParam::new("lambda", p.lambda, ParamKind::Value),
            ErcParam::new("c_gate", p.c_gate, ParamKind::Value),
            ErcParam::new("c_junction", p.c_junction, ParamKind::Value),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrotcam_spice::units::TEMP_NOMINAL;

    const T: f64 = TEMP_NOMINAL;

    fn nmos() -> MosfetParams {
        MosfetParams::nmos_14nm(50.0)
    }

    #[test]
    fn off_when_gate_low_on_when_high() {
        let p = nmos();
        let off = ekv_ids(&p, p.vth0, 0.0, 0.8, 0.0, T).ids;
        let on = ekv_ids(&p, p.vth0, 0.8, 0.8, 0.0, T).ids;
        assert!(on > 1e-6, "on = {on}");
        assert!(off < 1e-9, "off = {off}");
        assert!(on / off > 1e4);
    }

    #[test]
    fn subthreshold_slope_matches_n() {
        let p = nmos();
        // One decade per n·Ut·ln10 in weak inversion.
        let i1 = ekv_ids(&p, p.vth0, 0.10, 0.8, 0.0, T).ids;
        let ss = p.subthreshold_slope(T);
        let i2 = ekv_ids(&p, p.vth0, 0.10 + ss, 0.8, 0.0, T).ids;
        let ratio = i2 / i1;
        assert!((ratio - 10.0).abs() < 0.6, "ratio = {ratio}");
    }

    #[test]
    fn source_drain_symmetry() {
        let p = nmos();
        let fwd = ekv_ids(&p, p.vth0, 0.8, 0.5, 0.1, T).ids;
        let rev = ekv_ids(&p, p.vth0, 0.8, 0.1, 0.5, T).ids;
        assert!((fwd + rev).abs() < 1e-12 * fwd.abs().max(1e-18));
        assert!(fwd > 0.0 && rev < 0.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let p = nmos();
        let h = 1e-7;
        for (vg, vd, vs) in [
            (0.6, 0.8, 0.0),
            (0.3, 0.05, 0.0),
            (0.9, 0.4, 0.2),
            (0.5, 0.1, 0.4), // reverse region
        ] {
            let m = ekv_ids(&p, p.vth0, vg, vd, vs, T);
            let num_gm = (ekv_ids(&p, p.vth0, vg + h, vd, vs, T).ids
                - ekv_ids(&p, p.vth0, vg - h, vd, vs, T).ids)
                / (2.0 * h);
            let num_gds = (ekv_ids(&p, p.vth0, vg, vd + h, vs, T).ids
                - ekv_ids(&p, p.vth0, vg, vd - h, vs, T).ids)
                / (2.0 * h);
            let num_gms = (ekv_ids(&p, p.vth0, vg, vd, vs + h, T).ids
                - ekv_ids(&p, p.vth0, vg, vd, vs - h, T).ids)
                / (2.0 * h);
            let tol = |a: f64| 1e-4 * a.abs().max(1e-12);
            assert!(
                (m.gm - num_gm).abs() < tol(num_gm),
                "gm {} vs {num_gm}",
                m.gm
            );
            assert!(
                (m.gds - num_gds).abs() < tol(num_gds),
                "gds {} vs {num_gds}",
                m.gds
            );
            assert!(
                (m.gms - num_gms).abs() < tol(num_gms),
                "gms {} vs {num_gms}",
                m.gms
            );
        }
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let pn = nmos();
        let pp = MosfetParams {
            polarity: Polarity::Pmos,
            ..nmos()
        };
        let mn = Mosfet::new(
            "mn",
            NodeId::GROUND,
            NodeId::GROUND,
            NodeId::GROUND,
            NodeId::GROUND,
            pn,
        );
        let mp = Mosfet::new(
            "mp",
            NodeId::GROUND,
            NodeId::GROUND,
            NodeId::GROUND,
            NodeId::GROUND,
            pp,
        );
        // PMOS with source at 0.8 V, gate 0: |Vgs| = 0.8 → on, current
        // flows source→drain (into drain is negative).
        let ip = mp.drain_current(0.0, 0.0, 0.8, 0.8, T);
        let in_ = mn.drain_current(0.8, 0.8, 0.0, 0.0, T);
        assert!(ip < 0.0);
        assert!(in_ > 0.0);
        // Magnitudes match because kp was kept equal here.
        assert!((ip.abs() - in_).abs() < 1e-9 * in_);
    }

    #[test]
    fn resistance_orders_with_gate_drive() {
        let p = nmos();
        let m = Mosfet::new(
            "m",
            NodeId::GROUND,
            NodeId::GROUND,
            NodeId::GROUND,
            NodeId::GROUND,
            p,
        );
        let r_strong = m.resistance(0.05, 0.8, 0.0, 0.0, T);
        let r_weak = m.resistance(0.05, 0.4, 0.0, 0.0, T);
        let r_off = m.resistance(0.05, 0.0, 0.0, 0.0, T);
        assert!(r_strong < r_weak && r_weak < r_off);
        assert!(r_strong < 1e5, "r_strong = {r_strong}");
        assert!(r_off > 1e8, "r_off = {r_off}");
    }

    #[test]
    fn stamps_have_zero_current_row_sum() {
        let p = nmos();
        let m = Mosfet::new(
            "m",
            NodeId::GROUND,
            NodeId::GROUND,
            NodeId::GROUND,
            NodeId::GROUND,
            p,
        );
        let mut st = DeviceStamps::new(4);
        m.eval(&[0.5, 0.7, 0.0, 0.0], &mut st, &EvalCtx::default());
        let sum: f64 = st.i.iter().sum();
        assert!(sum.abs() < 1e-15, "KCL violated: {sum}");
    }
}
