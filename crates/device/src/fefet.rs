//! Compact FeFET model covering both single-gate (SG) and double-gate
//! (DG) devices.
//!
//! The model is the threshold-shift formulation used by FeFET TCAM
//! literature: the ferroelectric polarisation `P` (a [`PreisachFilm`])
//! shifts the channel threshold linearly,
//!
//! `V_TH,eff = V_TH0 − (P/P_sat) · MW_FG / 2`,
//!
//! so `P = +P_sat` is the **LVT** ('1') state, `P = −P_sat` the **HVT**
//! ('0') state, and `P ≈ 0` the **MVT** ('X') state reached by a partial
//! write at `V_m`.
//!
//! The double gate is modelled with a back-gate coupling ratio
//! `r = bg_coupling`: the channel sees the effective gate voltage
//! `v_FG + r·v_BG`. Reading through the BG therefore **amplifies the
//! memory window by 1/r** and **degrades the subthreshold slope by the
//! same factor** — precisely the two device-level effects the paper's
//! Fig. 1(d) reports (MW 2.7 V, reduced SS). An SG-FeFET is the same
//! structure with `r = 0` (its fourth terminal is the body).

use crate::ferro::{PreisachFilm, PreisachParams};
use crate::mosfet::{ekv_ids, MosfetParams, Stamps4};
use ferrotcam_spice::erc::{ErcParam, ParamKind};
use ferrotcam_spice::nonlinear::{DeviceStamps, EvalCtx, NonlinearDevice};
use ferrotcam_spice::NodeId;
use serde::{Deserialize, Serialize};

/// The three programmable threshold states of a FeFET TCAM cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VthState {
    /// Low threshold — stores logic '1' (`R_ON`).
    Lvt,
    /// Medium threshold — stores 'X' (`R_M`), reached by partial write.
    Mvt,
    /// High threshold — stores logic '0' (`R_OFF`).
    Hvt,
}

impl VthState {
    /// Normalised polarisation corresponding to this state.
    #[must_use]
    pub fn polarization(self) -> f64 {
        match self {
            VthState::Lvt => 1.0,
            VthState::Mvt => 0.0,
            VthState::Hvt => -1.0,
        }
    }
}

/// Static parameters of a FeFET.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FefetParams {
    /// Core channel model (MVT threshold lives in `core.vth0`).
    pub core: MosfetParams,
    /// Ferroelectric film (coercive distribution + switching charge).
    pub ferro: PreisachParams,
    /// Front-gate-referred memory window (V): `V_TH(HVT) − V_TH(LVT)`.
    pub mw_fg: f64,
    /// Back-gate to front-gate coupling ratio `r` (0 for SG devices).
    pub bg_coupling: f64,
    /// Front-gate stack capacitance (F), FE in series with the MOS gate.
    pub c_fg: f64,
    /// Back-gate capacitance (F).
    pub c_bg: f64,
    /// Drain/source junction capacitance (F). Large for DG devices in
    /// isolated P-wells — this asymmetry versus logic transistors is what
    /// makes 2FeFET match lines slow.
    pub c_junction: f64,
    /// Nominal full write voltage `±V_w` (V).
    pub v_write: f64,
    /// Partial write voltage `V_m` for the MVT/'X' state (V).
    pub v_mvt: f64,
}

impl FefetParams {
    /// Effective threshold for a given normalised polarisation.
    #[must_use]
    pub fn vth_eff(&self, p_norm: f64) -> f64 {
        self.core.vth0 - p_norm * self.mw_fg / 2.0
    }

    /// Memory window seen from the back gate: `MW_FG / r`.
    ///
    /// # Panics
    /// Panics when called on an SG device (`bg_coupling == 0`).
    #[must_use]
    pub fn mw_bg(&self) -> f64 {
        assert!(self.bg_coupling > 0.0, "SG-FeFET has no BG read path");
        self.mw_fg / self.bg_coupling
    }

    /// Subthreshold slope of the BG read path (V/dec): FG slope divided
    /// by the coupling ratio (slope degradation of Fig. 1(d)).
    #[must_use]
    pub fn ss_bg(&self, temp: f64) -> f64 {
        self.core.subthreshold_slope(temp) / self.bg_coupling
    }
}

/// Terminal indices of a [`Fefet`].
pub mod terminal {
    /// Drain.
    pub const D: usize = 0;
    /// Front gate (write gate; also the SG read gate).
    pub const FG: usize = 1;
    /// Source.
    pub const S: usize = 2;
    /// Back gate (DG read gate; body for SG devices).
    pub const BG: usize = 3;
}

/// A FeFET circuit device: terminals `[D, FG, S, BG]`.
#[derive(Debug)]
pub struct Fefet {
    name: String,
    nodes: [NodeId; 4],
    params: FefetParams,
    film: PreisachFilm,
}

impl Fefet {
    /// Create a FeFET in the erased (HVT / '0') state.
    #[must_use]
    pub fn new(
        name: &str,
        d: NodeId,
        fg: NodeId,
        s: NodeId,
        bg: NodeId,
        params: FefetParams,
    ) -> Self {
        Self {
            name: name.to_string(),
            nodes: [d, fg, s, bg],
            params: params.clone(),
            film: PreisachFilm::new(params.ferro),
        }
    }

    /// Model parameters.
    #[must_use]
    pub fn params(&self) -> &FefetParams {
        &self.params
    }

    /// Direct access to the polarisation state.
    #[must_use]
    pub fn film(&self) -> &PreisachFilm {
        &self.film
    }

    /// Program a threshold state directly (behavioural write — the
    /// circuit-level 3-step write drives the FG instead).
    pub fn program(&mut self, state: VthState) {
        self.film.set_normalized(state.polarization());
    }

    /// Program an arbitrary normalised polarisation in `[−1, +1]` —
    /// the multi-level-cell (MLC) programming primitive.
    pub fn set_polarization(&mut self, p_norm: f64) {
        self.film.set_normalized(p_norm);
    }

    /// Apply a quasi-static write voltage across the film (FG minus
    /// channel potential), advancing the hysteresis state.
    pub fn write_pulse(&mut self, v_fg_minus_channel: f64) {
        self.film.apply(v_fg_minus_channel);
    }

    /// Effective (FG-referred) threshold voltage at the current state.
    #[must_use]
    pub fn vth(&self) -> f64 {
        self.params.vth_eff(self.film.normalized())
    }

    /// BG-referred threshold voltage (`vth / r`), for Fig. 1(d)-style
    /// read characterisation.
    ///
    /// # Panics
    /// Panics for SG devices (no BG path).
    #[must_use]
    pub fn vth_bg(&self) -> f64 {
        assert!(
            self.params.bg_coupling > 0.0,
            "SG-FeFET has no BG read path"
        );
        self.vth() / self.params.bg_coupling
    }

    /// Drain current at ground-referenced terminal voltages.
    #[must_use]
    pub fn drain_current(&self, vd: f64, vfg: f64, vs: f64, vbg: f64, temp: f64) -> f64 {
        let vg_eff = vfg + self.params.bg_coupling * vbg;
        ekv_ids(&self.params.core, self.vth(), vg_eff, vd, vs, temp).ids
    }

    /// Channel resistance `|vds|/|id|` at an operating point, clamped to
    /// a large finite value in the off state.
    #[must_use]
    pub fn resistance(&self, vd: f64, vfg: f64, vs: f64, vbg: f64, temp: f64) -> f64 {
        let i = self.drain_current(vd, vfg, vs, vbg, temp).abs();
        ((vd - vs).abs().max(1e-6) / i.max(1e-18)).min(1e15)
    }

    /// Front-gate Id–Vg sweep at drain bias `vd` (source, BG grounded).
    #[must_use]
    pub fn sweep_fg(
        &self,
        vg_range: (f64, f64),
        points: usize,
        vd: f64,
        temp: f64,
    ) -> Vec<(f64, f64)> {
        sweep(vg_range, points, |vg| {
            self.drain_current(vd, vg, 0.0, 0.0, temp)
        })
    }

    /// Back-gate Id–Vg sweep at drain bias `vd` (source, FG grounded).
    #[must_use]
    pub fn sweep_bg(
        &self,
        vg_range: (f64, f64),
        points: usize,
        vd: f64,
        temp: f64,
    ) -> Vec<(f64, f64)> {
        sweep(vg_range, points, |vg| {
            self.drain_current(vd, 0.0, 0.0, vg, temp)
        })
    }
}

fn sweep(range: (f64, f64), points: usize, f: impl Fn(f64) -> f64) -> Vec<(f64, f64)> {
    assert!(points >= 2, "need at least two sweep points");
    (0..points)
        .map(|i| {
            let vg = range.0 + (range.1 - range.0) * i as f64 / (points - 1) as f64;
            (vg, f(vg))
        })
        .collect()
}

impl NonlinearDevice for Fefet {
    fn name(&self) -> &str {
        &self.name
    }

    fn terminals(&self) -> &[NodeId] {
        &self.nodes
    }

    fn eval(&self, v: &[f64], out: &mut DeviceStamps, ctx: &EvalCtx) {
        use terminal::{BG, D, FG, S};
        let p = &self.params;
        let r = p.bg_coupling;
        let v: &[f64; 4] = v.try_into().expect("four terminal voltages");
        let vg_eff = v[FG] + r * v[BG];
        let m = ekv_ids(&p.core, self.vth(), vg_eff, v[D], v[S], ctx.temp);
        let mut st = Stamps4::new(out);
        st.i[D] += m.ids;
        st.i[S] -= m.ids;
        st.gi[D * 4 + D] += m.gds;
        st.gi[D * 4 + FG] += m.gm;
        st.gi[D * 4 + BG] += m.gm * r;
        st.gi[D * 4 + S] += m.gms;
        st.gi[S * 4 + D] -= m.gds;
        st.gi[S * 4 + FG] -= m.gm;
        st.gi[S * 4 + BG] -= m.gm * r;
        st.gi[S * 4 + S] -= m.gms;
        // Charge: FG stack to channel (split S/D) + frozen polarisation
        // charge (switching at commit appears as current next step →
        // write energy), BG cap, junction caps.
        let cfg_half = 0.5 * p.c_fg;
        st.add_branch_charge(FG, S, cfg_half * (v[FG] - v[S]), cfg_half);
        st.add_branch_charge(FG, D, cfg_half * (v[FG] - v[D]), cfg_half);
        st.add_branch_charge(FG, S, self.film.charge(), 0.0);
        st.add_branch_charge(BG, S, p.c_bg * (v[BG] - v[S]), p.c_bg);
        st.add_branch_charge(D, BG, p.c_junction * (v[D] - v[BG]), p.c_junction);
        st.add_branch_charge(S, BG, p.c_junction * (v[S] - v[BG]), p.c_junction);
    }

    fn commit(&mut self, v: &[f64], _ctx: &EvalCtx) -> bool {
        use terminal::{D, FG, S};
        // The film sees the FG voltage relative to the channel potential.
        // A flipped domain shifts `vth` and the frozen film charge that
        // later `eval`s see.
        let v_fe = v[FG] - 0.5 * (v[S] + v[D]);
        self.film.apply(v_fe)
    }

    fn state(&self, key: &str) -> Option<f64> {
        match key {
            "polarization" => Some(self.film.polarization()),
            "p_norm" => Some(self.film.normalized()),
            "vth" => Some(self.vth()),
            _ => None,
        }
    }

    fn dc_paths(&self) -> Vec<(usize, usize)> {
        // Only the channel conducts at DC; both gates are capacitive.
        vec![(terminal::D, terminal::S)]
    }

    fn erc_params(&self) -> Vec<ErcParam> {
        let p = &self.params;
        vec![
            ErcParam::new("w", p.core.w, ParamKind::Geometry),
            ErcParam::new("l", p.core.l, ParamKind::Geometry),
            ErcParam::new("area", p.ferro.area, ParamKind::Geometry),
            ErcParam::new("v_write", p.v_write, ParamKind::WriteVoltage),
            ErcParam::new("v_mvt", p.v_mvt, ParamKind::Value),
            ErcParam::new("mw_fg", p.mw_fg, ParamKind::Value),
            ErcParam::new("bg_coupling", p.bg_coupling, ParamKind::Value),
            ErcParam::new("c_fg", p.c_fg, ParamKind::Value),
            ErcParam::new("c_bg", p.c_bg, ParamKind::Value),
            ErcParam::new("c_junction", p.c_junction, ParamKind::Value),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib;
    use ferrotcam_spice::units::TEMP_NOMINAL;

    const T: f64 = TEMP_NOMINAL;

    fn dg() -> Fefet {
        Fefet::new(
            "f",
            NodeId::GROUND,
            NodeId::GROUND,
            NodeId::GROUND,
            NodeId::GROUND,
            calib::dg_fefet_14nm(),
        )
    }

    fn sg() -> Fefet {
        Fefet::new(
            "f",
            NodeId::GROUND,
            NodeId::GROUND,
            NodeId::GROUND,
            NodeId::GROUND,
            calib::sg_fefet_14nm(),
        )
    }

    #[test]
    fn program_sets_three_distinct_thresholds() {
        let mut f = dg();
        f.program(VthState::Lvt);
        let v_l = f.vth();
        f.program(VthState::Mvt);
        let v_m = f.vth();
        f.program(VthState::Hvt);
        let v_h = f.vth();
        assert!(v_l < v_m && v_m < v_h);
        assert!((v_h - v_l - f.params().mw_fg).abs() < 0.02);
    }

    #[test]
    fn bg_window_is_amplified() {
        let f = dg();
        let p = f.params();
        assert!((p.mw_bg() - p.mw_fg / p.bg_coupling).abs() < 1e-12);
        assert!(p.mw_bg() > p.mw_fg);
        // Slope degraded by the same factor.
        assert!(p.ss_bg(T) > p.core.subthreshold_slope(T));
    }

    #[test]
    fn full_write_cycle_via_pulses() {
        let mut f = dg();
        let vw = f.params().v_write;
        let vm = f.params().v_mvt;
        f.write_pulse(-vw); // erase → HVT
        let vth_hvt = f.vth();
        f.write_pulse(vw); // → LVT
        let vth_lvt = f.vth();
        f.write_pulse(-vw);
        f.write_pulse(vm); // partial → MVT
        let vth_mvt = f.vth();
        assert!(vth_lvt < vth_mvt && vth_mvt < vth_hvt);
        assert!(
            (vth_mvt - (vth_lvt + vth_hvt) / 2.0).abs() < 0.1,
            "MVT not centred: {vth_mvt} vs [{vth_lvt}, {vth_hvt}]"
        );
    }

    #[test]
    fn search_bias_does_not_disturb_state() {
        let mut f = dg();
        f.program(VthState::Lvt);
        let vth0 = f.vth();
        // 10k search cycles at read biases.
        for _ in 0..10_000 {
            f.write_pulse(0.25);
            f.write_pulse(-0.8);
        }
        assert_eq!(f.vth(), vth0);
    }

    #[test]
    fn dg_bg_read_distinguishes_states() {
        let mut f = dg();
        let vbg = 2.0; // V_SeL
        f.program(VthState::Lvt);
        let i_on = f.drain_current(0.4, 0.0, 0.0, vbg, T);
        f.program(VthState::Mvt);
        let i_mid = f.drain_current(0.4, 0.0, 0.0, vbg, T);
        f.program(VthState::Hvt);
        let i_off = f.drain_current(0.4, 0.0, 0.0, vbg, T);
        assert!(i_on > i_mid && i_mid > i_off);
        assert!(i_on / i_off > 1e4, "ON/OFF = {}", i_on / i_off);
    }

    #[test]
    fn sg_fg_read_distinguishes_states() {
        let mut f = sg();
        let vsel = 0.8;
        f.program(VthState::Lvt);
        let r_on = f.resistance(0.4, vsel, 0.0, 0.0, T);
        f.program(VthState::Mvt);
        let r_m = f.resistance(0.4, vsel, 0.0, 0.0, T);
        f.program(VthState::Hvt);
        let r_off = f.resistance(0.4, vsel, 0.0, 0.0, T);
        assert!(r_on < r_m && r_m < r_off);
        assert!(r_off / r_on > 1e4);
    }

    #[test]
    fn sweeps_have_requested_shape() {
        let f = dg();
        let pts = f.sweep_bg((-1.0, 3.0), 41, 0.05, T);
        assert_eq!(pts.len(), 41);
        assert!(pts.windows(2).all(|w| w[0].0 < w[1].0));
        // Monotone non-decreasing current for an n-channel device.
        assert!(pts.windows(2).all(|w| w[1].1 >= w[0].1 * 0.999));
    }

    #[test]
    fn device_stamps_conserve_current() {
        let f = dg();
        let mut st = DeviceStamps::new(4);
        f.eval(&[0.5, 0.25, 0.1, 2.0], &mut st, &EvalCtx::default());
        let sum: f64 = st.i.iter().sum();
        assert!(sum.abs() < 1e-15);
        let qsum: f64 = st.q.iter().sum();
        assert!(qsum.abs() < 1e-25);
    }
}
