//! The 1.5T1Fe 2-cell pair (Fig. 5(a)) and its row builder.
//!
//! Electrical structure per pair (cells `2p`, `2p+1`):
//!
//! ```text
//!    Wr/SL_p ──┬── FeFET₁ (BG=SeL_a, FG=BL_{2p})   ──┬── SL̄_p
//!              └── FeFET₂ (BG=SeL_b, FG=BL_{2p+1}) ──┘
//!    SL̄_p: TN (gate SL_p) to GND, TP (gate SL_p) to VDD,
//!          TML gate → pulls ML low when SL̄_p rises above V_TH(TML)
//! ```
//!
//! Search '0' (Table II): Wr/SL = SL = VDD → TN on, divider Eq. (2).
//! Search '1': Wr/SL = SL = 0 → TP on, divider Eq. (3). The two cells
//! are searched in two steps via SeL_a/SeL_b; idle lines sit at VDD so
//! TN keeps SL̄ grounded and TML off.

use crate::array::{build_scaffold, SearchSim};
use crate::cell::{DesignKind, DesignParams, RowParasitics, SearchTiming};
use crate::ops;
use crate::ternary::{Ternary, TernaryWord};
use ferrotcam_device::fefet::{Fefet, VthState};
use ferrotcam_device::mosfet::Mosfet;
use ferrotcam_spice::prelude::*;

/// Threshold state a stored ternary digit programs into the FeFET
/// (Table II: '0' → HVT/R_OFF, '1' → LVT/R_ON, 'X' → MVT/R_M).
#[must_use]
pub fn state_for(digit: Ternary) -> VthState {
    match digit {
        Ternary::Zero => VthState::Hvt,
        Ternary::One => VthState::Lvt,
        Ternary::X => VthState::Mvt,
    }
}

pub(crate) fn build_search_row(
    params: &DesignParams,
    stored: &TernaryWord,
    query: &[bool],
    timing: SearchTiming,
    par: RowParasitics,
    enable_step2: bool,
) -> Result<SearchSim> {
    assert!(params.kind.is_t15(), "t15 builder needs a 1.5T design");
    let n = stored.len();
    assert!(
        n.is_multiple_of(2),
        "1.5T1Fe rows pair cells: word length must be even"
    );
    let is_dg = params.kind == DesignKind::T15Dg;
    let vdd = params.vdd;

    let mut ckt = Circuit::new();
    let scaffold = build_scaffold(&mut ckt, params, n, &timing, &par)?;
    let gnd = Circuit::gnd();

    // Row-wise select lines (these are the P-well back gates for DG).
    let sela = ckt.node("sela");
    let selb = ckt.node("selb");
    ckt.vsource(
        "SELA",
        sela,
        gnd,
        ops::select_pulse(params.v_search, &timing, false),
    );
    let selb_wave = if enable_step2 {
        ops::select_pulse(params.v_search, &timing, true)
    } else {
        Waveform::dc(0.0) // early termination: SeL_b stays grounded
    };
    ckt.vsource("SELB", selb, gnd, selb_wave);
    ckt.capacitor("csela", sela, gnd, par.sel_wire_per_cell * n as f64)?;
    ckt.capacitor("cselb", selb, gnd, par.sel_wire_per_cell * n as f64)?;

    for p in 0..n / 2 {
        let c1 = 2 * p;
        let c2 = 2 * p + 1;
        let slbar = ckt.node(&format!("slbar{p}"));
        ckt.capacitor(&format!("cslbar{p}"), slbar, gnd, par.slbar_wire)?;

        // Per-pair column lines, switching value between the two steps.
        // Search '0' ⇒ Wr/SL = SL = VDD; '1' ⇒ both 0. Idle levels are
        // SL = VDD (TN clamps SL_bar, TML stays off) and **Wr/SL = 0**:
        // with the far end of the FeFET grounded, a cell whose select
        // line rises before its evaluate drive (the select lead) cannot
        // pull SL_bar up — this is what makes the two-step handoff
        // glitch-free.
        let lvl = |q: bool| if q { 0.0 } else { vdd };
        let wrsl = ckt.node(&format!("wrsl{p}"));
        let slp = ckt.node(&format!("slp{p}"));
        let wrsl_wave =
            ops::two_step_wave(0.0, lvl(query[c1]), lvl(query[c2]), &timing, enable_step2);
        let sl_wave =
            ops::two_step_wave(vdd, lvl(query[c1]), lvl(query[c2]), &timing, enable_step2);
        ckt.vsource(&format!("WRSL{p}"), wrsl, gnd, wrsl_wave);
        ckt.vsource(&format!("SLP{p}"), slp, gnd, sl_wave);

        // Front gates: DG drives BL (V_b during its own search-'0'
        // step); SG merges BL/SeL so the FG *is* the select line.
        let (fg1, fg2) = if is_dg {
            let bl1 = ckt.node(&format!("bl{c1}"));
            let bl2 = ckt.node(&format!("bl{c2}"));
            let vb = |q: bool| if q { 0.0 } else { params.v_bias };
            let (d1s, d1e) = timing.drive_window(false);
            ckt.vsource(
                &format!("BL{c1}"),
                bl1,
                gnd,
                ops::step_pulse(0.0, vb(query[c1]), d1s, d1e, timing.edge),
            );
            let bl2_wave = if enable_step2 {
                let (d2s, d2e) = timing.drive_window(true);
                ops::step_pulse(0.0, vb(query[c2]), d2s, d2e, timing.edge)
            } else {
                Waveform::dc(0.0)
            };
            ckt.vsource(&format!("BL{c2}"), bl2, gnd, bl2_wave);
            (bl1, bl2)
        } else {
            (sela, selb)
        };
        let (bg1, bg2) = if is_dg { (sela, selb) } else { (gnd, gnd) };

        let mut f1 = Fefet::new(
            &format!("fe{c1}"),
            wrsl,
            fg1,
            slbar,
            bg1,
            params.fefet().clone(),
        );
        f1.program(state_for(stored.digit(c1)));
        ckt.device(Box::new(f1));
        let mut f2 = Fefet::new(
            &format!("fe{c2}"),
            wrsl,
            fg2,
            slbar,
            bg2,
            params.fefet().clone(),
        );
        f2.program(state_for(stored.digit(c2)));
        ckt.device(Box::new(f2));

        // Shared transistors of the pair.
        ckt.device(Box::new(Mosfet::new(
            &format!("tn{p}"),
            slbar,
            slp,
            gnd,
            gnd,
            params.tn.clone(),
        )));
        ckt.device(Box::new(Mosfet::new(
            &format!("tp{p}"),
            slbar,
            slp,
            scaffold.vdd,
            scaffold.vdd,
            params.tp.clone(),
        )));
        ckt.device(Box::new(Mosfet::new(
            &format!("tml{p}"),
            scaffold.tap(c1),
            slbar,
            gnd,
            gnd,
            params.tml.clone(),
        )));
    }

    // Start with a discharged ML so precharge energy is accounted.
    ckt.initial_condition(scaffold.ml, 0.0);

    Ok(SearchSim {
        circuit: ckt,
        timing,
        two_step: enable_step2,
        vdd,
        ml: "ml".to_string(),
        sa_out: scaffold.sa_out,
        design: params.kind,
        cycles: 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::build_search_row;

    fn run(kind: DesignKind, stored: &str, query: &[bool], step2: bool) -> crate::array::SearchRun {
        let params = DesignParams::preset(kind);
        let stored: TernaryWord = stored.parse().unwrap();
        let mut sim = build_search_row(
            &params,
            &stored,
            query,
            SearchTiming::default(),
            RowParasitics::default(),
            step2,
        )
        .unwrap();
        sim.run().unwrap()
    }

    #[test]
    fn dg_match_keeps_ml_high() {
        let r = run(DesignKind::T15Dg, "0110", &[false, true, true, false], true);
        assert!(
            r.matched().unwrap(),
            "ML fell on a matching word: {:.3}",
            r.ml_final().unwrap()
        );
    }

    #[test]
    fn dg_step1_mismatch_discharges() {
        // Stored '1' at a step-1 (even) position, query '0' there.
        let r = run(
            DesignKind::T15Dg,
            "1000",
            &[false, false, false, false],
            false,
        );
        assert!(!r.matched().unwrap(), "ML stayed high on a step-1 mismatch");
        let lat = r.latency().unwrap().expect("SA must fire");
        assert!(lat > 0.0 && lat < 600e-12, "latency = {lat:.3e}");
    }

    #[test]
    fn dg_step2_mismatch_discharges_late() {
        // Mismatch only at an odd (step-2) position.
        let r = run(
            DesignKind::T15Dg,
            "0100",
            &[false, false, false, false],
            true,
        );
        assert!(!r.matched().unwrap());
        let lat = r.latency().unwrap().expect("SA must fire in step 2");
        let t = SearchTiming::default();
        assert!(
            lat > t.t_step,
            "step-2 mismatch must resolve after step 1: {lat:.3e}"
        );
    }

    #[test]
    fn dg_stored_x_matches_both_queries() {
        for q in [false, true] {
            let r = run(DesignKind::T15Dg, "XX", &[q, q], true);
            assert!(r.matched().unwrap(), "X row mismatched query {q}");
        }
    }

    #[test]
    fn dg_search1_mismatch_on_stored_zero() {
        // Query '1' against stored '0' → TP-side divider discharge.
        let r = run(DesignKind::T15Dg, "00", &[true, false], false);
        assert!(!r.matched().unwrap(), "stored 0 vs query 1 must mismatch");
    }

    #[test]
    fn sg_variant_matches_and_mismatches() {
        let m = run(DesignKind::T15Sg, "01", &[false, true], true);
        assert!(
            m.matched().unwrap(),
            "SG match failed: ml = {:.3}",
            m.ml_final().unwrap()
        );
        let x = run(DesignKind::T15Sg, "10", &[false, false], false);
        assert!(!x.matched().unwrap(), "SG mismatch not detected");
    }

    #[test]
    fn early_termination_suppresses_step2_energy() {
        // Same stored/query (step-1 miss); with and without step 2.
        let with = run(DesignKind::T15Dg, "1010", &[false; 4], true);
        let without = run(DesignKind::T15Dg, "1010", &[false; 4], false);
        let e_with = with.total_energy();
        let e_without = without.total_energy();
        assert!(
            e_without < e_with,
            "early termination must save energy: {e_without:.3e} vs {e_with:.3e}"
        );
    }
}
