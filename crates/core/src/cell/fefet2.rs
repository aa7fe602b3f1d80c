//! The 2FeFET TCAM cell (Fig. 3) — the widely adopted FeFET TCAM design
//! \[13\], built in both SG and DG variants.
//!
//! Per cell, two FeFETs hang drain-to-ML with complementary programmed
//! states ('1' = LVT/HVT, '0' = HVT/LVT, 'X' = HVT/HVT). The search
//! voltage V_s drives SL (searching '0') or SL̄ (searching '1'); a
//! mismatch turns on an LVT device which discharges the ML directly —
//! which is why the FeFET junction capacitance shows up on the ML and
//! why the DG variant's reduced-SS read path makes it the slowest design
//! (Sec. III-A).

use crate::array::{build_scaffold, SearchSim};
use crate::cell::{DesignKind, DesignParams, RowParasitics, SearchTiming};
use crate::ops;
use crate::ternary::{Ternary, TernaryWord};
use ferrotcam_device::fefet::{Fefet, VthState};
use ferrotcam_spice::prelude::*;

/// Complementary FeFET states for a stored digit (Table I).
#[must_use]
pub fn states_for(digit: Ternary) -> (VthState, VthState) {
    match digit {
        Ternary::Zero => (VthState::Hvt, VthState::Lvt),
        Ternary::One => (VthState::Lvt, VthState::Hvt),
        Ternary::X => (VthState::Hvt, VthState::Hvt),
    }
}

pub(crate) fn build_search_row(
    params: &DesignParams,
    stored: &TernaryWord,
    query: &[bool],
    timing: SearchTiming,
    par: RowParasitics,
) -> Result<SearchSim> {
    assert!(
        matches!(params.kind, DesignKind::Sg2 | DesignKind::Dg2),
        "fefet2 builder needs a 2FeFET design"
    );
    let n = stored.len();
    assert_eq!(query.len(), n, "query length matches stored word");
    let is_dg = params.kind == DesignKind::Dg2;

    let mut ckt = Circuit::new();
    let scaffold = build_scaffold(&mut ckt, params, n, &timing, &par)?;
    let gnd = Circuit::gnd();

    for (c, &qc) in query.iter().enumerate() {
        let sl = ckt.node(&format!("sl{c}"));
        let slb = ckt.node(&format!("slb{c}"));
        // Table I: search '0' → SL = V_s, SL̄ = 0; search '1' → inverse.
        let (v_sl, v_slb) = if qc {
            (0.0, params.v_search)
        } else {
            (params.v_search, 0.0)
        };
        let win = (timing.step1_start(), timing.step1_end());
        ckt.vsource(
            &format!("SL{c}"),
            sl,
            gnd,
            ops::step_pulse(0.0, v_sl, win.0, win.1, timing.edge),
        );
        ckt.vsource(
            &format!("SLB{c}"),
            slb,
            gnd,
            ops::step_pulse(0.0, v_slb, win.0, win.1, timing.edge),
        );
        // One-row share of the column search-line wire.
        ckt.capacitor(&format!("csl{c}"), sl, gnd, par.sel_wire_per_cell)?;
        ckt.capacitor(&format!("cslb{c}"), slb, gnd, par.sel_wire_per_cell)?;

        // SG drives the FG; DG writes via FG (grounded during search)
        // and searches via the BG, each FeFET in its own P-well.
        let (s1, s2) = states_for(stored.digit(c));
        let (fg1, bg1, fg2, bg2) = if is_dg {
            (gnd, sl, gnd, slb)
        } else {
            (sl, gnd, slb, gnd)
        };
        let mut f1 = Fefet::new(
            &format!("fe{c}a"),
            scaffold.tap(c),
            fg1,
            gnd,
            bg1,
            params.fefet().clone(),
        );
        f1.program(s1);
        ckt.device(Box::new(f1));
        let mut f2 = Fefet::new(
            &format!("fe{c}b"),
            scaffold.tap(c),
            fg2,
            gnd,
            bg2,
            params.fefet().clone(),
        );
        f2.program(s2);
        ckt.device(Box::new(f2));
    }

    ckt.initial_condition(scaffold.ml, 0.0);

    Ok(SearchSim {
        circuit: ckt,
        timing,
        two_step: false,
        vdd: params.vdd,
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

    fn run(kind: DesignKind, stored: &str, query: &[bool]) -> crate::array::SearchRun {
        let params = DesignParams::preset(kind);
        let stored: TernaryWord = stored.parse().unwrap();
        let mut sim = build_search_row(
            &params,
            &stored,
            query,
            SearchTiming::default(),
            RowParasitics::default(),
            false,
        )
        .unwrap();
        sim.run().unwrap()
    }

    #[test]
    fn sg_match_and_mismatch() {
        let m = run(DesignKind::Sg2, "0110", &[false, true, true, false]);
        assert!(m.matched().unwrap(), "match case failed");
        let x = run(DesignKind::Sg2, "0110", &[true, true, true, false]);
        assert!(!x.matched().unwrap(), "mismatch not detected");
    }

    #[test]
    fn dg_match_and_mismatch() {
        let m = run(DesignKind::Dg2, "01", &[false, true]);
        assert!(
            m.matched().unwrap(),
            "DG match failed: ml={:.3}",
            m.ml_final().unwrap()
        );
        let x = run(DesignKind::Dg2, "01", &[true, true]);
        assert!(!x.matched().unwrap(), "DG mismatch not detected");
    }

    #[test]
    fn stored_x_always_matches() {
        for q in [[false, false], [true, true], [true, false]] {
            let r = run(DesignKind::Sg2, "XX", &q);
            assert!(r.matched().unwrap(), "X row mismatched {q:?}");
        }
    }

    #[test]
    fn dg_is_slower_than_sg() {
        // Same one-bit mismatch; the DG read path (degraded SS) must
        // discharge the ML more slowly — the Sec. III-A observation.
        let sg = run(DesignKind::Sg2, "1000", &[false; 4]);
        let dg = run(DesignKind::Dg2, "1000", &[false; 4]);
        let lat_sg = sg.latency().unwrap().expect("sg fires");
        let lat_dg = dg.latency().unwrap().expect("dg fires");
        assert!(
            lat_dg > lat_sg,
            "2DG ({lat_dg:.3e}) must be slower than 2SG ({lat_sg:.3e})"
        );
    }

    #[test]
    fn worst_case_single_mismatch_still_fires() {
        // 8-bit word, single mismatching cell: slowest discharge.
        let r = run(DesignKind::Sg2, "10000000", &[false; 8]);
        assert!(!r.matched().unwrap());
        assert!(r.latency().unwrap().is_some());
    }
}
