//! 16T CMOS NOR-type TCAM baseline \[25\].
//!
//! Each cell holds two SRAM bits (Q for data, with `Q = Q̄ = 0` encoding
//! 'X') and a 4-transistor compare network: two series NMOS branches
//! `(SL, Q̄)` and `(SL̄, Q)` from the ML to ground. The twelve storage
//! transistors are static during search, so the simulation represents
//! the SRAM nodes with ideal sources and builds only the compare
//! network — their leakage and write path are outside the search FoM.

use crate::array::{build_scaffold, SearchSim};
use crate::cell::{DesignKind, DesignParams, RowParasitics, SearchTiming};
use crate::ops;
use crate::ternary::{Ternary, TernaryWord};
use ferrotcam_device::mosfet::Mosfet;
use ferrotcam_spice::prelude::*;

/// SRAM node levels for a stored digit: `(Q, Q̄)`.
#[must_use]
pub fn sram_levels(digit: Ternary, vdd: f64) -> (f64, f64) {
    match digit {
        Ternary::Zero => (0.0, vdd),
        Ternary::One => (vdd, 0.0),
        Ternary::X => (0.0, 0.0),
    }
}

pub(crate) fn build_search_row(
    params: &DesignParams,
    stored: &TernaryWord,
    query: &[bool],
    timing: SearchTiming,
    par: RowParasitics,
) -> Result<SearchSim> {
    assert_eq!(params.kind, DesignKind::Cmos16t, "cmos16t builder");
    let n = stored.len();
    assert_eq!(query.len(), n, "query length matches stored word");
    let vdd = params.vdd;

    let mut ckt = Circuit::new();
    let scaffold = build_scaffold(&mut ckt, params, n, &timing, &par)?;
    let gnd = Circuit::gnd();

    for (c, &qc) in query.iter().enumerate() {
        let sl = ckt.node(&format!("sl{c}"));
        let slb = ckt.node(&format!("slb{c}"));
        let (v_sl, v_slb) = if qc { (vdd, 0.0) } else { (0.0, vdd) };
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
        ckt.capacitor(&format!("csl{c}"), sl, gnd, par.sel_wire_per_cell)?;
        ckt.capacitor(&format!("cslb{c}"), slb, gnd, par.sel_wire_per_cell)?;

        // Static SRAM nodes.
        let q = ckt.node(&format!("q{c}"));
        let qb = ckt.node(&format!("qb{c}"));
        let (vq, vqb) = sram_levels(stored.digit(c), vdd);
        ckt.vsource(&format!("Q{c}"), q, gnd, Waveform::dc(vq));
        ckt.vsource(&format!("QB{c}"), qb, gnd, Waveform::dc(vqb));

        // Compare branch 1: mismatch for query '1' on stored '0'
        // (SL high AND Q̄ high).
        let mid1 = ckt.node(&format!("mid1_{c}"));
        ckt.device(Box::new(Mosfet::new(
            &format!("m1a_{c}"),
            scaffold.tap(c),
            sl,
            mid1,
            gnd,
            params.cmos_pd.clone(),
        )));
        ckt.device(Box::new(Mosfet::new(
            &format!("m1b_{c}"),
            mid1,
            qb,
            gnd,
            gnd,
            params.cmos_pd.clone(),
        )));
        // Compare branch 2: mismatch for query '0' on stored '1'.
        let mid2 = ckt.node(&format!("mid2_{c}"));
        ckt.device(Box::new(Mosfet::new(
            &format!("m2a_{c}"),
            scaffold.tap(c),
            slb,
            mid2,
            gnd,
            params.cmos_pd.clone(),
        )));
        ckt.device(Box::new(Mosfet::new(
            &format!("m2b_{c}"),
            mid2,
            q,
            gnd,
            gnd,
            params.cmos_pd.clone(),
        )));
    }

    ckt.initial_condition(scaffold.ml, 0.0);

    Ok(SearchSim {
        circuit: ckt,
        timing,
        two_step: false,
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

    fn run(stored: &str, query: &[bool]) -> crate::array::SearchRun {
        let params = DesignParams::preset(DesignKind::Cmos16t);
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
    fn match_keeps_ml_high() {
        let r = run("0110", &[false, true, true, false]);
        assert!(r.matched().unwrap());
    }

    #[test]
    fn mismatch_discharges_fast() {
        let r = run("0110", &[true, true, true, false]);
        assert!(!r.matched().unwrap());
        let lat = r.latency().unwrap().expect("fires");
        // CMOS is the speed baseline: well under the FeFET designs.
        assert!(lat < 400e-12, "lat = {lat:.3e}");
    }

    #[test]
    fn x_matches_both() {
        for q in [false, true] {
            let r = run("X", &[q]);
            assert!(r.matched().unwrap());
        }
    }

    #[test]
    fn both_mismatch_polarities_detected() {
        // stored 1 vs query 0 and stored 0 vs query 1.
        assert!(!run("1", &[false]).matched().unwrap());
        assert!(!run("0", &[true]).matched().unwrap());
    }
}
