//! Full M×N array circuit search: every row simulated *simultaneously*
//! with genuinely shared column drive lines and select rows.
//!
//! The single-row experiments of [`crate::array`] assume rows do not
//! interact; in the real array the Wr/SL, SL and BL columns are shared
//! by all M rows, so a conducting divider in one row loads the drive
//! lines every other row sees. This module builds the whole 1.5T1Fe
//! array (M match lines, M sense amplifiers, N/2 shared-line pair
//! columns) and returns the per-row verdicts — the cross-validation
//! that the paper's array claims (Sec. III-B3) rest on.

use crate::behav::BehavioralTcam;
use crate::cell::{DesignKind, DesignParams, RowParasitics, SearchTiming};
use crate::ops;
use crate::senseamp::attach_sense_amp;
use crate::ternary::TernaryWord;
use ferrotcam_device::fefet::Fefet;
use ferrotcam_device::mosfet::Mosfet;
use ferrotcam_spice::prelude::*;

use crate::cell::t15::state_for;

/// Result of a full-array search.
#[derive(Debug, Clone)]
pub struct ArraySearchResult {
    /// Per-row match verdicts from the per-row sense amplifiers.
    pub matches: Vec<bool>,
    /// Total energy drawn from all drivers (J).
    pub energy: f64,
}

/// A fully built (but not yet simulated) M×N array search circuit.
#[derive(Debug)]
pub struct FullArrayCircuit {
    /// The complete array netlist.
    pub circuit: Circuit,
    /// Per-row sense-amplifier output node names.
    pub sa_outs: Vec<String>,
}

/// Build the full two-step search circuit over an M×N 1.5T1Fe array
/// without running it (used by [`search_full_array`] and by
/// `ferrotcam lint`).
///
/// # Errors
/// Propagates netlist-construction failures.
///
/// # Panics
/// Panics for non-1.5T designs, empty arrays, or odd word lengths.
#[allow(clippy::too_many_lines)]
pub fn build_full_array(
    params: &DesignParams,
    rows: &[TernaryWord],
    query: &[bool],
    timing: &SearchTiming,
    par: &RowParasitics,
    enable_step2: bool,
) -> Result<FullArrayCircuit> {
    assert!(
        params.kind.is_t15(),
        "full-array builder is for 1.5T designs"
    );
    assert!(!rows.is_empty(), "need at least one row");
    let n = query.len();
    assert!(n.is_multiple_of(2), "word length must be even");
    assert!(rows.iter().all(|w| w.len() == n), "row width mismatch");
    let m = rows.len();
    let is_dg = params.kind == DesignKind::T15Dg;
    let vdd = params.vdd;

    let mut ckt = Circuit::new();
    let gnd = Circuit::gnd();
    let vdd_n = ckt.node("vdd");
    ckt.vsource("VDD", vdd_n, gnd, Waveform::dc(vdd));

    // Global select rows (asserted for every row simultaneously).
    let sela = ckt.node("sela");
    let selb = ckt.node("selb");
    ckt.vsource(
        "SELA",
        sela,
        gnd,
        ops::select_pulse(params.v_search, timing, false),
    );
    let selb_wave = if enable_step2 {
        ops::select_pulse(params.v_search, timing, true)
    } else {
        Waveform::dc(0.0)
    };
    ckt.vsource("SELB", selb, gnd, selb_wave);
    ckt.capacitor("csela", sela, gnd, par.sel_wire_per_cell * (n * m) as f64)?;
    ckt.capacitor("cselb", selb, gnd, par.sel_wire_per_cell * (n * m) as f64)?;

    // Per-row ML + precharge + SA.
    let pre = ckt.node("pre");
    ckt.vsource("PRE", pre, gnd, ops::precharge_gate(vdd, timing));
    let mut mls = Vec::with_capacity(m);
    let mut sa_outs = Vec::with_capacity(m);
    for r in 0..m {
        let ml = ckt.node(&format!("ml{r}"));
        ckt.device(Box::new(Mosfet::new(
            &format!("mpre{r}"),
            ml,
            pre,
            vdd_n,
            vdd_n,
            params.precharge.clone(),
        )));
        ckt.capacitor(&format!("cml{r}"), ml, gnd, par.ml_wire_per_cell * n as f64)?;
        ckt.initial_condition(ml, 0.0);
        sa_outs.push(attach_sense_amp(&mut ckt, ml, vdd_n, &format!("sa{r}"))?);
        mls.push(ml);
    }

    // Shared column lines per pair; one set for the WHOLE array.
    for p in 0..n / 2 {
        let c1 = 2 * p;
        let c2 = 2 * p + 1;
        let lvl = |q: bool| if q { 0.0 } else { vdd };
        let wrsl = ckt.node(&format!("wrsl{p}"));
        let slp = ckt.node(&format!("slp{p}"));
        ckt.vsource(
            &format!("WRSL{p}"),
            wrsl,
            gnd,
            ops::two_step_wave(0.0, lvl(query[c1]), lvl(query[c2]), timing, enable_step2),
        );
        ckt.vsource(
            &format!("SLP{p}"),
            slp,
            gnd,
            ops::two_step_wave(vdd, lvl(query[c1]), lvl(query[c2]), timing, enable_step2),
        );
        // Column BLs (DG only), shared by all rows.
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

        // One divider per (row, pair).
        for (r, word) in rows.iter().enumerate() {
            let slbar = ckt.node(&format!("slbar{r}_{p}"));
            ckt.capacitor(&format!("cslbar{r}_{p}"), slbar, gnd, par.slbar_wire)?;
            let mut f1 = Fefet::new(
                &format!("fe{r}_{c1}"),
                wrsl,
                fg1,
                slbar,
                bg1,
                params.fefet().clone(),
            );
            f1.program(state_for(word.digit(c1)));
            ckt.device(Box::new(f1));
            let mut f2 = Fefet::new(
                &format!("fe{r}_{c2}"),
                wrsl,
                fg2,
                slbar,
                bg2,
                params.fefet().clone(),
            );
            f2.program(state_for(word.digit(c2)));
            ckt.device(Box::new(f2));
            ckt.device(Box::new(Mosfet::new(
                &format!("tn{r}_{p}"),
                slbar,
                slp,
                gnd,
                gnd,
                params.tn.clone(),
            )));
            ckt.device(Box::new(Mosfet::new(
                &format!("tp{r}_{p}"),
                slbar,
                slp,
                vdd_n,
                vdd_n,
                params.tp.clone(),
            )));
            ckt.device(Box::new(Mosfet::new(
                &format!("tml{r}_{p}"),
                mls[r],
                slbar,
                gnd,
                gnd,
                params.tml.clone(),
            )));
        }
    }

    Ok(FullArrayCircuit {
        circuit: ckt,
        sa_outs,
    })
}

/// Build and run a full two-step search over an M×N 1.5T1Fe array.
///
/// All rows are searched in parallel (SeL_a/SeL_b span every row, as in
/// the paper); `enable_step2` emulates the early-termination controller
/// globally.
///
/// # Errors
/// Propagates simulator failures.
///
/// # Panics
/// Panics for non-1.5T designs, empty arrays, or odd word lengths.
pub fn search_full_array(
    params: &DesignParams,
    rows: &[TernaryWord],
    query: &[bool],
    timing: SearchTiming,
    par: RowParasitics,
    enable_step2: bool,
) -> Result<ArraySearchResult> {
    let vdd = params.vdd;
    let FullArrayCircuit {
        mut circuit,
        sa_outs,
    } = build_full_array(params, rows, query, &timing, &par, enable_step2)?;

    let mut opts = TranOpts::to_time(timing.t_stop(enable_step2));
    opts.dt_init = 1e-12;
    opts.dt_max = 4e-12;
    opts.uic = true;
    let trace = transient(&mut circuit, &opts)?;

    let matches = sa_outs
        .iter()
        .map(|sa| Ok(trace.final_value(&format!("v({sa})"))? > vdd / 2.0))
        .collect::<Result<Vec<bool>>>()?;
    let energy = trace
        .signal_names()
        .iter()
        .filter(|s| s.starts_with("e("))
        .map(|s| trace.final_value(s).unwrap_or(0.0))
        .sum();
    Ok(ArraySearchResult { matches, energy })
}

/// Convenience: run the full array against the behavioural model and
/// return `(circuit, behavioural)` match vectors.
///
/// # Errors
/// Propagates simulator failures.
pub fn cross_validate_array(
    params: &DesignParams,
    rows: &[TernaryWord],
    query: &[bool],
) -> Result<(Vec<bool>, Vec<bool>)> {
    let res = search_full_array(
        params,
        rows,
        query,
        SearchTiming::default(),
        RowParasitics::default(),
        true,
    )?;
    let mut behav = BehavioralTcam::new(query.len());
    for w in rows {
        behav.store(w.clone());
    }
    let outcome = behav.search(query);
    let mut expect = vec![false; rows.len()];
    for &i in &outcome.matches {
        expect[i] = true;
    }
    Ok((res.matches, expect))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(strs: &[&str]) -> Vec<TernaryWord> {
        strs.iter().map(|s| s.parse().expect("word")).collect()
    }

    #[test]
    fn four_row_dg_array_matches_behavioural() {
        let params = DesignParams::preset(DesignKind::T15Dg);
        let rows = words(&["0110", "01X0", "1110", "0000"]);
        let query = [false, true, true, false];
        let (circuit, behav) = cross_validate_array(&params, &rows, &query).unwrap();
        assert_eq!(circuit, behav, "rows 0 and 1 match, 2 and 3 miss");
        assert_eq!(circuit, vec![true, true, false, false]);
    }

    #[test]
    fn shared_columns_do_not_couple_rows() {
        // Row 0 mismatches hard (every divider conducting); row 1 is a
        // clean match. The shared Wr/SL and SL lines must still deliver
        // a correct verdict for row 1.
        let params = DesignParams::preset(DesignKind::T15Dg);
        let rows = words(&["1111", "0000"]);
        let query = [false; 4];
        let (circuit, behav) = cross_validate_array(&params, &rows, &query).unwrap();
        assert_eq!(circuit, behav);
        assert_eq!(circuit, vec![false, true]);
    }

    #[test]
    fn sg_array_works_too() {
        let params = DesignParams::preset(DesignKind::T15Sg);
        let rows = words(&["10", "0X", "11"]);
        let query = [false, true];
        let (circuit, behav) = cross_validate_array(&params, &rows, &query).unwrap();
        assert_eq!(circuit, behav);
        assert_eq!(circuit, vec![false, true, false]);
    }

    #[test]
    fn energy_scales_with_row_count() {
        let params = DesignParams::preset(DesignKind::T15Dg);
        let q = [false, true];
        let two = search_full_array(
            &params,
            &words(&["01", "10"]),
            &q,
            SearchTiming::default(),
            RowParasitics::default(),
            true,
        )
        .unwrap();
        let four = search_full_array(
            &params,
            &words(&["01", "10", "11", "00"]),
            &q,
            SearchTiming::default(),
            RowParasitics::default(),
            true,
        )
        .unwrap();
        assert!(
            four.energy > 1.4 * two.energy,
            "{:.3e} vs {:.3e}",
            four.energy,
            two.energy
        );
    }
}
