//! Circuit checks behind the approximate-match kinds.
//!
//! **Hamming sensing (TAP-CAM).** Every mismatching cell pair of a row
//! turns on one match-line pull-down, so more mismatches discharge the
//! ML sooner. [`discharge_times`] measures this directly: it builds a
//! small single-step array (via [`build_full_array`]) whose row m
//! carries exactly m mismatching pairs against the query, runs the
//! SPICE transient, and extracts each ML's half-swing falling
//! crossing. `core/tests/sense_model.rs` holds that curve to the
//! ordering of the closed-form [`crate::calib::SenseModel`] law the
//! service prices threshold queries with: times fall strictly with m,
//! and a full match never discharges. Only the ordering is checked:
//! the measured times fall far more slowly than the law's `t₁ / m`.
//!
//! **Range sensing (FeCAM).** A range cell stores a `[lo, hi]` window
//! as two programmed thresholds: one FeFET gated by the query voltage
//! discharges the ML when `v_q` exceeds the upper bound, a second
//! gated by the complement (`vdd − v_q`) discharges it when `v_q`
//! falls below the lower bound; the ML stays high exactly inside the
//! window. [`build_range_cell`] builds that two-FeFET cell (threshold
//! bounds programmed as V_TH offsets) and [`range_cell_high`]
//! DC-solves it — the SPICE spot-check behind the behavioural
//! [`crate::BitSlices::range_search`] kernel.

use crate::cell::{DesignParams, RowParasitics, SearchTiming};
use crate::full_array::build_full_array;
use crate::ternary::{Ternary, TernaryWord};
use ferrotcam_device::variability::skewed_fefet;
use ferrotcam_device::Fefet;
use ferrotcam_device::VthState;
use ferrotcam_spice::prelude::*;

/// The mismatch ladder: row m stores exactly m mismatching pairs
/// against the returned all-zero query, in *even* digit positions so a
/// single-step (step-1 only) search exercises every pull-down. Returns
/// `(rows, query)` for `max_mismatch + 1` rows of `word_len` digits.
///
/// # Panics
/// Panics when the ladder does not fit (`max_mismatch > word_len / 2`)
/// or the word length is odd.
#[must_use]
pub fn mismatch_ladder(word_len: usize, max_mismatch: usize) -> (Vec<TernaryWord>, Vec<bool>) {
    assert!(word_len.is_multiple_of(2), "word length must be even");
    assert!(
        max_mismatch <= word_len / 2,
        "at most one mismatch per even position"
    );
    let rows = (0..=max_mismatch)
        .map(|m| {
            (0..word_len)
                .map(|d| {
                    // Stored One against a searched 0 mismatches.
                    if d.is_multiple_of(2) && d / 2 < m {
                        Ternary::One
                    } else {
                        Ternary::Zero
                    }
                })
                .collect()
        })
        .collect();
    (rows, vec![false; word_len])
}

/// ML half-swing discharge time per mismatch count: entry m is the
/// time (s, from search start) at which the ML of the row with m
/// mismatches falls through `vdd / 2`, or `None` when it never
/// discharges (always the case for m = 0).
///
/// # Errors
/// Propagates simulator failures.
///
/// # Panics
/// Panics on an invalid ladder shape (see [`mismatch_ladder`]).
pub fn discharge_times(
    params: &DesignParams,
    word_len: usize,
    max_mismatch: usize,
) -> Result<Vec<Option<f64>>> {
    let (rows, query) = mismatch_ladder(word_len, max_mismatch);
    let timing = SearchTiming::default();
    let par = RowParasitics::default();
    let mut circuit = build_full_array(params, &rows, &query, &timing, &par, false)?.circuit;
    let mut opts = TranOpts::to_time(timing.t_stop(false));
    opts.dt_init = 1e-12;
    opts.dt_max = 4e-12;
    opts.uic = true;
    let trace = transient(&mut circuit, &opts)?;
    let half = params.vdd / 2.0;
    let start = timing.step1_start();
    (0..rows.len())
        .map(|r| {
            let name = format!("v(ml{r})");
            // Skip crossings inside the precharge ramp: the first
            // falling crossing after the search drive begins is the
            // discharge event.
            for nth in 1..=8 {
                match trace.cross(&name, half, Edge::Falling, nth)? {
                    Some(t) if t >= start => return Ok(Some(t - start)),
                    Some(_) => continue,
                    None => return Ok(None),
                }
            }
            Ok(None)
        })
        .collect()
}

/// A built (unsolved) FeCAM range-sense cell.
#[derive(Debug)]
pub struct RangeCell {
    /// The two-FeFET cell netlist.
    pub circuit: Circuit,
    /// The match-line node (high ⇔ query inside the window).
    pub ml: NodeId,
}

/// Pull-up sizing the DC spot-check against: far above the FeFET
/// on-resistance, far below off-leakage.
const RANGE_PULLUP_OHMS: f64 = 1e6;

/// Build the two-FeFET range cell: `fe_hi` (gate = `v_q`, V_TH skewed
/// by `dvth_hi`) discharges the ML when the query exceeds the upper
/// bound; `fe_lo` (gate = `vdd − v_q`, skewed by `dvth_lo`) discharges
/// it when the query undershoots the lower bound. Both are programmed
/// to the middle (MVT) state so `core.vth0` is the active threshold.
///
/// # Errors
/// Propagates netlist-construction failures.
pub fn build_range_cell(
    params: &DesignParams,
    dvth_hi: f64,
    dvth_lo: f64,
    vq: f64,
) -> Result<RangeCell> {
    let mut ckt = Circuit::new();
    let gnd = Circuit::gnd();
    let vdd_n = ckt.node("vdd");
    ckt.vsource("VDD", vdd_n, gnd, Waveform::dc(params.vdd));
    let ml = ckt.node("ml");
    ckt.resistor("rpu", vdd_n, ml, RANGE_PULLUP_OHMS)?;
    let qhi = ckt.node("qhi");
    let qlo = ckt.node("qlo");
    ckt.vsource("VQHI", qhi, gnd, Waveform::dc(vq));
    ckt.vsource("VQLO", qlo, gnd, Waveform::dc(params.vdd - vq));
    let mut f_hi = Fefet::new(
        "fehi",
        ml,
        qhi,
        gnd,
        gnd,
        skewed_fefet(params.fefet(), dvth_hi),
    );
    f_hi.program(VthState::Mvt);
    ckt.device(Box::new(f_hi));
    let mut f_lo = Fefet::new(
        "felo",
        ml,
        qlo,
        gnd,
        gnd,
        skewed_fefet(params.fefet(), dvth_lo),
    );
    f_lo.program(VthState::Mvt);
    ckt.device(Box::new(f_lo));
    Ok(RangeCell { circuit: ckt, ml })
}

/// DC-solve the range cell: whether the ML sits above `vdd / 2`
/// (query inside the stored window).
///
/// # Errors
/// Propagates solver failures.
pub fn range_cell_high(params: &DesignParams, dvth_hi: f64, dvth_lo: f64, vq: f64) -> Result<bool> {
    let cell = build_range_cell(params, dvth_hi, dvth_lo, vq)?;
    let sol = operating_point(&cell.circuit, &DcOpts::default())?;
    Ok(sol.voltage(cell.ml) > params.vdd / 2.0)
}

/// Calibrate the cell's switching voltage: the query voltage at which
/// an unskewed upper-bound FeFET first pulls the ML below half swing
/// (the lower-bound device is parked far off). Linear sweep + bisection
/// refinement to `vdd / 256`; `None` when the device never switches
/// inside `[0, vdd]`.
///
/// # Errors
/// Propagates solver failures.
pub fn range_transition(params: &DesignParams) -> Result<Option<f64>> {
    let park = 10.0 * params.vdd; // lower-bound device can never turn on
    let high_at = |vq: f64| range_cell_high(params, 0.0, park, vq);
    let steps = 32;
    let mut lo = 0.0;
    let mut hi = params.vdd;
    let mut found = false;
    for k in 1..=steps {
        let vq = params.vdd * f64::from(k) / f64::from(steps);
        if !high_at(vq)? {
            hi = vq;
            lo = params.vdd * f64::from(k - 1) / f64::from(steps);
            found = true;
            break;
        }
    }
    if !found {
        return Ok(None);
    }
    while hi - lo > params.vdd / 256.0 {
        let mid = 0.5 * (lo + hi);
        if high_at(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(Some(0.5 * (lo + hi)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_has_exact_mismatch_counts() {
        let (rows, query) = mismatch_ladder(8, 4);
        assert_eq!(rows.len(), 5);
        for (m, row) in rows.iter().enumerate() {
            assert_eq!(row.mismatch_count(&query), m, "row {m}");
            // All mismatches in even (step-1) positions.
            for (d, &dig) in row.digits().iter().enumerate() {
                if d % 2 == 1 {
                    assert_eq!(dig, Ternary::Zero);
                }
            }
        }
    }
}
