//! Circuit grounding of the approximate-match sense model: on the
//! SPICE mismatch ladder, ML discharge time must fall strictly with the
//! mismatch count and a full match must never discharge — the ordering
//! the closed-form `calib::SenseModel` law prices threshold queries by
//! — and the FeCAM range cell must DC-classify query levels against its
//! programmed window.

use ferrotcam::cell::{DesignKind, DesignParams};
use ferrotcam::sense::{discharge_times, range_cell_high, range_transition};

const WORD_LEN: usize = 8;
const MAX_MISMATCH: usize = 4;

#[test]
fn discharge_time_falls_strictly_with_mismatches() {
    let params = DesignParams::preset(DesignKind::T15Dg);
    let times = discharge_times(&params, WORD_LEN, MAX_MISMATCH).expect("transient");
    assert_eq!(times.len(), MAX_MISMATCH + 1);
    assert_eq!(times[0], None, "a full match never discharges: {times:?}");
    let measured: Vec<f64> = times[1..]
        .iter()
        .map(|t| t.expect("every mismatch count 1..=4 discharges"))
        .collect();
    assert!(
        measured.windows(2).all(|w| w[1] < w[0]),
        "more pull-down paths must discharge sooner: {measured:?}"
    );
}

#[test]
fn range_cell_classifies_queries_against_its_window() {
    let params = DesignParams::preset(DesignKind::T15Dg);
    let vdd = params.vdd;
    let vt = range_transition(&params)
        .expect("dc solve")
        .expect("cell switches within [0, vdd]");
    assert!(vt > 0.0 && vt < vdd, "transition at {vt} V");

    // Program a window [0.25, 0.75]·vdd around mid-rail: the upper
    // bound shifts the query-gated FeFET, the lower bound the
    // complement-gated one.
    let window = |lo: f64, hi: f64| (hi - vt, vdd - vt - lo);
    let (dhi, dlo) = window(0.25 * vdd, 0.75 * vdd);
    let high = |vq: f64| range_cell_high(&params, dhi, dlo, vq).expect("dc solve");
    assert!(high(0.50 * vdd), "mid-rail query is inside the window");
    assert!(!high(0.05 * vdd), "low query undershoots the lower bound");
    assert!(!high(0.95 * vdd), "high query exceeds the upper bound");

    // Narrow the window to [0.25, 0.35]·vdd: the mid-rail query that
    // matched above must now be rejected — range match is genuinely
    // window-dependent, not a ternary don't-care in disguise.
    let (dhi2, dlo2) = window(0.25 * vdd, 0.35 * vdd);
    assert!(!range_cell_high(&params, dhi2, dlo2, 0.50 * vdd).expect("dc solve"));
    assert!(range_cell_high(&params, dhi2, dlo2, 0.30 * vdd).expect("dc solve"));
}
