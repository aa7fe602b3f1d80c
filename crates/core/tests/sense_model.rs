//! Circuit grounding of the approximate-match sense model: ML
//! discharge time must fall monotonically with the mismatch count
//! (nominal and under V_TH Monte-Carlo), the fitted [`SenseModel`]
//! must order thresholds accordingly, the FeCAM range cell must
//! DC-classify query levels against its programmed window, and the
//! threshold misclassification probability the served threshold kind
//! runs at must not rise.

use ferrotcam::calib::{Calibration, SenseModel};
use ferrotcam::cell::{DesignKind, DesignParams};
use ferrotcam::sense::{characterize_sense, range_cell_high, range_transition, render_sense_csv};

const WORD_LEN: usize = 8;
const MAX_MISMATCH: usize = 4;

#[test]
fn discharge_time_is_monotone_and_fits_a_sense_model() {
    let params = DesignParams::preset(DesignKind::T15Dg);
    // Nominal plus two Monte-Carlo draws folded into one curve; the
    // per-run monotonicity is what makes the fold meaningful.
    let points = characterize_sense(&params, WORD_LEN, MAX_MISMATCH, &[11, 47]).expect("transient");
    assert_eq!(
        points.len(),
        MAX_MISMATCH,
        "every mismatch count 1..={MAX_MISMATCH} must discharge in all runs: {points:?}"
    );
    for w in points.windows(2) {
        assert!(
            w[1].mean_s < w[0].mean_s,
            "more pull-down paths must discharge faster: {points:?}"
        );
    }
    // `from_points` re-checks monotonicity/positivity; a Some here is
    // the contract the serving layer relies on.
    let model = SenseModel::from_points(points.clone()).expect("monotone curve");
    // Larger thresholds sense earlier (lower latency).
    for t in 0..MAX_MISMATCH as u32 - 1 {
        assert!(model.sense_time(t + 1) < model.sense_time(t), "t = {t}");
    }
    // The rendered CSV round-trips through the calibration parser.
    let csv = render_sense_csv(&points);
    assert!(csv.lines().count() == MAX_MISMATCH + 1);
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

/// Per-boundary-row misclassification probability of the `t = 2`
/// threshold sense on the committed calibration, at the 64-digit width
/// the service benchmarks run at. It may fall; any rise fails.
const MAX_THRESHOLD2_MISCLS: f64 = 6.237_925_944_144_185e-5;

#[test]
fn committed_calibration_threshold_miscls_does_not_rise() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let cal = Calibration::load(&dir, DesignKind::T15Dg);
    assert!(
        cal.sources.iter().any(|s| s.ends_with("table4.json")),
        "the committed Table IV must calibrate the model: {:?}",
        cal.sources
    );
    let sense = SenseModel::analytic(cal.search_metrics(64).latency_1step);
    let p = sense.misclassification(2).p_error();
    assert!(
        p <= MAX_THRESHOLD2_MISCLS,
        "threshold t=2 misclassification rose to {p:e} (pinned at {MAX_THRESHOLD2_MISCLS:e})"
    );
}
