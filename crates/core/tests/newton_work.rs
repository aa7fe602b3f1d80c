//! Solver-work pin for the Fig. 7 search row: the Newton iterations,
//! accepted steps, rejected steps and accept-time device evaluations of
//! one 64-bit 1.5T1DG two-step search transient.
//!
//! These counts are the host-independent half of the engine's cost.
//! Newton iterations may fall (a better step controller or predictor)
//! but never rise; the step counts are pinned exactly, so any change to
//! step control shows up here and its new values are committed with it.
//! Wall time is not checked here: perfbench's `spice-array` workload
//! measures it, normalised by a host-speed probe.

use ferrotcam::cell::{DesignKind, DesignParams, RowParasitics, SearchTiming};
use ferrotcam::{build_search_row, TernaryWord};

const BITS: usize = 64;

/// Newton iterations of the row's transient; a rise fails.
const MAX_NEWTON_ITERS: u64 = 1246;
/// Accepted transient time steps.
const ACCEPTED_STEPS: u64 = 475;
/// Rejected (retried with a smaller dt) time steps.
const REJECTED_STEPS: u64 = 0;
/// Device evaluations outside Newton: all 165 devices at t = 0 and after
/// each of the 475 accepted steps.
const ACCEPT_EVALS: u64 = 78_540;

#[test]
fn fig7_search_row_newton_work_is_pinned() {
    // An alternating stored word and a query with its last bit flipped:
    // a single-digit mismatch, so the discharge path and the two-step
    // machinery both run.
    let stored: String = (0..BITS)
        .map(|i| if i % 2 == 0 { '0' } else { '1' })
        .collect();
    let stored: TernaryWord = stored.parse().expect("stored word");
    let mut query: Vec<bool> = (0..BITS).map(|i| i % 2 != 0).collect();
    query[BITS - 1] = !query[BITS - 1];

    let design = DesignKind::T15Dg;
    let mut sim = build_search_row(
        &DesignParams::preset(design),
        &stored,
        &query,
        SearchTiming::default(),
        RowParasitics::default(),
        design.is_two_step(),
    )
    .expect("build row");
    let run = sim.run().expect("transient");
    assert!(!run.matched().expect("sense"), "one digit mismatches");

    let stats = run.trace.stats();
    assert!(
        stats.newton_iters <= MAX_NEWTON_ITERS,
        "Newton iterations rose to {} (pinned at {MAX_NEWTON_ITERS}): {stats:?}",
        stats.newton_iters
    );
    assert_eq!(
        (stats.accepted_steps, stats.rejected_steps),
        (ACCEPTED_STEPS, REJECTED_STEPS),
        "accepted/rejected steps moved: {stats:?}"
    );
    assert_eq!(
        stats.accept_evals, ACCEPT_EVALS,
        "accept-time device evaluations moved: {stats:?}"
    );
}
