//! Property tests of the Preisach hysteresis model: the two defining
//! Preisach properties (wiping-out, return-point memory) plus
//! monotonicity and disturb immunity, over arbitrary voltage histories,
//! and the bookkeeping behind O(1) polarisation reads.

use ferrotcam_device::ferro::{PreisachFilm, PreisachParams};
use proptest::prelude::*;

fn film() -> PreisachFilm {
    PreisachFilm::new(PreisachParams {
        num_domains: 96,
        vc_mean: 1.6,
        vc_sigma: 0.125,
        p_sat: 0.1,
        area: 1e-15,
    })
}

fn history() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-2.5f64..2.5, 0..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Saturating writes erase all history (wiping-out).
    #[test]
    fn saturation_wipes_history(hist in history()) {
        let mut a = film();
        for v in &hist {
            a.apply(*v);
        }
        a.apply(2.5); // beyond every coercive voltage
        let mut b = film();
        b.apply(2.5);
        prop_assert_eq!(a, b);
    }

    /// Return-point memory: a minor excursion that stays strictly inside
    /// the last reversal bounds restores the state on return.
    #[test]
    fn return_point_memory(v_rev in 1.3f64..1.9, v_minor in 0.0f64..1.0) {
        let mut f = film();
        f.apply(2.5);
        f.apply(-v_rev);
        let snapshot = f.clone();
        f.apply(v_minor.min(v_rev - 0.2).max(0.0));
        f.apply(-v_rev);
        prop_assert_eq!(f, snapshot);
    }

    /// Polarisation responds monotonically to the applied voltage.
    #[test]
    fn apply_is_monotone(hist in history(), v1 in -2.5f64..2.5, v2 in -2.5f64..2.5) {
        let (lo, hi) = if v1 <= v2 { (v1, v2) } else { (v2, v1) };
        let mut a = film();
        let mut b = film();
        for v in &hist {
            a.apply(*v);
            b.apply(*v);
        }
        a.apply(lo);
        b.apply(hi);
        prop_assert!(a.polarization() <= b.polarization() + 1e-15);
    }

    /// Voltages below every coercive threshold never disturb the state.
    #[test]
    fn sub_coercive_is_harmless(hist in history(), v_small in -0.9f64..0.9) {
        let mut f = film();
        for v in &hist {
            f.apply(*v);
        }
        let p0 = f.polarization();
        for _ in 0..50 {
            f.apply(v_small);
        }
        prop_assert_eq!(f.polarization(), p0);
    }

    /// Polarisation is always within the saturation bounds.
    #[test]
    fn polarization_bounded(hist in history()) {
        let mut f = film();
        for v in &hist {
            f.apply(*v);
            let p = f.polarization();
            prop_assert!((-0.1 - 1e-12..=0.1 + 1e-12).contains(&p));
        }
    }

    /// The kept up-count equals a recount of the domains after every
    /// `apply` or `set_normalized`, and `apply` reports a flip exactly
    /// when the domain states changed.
    #[test]
    fn kept_count_matches_recount(
        hist in history(),
        preset in 0u8..2,
        p_set in -1.2f64..1.2,
    ) {
        let mut f = film();
        if preset == 1 {
            f.set_normalized(p_set);
        }
        let recount = |f: &PreisachFilm| {
            f.domains().iter().filter(|&&u| u).count() as f64 / f.domains().len() as f64
        };
        prop_assert_eq!(f.fraction_up(), recount(&f));
        for v in &hist {
            let before = f.domains().to_vec();
            let flipped = f.apply(*v);
            prop_assert_eq!(flipped, before != f.domains());
            prop_assert_eq!(f.fraction_up(), recount(&f));
        }
    }
}
