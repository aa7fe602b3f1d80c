//! Property tests: the sparse LU must agree with the dense reference on
//! arbitrary diagonally-dominant systems, and transient energy must be
//! conserved on RC networks.

use ferrotcam_spice::matrix::dense::DenseMatrix;
use ferrotcam_spice::matrix::sparse::{
    solve_triplets, Refactorization, ScatterMap, SparseLu, Triplets,
};
use ferrotcam_spice::matrix::{CachedSolver, CscMatrix};
use ferrotcam_spice::prelude::*;
use proptest::prelude::*;

/// Strategy: a random diagonally dominant system of dimension 3..=24
/// with random off-diagonal fill.
fn dd_system() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>, Vec<f64>)> {
    (3usize..=24).prop_flat_map(|n| {
        let entries = proptest::collection::vec((0..n, 0..n, -1.0f64..1.0), 0..4 * n);
        let rhs = proptest::collection::vec(-10.0f64..10.0, n);
        (Just(n), entries, rhs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_matches_dense((n, entries, rhs) in dd_system()) {
        let mut t = Triplets::new(n);
        let mut d = DenseMatrix::zeros(n, n);
        for &(r, c, v) in &entries {
            t.add(r, c, v);
            d.add(r, c, v);
        }
        // Make it safely non-singular.
        for i in 0..n {
            t.add(i, i, 8.0);
            d.add(i, i, 8.0);
        }
        let xs = solve_triplets(&t, &rhs).expect("sparse solve");
        let xd = d.solve(&rhs).expect("dense solve");
        for (a, b) in xs.iter().zip(&xd) {
            prop_assert!((a - b).abs() < 1e-8 * (1.0 + b.abs()), "{a} vs {b}");
        }
        // Residual check against the assembled operator.
        let y = t.to_csc().mul_vec(&xs);
        for (yi, bi) in y.iter().zip(&rhs) {
            prop_assert!((yi - bi).abs() < 1e-8 * (1.0 + bi.abs()));
        }
    }

    #[test]
    fn refactor_matches_fresh_factor((n, entries, rhs) in dd_system()) {
        // MNA-shaped: fixed sparsity, several numeric value sets (as in
        // Newton iterations). The numeric refactorization must agree with
        // a from-scratch factorization of the same matrix.
        let build = |scale: f64| {
            let mut t = Triplets::new(n);
            for &(r, c, v) in &entries {
                t.add(r, c, v * scale);
            }
            for i in 0..n {
                t.add(i, i, 8.0 + scale);
            }
            t.to_csc()
        };
        let a0 = build(1.0);
        let mut lu = SparseLu::factor(&a0).expect("factor");
        for step in 1..=4 {
            let a = build(1.0 + 0.3 * step as f64);
            let kind = lu.refactor(&a).expect("refactor");
            prop_assert_eq!(kind, Refactorization::Numeric);
            let fresh = SparseLu::factor(&a).expect("fresh factor");
            let xr = lu.solve(&rhs);
            let xf = fresh.solve(&rhs);
            for (a, b) in xr.iter().zip(&xf) {
                prop_assert!((a - b).abs() < 1e-12 * (1.0 + b.abs()), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn scatter_map_roundtrips_to_csc((n, entries, _rhs) in dd_system()) {
        // Scattering through the cached plan must reproduce to_csc()
        // exactly, including duplicate merging.
        let mut t = Triplets::new(n);
        for &(r, c, v) in &entries {
            t.add(r, c, v);
        }
        for i in 0..n {
            t.add(i, i, 8.0);
        }
        let map = ScatterMap::build(&t);
        prop_assert!(map.matches(&t));
        let mut scattered = CscMatrix::default();
        map.scatter(&t, &mut scattered);
        let direct = t.to_csc();
        prop_assert_eq!(scattered, direct);
    }

    #[test]
    fn cached_solver_matches_dense((n, entries, rhs) in dd_system()) {
        // The fill-reducing permutation changes the elimination order,
        // not the answer: across refactorisations of the same pattern
        // the AMD-ordered cached pipeline must track the dense LU to
        // solver precision.
        let mut cached = CachedSolver::new();
        for step in 0..3 {
            let scale = 1.0 + 0.5 * f64::from(step);
            let mut t = Triplets::new(n);
            let mut d = DenseMatrix::zeros(n, n);
            for &(r, c, v) in &entries {
                t.add(r, c, v * scale);
                d.add(r, c, v * scale);
            }
            for i in 0..n {
                t.add(i, i, 8.0 + scale);
                d.add(i, i, 8.0 + scale);
            }
            let xc = cached.solve(&t, &rhs).expect("cached solve");
            let xd = d.solve(&rhs).expect("dense solve");
            for (a, b) in xc.iter().zip(&xd) {
                prop_assert!((a - b).abs() < 1e-12 * (1.0 + b.abs()), "{a} vs {b}");
            }
        }
        // It rode the numeric-refactor fast path after the first solve.
        prop_assert_eq!(cached.stats().full_factors, 1);
        prop_assert_eq!(cached.stats().refactors, 2);
        prop_assert!(cached.stats().fill_ratio().expect("factored") >= 1.0 - 1e-12);
    }

    #[test]
    fn rc_divider_dc_matches_analytic(
        r1 in 100.0f64..1e6,
        r2 in 100.0f64..1e6,
        v in 0.1f64..5.0,
    ) {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("V1", a, Circuit::gnd(), Waveform::dc(v));
        ckt.resistor("R1", a, b, r1).expect("r1");
        ckt.resistor("R2", b, Circuit::gnd(), r2).expect("r2");
        let sol = operating_point(&ckt, &DcOpts::default()).expect("op");
        let expect = v * r2 / (r1 + r2);
        prop_assert!((sol.voltage(b) - expect).abs() < 1e-3 * v.max(1.0),
            "{} vs {expect}", sol.voltage(b));
    }

    #[test]
    fn source_energy_nonnegative_for_passive_loads(
        c in 1e-16f64..1e-12,
        r in 100.0f64..1e5,
        v in 0.1f64..2.0,
    ) {
        // A source driving an RC network can only deliver energy.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("V1", a, Circuit::gnd(),
            Waveform::pulse(0.0, v, 0.0, 1e-12, 1e-12, 1.0));
        ckt.resistor("R1", a, b, r).expect("r");
        ckt.capacitor("C1", b, Circuit::gnd(), c).expect("c");
        let tau = r * c;
        let mut opts = TranOpts::to_time(5.0 * tau);
        opts.dt_max = tau / 20.0;
        let tr = transient(&mut ckt, &opts).expect("tran");
        let e = tr.source_energy("V1").expect("energy");
        prop_assert!(e >= -1e-20, "negative delivered energy {e}");
        // And it approaches CV² (half stored, half dissipated).
        let cv2 = c * v * v;
        prop_assert!((e - cv2).abs() < 0.12 * cv2, "E {e} vs CV² {cv2}");
    }
}
