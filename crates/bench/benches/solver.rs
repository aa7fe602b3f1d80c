//! Sparse vs dense LU on MNA-shaped systems: the scaling that makes
//! array-size circuit simulation feasible.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ferrotcam_spice::matrix::sparse::{Refactorization, ScatterMap, SparseLu, Triplets};
use ferrotcam_spice::matrix::{CachedSolver, CscMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Build an MNA-like banded + random-fill system of dimension `n`.
fn mna_like(n: usize, rng: &mut StdRng) -> Triplets {
    let mut t = Triplets::new(n);
    for i in 0..n {
        t.add(i, i, 4.0 + rng.random::<f64>());
        if i + 1 < n {
            t.add(i, i + 1, -1.0);
            t.add(i + 1, i, -1.0);
        }
        // Sparse long-range couplings (voltage-source rows etc.).
        for _ in 0..2 {
            let j = rng.random_range(0..n);
            t.add(i, j, 0.1 * rng.random::<f64>());
        }
    }
    t
}

fn bench_sparse_lu(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut g = c.benchmark_group("sparse_lu_factor_solve");
    for n in [64usize, 256, 1024] {
        let t = mna_like(n, &mut rng);
        let csc = t.to_csc();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &csc, |bch, csc| {
            bch.iter(|| {
                let lu = SparseLu::factor(black_box(csc)).expect("factor");
                black_box(lu.solve(black_box(&b)))
            })
        });
    }
    g.finish();
}

/// Full symbolic+numeric factorization, the Newton iteration-1 cost.
fn bench_sparse_lu_full_factor(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(21);
    let mut g = c.benchmark_group("sparse_lu_full_factor");
    for n in [64usize, 256, 1024] {
        let csc = mna_like(n, &mut rng).to_csc();
        g.bench_with_input(BenchmarkId::from_parameter(n), &csc, |bch, csc| {
            bch.iter(|| black_box(SparseLu::factor(black_box(csc)).expect("factor")))
        });
    }
    g.finish();
}

/// Numeric-only refactorization on the cached pattern, the Newton
/// iteration-2..N cost. Same matrices as `sparse_lu_full_factor` so the
/// two groups are directly comparable.
fn bench_sparse_lu_refactor(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(21);
    let mut g = c.benchmark_group("sparse_lu_refactor");
    for n in [64usize, 256, 1024] {
        let csc = mna_like(n, &mut rng).to_csc();
        let mut lu = SparseLu::factor(&csc).expect("factor");
        g.bench_with_input(BenchmarkId::from_parameter(n), &csc, |bch, csc| {
            bch.iter(|| {
                let kind = lu.refactor(black_box(csc)).expect("refactor");
                assert_eq!(kind, Refactorization::Numeric);
                black_box(&lu);
            })
        });
    }
    g.finish();
}

/// Value scatter through a prebuilt `ScatterMap` vs a fresh `to_csc`
/// (the assembly half of the cached hot path).
fn bench_scatter(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(22);
    let t = mna_like(512, &mut rng);
    let map = ScatterMap::build(&t);
    let mut out = CscMatrix::default();
    c.bench_function("scatter_map_512", |b| {
        b.iter(|| {
            map.scatter(black_box(&t), &mut out);
            black_box(&out);
        })
    });
}

/// The production factor-then-refactor cycle through `CachedSolver`
/// (AMD fill-reducing pre-ordering). One iteration = a fresh solver
/// paying the ordering and symbolic factorisation plus 7 numeric
/// refactorisations on perturbed values (a short Newton solve).
fn bench_cached_solver(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(23);
    let mut g = c.benchmark_group("cached_solver_factor_refactor");
    for n in [256usize, 1024] {
        let entries: Vec<(usize, usize, f64)> = mna_like(n, &mut rng).iter().collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        g.bench_with_input(BenchmarkId::new("amd", n), &entries, |bch, entries| {
            bch.iter(|| {
                let mut solver = CachedSolver::new();
                let mut tri = Triplets::new(n);
                for step in 0..8 {
                    // Re-stamp with perturbed values, engine style: the
                    // insertion pattern (and with it the symbolic work)
                    // stays cached.
                    tri.clear();
                    let scale = 1.0 + 1e-3 * step as f64;
                    for &(r, c, v) in entries.iter() {
                        tri.add(r, c, v * scale);
                    }
                    black_box(solver.solve(black_box(&tri), black_box(&b)).expect("solve"));
                }
                assert_eq!(solver.stats().full_factors, 1);
            })
        });
    }
    g.finish();
}

fn bench_dense_lu(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(12);
    let mut g = c.benchmark_group("dense_lu_factor_solve");
    for n in [64usize, 256] {
        let t = mna_like(n, &mut rng);
        let d = t.to_csc().to_dense();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &d, |bch, d| {
            bch.iter(|| black_box(d.solve(black_box(&b)).expect("solve")))
        });
    }
    g.finish();
}

fn bench_assembly(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(13);
    let t = mna_like(512, &mut rng);
    c.bench_function("triplets_to_csc_512", |b| b.iter(|| black_box(t.to_csc())));
}

criterion_group!(
    benches,
    bench_sparse_lu,
    bench_sparse_lu_full_factor,
    bench_sparse_lu_refactor,
    bench_scatter,
    bench_cached_solver,
    bench_dense_lu,
    bench_assembly
);
criterion_main!(benches);
