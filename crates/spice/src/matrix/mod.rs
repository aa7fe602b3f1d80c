//! Linear-algebra kernels for modified nodal analysis.
//!
//! Two solver paths exist: a dense LU ([`dense::DenseMatrix`]) used as a
//! reference and for tiny systems, and the production sparse LU
//! ([`sparse::SparseLu`]) for array-scale circuits. Repeated solves on a
//! fixed topology (Newton iterations, transient timesteps) go through
//! [`cached::CachedSolver`], which reuses the assembly plan and the LU
//! pattern across calls.

pub mod cached;
pub mod dense;
pub mod sparse;

pub use cached::{CachedSolver, SolverStats};
pub use dense::{DenseLu, DenseMatrix};
pub use sparse::{
    amd_order, solve_triplets, CscMatrix, PermutePlan, Refactorization, ScatterMap, SparseLu,
    Stamper, Triplets,
};
