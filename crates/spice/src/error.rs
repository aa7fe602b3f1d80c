//! Error types for circuit construction and simulation.

use std::error::Error as StdError;
use std::fmt;

/// Worst-residual attribution attached to [`Error::NonConvergence`].
///
/// Computed from the last assembled Newton system: the KCL residual
/// `r = b − A·x` is scanned for its largest-magnitude entry (node rows
/// first — node and branch rows carry different units), the row is
/// mapped back to its node or branch-current name, and the nonlinear
/// device contributing the largest stamp current at that row is blamed.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceForensics {
    /// Name of the MNA variable with the worst residual (a node name,
    /// or `i(<source>)` for a branch current).
    pub node: String,
    /// Instance name of the device/element contributing most to that
    /// residual (empty when nothing stamps the row).
    pub device: String,
    /// Final residual max-norm `max|b − A·x|` over node rows.
    pub f_norm: f64,
    /// Final Newton update max-norm `max|dx|` (infinite when the solve
    /// produced non-finite values).
    pub dx_norm: f64,
}

/// Errors produced while building or simulating a circuit.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A matrix factorisation found a zero (or numerically negligible) pivot.
    SingularMatrix {
        /// Row/column index at which factorisation failed.
        index: usize,
    },
    /// Newton–Raphson failed to converge within the iteration limit,
    /// even after gmin and source stepping.
    NonConvergence {
        /// Analysis that failed (`"dc"` or `"transient"`).
        analysis: &'static str,
        /// Simulation time at which convergence failed (seconds; 0 for DC).
        time: f64,
        /// Iterations spent in the final attempt.
        iterations: usize,
        /// Worst-residual attribution, when the engine could compute it.
        forensics: Option<Box<ConvergenceForensics>>,
    },
    /// A node id referenced an element that does not exist in the circuit.
    UnknownNode {
        /// The offending node index.
        index: usize,
    },
    /// An element parameter was out of its valid domain
    /// (e.g. a non-positive capacitance).
    InvalidParameter {
        /// Element or parameter name.
        what: String,
        /// Offending value.
        value: f64,
    },
    /// The transient time step shrank below the resolvable minimum.
    TimeStepTooSmall {
        /// Simulation time at which the step collapsed.
        time: f64,
        /// The rejected step size.
        dt: f64,
    },
    /// A probe referenced a signal that was never recorded.
    UnknownSignal {
        /// Requested signal name.
        name: String,
    },
    /// The circuit has no unknowns to solve for (no non-ground nodes and
    /// no branch currents).
    EmptyCircuit,
    /// Two elements or devices share one instance name, which breaks
    /// signal probing and ERC attribution.
    DuplicateName {
        /// The duplicated instance name.
        name: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::SingularMatrix { index } => {
                write!(f, "singular matrix: zero pivot at index {index}")
            }
            Error::NonConvergence {
                analysis,
                time,
                iterations,
                forensics,
            } => {
                write!(
                    f,
                    "{analysis} analysis failed to converge at t = {time:.3e} s after {iterations} iterations"
                )?;
                if let Some(fo) = forensics {
                    write!(
                        f,
                        " (worst residual {:.3e} at node {:?}, device {:?}, |dx| = {:.3e})",
                        fo.f_norm, fo.node, fo.device, fo.dx_norm
                    )?;
                }
                Ok(())
            }
            Error::UnknownNode { index } => write!(f, "unknown node index {index}"),
            Error::InvalidParameter { what, value } => {
                write!(f, "invalid parameter {what} = {value:.3e}")
            }
            Error::TimeStepTooSmall { time, dt } => write!(
                f,
                "transient time step {dt:.3e} s collapsed below minimum at t = {time:.3e} s"
            ),
            Error::UnknownSignal { name } => write!(f, "unknown signal {name:?}"),
            Error::EmptyCircuit => write!(f, "circuit has no unknowns to solve for"),
            Error::DuplicateName { name } => {
                write!(f, "duplicate instance name {name:?}")
            }
        }
    }
}

impl StdError for Error {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            Error::SingularMatrix { index: 3 },
            Error::NonConvergence {
                analysis: "dc",
                time: 0.0,
                iterations: 100,
                forensics: Some(Box::new(ConvergenceForensics {
                    node: "ml".into(),
                    device: "XF1".into(),
                    f_norm: 3.2e-3,
                    dx_norm: 0.7,
                })),
            },
            Error::UnknownNode { index: 9 },
            Error::InvalidParameter {
                what: "capacitance".into(),
                value: -1.0,
            },
            Error::TimeStepTooSmall {
                time: 1e-9,
                dt: 1e-21,
            },
            Error::UnknownSignal { name: "ml".into() },
            Error::EmptyCircuit,
            Error::DuplicateName { name: "R1".into() },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
