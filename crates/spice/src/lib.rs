//! # ferrotcam-spice
//!
//! A compact, dependency-light analog circuit simulator built as the
//! substrate for the ferroTCAM reproduction of the DAC 2023 paper
//! *"Compact and High-Performance TCAM Based on Scaled Double-Gate
//! FeFETs"*. It provides:
//!
//! * modified nodal analysis (MNA) with sparse LU (Gilbert–Peierls) and a
//!   dense reference solver,
//! * nonlinear DC operating point (damped Newton–Raphson with gmin and
//!   source stepping),
//! * transient analysis (backward Euler, charge formulation, adaptive
//!   stepping with source breakpoints),
//! * linear elements (R, C, independent voltage sources with
//!   DC/pulse/PWL/sine waveforms) and a trait for user nonlinear devices,
//! * waveform probing: threshold crossings, extrema, per-source energy.
//!
//! ## Quick example: RC low-pass step response
//!
//! ```
//! use ferrotcam_spice::prelude::*;
//!
//! # fn main() -> ferrotcam_spice::Result<()> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.vsource("V1", vin, Circuit::gnd(),
//!     Waveform::pulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0));
//! ckt.resistor("R1", vin, out, 1e3)?;
//! ckt.capacitor("C1", out, Circuit::gnd(), 1e-12)?;
//!
//! let trace = transient(&mut ckt, &TranOpts::to_time(10e-9))?;
//! let v_end = trace.value_at("v(out)", 10e-9)?;
//! assert!(v_end > 0.99);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod erc;
pub mod error;
pub mod matrix;
pub mod netlist;
pub mod nonlinear;
pub mod parallel;
pub mod probe;
pub mod trace;
pub mod units;
pub mod waveform;

pub use engine::ac::{ac_analysis, logspace, AcResult, Phasor};
pub use engine::dc::{operating_point, DcOpts, Solution};
pub use engine::sweep::{dc_sweep, linspace, transfer_curve, SweepResult};
pub use engine::transient::{transient, TranOpts};
pub use engine::{PhaseTimes, SimStats};
pub use erc::{ErcDiagnostic, ErcParam, ErcReport, ParamKind, Rule, Severity};
pub use error::{ConvergenceForensics, Error, Result};
pub use matrix::{CachedSolver, SolverStats};
pub use netlist::{Circuit, Element, NodeId};
pub use nonlinear::{DeviceStamps, EvalCtx, NonlinearDevice};
pub use parallel::{default_jobs, par_map};
pub use probe::{Edge, Trace};
pub use trace::{Histogram, TraceLevel, TraceSummary};
pub use waveform::Waveform;

/// Glob-import convenience: `use ferrotcam_spice::prelude::*`.
pub mod prelude {
    pub use crate::engine::ac::{ac_analysis, logspace, AcResult, Phasor};
    pub use crate::engine::dc::{operating_point, DcOpts, Solution};
    pub use crate::engine::sweep::{dc_sweep, linspace, transfer_curve, SweepResult};
    pub use crate::engine::transient::{transient, TranOpts};
    pub use crate::engine::{PhaseTimes, SimStats};
    pub use crate::erc::{ErcReport, Rule, Severity};
    pub use crate::error::{Error, Result};
    pub use crate::netlist::{Circuit, NodeId};
    pub use crate::nonlinear::{DeviceStamps, EvalCtx, NonlinearDevice};
    pub use crate::parallel::{default_jobs, par_map};
    pub use crate::probe::{Edge, Trace};
    pub use crate::waveform::Waveform;
}
