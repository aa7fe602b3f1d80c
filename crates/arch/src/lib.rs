//! # ferrotcam-arch
//!
//! Array architecture for the ferroTCAM workspace:
//!
//! * [`driver`] — the shared HV-driver planning of Sec. III-B4,
//! * [`encoder`] — match-address priority encoding,
//! * [`sched`] — multi-bank search scheduling,
//! * [`density`] — full-macro area and density roll-up.
//!
//! ```
//! use ferrotcam::BehavioralTcam;
//! use ferrotcam_arch::{EncodeResult, PriorityEncoder};
//!
//! let mut tcam = BehavioralTcam::new(4);
//! tcam.store("10XX".parse()?);
//! tcam.store("1011".parse()?);
//! let outcome = tcam.search(&[true, false, true, true]);
//! let mut lines = vec![false; tcam.len()];
//! for &m in &outcome.matches {
//!     lines[m] = true;
//! }
//! let encoder = PriorityEncoder::new(tcam.len());
//! assert_eq!(encoder.encode(&lines), EncodeResult::Multiple(0));
//! # Ok::<(), ferrotcam::ternary::ParseTernaryError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod density;
pub mod driver;
pub mod encoder;
pub mod sched;

pub use density::{density_mbit_per_mm2, macro_area, MacroArea};
pub use driver::{sharing_savings, DriverPlan, SubarrayDims};
pub use encoder::{EncodeResult, PriorityEncoder};
pub use sched::{schedule, PipelineModel, Query, ScheduleOutcome};
