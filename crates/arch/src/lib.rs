//! # ferrotcam-arch
//!
//! Array architecture and applications for the ferroTCAM workspace:
//!
//! * [`driver`] — the shared HV-driver planning of Sec. III-B4,
//! * [`encoder`] — match-address priority encoding,
//! * [`apps`] — router LPM, associative cache tags, and Hamming-
//!   distance one-shot classification.
//!
//! ```
//! use ferrotcam_arch::apps::{Route, RouterTable};
//!
//! let mut table = RouterTable::new();
//! table.insert(Route { addr: 0x0A000000, prefix_len: 8, next_hop: 1 })?;
//! table.insert(Route { addr: 0x0A010000, prefix_len: 16, next_hop: 2 })?;
//! assert_eq!(table.lookup(0x0A010203).unwrap().next_hop, 2);
//! # Ok::<(), ferrotcam_arch::apps::DuplicateRoute>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod apps;
pub mod density;
pub mod driver;
pub mod encoder;
pub mod sched;

pub use density::{density_mbit_per_mm2, macro_area, MacroArea};
pub use driver::{sharing_savings, DriverPlan, SubarrayDims};
pub use encoder::{EncodeResult, PriorityEncoder};
pub use sched::{schedule, PipelineModel, Query, ScheduleOutcome};
