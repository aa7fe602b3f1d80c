//! # ferrotcam
//!
//! The core library of the ferroTCAM reproduction: FeFET TCAM designs
//! from *"Compact and High-Performance TCAM Based on Scaled Double-Gate
//! FeFETs"* (DAC 2023), with both a behavioural model and full
//! circuit-level simulation on the `ferrotcam-spice` substrate.
//!
//! * [`ternary`]/[`behav`] — ternary words and the functional TCAM,
//! * [`cell`] — the 2FeFET, 1.5T1Fe (SG/DG) and 16T CMOS cell designs,
//! * [`array`](mod@array) — row netlist assembly and search simulation,
//! * [`ops`] — search/write drive waveforms (two-step + early termination),
//! * [`senseamp`] — match-line sense amplifier,
//! * [`fom`] — latency/energy figure-of-merit characterisation.
//!
//! ```
//! use ferrotcam::behav::BehavioralTcam;
//!
//! let mut tcam = BehavioralTcam::new(4);
//! tcam.store("10XX".parse()?);
//! tcam.store("0110".parse()?);
//! let hit = tcam.search(&[true, false, true, true]);
//! assert_eq!(hit.best(), Some(0));
//! # Ok::<(), ferrotcam::ternary::ParseTernaryError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod approx;
pub mod array;
pub mod behav;
pub mod calib;
pub mod cell;
pub mod fom;
pub mod full_array;
pub mod margins;
pub mod ops;
pub mod packed;
pub mod sense;
pub mod senseamp;
pub mod table_io;
pub mod ternary;
pub mod write_array;

pub use approx::{
    levels_to_query, merge_top_k, row_distance, row_in_windows, threshold_search, top_k, ApproxHit,
};
pub use array::{build_search_row, SearchRun, SearchSim};
pub use behav::{BehavioralTcam, SearchOutcome};
pub use calib::{Calibration, RowWriteMetrics, SenseModel};
pub use cell::{DesignKind, DesignParams, RowParasitics, SearchTiming};
pub use fom::{characterize_search, characterize_write, SearchMetrics, WriteMetrics};
pub use full_array::{
    build_full_array, cross_validate_array, search_full_array, ArraySearchResult, FullArrayCircuit,
};
pub use margins::{nominal_margins, DividerLevels, SearchMargins};
pub use packed::{
    BitSlices, ExactPlan, PackedQuery, PackedRows, RangePlan, STEP1_MASK, STEP2_MASK,
};
pub use table_io::{load_table, parse_table, render_table, save_table};
pub use ternary::{Ternary, TernaryWord};
pub use write_array::{
    build_array_write, program_duration, simulate_array_write, ArrayWriteResult,
};

/// Crate-level result alias (errors come from the simulation substrate).
pub type Result<T> = ferrotcam_spice::Result<T>;
