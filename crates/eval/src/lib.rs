//! # ferrotcam-eval
//!
//! Eva-CAM-style circuit/architecture evaluation for the ferroTCAM
//! workspace: layout-rule cell-area estimation, wire-parasitic
//! extraction, and figure-of-merit report rendering.
//!
//! ```
//! use ferrotcam::DesignKind;
//! use ferrotcam_eval::{layout, tech};
//!
//! let t = tech::tech_14nm();
//! let a15 = layout::cell_area(DesignKind::T15Dg, &t) * 1e12;
//! let a16t = layout::cell_area(DesignKind::Cmos16t, &t) * 1e12;
//! assert!(a15 < a16t); // every FeFET design beats 16T CMOS on area
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analytic;
pub mod layout;
pub mod parasitics;
pub mod report;
pub mod tech;

pub use analytic::{analytic_search, AnalyticSearch};
pub use layout::{cell_area, cell_dimensions, cell_layout, CellLayout};
pub use parasitics::row_parasitics;
pub use report::{cmos_published, FomRow, FomTable};
pub use tech::{tech_14nm, TechNode};
