//! # ferrotcam-device
//!
//! Compact device models for the ferroTCAM reproduction:
//!
//! * [`mosfet`] — EKV-style all-region MOSFET (N/P, 14 nm logic and HV
//!   flavours) implementing the `ferrotcam-spice` device trait,
//! * [`ferro`] — multi-domain Preisach ferroelectric film with
//!   deterministic Gaussian coercive-voltage sampling,
//! * [`fefet`] — SG/DG FeFET built from the two (threshold-shift
//!   formulation; back-gate coupling ratio models the DG read path),
//! * [`calib`] — presets meeting the paper's Fig. 1 device targets,
//! * [`resistance`] — R_ON/R_M/R_OFF extraction and the Eq. (1) window,
//! * [`extract`] — Id–Vg sweeps of the three programmed states and
//!   V_TH / SS / ON-OFF extraction from them.
//!
//! ```
//! use ferrotcam_device::{calib, fefet::{Fefet, VthState}};
//! use ferrotcam_spice::NodeId;
//!
//! let g = NodeId::GROUND;
//! let mut dev = Fefet::new("f0", g, g, g, g, calib::dg_fefet_14nm());
//! dev.program(VthState::Lvt);
//! // BG read at V_SeL = 2 V: the LVT device conducts.
//! let i_on = dev.drain_current(0.4, 0.0, 0.0, 2.0, 300.0);
//! assert!(i_on > 1e-6);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calib;
pub mod extract;
pub mod fefet;
pub mod ferro;
pub mod mosfet;
pub mod reliability;
pub mod resistance;
pub mod variability;

pub use fefet::{Fefet, FefetParams, VthState};
pub use ferro::{PreisachFilm, PreisachParams};
pub use mosfet::{Mosfet, MosfetParams, Polarity};
pub use reliability::{EnduranceModel, ReadDisturbModel, RetentionModel};
pub use resistance::{ReadPath, ResistanceProfile};
pub use variability::{sample_seed, skewed_fefet, VthVariation};
