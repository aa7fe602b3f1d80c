//! Row-level circuit assembly and search-simulation driver.
//!
//! The key experiments of the paper characterise one TCAM word (row):
//! the match line with its pull-down network, precharge device, sense
//! amplifier, drive waveforms, and wire parasitics. This module provides
//! the shared scaffold, per-design dispatch, and the [`SearchRun`]
//! measurement API (latency, per-source energy, match verdict).

use crate::cell::{cmos16t, fefet2, t15, DesignKind, DesignParams, RowParasitics, SearchTiming};
use crate::ops;
use crate::senseamp::attach_sense_amp;
use crate::ternary::TernaryWord;
use ferrotcam_device::mosfet::Mosfet;
use ferrotcam_spice::prelude::*;

/// A fully built single-row search experiment, ready to simulate.
#[derive(Debug)]
pub struct SearchSim {
    /// The assembled circuit.
    pub circuit: Circuit,
    /// Phase timing used to build the drive waveforms.
    pub timing: SearchTiming,
    /// Whether step 2 runs (1.5T designs with step-2 enabled).
    pub two_step: bool,
    /// Supply voltage (for thresholds in measurements).
    pub vdd: f64,
    /// Match-line node name.
    pub ml: String,
    /// Sense-amplifier output node name.
    pub sa_out: String,
    /// Design that was instantiated.
    pub design: DesignKind,
    /// Number of back-to-back search cycles (1 for single searches;
    /// see [`build_burst_search`]).
    pub cycles: usize,
}

impl SearchSim {
    /// Run the transient and wrap the trace in a [`SearchRun`].
    ///
    /// # Errors
    /// Propagates simulator errors (non-convergence etc.).
    pub fn run(&mut self) -> Result<SearchRun> {
        let t_stop = self.timing.t_stop(self.two_step) * self.cycles.max(1) as f64;
        let mut opts = TranOpts::to_time(t_stop);
        opts.dt_init = 1e-12;
        opts.dt_max = 4e-12;
        opts.dt_min = 1e-18;
        opts.uic = true; // start with ML discharged so precharge energy is counted
        let trace = transient(&mut self.circuit, &opts)?;
        Ok(SearchRun {
            trace,
            timing: self.timing,
            two_step: self.two_step,
            vdd: self.vdd,
            ml: self.ml.clone(),
            sa_out: self.sa_out.clone(),
        })
    }
}

/// Measurements over a completed search transient.
#[derive(Debug)]
pub struct SearchRun {
    /// Raw trace (all node voltages, source currents and energies).
    pub trace: Trace,
    /// Timing the experiment was built with.
    pub timing: SearchTiming,
    /// Whether step 2 ran.
    pub two_step: bool,
    /// Supply voltage.
    pub vdd: f64,
    /// Match-line node name.
    pub ml: String,
    /// SA output node name.
    pub sa_out: String,
}

impl SearchRun {
    /// Final SA verdict: `true` when the row matched (SA output high).
    ///
    /// # Errors
    /// [`Error::UnknownSignal`] if the SA output was not recorded.
    pub fn matched(&self) -> Result<bool> {
        Ok(self.trace.final_value(&format!("v({})", self.sa_out))? > self.vdd / 2.0)
    }

    /// ML voltage at the end of the run.
    ///
    /// # Errors
    /// [`Error::UnknownSignal`] if the ML was not recorded.
    pub fn ml_final(&self) -> Result<f64> {
        self.trace.final_value(&format!("v({})", self.ml))
    }

    /// Search latency: first falling crossing of the SA output through
    /// VDD/2 after the search starts, measured from step-1 assertion.
    /// `None` for a match (no SA transition).
    ///
    /// # Errors
    /// [`Error::UnknownSignal`] if the SA output was not recorded.
    pub fn latency(&self) -> Result<Option<f64>> {
        let sig = format!("v({})", self.sa_out);
        let t0 = self.timing.step1_start();
        // Find the first falling crossing after t0.
        let mut nth = 1;
        loop {
            match self.trace.cross(&sig, self.vdd / 2.0, Edge::Falling, nth)? {
                Some(t) if t >= t0 => return Ok(Some(t - t0)),
                Some(_) => nth += 1,
                None => return Ok(None),
            }
        }
    }

    /// Total energy drawn from all sources over the whole run (J).
    #[must_use]
    pub fn total_energy(&self) -> f64 {
        self.energy_until(f64::INFINITY)
    }

    /// Energy drawn from all sources up to time `t` (J).
    #[must_use]
    pub fn energy_until(&self, t: f64) -> f64 {
        self.trace
            .signal_names()
            .iter()
            .filter(|n| n.starts_with("e("))
            .map(|n| {
                if t.is_infinite() {
                    self.trace.final_value(n).unwrap_or(0.0)
                } else {
                    self.trace.value_at(n, t).unwrap_or(0.0)
                }
            })
            .sum()
    }

    /// Energy drawn from sources whose name starts with `prefix`
    /// (e.g. `"SEL"` for the select drivers).
    #[must_use]
    pub fn energy_of(&self, prefix: &str) -> f64 {
        let full = format!("e({prefix}");
        self.trace
            .signal_names()
            .iter()
            .filter(|n| n.starts_with(&full))
            .map(|n| self.trace.final_value(n).unwrap_or(0.0))
            .sum()
    }
}

/// Common per-row scaffold shared by every design: supply, match line
/// with wire load, precharge transistor, and sense amplifier.
pub(crate) struct RowScaffold {
    /// The sense-end ML node (precharge and SA attach here).
    pub ml: NodeId,
    /// Per-cell ML attachment node. With the default lumped parasitics
    /// every tap is `ml`; with `ml_wire_res_per_cell > 0` each cell taps
    /// its own π-segment of the distributed RC rail.
    pub ml_taps: Vec<NodeId>,
    pub vdd: NodeId,
    pub sa_out: String,
}

impl RowScaffold {
    /// ML attachment node for cell `c`.
    pub fn tap(&self, c: usize) -> NodeId {
        self.ml_taps[c]
    }
}

pub(crate) fn build_scaffold(
    ckt: &mut Circuit,
    params: &DesignParams,
    n_cells: usize,
    timing: &SearchTiming,
    par: &RowParasitics,
) -> Result<RowScaffold> {
    let vdd = ckt.node("vdd");
    let ml = ckt.node("ml");
    let pre = ckt.node("pre");
    let gnd = Circuit::gnd();
    ckt.vsource("VDD", vdd, gnd, Waveform::dc(params.vdd));
    ckt.vsource("PRE", pre, gnd, ops::precharge_gate(params.vdd, timing));
    ckt.device(Box::new(Mosfet::new(
        "mpre",
        ml,
        pre,
        vdd,
        vdd,
        params.precharge.clone(),
    )));
    // Match-line wire: lumped single node, or a distributed RC rail
    // with one π-segment per cell when a wire resistance is given.
    let mut ml_taps = Vec::with_capacity(n_cells);
    if par.ml_wire_res_per_cell > 0.0 {
        let mut prev = ml;
        for c in 0..n_cells {
            let seg = ckt.node(&format!("ml{c}"));
            ckt.resistor(&format!("rml{c}"), prev, seg, par.ml_wire_res_per_cell)?;
            ckt.capacitor(&format!("cml{c}"), seg, gnd, par.ml_wire_per_cell)?;
            ml_taps.push(seg);
            prev = seg;
        }
    } else {
        ckt.capacitor("cml_wire", ml, gnd, par.ml_wire_per_cell * n_cells as f64)?;
        ml_taps.extend(std::iter::repeat_n(ml, n_cells));
    }
    let sa_out = attach_sense_amp(ckt, ml, vdd, "sa")?;
    Ok(RowScaffold {
        ml,
        ml_taps,
        vdd,
        sa_out,
    })
}

/// Build a **burst** search experiment: `cycles` back-to-back searches
/// of the same query on one row, each with its own precharge phase —
/// the steady-state operating mode of a deployed TCAM. Available for
/// the single-step designs (2FeFET, 16T CMOS), whose drive waveforms
/// are periodic.
///
/// The returned simulation runs `cycles × cycle_time` where
/// `cycle_time = t_precharge + select_lead + t_step + settle`.
///
/// # Errors
/// Propagates construction errors.
///
/// # Panics
/// Panics for two-step (1.5T) designs or zero cycles.
pub fn build_burst_search(
    params: &DesignParams,
    stored: &TernaryWord,
    query: &[bool],
    timing: SearchTiming,
    par: RowParasitics,
    cycles: usize,
) -> Result<SearchSim> {
    assert!(cycles >= 1, "need at least one cycle");
    assert!(
        !params.kind.is_two_step(),
        "burst mode supports single-step designs"
    );
    let mut sim = build_search_row(params, stored, query, timing, par, false)?;
    let period = timing.t_stop(false);
    periodicize_sources(&mut sim.circuit, period, cycles);
    sim.cycles = cycles;
    Ok(sim)
}

/// Rewrite each non-DC source's waveform as a `cycles`-fold periodic
/// repeat of its first-cycle shape (sampled as PWL over one period).
fn periodicize_sources(ckt: &mut Circuit, period: f64, cycles: usize) {
    const SAMPLES: usize = 64;
    for elem in ckt.elements_mut() {
        if let ferrotcam_spice::Element::VSource { wave, .. } = elem {
            if matches!(wave, Waveform::Dc(_)) {
                continue;
            }
            let mut pts = Vec::with_capacity(SAMPLES * cycles + 1);
            for k in 0..cycles {
                for i in 0..SAMPLES {
                    let frac = i as f64 / SAMPLES as f64;
                    let t_local = frac * period;
                    pts.push((k as f64 * period + t_local, wave.value(t_local)));
                }
            }
            pts.push((cycles as f64 * period, wave.value(0.0)));
            *wave = Waveform::pwl(pts);
        }
    }
}

/// Build a single-row search experiment for any design.
///
/// `stored` is the row content; `query` the binary search word;
/// `enable_step2` gates the second search step (early termination
/// emulation — ignored by single-step designs).
///
/// # Errors
/// Propagates construction errors; rejects width mismatches via panics
/// (programming errors).
///
/// # Panics
/// Panics if `query.len() != stored.len()`, or (for 1.5T designs) if the
/// word length is odd.
pub fn build_search_row(
    params: &DesignParams,
    stored: &TernaryWord,
    query: &[bool],
    timing: SearchTiming,
    par: RowParasitics,
    enable_step2: bool,
) -> Result<SearchSim> {
    assert_eq!(stored.len(), query.len(), "query/stored width mismatch");
    match params.kind {
        DesignKind::T15Sg | DesignKind::T15Dg => {
            t15::build_search_row(params, stored, query, timing, par, enable_step2)
        }
        DesignKind::Sg2 | DesignKind::Dg2 => {
            fefet2::build_search_row(params, stored, query, timing, par)
        }
        DesignKind::Cmos16t => cmos16t::build_search_row(params, stored, query, timing, par),
    }
}
