//! Simulation traces and waveform measurements.

use crate::error::{Error, Result};
use std::collections::HashMap;

/// Edge direction for threshold-crossing searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// Signal crosses the level going up.
    Rising,
    /// Signal crosses the level going down.
    Falling,
    /// Either direction.
    Either,
}

/// A recorded transient run: a shared time axis plus named signals.
///
/// Signal naming convention used by the engine:
/// * `v(<node>)` — node voltage,
/// * `i(<source>)` — voltage-source branch current (p→n through source),
/// * `e(<source>)` — cumulative energy delivered *by* that source,
/// * `<device>.<state>` — recorded device internal state.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    time: Vec<f64>,
    signals: Vec<Vec<f64>>,
    names: Vec<String>,
    index: HashMap<String, usize>,
    stats: crate::engine::SimStats,
    phase_times: crate::engine::PhaseTimes,
}

impl Trace {
    /// Create an empty trace with the given signal names.
    #[must_use]
    pub fn with_signals(names: Vec<String>) -> Self {
        let index = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        let signals = names.iter().map(|_| Vec::new()).collect();
        Self {
            time: Vec::new(),
            signals,
            names,
            index,
            stats: crate::engine::SimStats::default(),
            phase_times: crate::engine::PhaseTimes::default(),
        }
    }

    /// Solver work counters for the run that produced this trace
    /// (Newton iterations, factorisations, accepted/rejected steps).
    #[must_use]
    pub fn stats(&self) -> crate::engine::SimStats {
        self.stats
    }

    pub(crate) fn set_stats(&mut self, stats: crate::engine::SimStats) {
        self.stats = stats;
    }

    /// Wall time the run spent per Newton phase. All zero unless tracing
    /// was on (`FERROTCAM_TRACE=summary` or above) when it started.
    #[must_use]
    pub fn phase_times(&self) -> crate::engine::PhaseTimes {
        self.phase_times
    }

    pub(crate) fn set_phase_times(&mut self, phase_times: crate::engine::PhaseTimes) {
        self.phase_times = phase_times;
    }

    /// Append one time point. `values` must match the signal count.
    ///
    /// # Panics
    /// Panics if `values.len()` differs from the declared signal count.
    pub fn push(&mut self, t: f64, values: &[f64]) {
        assert_eq!(values.len(), self.signals.len(), "signal count mismatch");
        self.time.push(t);
        for (sig, &v) in self.signals.iter_mut().zip(values) {
            sig.push(v);
        }
    }

    /// The time axis (seconds).
    #[must_use]
    pub fn time(&self) -> &[f64] {
        &self.time
    }

    /// Number of recorded points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.time.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
    }

    /// All signal names in recording order.
    #[must_use]
    pub fn signal_names(&self) -> &[String] {
        &self.names
    }

    /// Samples of a named signal.
    ///
    /// # Errors
    /// [`Error::UnknownSignal`] when the name was never recorded.
    pub fn signal(&self, name: &str) -> Result<&[f64]> {
        self.index
            .get(name)
            .map(|&i| self.signals[i].as_slice())
            .ok_or_else(|| Error::UnknownSignal {
                name: name.to_string(),
            })
    }

    /// Shorthand for `signal("v(<node>)")`.
    ///
    /// # Errors
    /// [`Error::UnknownSignal`] if the node voltage was not recorded.
    pub fn voltage(&self, node: &str) -> Result<&[f64]> {
        self.signal(&format!("v({node})"))
    }

    /// Shorthand for `signal("i(<source>)")`.
    ///
    /// # Errors
    /// [`Error::UnknownSignal`] if the source current was not recorded.
    pub fn current(&self, source: &str) -> Result<&[f64]> {
        self.signal(&format!("i({source})"))
    }

    /// Linear interpolation of a signal at time `t` (clamped to the ends).
    ///
    /// # Errors
    /// [`Error::UnknownSignal`] for unrecorded names.
    pub fn value_at(&self, name: &str, t: f64) -> Result<f64> {
        let y = self.signal(name)?;
        if self.time.is_empty() {
            return Ok(0.0);
        }
        if t <= self.time[0] {
            return Ok(y[0]);
        }
        if t >= *self.time.last().expect("non-empty") {
            return Ok(*y.last().expect("non-empty"));
        }
        let idx = self.time.partition_point(|&ti| ti <= t);
        let (t0, t1) = (self.time[idx - 1], self.time[idx]);
        let (y0, y1) = (y[idx - 1], y[idx]);
        Ok(if t1 == t0 {
            y1
        } else {
            y0 + (y1 - y0) * (t - t0) / (t1 - t0)
        })
    }

    /// Time of the `nth` (1-based) crossing of `level` with the requested
    /// edge, linearly interpolated. `None` if it never happens.
    ///
    /// # Errors
    /// [`Error::UnknownSignal`] for unrecorded names.
    pub fn cross(&self, name: &str, level: f64, edge: Edge, nth: usize) -> Result<Option<f64>> {
        let y = self.signal(name)?;
        let mut seen = 0usize;
        for k in 1..y.len() {
            let (a, b) = (y[k - 1], y[k]);
            let rising = a < level && b >= level;
            let falling = a > level && b <= level;
            let hit = match edge {
                Edge::Rising => rising,
                Edge::Falling => falling,
                Edge::Either => rising || falling,
            };
            if hit {
                seen += 1;
                if seen == nth {
                    let frac = if (b - a).abs() < f64::MIN_POSITIVE {
                        0.0
                    } else {
                        (level - a) / (b - a)
                    };
                    return Ok(Some(
                        self.time[k - 1] + frac * (self.time[k] - self.time[k - 1]),
                    ));
                }
            }
        }
        Ok(None)
    }

    /// Final value of a signal (`0.0` when the record is empty).
    ///
    /// # Errors
    /// [`Error::UnknownSignal`] for unrecorded names.
    pub fn final_value(&self, name: &str) -> Result<f64> {
        Ok(self.signal(name)?.last().copied().unwrap_or(0.0))
    }

    /// Total energy delivered by a named voltage source over the record
    /// (convenience for `final_value("e(<source>)")`).
    ///
    /// # Errors
    /// [`Error::UnknownSignal`] if the source energy was not recorded.
    pub fn source_energy(&self, source: &str) -> Result<f64> {
        self.final_value(&format!("e({source})"))
    }

    /// Maximum value of a signal.
    ///
    /// # Errors
    /// [`Error::UnknownSignal`] for unrecorded names.
    pub fn max(&self, name: &str) -> Result<f64> {
        Ok(self
            .signal(name)?
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max))
    }

    /// Minimum value of a signal.
    ///
    /// # Errors
    /// [`Error::UnknownSignal`] for unrecorded names.
    pub fn min(&self, name: &str) -> Result<f64> {
        Ok(self
            .signal(name)?
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_trace() -> Trace {
        // v = t over [0, 4], i = 2 constant.
        let mut tr = Trace::with_signals(vec!["v(a)".into(), "i(V1)".into()]);
        for k in 0..=4 {
            let t = k as f64;
            tr.push(t, &[t, 2.0]);
        }
        tr
    }

    #[test]
    fn value_at_interpolates_and_clamps() {
        let tr = ramp_trace();
        assert_eq!(tr.value_at("v(a)", 2.5).unwrap(), 2.5);
        assert_eq!(tr.value_at("v(a)", -1.0).unwrap(), 0.0);
        assert_eq!(tr.value_at("v(a)", 99.0).unwrap(), 4.0);
    }

    #[test]
    fn cross_finds_rising_edge() {
        let tr = ramp_trace();
        let t = tr.cross("v(a)", 1.5, Edge::Rising, 1).unwrap().unwrap();
        assert!((t - 1.5).abs() < 1e-12);
        assert!(tr.cross("v(a)", 1.5, Edge::Falling, 1).unwrap().is_none());
        assert!(tr.cross("v(a)", 9.0, Edge::Rising, 1).unwrap().is_none());
    }

    #[test]
    fn nth_crossing() {
        let mut tr = Trace::with_signals(vec!["v(x)".into()]);
        for (t, v) in [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 1.0)] {
            tr.push(t, &[v]);
        }
        let t2 = tr.cross("v(x)", 0.5, Edge::Rising, 2).unwrap().unwrap();
        assert!((t2 - 2.5).abs() < 1e-12);
        let tf = tr.cross("v(x)", 0.5, Edge::Either, 2).unwrap().unwrap();
        assert!((tf - 1.5).abs() < 1e-12);
    }

    #[test]
    fn unknown_signal_is_an_error() {
        let tr = ramp_trace();
        assert!(matches!(
            tr.signal("v(zz)"),
            Err(Error::UnknownSignal { .. })
        ));
    }

    #[test]
    fn min_max() {
        let tr = ramp_trace();
        assert_eq!(tr.max("v(a)").unwrap(), 4.0);
        assert_eq!(tr.min("v(a)").unwrap(), 0.0);
    }
}
