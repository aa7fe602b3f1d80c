//! Time-dependent voltage-source waveforms (DC, pulse, PWL, sine).

use serde::{Deserialize, Serialize};

/// A voltage-source waveform `v(t)` in volts.
///
/// ```
/// use ferrotcam_spice::waveform::Waveform;
/// let w = Waveform::pulse(0.0, 1.0, 1e-9, 10e-12, 10e-12, 2e-9);
/// assert_eq!(w.value(0.0), 0.0);
/// assert!((w.value(1.5e-9) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// Single (non-periodic) trapezoidal pulse.
    Pulse {
        /// Initial value.
        v1: f64,
        /// Pulsed value.
        v2: f64,
        /// Delay before the rising edge starts.
        delay: f64,
        /// Rise time (0 is snapped to a 1 fs ramp).
        rise: f64,
        /// Fall time (0 is snapped to a 1 fs ramp).
        fall: f64,
        /// Time spent at `v2` between ramps.
        width: f64,
    },
    /// Piece-wise linear: sorted `(time, value)` corner list. Before the
    /// first corner the first value holds; after the last corner the last
    /// value holds.
    Pwl(Vec<(f64, f64)>),
    /// Sinusoid `offset + ampl * sin(2π·freq·(t − delay))` for `t ≥ delay`.
    Sine {
        /// DC offset.
        offset: f64,
        /// Amplitude.
        ampl: f64,
        /// Frequency in Hz.
        freq: f64,
        /// Start delay in seconds.
        delay: f64,
    },
}

/// Zero-length ramps are snapped to this (1 fs) so the waveform stays
/// continuous and the integrator can place a breakpoint on both corners.
const MIN_RAMP: f64 = 1e-15;

impl Waveform {
    /// Constant waveform.
    #[must_use]
    pub fn dc(v: f64) -> Self {
        Waveform::Dc(v)
    }

    /// Single trapezoidal pulse (see [`Waveform::Pulse`] field docs).
    #[must_use]
    pub fn pulse(v1: f64, v2: f64, delay: f64, rise: f64, fall: f64, width: f64) -> Self {
        Waveform::Pulse {
            v1,
            v2,
            delay,
            rise: rise.max(MIN_RAMP),
            fall: fall.max(MIN_RAMP),
            width,
        }
    }

    /// Piece-wise linear waveform from `(time, value)` corners.
    ///
    /// # Panics
    /// Panics if corners are not sorted by time.
    #[must_use]
    pub fn pwl(points: Vec<(f64, f64)>) -> Self {
        assert!(
            points.windows(2).all(|w| w[0].0 <= w[1].0),
            "pwl corners must be sorted by time"
        );
        Waveform::Pwl(points)
    }

    /// Evaluate the waveform at time `t` (seconds).
    #[must_use]
    pub fn value(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse {
                v1,
                v2,
                delay,
                rise,
                fall,
                width,
            } => {
                let t1 = *delay;
                let t2 = t1 + rise;
                let t3 = t2 + width;
                let t4 = t3 + fall;
                if t < t1 {
                    *v1
                } else if t < t2 {
                    v1 + (v2 - v1) * (t - t1) / rise
                } else if t < t3 {
                    *v2
                } else if t < t4 {
                    v2 + (v1 - v2) * (t - t3) / fall
                } else {
                    *v1
                }
            }
            Waveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                if t >= points[points.len() - 1].0 {
                    return points[points.len() - 1].1;
                }
                let idx = points.partition_point(|&(pt, _)| pt <= t);
                let (t0, v0) = points[idx - 1];
                let (t1, v1) = points[idx];
                if t1 == t0 {
                    v1
                } else {
                    v0 + (v1 - v0) * (t - t0) / (t1 - t0)
                }
            }
            Waveform::Sine {
                offset,
                ampl,
                freq,
                delay,
            } => {
                if t < *delay {
                    *offset
                } else {
                    offset + ampl * (2.0 * std::f64::consts::PI * freq * (t - delay)).sin()
                }
            }
        }
    }

    /// Corner times in `(0, t_stop)` where the derivative is discontinuous.
    /// The transient engine lands a time point exactly on each corner.
    #[must_use]
    pub fn breakpoints(&self, t_stop: f64) -> Vec<f64> {
        let mut bp = match self {
            Waveform::Dc(_) => Vec::new(),
            Waveform::Pulse {
                delay,
                rise,
                fall,
                width,
                ..
            } => {
                let t1 = *delay;
                let t2 = t1 + rise;
                let t3 = t2 + width;
                let t4 = t3 + fall;
                vec![t1, t2, t3, t4]
            }
            Waveform::Pwl(points) => points.iter().map(|&(t, _)| t).collect(),
            Waveform::Sine { delay, .. } => vec![*delay],
        };
        bp.retain(|&t| t > 0.0 && t < t_stop);
        bp
    }

    /// The maximum absolute value the waveform attains (used by source
    /// stepping to scale sources uniformly).
    #[must_use]
    pub fn amplitude(&self) -> f64 {
        match self {
            Waveform::Dc(v) => v.abs(),
            Waveform::Pulse { v1, v2, .. } => v1.abs().max(v2.abs()),
            Waveform::Pwl(points) => points.iter().map(|&(_, v)| v.abs()).fold(0.0, f64::max),
            Waveform::Sine { offset, ampl, .. } => offset.abs() + ampl.abs(),
        }
    }
}

impl Default for Waveform {
    fn default() -> Self {
        Waveform::Dc(0.0)
    }
}

impl From<f64> for Waveform {
    fn from(v: f64) -> Self {
        Waveform::Dc(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_flat() {
        let w = Waveform::dc(1.5);
        assert_eq!(w.value(0.0), 1.5);
        assert_eq!(w.value(1.0), 1.5);
        assert!(w.breakpoints(1.0).is_empty());
    }

    #[test]
    fn pulse_shape() {
        let w = Waveform::pulse(0.0, 2.0, 1.0, 0.5, 0.5, 2.0);
        assert_eq!(w.value(0.5), 0.0);
        assert!((w.value(1.25) - 1.0).abs() < 1e-12); // mid-rise
        assert_eq!(w.value(2.0), 2.0); // plateau
        assert!((w.value(3.75) - 1.0).abs() < 1e-12); // mid-fall
        assert_eq!(w.value(5.0), 0.0);
        assert_eq!(w.breakpoints(10.0), vec![1.0, 1.5, 3.5, 4.0]);
    }

    #[test]
    fn pulse_zero_ramps_are_snapped() {
        let w = Waveform::pulse(0.0, 1.0, 0.0, 0.0, 0.0, 1e-9);
        // Just after t = MIN_RAMP the pulse is fully high.
        assert!((w.value(1e-14) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::pwl(vec![(1.0, 0.0), (2.0, 4.0)]);
        assert_eq!(w.value(0.0), 0.0);
        assert!((w.value(1.5) - 2.0).abs() < 1e-12);
        assert_eq!(w.value(3.0), 4.0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn pwl_rejects_unsorted() {
        let _ = Waveform::pwl(vec![(2.0, 0.0), (1.0, 1.0)]);
    }

    #[test]
    fn sine_basic() {
        let w = Waveform::Sine {
            offset: 1.0,
            ampl: 2.0,
            freq: 1.0,
            delay: 0.0,
        };
        assert!((w.value(0.25) - 3.0).abs() < 1e-12);
        assert!((w.amplitude() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn breakpoints_clipped_to_window() {
        let w = Waveform::pulse(0.0, 1.0, 1.0, 0.1, 0.1, 5.0);
        assert_eq!(w.breakpoints(2.0), vec![1.0, 1.1]);
    }
}
