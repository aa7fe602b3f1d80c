//! Multi-domain Preisach model of a ferroelectric (HfZrO-class) film.
//!
//! The film is discretised into `N` square hysterons (domains), each with
//! a symmetric coercive voltage `±vc_i`. Coercive voltages follow a
//! Gaussian distribution (deterministic quantile sampling, no RNG), which
//! is what gives FeFETs their gradual partial-switching behaviour and is
//! the mechanism behind the intermediate **MVT** state used by the
//! 1.5T1Fe TCAM's `'X'` encoding: writing with `V_m < V_w` flips only the
//! low-coercivity half of the domains.
//!
//! The model honours the two classical Preisach properties (verified by
//! property tests): *wiping-out* (a larger excursion erases the memory of
//! smaller ones) and *return-point memory*.

use serde::{Deserialize, Serialize};

/// Parameters of a [`PreisachFilm`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PreisachParams {
    /// Number of hysterons. 64–256 gives smooth minor loops.
    pub num_domains: usize,
    /// Mean coercive voltage, referred to the externally applied write
    /// voltage (V). Writing exactly this voltage from saturation flips
    /// half the domains (the MVT write point).
    pub vc_mean: f64,
    /// Coercive-voltage standard deviation (V).
    pub vc_sigma: f64,
    /// Saturated polarisation magnitude (C/m²), the *effective* remnant
    /// polarisation calibrated to the device memory window.
    pub p_sat: f64,
    /// Film area (m²).
    pub area: f64,
}

impl PreisachParams {
    /// Validate and construct.
    ///
    /// # Panics
    /// Panics when domains are zero or any scale parameter is
    /// non-positive (programming error in a calibration preset).
    #[must_use]
    pub fn checked(self) -> Self {
        assert!(self.num_domains > 0, "need at least one domain");
        assert!(self.vc_mean > 0.0, "vc_mean must be positive");
        assert!(self.vc_sigma >= 0.0, "vc_sigma must be non-negative");
        assert!(self.p_sat > 0.0, "p_sat must be positive");
        assert!(self.area > 0.0, "area must be positive");
        self
    }
}

/// Polarisation state of a ferroelectric film as a set of hysterons.
#[derive(Debug, Clone, PartialEq)]
pub struct PreisachFilm {
    params: PreisachParams,
    /// Per-domain coercive voltage, ascending.
    thresholds: Vec<f64>,
    /// Per-domain binary state: `true` = polarised up (+).
    up: Vec<bool>,
    /// Number of `true` entries in `up`, kept in step by every mutator
    /// so reading the polarisation is O(1).
    n_up: usize,
}

impl PreisachFilm {
    /// Create a film with all domains polarised **down** (the erased /
    /// HVT state for an n-channel FeFET).
    #[must_use]
    pub fn new(params: PreisachParams) -> Self {
        let params = params.checked();
        let n = params.num_domains;
        let thresholds: Vec<f64> = (0..n)
            .map(|i| {
                let q = (i as f64 + 0.5) / n as f64;
                (params.vc_mean + params.vc_sigma * probit(q)).max(1e-3)
            })
            .collect();
        Self {
            up: vec![false; n],
            n_up: 0,
            thresholds,
            params,
        }
    }

    /// Model parameters.
    #[must_use]
    pub fn params(&self) -> &PreisachParams {
        &self.params
    }

    /// Quasi-statically apply a voltage across the film, switching every
    /// domain whose coercive voltage is exceeded. Returns whether any
    /// domain flipped.
    pub fn apply(&mut self, v: f64) -> bool {
        // Coercive voltages are positive and ascending, so `v` reaches a
        // prefix of the domains and flips them in one direction only:
        // any flip moves the count.
        let before = self.n_up;
        let set_up = v > 0.0;
        let reached = self.thresholds.partition_point(|&vc| vc <= v.abs());
        for up in &mut self.up[..reached] {
            if *up != set_up {
                *up = set_up;
                if set_up {
                    self.n_up += 1;
                } else {
                    self.n_up -= 1;
                }
            }
        }
        self.n_up != before
    }

    /// Per-domain states in ascending coercive voltage (`true` = up).
    #[must_use]
    pub fn domains(&self) -> &[bool] {
        &self.up
    }

    /// Fraction of domains polarised up, in `[0, 1]`.
    #[must_use]
    pub fn fraction_up(&self) -> f64 {
        self.n_up as f64 / self.up.len() as f64
    }

    /// Normalised polarisation in `[−1, +1]`.
    #[must_use]
    pub fn normalized(&self) -> f64 {
        2.0 * self.fraction_up() - 1.0
    }

    /// Polarisation (C/m²).
    #[must_use]
    pub fn polarization(&self) -> f64 {
        self.params.p_sat * self.normalized()
    }

    /// Total polarisation charge on the film (C).
    #[must_use]
    pub fn charge(&self) -> f64 {
        self.polarization() * self.params.area
    }

    /// Force a normalised polarisation in `[−1, +1]` by flipping the
    /// lowest-coercivity domains first (the physically reachable partial
    /// state).
    pub fn set_normalized(&mut self, p: f64) {
        let p = p.clamp(-1.0, 1.0);
        let n_up = ((p + 1.0) / 2.0 * self.up.len() as f64).round() as usize;
        for (i, up) in self.up.iter_mut().enumerate() {
            *up = i < n_up;
        }
        self.n_up = n_up.min(self.up.len());
    }

    /// Charge that would switch if the film were driven from its current
    /// state to positive saturation (C) — proxy for remaining write work.
    #[must_use]
    pub fn switchable_charge(&self) -> f64 {
        let down = (self.up.len() - self.n_up) as f64;
        2.0 * self.params.p_sat * self.params.area * down / self.up.len() as f64
    }
}

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9 over (0, 1)).
#[must_use]
pub fn probit(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probit domain is (0,1)");
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -probit(1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn film() -> PreisachFilm {
        PreisachFilm::new(PreisachParams {
            num_domains: 128,
            vc_mean: 1.6,
            vc_sigma: 0.125,
            p_sat: 0.012,
            area: 1e-15,
        })
    }

    #[test]
    fn probit_matches_known_quantiles() {
        assert!((probit(0.5)).abs() < 1e-9);
        assert!((probit(0.841_344_746) - 1.0).abs() < 1e-6);
        assert!((probit(0.158_655_254) + 1.0).abs() < 1e-6);
        assert!((probit(0.975) - 1.959_964).abs() < 1e-5);
    }

    #[test]
    fn starts_fully_down() {
        let f = film();
        assert_eq!(f.fraction_up(), 0.0);
        assert_eq!(f.normalized(), -1.0);
        assert!((f.polarization() + 0.012).abs() < 1e-12);
    }

    #[test]
    fn full_write_saturates() {
        let mut f = film();
        f.apply(2.0); // Vw = 2 V ≈ mean + 3.2σ
        assert!(f.fraction_up() > 0.99, "frac = {}", f.fraction_up());
        f.apply(-2.0);
        assert!(f.fraction_up() < 0.01);
    }

    #[test]
    fn mvt_write_flips_half() {
        let mut f = film();
        f.apply(-2.0); // erase
        f.apply(1.6); // V_m = vc_mean
        let frac = f.fraction_up();
        assert!((frac - 0.5).abs() < 0.02, "frac = {frac}");
        assert!(f.normalized().abs() < 0.05);
    }

    #[test]
    fn small_voltages_do_not_disturb() {
        let mut f = film();
        f.apply(2.0);
        let p0 = f.polarization();
        // Search-level biases (≤ 0.8 V) must never move polarisation:
        for _ in 0..1000 {
            f.apply(0.8);
            f.apply(-0.8);
        }
        assert_eq!(f.polarization(), p0);
    }

    #[test]
    fn wiping_out_property() {
        // A large excursion erases the history of smaller ones.
        let mut a = film();
        a.apply(1.55);
        a.apply(-1.62);
        a.apply(2.0);
        let mut b = film();
        b.apply(2.0);
        assert_eq!(a, b);
    }

    #[test]
    fn return_point_memory() {
        // Minor loop back to the same reversal point restores the state.
        let mut f = film();
        f.apply(2.0);
        f.apply(-1.55);
        let snapshot = f.clone();
        f.apply(1.45); // small ascent that flips nothing above 1.45
        f.apply(-1.55); // return to the reversal point
        assert_eq!(f, snapshot);
    }

    #[test]
    fn apply_flips_exactly_the_domains_each_rule_reaches() {
        // Reference: the per-domain rule, applied domain by domain.
        let mut f = film();
        let mut reference = f.up.clone();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..500 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let v = 5.0 * ((state >> 11) as f64 / (1u64 << 53) as f64) - 2.5;
            for (up, &vc) in reference.iter_mut().zip(&f.thresholds) {
                if v >= vc {
                    *up = true;
                } else if v <= -vc {
                    *up = false;
                }
            }
            let before = f.up.clone();
            let flipped = f.apply(v);
            assert_eq!(f.up, reference, "v = {v}");
            assert_eq!(flipped, before != f.up, "v = {v}");
        }
    }

    #[test]
    fn set_normalized_roundtrip() {
        let mut f = film();
        for p in [-1.0, -0.5, 0.0, 0.5, 1.0] {
            f.set_normalized(p);
            assert!((f.normalized() - p).abs() < 0.02, "p = {p}");
        }
    }

    #[test]
    fn switchable_charge_decreases_with_writes() {
        let mut f = film();
        let q0 = f.switchable_charge();
        f.apply(1.6);
        let q1 = f.switchable_charge();
        f.apply(2.0);
        let q2 = f.switchable_charge();
        assert!(q0 > q1 && q1 > q2);
        assert!(q2 < 0.02 * q0);
        assert!((q0 - 2.0 * 0.012 * 1e-15).abs() < 1e-20);
    }

    #[test]
    #[should_panic(expected = "vc_mean")]
    fn invalid_params_rejected() {
        let _ = PreisachFilm::new(PreisachParams {
            num_domains: 8,
            vc_mean: -1.0,
            vc_sigma: 0.1,
            p_sat: 0.01,
            area: 1e-15,
        });
    }
}
