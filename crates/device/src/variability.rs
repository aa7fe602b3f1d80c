//! Device-to-device variability: threshold-voltage variation sampling
//! for Monte-Carlo margin analysis.
//!
//! Scaled FeFETs suffer significant V_TH variation from the granular
//! ferroelectric domain structure on top of the usual random dopant /
//! work-function components (\[19\], \[20\] in the paper). Both follow an
//! area law (Pelgrom): `σ(V_TH) = A_vt / sqrt(W·L)`, with the
//! ferroelectric contribution scaling with the per-domain polarisation
//! quantum.

use crate::fefet::FefetParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr_like::NormalSampler;
use serde::{Deserialize, Serialize};

/// Minimal Box–Muller normal sampler (keeps the dependency surface to
/// `rand` alone).
mod rand_distr_like {
    use rand::Rng;

    /// Samples `N(mean, sigma)` values.
    #[derive(Debug, Clone, Copy)]
    pub struct NormalSampler {
        /// Mean.
        pub mean: f64,
        /// Standard deviation.
        pub sigma: f64,
    }

    impl NormalSampler {
        /// Draw one sample.
        pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            // Box–Muller; u1 in (0,1].
            let u1: f64 = 1.0 - rng.random::<f64>();
            let u2: f64 = rng.random();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            self.mean + self.sigma * z
        }
    }
}

/// One SplitMix64 scrambling step.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// RNG seed for sample `index` of the Monte-Carlo stream `seed`.
///
/// Each sample index maps to its own seed, so a batch can be drawn by
/// any number of workers in any order and stay bit-identical to a
/// serial draw — worker count never changes the sample values.
#[must_use]
pub fn sample_seed(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(index.wrapping_add(1)))
}

/// Variability parameters for a FeFET flavour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VthVariation {
    /// Pelgrom coefficient for the MOS channel (V·m).
    pub a_vt_mos: f64,
    /// Additional ferroelectric-granularity contribution (V·m),
    /// referred to the front gate.
    pub a_vt_fe: f64,
    /// Channel area (m²).
    pub area: f64,
}

impl VthVariation {
    /// Variation card for a calibrated FeFET (14 nm class: A_vt ≈
    /// 1.5 mV·µm for the channel; the FE granularity term scales with
    /// the memory window, i.e. with how much each domain moves V_TH).
    #[must_use]
    pub fn for_fefet(params: &FefetParams) -> Self {
        Self {
            a_vt_mos: 1.5e-9, // 1.5 mV·µm
            a_vt_fe: 0.8e-9 * params.mw_fg / 0.9,
            area: params.core.w * params.core.l,
        }
    }

    /// Total σ(V_TH) referred to the front gate (V).
    #[must_use]
    pub fn sigma_vth(&self) -> f64 {
        let s_mos = self.a_vt_mos / self.area.sqrt();
        let s_fe = self.a_vt_fe / self.area.sqrt();
        (s_mos * s_mos + s_fe * s_fe).sqrt()
    }

    /// Draw one V_TH offset sample (V, FG-referred).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        NormalSampler {
            mean: 0.0,
            sigma: self.sigma_vth(),
        }
        .sample(rng)
    }

    /// Draw the `index`-th offset of the deterministic stream `seed`
    /// (V, FG-referred).
    ///
    /// Unlike [`Self::sample`] this does not advance a shared RNG: the
    /// sample is a pure function of `(seed, index)` via [`sample_seed`],
    /// which is what makes parallel Monte-Carlo batches reproducible.
    #[must_use]
    pub fn sample_at(&self, seed: u64, index: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(sample_seed(seed, index));
        self.sample(&mut rng)
    }

    /// A copy with the sigma scaled by `factor` (for sensitivity
    /// sweeps).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            a_vt_mos: self.a_vt_mos * factor,
            a_vt_fe: self.a_vt_fe * factor,
            area: self.area,
        }
    }
}

/// Apply a sampled V_TH offset to a device card (returns the skewed
/// card; the nominal card is untouched).
#[must_use]
pub fn skewed_fefet(params: &FefetParams, dvth: f64) -> FefetParams {
    let mut p = params.clone();
    p.core.vth0 += dvth;
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib;

    #[test]
    fn sigma_is_millivolt_scale() {
        let v = VthVariation::for_fefet(&calib::dg_fefet_14nm());
        let s = v.sigma_vth();
        // 20×50 nm device: tens of mV.
        assert!(s > 0.02 && s < 0.12, "sigma = {s}");
    }

    #[test]
    fn larger_window_means_more_fe_variation() {
        let sg = VthVariation::for_fefet(&calib::sg_fefet_14nm());
        let dg = VthVariation::for_fefet(&calib::dg_fefet_14nm());
        assert!(sg.sigma_vth() > dg.sigma_vth());
    }

    #[test]
    fn skew_shifts_threshold_only() {
        let p = calib::dg_fefet_14nm();
        let s = skewed_fefet(&p, 0.05);
        assert!((s.core.vth0 - p.core.vth0 - 0.05).abs() < 1e-12);
        assert_eq!(s.mw_fg, p.mw_fg);
    }

    #[test]
    fn indexed_batch_matches_requested_sigma() {
        let v = VthVariation::for_fefet(&calib::dg_fefet_14nm());
        let xs: Vec<f64> = (0..20_000).map(|i| v.sample_at(42, i)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.002, "mean = {mean}");
        assert!(
            (var.sqrt() / v.sigma_vth() - 1.0).abs() < 0.05,
            "sd = {} vs {}",
            var.sqrt(),
            v.sigma_vth()
        );
    }

    #[test]
    fn distinct_streams_and_indices_decorrelate() {
        assert_ne!(sample_seed(1, 0), sample_seed(1, 1));
        assert_ne!(sample_seed(1, 0), sample_seed(2, 0));
        let v = VthVariation::for_fefet(&calib::dg_fefet_14nm());
        assert_ne!(v.sample_at(7, 0), v.sample_at(7, 1));
    }

    #[test]
    fn scaled_changes_sigma_linearly() {
        let v = VthVariation::for_fefet(&calib::dg_fefet_14nm());
        let v2 = v.scaled(2.0);
        assert!((v2.sigma_vth() / v.sigma_vth() - 2.0).abs() < 1e-12);
    }
}
