//! Bit-exactness oracle for the device stamps.
//!
//! `oracle` below keeps a straightforward version of the EKV current
//! (separate softplus and sigmoid, each computing its own exponential)
//! and of `Mosfet::eval` / `Fefet::eval` (every entry written through
//! the growable `DeviceStamps` buffers). The production code shares one
//! `e^x` between softplus and sigmoid and writes through fixed-size
//! views; that must not change a single rounding. Every `i`, `q`, `gi`
//! and `cq` entry (and every `ekv_ids` output) is compared with
//! `to_bits` over a seeded voltage grid. Both sides run on the same
//! libm, so the check holds on any host.

use ferrotcam_device::calib;
use ferrotcam_device::fefet::{Fefet, VthState};
use ferrotcam_device::mosfet::{ekv_ids, EkvOut, Mosfet, MosfetParams, Polarity};
use ferrotcam_spice::nonlinear::{DeviceStamps, EvalCtx, NonlinearDevice};
use ferrotcam_spice::units::thermal_voltage;
use ferrotcam_spice::NodeId;

mod oracle {
    use super::*;

    fn softplus(x: f64) -> f64 {
        if x > 40.0 {
            x
        } else if x < -40.0 {
            x.exp()
        } else {
            x.exp().ln_1p()
        }
    }

    fn sigmoid(x: f64) -> f64 {
        if x >= 0.0 {
            1.0 / (1.0 + (-x).exp())
        } else {
            let e = x.exp();
            e / (1.0 + e)
        }
    }

    pub fn ekv_ids(p: &MosfetParams, vth: f64, vg: f64, vd: f64, vs: f64, temp: f64) -> EkvOut {
        if vd < vs {
            let m = ekv_ids(p, vth, vg, vs, vd, temp);
            return EkvOut {
                ids: -m.ids,
                gm: -m.gm,
                gds: -m.gms,
                gms: -m.gds,
            };
        }
        let ut = thermal_voltage(temp);
        let i0 = 2.0 * p.n * p.beta() * ut * ut;
        let vp = (vg - vth) / p.n;
        let xf = (vp - vs) / (2.0 * ut);
        let xr = (vp - vd) / (2.0 * ut);
        let sf = softplus(xf);
        let sr = softplus(xr);
        let ff = sf * sf;
        let fr = sr * sr;
        let dff = sf * sigmoid(xf) / ut;
        let dfr = sr * sigmoid(xr) / ut;
        let vds = vd - vs;
        let clm = 1.0 + p.lambda * vds;
        let core = i0 * (ff - fr);
        EkvOut {
            ids: core * clm,
            gm: i0 * (dff - dfr) / p.n * clm,
            gds: i0 * dfr * clm + core * p.lambda,
            gms: -i0 * dff * clm - core * p.lambda,
        }
    }

    pub fn mosfet_eval(dev: &Mosfet, v: &[f64], out: &mut DeviceStamps, ctx: &EvalCtx) {
        use ferrotcam_device::mosfet::terminal::{B, D, G, S};
        let p = dev.params();
        let sgn = p.polarity.sign();
        let m = ekv_ids(
            p,
            p.vth0,
            sgn * (v[G] - v[B]),
            sgn * (v[D] - v[B]),
            sgn * (v[S] - v[B]),
            ctx.temp,
        );
        let t = 4;
        let gmb = -(m.gm + m.gds + m.gms);
        out.i[D] += sgn * m.ids;
        out.i[S] -= sgn * m.ids;
        out.gi[D * t + D] += m.gds;
        out.gi[D * t + G] += m.gm;
        out.gi[D * t + S] += m.gms;
        out.gi[D * t + B] += gmb;
        out.gi[S * t + D] -= m.gds;
        out.gi[S * t + G] -= m.gm;
        out.gi[S * t + S] -= m.gms;
        out.gi[S * t + B] -= gmb;
        let cg_half = 0.5 * p.c_gate;
        out.add_branch_charge(G, S, cg_half * (v[G] - v[S]), cg_half);
        out.add_branch_charge(G, D, cg_half * (v[G] - v[D]), cg_half);
        out.add_branch_charge(D, B, p.c_junction * (v[D] - v[B]), p.c_junction);
        out.add_branch_charge(S, B, p.c_junction * (v[S] - v[B]), p.c_junction);
    }

    pub fn fefet_eval(dev: &Fefet, v: &[f64], out: &mut DeviceStamps, ctx: &EvalCtx) {
        use ferrotcam_device::fefet::terminal::{BG, D, FG, S};
        let p = dev.params();
        let r = p.bg_coupling;
        let vg_eff = v[FG] + r * v[BG];
        let m = ekv_ids(&p.core, dev.vth(), vg_eff, v[D], v[S], ctx.temp);
        let t = 4;
        out.i[D] += m.ids;
        out.i[S] -= m.ids;
        out.gi[D * t + D] += m.gds;
        out.gi[D * t + FG] += m.gm;
        out.gi[D * t + BG] += m.gm * r;
        out.gi[D * t + S] += m.gms;
        out.gi[S * t + D] -= m.gds;
        out.gi[S * t + FG] -= m.gm;
        out.gi[S * t + BG] -= m.gm * r;
        out.gi[S * t + S] -= m.gms;
        let cfg_half = 0.5 * p.c_fg;
        out.add_branch_charge(FG, S, cfg_half * (v[FG] - v[S]), cfg_half);
        out.add_branch_charge(FG, D, cfg_half * (v[FG] - v[D]), cfg_half);
        out.add_branch_charge(FG, S, dev.film().charge(), 0.0);
        out.add_branch_charge(BG, S, p.c_bg * (v[BG] - v[S]), p.c_bg);
        out.add_branch_charge(D, BG, p.c_junction * (v[D] - v[BG]), p.c_junction);
        out.add_branch_charge(S, BG, p.c_junction * (v[S] - v[BG]), p.c_junction);
    }
}

/// SplitMix64: a seeded, dependency-free source of grid points.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * u
    }
}

/// Structured levels (rails, thresholds, exact zeros) every grid mixes
/// with random ones.
const LEVELS: [f64; 11] = [-3.0, -1.5, -0.4, 0.0, 0.1, 0.35, 0.5, 0.8, 1.6, 2.5, 4.0];
const TEMPS: [f64; 3] = [250.0, 300.0, 400.0];

/// Terminal-voltage grid: all structured 4-tuples on a coarse subset,
/// then `random` seeded points in `[-3, 4]` V.
fn voltage_grid(seed: u64, random: usize) -> Vec<[f64; 4]> {
    let coarse = [-3.0, -0.4, 0.0, 0.5, 1.6, 4.0];
    let mut grid = Vec::new();
    for &a in &coarse {
        for &b in &coarse {
            for &c in &coarse {
                for &d in &coarse {
                    grid.push([a, b, c, d]);
                }
            }
        }
    }
    let mut rng = SplitMix(seed);
    for _ in 0..random {
        grid.push([
            rng.uniform(-3.0, 4.0),
            rng.uniform(-3.0, 4.0),
            rng.uniform(-3.0, 4.0),
            rng.uniform(-3.0, 4.0),
        ]);
    }
    grid
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_stamps(name: &str, v: &[f64; 4], got: &DeviceStamps, want: &DeviceStamps) {
    for (buf, g, w) in [
        ("i", &got.i, &want.i),
        ("q", &got.q, &want.q),
        ("gi", &got.gi, &want.gi),
        ("cq", &got.cq, &want.cq),
    ] {
        assert_eq!(bits(g), bits(w), "{name} {buf} at {v:?}: {g:?} vs {w:?}");
    }
}

/// Which softplus/sigmoid branch an argument takes: below −40, in
/// −40..0, in 0..=40, above 40.
fn branch(x: f64) -> usize {
    if x < -40.0 {
        0
    } else if x < 0.0 {
        1
    } else if x <= 40.0 {
        2
    } else {
        3
    }
}

#[test]
fn ekv_ids_matches_oracle_bit_for_bit() {
    let mut hit = [[false; 4]; 2];
    let mut swapped = false;
    let presets = [
        MosfetParams::nmos_14nm(50.0),
        MosfetParams::nmos_hv(80.0),
        calib::dg_fefet_14nm().core,
    ];
    let mut rng = SplitMix(7);
    let mut points: Vec<[f64; 3]> = Vec::new();
    for &vg in &LEVELS {
        for &vd in &LEVELS {
            for &vs in &LEVELS {
                points.push([vg, vd, vs]);
            }
        }
    }
    for _ in 0..3000 {
        points.push([
            rng.uniform(-4.0, 5.0),
            rng.uniform(-3.0, 4.0),
            rng.uniform(-3.0, 4.0),
        ]);
    }
    for p in &presets {
        for &temp in &TEMPS {
            for &[vg, vd, vs] in &points {
                let got = ekv_ids(p, p.vth0, vg, vd, vs, temp);
                let want = oracle::ekv_ids(p, p.vth0, vg, vd, vs, temp);
                let g = [got.ids, got.gm, got.gds, got.gms];
                let w = [want.ids, want.gm, want.gds, want.gms];
                assert_eq!(
                    bits(&g),
                    bits(&w),
                    "ekv_ids at vg={vg} vd={vd} vs={vs} T={temp}"
                );
                // The arguments the (possibly swapped) evaluation sees.
                let ut = thermal_voltage(temp);
                let vp = (vg - p.vth0) / p.n;
                let xf = (vp - vd.min(vs)) / (2.0 * ut);
                let xr = (vp - vd.max(vs)) / (2.0 * ut);
                hit[0][branch(xf)] = true;
                hit[1][branch(xr)] = true;
                swapped |= vd < vs;
            }
        }
    }
    assert_eq!(hit, [[true; 4]; 2], "softplus branches covered (xf, xr)");
    assert!(swapped, "the vd < vs swap is covered");
}

#[test]
fn mosfet_stamps_match_oracle_bit_for_bit() {
    let g = NodeId::GROUND;
    let devices = [
        MosfetParams::nmos_14nm(50.0),
        MosfetParams::pmos_14nm(50.0),
        MosfetParams::nmos_hv(80.0),
        MosfetParams::pmos_hv(80.0),
    ]
    .map(|p| Mosfet::new("m", g, g, g, g, p));
    let mut swapped = [false; 2];
    for (k, dev) in devices.iter().enumerate() {
        for &temp in &TEMPS {
            let ctx = EvalCtx {
                temp,
                ..EvalCtx::default()
            };
            for v in voltage_grid(11 + k as u64, 2000) {
                let mut got = DeviceStamps::new(4);
                let mut want = DeviceStamps::new(4);
                dev.eval(&v, &mut got, &ctx);
                oracle::mosfet_eval(dev, &v, &mut want, &ctx);
                assert_same_stamps(dev.name(), &v, &got, &want);
                // NMOS-referred drain below source: the swap branch.
                let sgn = dev.params().polarity.sign();
                let pol = usize::from(dev.params().polarity == Polarity::Pmos);
                swapped[pol] |= sgn * (v[0] - v[3]) < sgn * (v[2] - v[3]);
            }
        }
    }
    assert_eq!(swapped, [true; 2], "swap branch covered for NMOS and PMOS");
}

#[test]
fn fefet_stamps_match_oracle_bit_for_bit() {
    let g = NodeId::GROUND;
    for (kind, params) in [
        ("sg", calib::sg_fefet_14nm()),
        ("dg", calib::dg_fefet_14nm()),
    ] {
        for (s, state) in [VthState::Lvt, VthState::Mvt, VthState::Hvt]
            .into_iter()
            .enumerate()
        {
            let mut dev = Fefet::new(kind, g, g, g, g, params.clone());
            dev.program(state);
            for &temp in &TEMPS {
                let ctx = EvalCtx {
                    temp,
                    ..EvalCtx::default()
                };
                for v in voltage_grid(101 + s as u64, 1000) {
                    let mut got = DeviceStamps::new(4);
                    let mut want = DeviceStamps::new(4);
                    dev.eval(&v, &mut got, &ctx);
                    oracle::fefet_eval(&dev, &v, &mut want, &ctx);
                    assert_same_stamps(&format!("{kind} {state:?}"), &v, &got, &want);
                }
            }
        }
    }
}
