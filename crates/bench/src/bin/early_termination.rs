//! **Sec. III-B3 / V-B** — early-termination energy: average search
//! energy per cell versus the step-1 miss rate, for the two 1.5T1Fe
//! designs; plus the *measured* miss rate of two workloads on the
//! behavioural array (random contents and a small router table),
//! connecting the circuit-level model to real contents.
//!
//! The paper reports the 90 % point (pessimistic) and remarks that real
//! workloads exceed 95 %. Emits `early_termination.csv`; the measured
//! rates are printed and asserted, not written.

use ferrotcam::fom::characterize_search;
use ferrotcam::{BehavioralTcam, DesignKind, TernaryWord};
use ferrotcam_bench::write_artifact;
use ferrotcam_eval::parasitics::row_parasitics;
use ferrotcam_eval::tech::tech_14nm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

const WORD_LEN: usize = 64;

fn measured_miss_rate(rng: &mut StdRng) -> f64 {
    // 256 random ternary rows (10% wildcards), 64 random queries.
    let mut tcam = BehavioralTcam::new(WORD_LEN);
    for _ in 0..256 {
        let word: TernaryWord = (0..WORD_LEN)
            .map(|_| {
                if rng.random_bool(0.1) {
                    ferrotcam::Ternary::X
                } else if rng.random_bool(0.5) {
                    ferrotcam::Ternary::One
                } else {
                    ferrotcam::Ternary::Zero
                }
            })
            .collect();
        tcam.store(word);
    }
    let queries: Vec<Vec<bool>> = (0..64)
        .map(|_| (0..WORD_LEN).map(|_| rng.random_bool(0.5)).collect())
        .collect();
    tcam.workload_step1_miss_rate(queries.iter().map(Vec::as_slice))
}

fn ip(a: u8, b: u8, c: u8, d: u8) -> u32 {
    u32::from_be_bytes([a, b, c, d])
}

/// Step-1 miss rate of a small ISP-style IPv4 forwarding table (one
/// row per prefix: the leading bits, then `X`) over a seeded trace of
/// 2000 destinations, 60 % local traffic and 40 % random addresses.
/// Row order does not change the rate, so no longest-prefix sorting.
fn router_miss_rate(rng: &mut StdRng) -> f64 {
    let prefixes = [
        (ip(0, 0, 0, 0), 0), // default route
        (ip(10, 0, 0, 0), 8),
        (ip(10, 1, 0, 0), 16),
        (ip(10, 1, 2, 0), 24),
        (ip(10, 1, 2, 128), 25),
        (ip(192, 168, 0, 0), 16),
        (ip(172, 16, 0, 0), 12),
    ];
    let mut tcam = BehavioralTcam::new(32);
    for (addr, len) in prefixes {
        tcam.store(TernaryWord::from_prefix(u64::from(addr), len, 32));
    }
    let queries: Vec<Vec<bool>> = (0..2000)
        .map(|_| {
            let dst: u32 = if rng.random_bool(0.6) {
                ip(10, 1, rng.random::<u8>() & 3, rng.random())
            } else {
                rng.random()
            };
            (0..32).rev().map(|i| (dst >> i) & 1 == 1).collect()
        })
        .collect();
    tcam.workload_step1_miss_rate(queries.iter().map(Vec::as_slice))
}

fn main() {
    println!("== Early search termination: energy vs step-1 miss rate ==");
    let tech = tech_14nm();
    let mut csv = String::from("miss_rate,t15sg_fj_per_cell,t15dg_fj_per_cell\n");

    let metrics: Vec<_> = [DesignKind::T15Sg, DesignKind::T15Dg]
        .into_iter()
        .map(|k| {
            characterize_search(k, WORD_LEN, row_parasitics(k, &tech)).expect("characterisation")
        })
        .collect();

    for pct in (0..=100).step_by(10) {
        let rate = pct as f64 / 100.0;
        let sg = metrics[0].energy_avg_per_cell(rate) * 1e15;
        let dg = metrics[1].energy_avg_per_cell(rate) * 1e15;
        println!("miss rate {pct:>3}%  1.5T1SG {sg:.4} fJ/cell  1.5T1DG {dg:.4} fJ/cell");
        let _ = writeln!(csv, "{rate:.2},{sg:.5},{dg:.5}");
    }
    write_artifact("early_termination.csv", &csv);

    // Savings at the paper's points.
    for (name, m) in [("1.5T1SG-Fe", &metrics[0]), ("1.5T1DG-Fe", &metrics[1])] {
        let e0 = m.energy_avg_per_cell(0.0);
        let e90 = m.energy_avg_per_cell(0.90);
        let e95 = m.energy_avg_per_cell(0.95);
        println!(
            "{name}: early termination saves {:.0}% at 90% miss rate, {:.0}% at 95%",
            (1.0 - e90 / e0) * 100.0,
            (1.0 - e95 / e0) * 100.0
        );
    }

    let mut rng = StdRng::seed_from_u64(0x7e57);
    let measured = measured_miss_rate(&mut rng);
    println!(
        "measured step-1 miss rate on random 256x64 contents: {:.1}% \
         (paper: \"typically more than 95%\")",
        measured * 100.0
    );
    assert!(measured > 0.9, "random workloads should early-terminate");

    let router = router_miss_rate(&mut StdRng::seed_from_u64(42));
    println!(
        "measured step-1 miss rate on a 7-prefix router table: {:.1}% \
         (wide prefixes and a default route pass step 1 often)",
        router * 100.0
    );
    assert!(
        (0.55..0.70).contains(&router),
        "router-table step-1 miss rate {router:.3} left its 55-70% band"
    );
}
