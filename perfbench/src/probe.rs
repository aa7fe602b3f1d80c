//! Host-speed probes. The small VMs this benchmark runs on change speed
//! for single-threaded work by up to 1.9x within minutes (no steal, no
//! page faults: the cores themselves run slower). Compute-bound times
//! are therefore taken right after a probe of fixed work shaped like
//! them, and multiplied by the probe's speed factor, as if the host ran
//! at the probe's reference speed.
//!
//! The probes are the benchmark's own code and never change with the
//! program, so a change to the program still moves a figure by its own
//! amount.

use crate::stats::median;
use std::collections::HashMap;
use std::time::Instant;

/// Reference times (ns), about the probes' medians on a 2-vCPU x86-64
/// VM in a fast phase.
const NETLIST_REFERENCE_NS: f64 = 160_000.0;
const TABLE_REFERENCE_NS: f64 = 420_000.0;

/// Work shaped like netlist build and device set-up: string keys,
/// hash-map inserts and lookups, boxed values, transcendental math.
fn netlist_once() {
    let mut ids: HashMap<String, usize> = HashMap::new();
    let mut cells: Vec<Box<[f64; 6]>> = Vec::new();
    for r in 0..8 {
        for c in 0..16 {
            for k in 0..6 {
                let id = ids.len();
                ids.entry(format!("n{r}_{c}_{k}")).or_insert(id);
            }
            let v = f64::from(r * 16 + c) * 1e-3;
            cells.push(Box::new([v, v.exp(), v.sqrt(), v.tanh(), v.ln_1p(), v * v]));
        }
    }
    let mut acc: f64 = cells.iter().map(|b| b.iter().sum::<f64>()).sum();
    for r in 0..8 {
        for c in 0..16 {
            acc += ids.get(&format!("n{r}_{c}_3")).copied().unwrap_or(0) as f64;
        }
    }
    std::hint::black_box(acc);
}

/// Work shaped like table build: 2 MiB of freshly allocated rows, each
/// grown one element at a time, then read back with a stride.
fn table_once() {
    let mut rows: Vec<Vec<u64>> = Vec::new();
    for k in 0..256u64 {
        let mut row = Vec::with_capacity(1024);
        for i in 0..1024u64 {
            row.push(i.wrapping_mul(k | 1));
        }
        rows.push(row);
    }
    let sum: u64 = rows.iter().map(|r| r.iter().step_by(7).sum::<u64>()).sum();
    std::hint::black_box(sum);
}

/// Reference time over the median of five timed runs of `work`.
fn factor(reference_ns: f64, work: fn()) -> f64 {
    let mut ns: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            work();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    reference_ns / median(&mut ns).max(1.0)
}

/// Speed factor for SPICE work (netlist build, transients).
pub fn netlist_factor() -> f64 {
    factor(NETLIST_REFERENCE_NS, netlist_once)
}

/// Speed factor for serve set-up (calibration load, table build,
/// service start).
pub fn table_factor() -> f64 {
    factor(TABLE_REFERENCE_NS, table_once)
}
