//! Seeded input generators. Everything a run feeds the program comes
//! from here, so the same `--seed` gives the same tables, queries,
//! writes and arrival times.

use ferrotcam::{PackedQuery, Ternary, TernaryWord, STEP1_MASK, STEP2_MASK};

/// SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of seed `seed`: independent streams for the table,
    /// each window's operations and its arrival times.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Poisson arrival offsets (s) at `rate` per second over `duration` s.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, duration: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity((rate * duration * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= duration {
            return out;
        }
        out.push(t);
    }
}

/// A 64-digit binary word as a packed query (digit `i` is bit `i`).
pub fn packed(bits: u64) -> PackedQuery {
    PackedQuery::from_words(64, &[bits])
}

/// The stored form of a 64-digit binary word.
pub fn word(bits: u64) -> TernaryWord {
    TernaryWord::from_bits(&packed(bits).to_bits())
}

/// Keys whose step-1 (even) digits come from `patterns` fixed patterns,
/// so a query built the same way survives step 1 on about
/// `1 / patterns` of a shard's rows: the early-termination operating
/// point is a property of the generated data, not of the program.
#[derive(Debug, Clone)]
pub struct SurvivalKeys {
    patterns: Vec<u64>,
}

impl SurvivalKeys {
    /// Keys with a step-1 survival rate of about `survival`.
    pub fn new(rng: &mut Rng, survival: f64) -> Self {
        let n = (1.0 / survival).round().max(1.0) as usize;
        Self {
            patterns: (0..n).map(|_| rng.next_u64() & STEP1_MASK).collect(),
        }
    }

    /// A fresh key: one pattern's even digits, random odd digits.
    pub fn key(&self, rng: &mut Rng) -> u64 {
        self.patterns[rng.below(self.patterns.len())] | (rng.next_u64() & STEP2_MASK)
    }
}

/// A 64-digit ternary word with about one digit in eight a wildcard,
/// plus its binary stand-in (wildcards read as a random bit).
pub fn wildcard_word(rng: &mut Rng) -> (TernaryWord, u64) {
    let value = rng.next_u64();
    let wild = rng.next_u64() & rng.next_u64() & rng.next_u64();
    let digits = (0..64)
        .map(|i| {
            if (wild >> i) & 1 == 1 {
                Ternary::X
            } else if (value >> i) & 1 == 1 {
                Ternary::One
            } else {
                Ternary::Zero
            }
        })
        .collect();
    (TernaryWord::new(digits), value)
}

/// `bits` with `flips` random digits inverted (repeats allowed).
pub fn flip(rng: &mut Rng, bits: u64, flips: usize) -> u64 {
    (0..flips).fold(bits, |b, _| b ^ (1u64 << rng.below(64)))
}
