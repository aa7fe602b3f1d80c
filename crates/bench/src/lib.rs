//! Shared plumbing for the experiment harness binaries: output-file
//! management and the paper's reference numbers (for side-by-side
//! reporting in EXPERIMENTS.md).

use std::fs;
use std::path::PathBuf;

/// Resolve (and create) the results directory: `$FERROTCAM_RESULTS` or
/// `./results`.
///
/// # Panics
/// Panics if the directory cannot be created.
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("FERROTCAM_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Write a text artefact into the results directory, echoing the path.
///
/// # Panics
/// Panics on I/O failure (harness binaries fail loudly).
pub fn write_artifact(name: &str, contents: &str) -> PathBuf {
    let path = results_dir().join(name);
    fs::write(&path, contents).expect("write artifact");
    println!("wrote {}", path.display());
    path
}

/// Paper reference values for side-by-side comparison.
pub mod paper {
    /// Table IV: (design, cell µm², write fJ, 1-step ps, total ps,
    /// 1-step fJ, 2-step fJ, avg fJ). `None` where the paper writes
    /// N.A. or the design has no 2-step value.
    #[allow(clippy::type_complexity)]
    pub const TABLE4: [(&str, f64, Option<f64>, f64, f64, f64, Option<f64>, f64); 5] = [
        ("16T CMOS", 0.286, None, 235.0, 235.0, 0.53, None, 0.53),
        (
            "2SG-FeFET",
            0.095,
            Some(1.63),
            582.0,
            582.0,
            0.17,
            None,
            0.17,
        ),
        (
            "2DG-FeFET",
            0.204,
            Some(0.81),
            1147.0,
            1147.0,
            0.25,
            None,
            0.25,
        ),
        (
            "1.5T1SG-Fe",
            0.108,
            Some(0.82),
            159.0,
            351.0,
            0.11,
            Some(0.16),
            0.12,
        ),
        (
            "1.5T1DG-Fe",
            0.156,
            Some(0.41),
            231.0,
            481.0,
            0.13,
            Some(0.21),
            0.14,
        ),
    ];

    /// Fig. 1 device targets: (label, write V, memory window V).
    pub const FIG1: [(&str, f64, f64); 2] = [("SG FG-read", 4.0, 1.8), ("DG BG-read", 2.0, 2.7)];

    /// The step-1 miss rate Table IV assumes for the average row.
    pub const STEP1_MISS_RATE: f64 = 0.90;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_is_complete() {
        assert_eq!(paper::TABLE4.len(), 5);
        // Ratios quoted in the abstract hold in the reference data.
        let t = &paper::TABLE4;
        let sg2 = t[1];
        let t15dg = t[4];
        assert!((sg2.2.unwrap() / t15dg.2.unwrap() - 4.0).abs() < 0.05); // 4x write
    }

    #[test]
    fn artifacts_roundtrip() {
        std::env::set_var("FERROTCAM_RESULTS", "/tmp/ferrotcam-test-results");
        let p = write_artifact("probe.txt", "hello\n");
        assert_eq!(p, PathBuf::from("/tmp/ferrotcam-test-results/probe.txt"));
        assert_eq!(fs::read_to_string(&p).unwrap(), "hello\n");
        std::env::remove_var("FERROTCAM_RESULTS");
    }
}
