//! The mutation corpus: every concurrency-defect class the analyzer
//! claims to catch is seeded here as a minimal mutant of a clean
//! baseline, and the test asserts the *exact* rule id comes back (and
//! nothing for the baseline). This is the analyzer's own audit — a
//! pass that silently stops firing fails this suite, not production.
//!
//! The final test is the self-clean gate: the real workspace must
//! analyze clean, so any of these defect classes introduced into
//! `crates/serve` fails CI's `ferrotcam analyze --deny`.

use ferrotcam_analysis::registry::Registry;
use ferrotcam_analysis::{analyze_sources, Report, Rule};

const REGISTRY: &str = "\
[orderings]
seq-acquire = pairs with the release store publishing the slot
stat-relaxed = independent counters, racy snapshot by contract

[hot]
hot.rs::submit

[blocking]
sleep
recv
join
";

/// A clean two-file baseline exercising every pass: a façade-style
/// sync module boundary, tagged ordering sites, ordered locks, and a
/// hot function with a waived expect and a hoisted buffer.
const SYNC_RS: &str = "\
pub(crate) use std::sync::atomic::{AtomicU64, Ordering};
pub(crate) use std::sync::Mutex;
";

const HOT_RS: &str = "\
use crate::sync::{AtomicU64, Mutex, Ordering};
use std::sync::Arc;

struct S {
    alpha: Mutex<u64>,
    beta: Mutex<u64>,
    count: AtomicU64,
}

impl S {
    fn submit(&self, xs: &[u64], out: &mut Vec<u64>) {
        self.count.fetch_add(1, Ordering::Relaxed); // ordering: stat-relaxed
        // ordering: seq-acquire
        let seen = self.count.load(Ordering::Acquire);
        for x in xs {
            out.push(x + seen);
        }
        // hot-ok: the channel end lives for the whole service.
        self.tail().expect(\"tail\");
    }

    fn ordered(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        drop((a, b));
    }

    fn ordered_again(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        drop((a, b));
    }

    fn tail(&self) -> Option<u64> {
        None
    }
}
";

fn registry() -> Registry {
    Registry::parse(REGISTRY).unwrap()
}

fn analyze(hot_rs: &str, reg: &Registry) -> Report {
    analyze_sources(
        &[
            ("crates/x/src/sync.rs", SYNC_RS),
            ("crates/x/src/hot.rs", hot_rs),
        ],
        reg,
        "analysis.registry",
    )
}

/// The single rule the mutant must trip, and no other.
fn assert_only(report: &Report, rule: Rule) {
    assert!(
        report.has_rule(rule),
        "expected {} in: {}",
        rule.id(),
        report.render_human()
    );
    for d in report.diagnostics() {
        assert_eq!(d.rule, rule, "unexpected extra finding: {d}");
    }
}

#[test]
fn baseline_is_clean() {
    let r = analyze(HOT_RS, &registry());
    assert!(
        r.is_clean(),
        "baseline must be clean:\n{}",
        r.render_human()
    );
}

#[test]
fn mutation_facade_bypass_import() {
    // Class 1: a std::sync primitive imported outside the façade.
    let mutant = HOT_RS.replace(
        "use std::sync::Arc;",
        "use std::sync::Arc;\nuse std::sync::RwLock;",
    );
    assert_only(&analyze(&mutant, &registry()), Rule::FacadeBypass);
}

#[test]
fn mutation_facade_bypass_loom_path() {
    // Class 1b: reaching the loom shim directly instead of crate::sync.
    let mutant = HOT_RS.replace(
        "use std::sync::Arc;",
        "use std::sync::Arc;\n#[cfg(loom)]\nuse loom::sync::Mutex as M2;",
    );
    assert_only(&analyze(&mutant, &registry()), Rule::FacadeBypass);
}

#[test]
fn mutation_unregistered_ordering_site() {
    // Class 2: a new ordering site lands without any tag.
    let mutant = HOT_RS.replace(
        "fn tail(&self) -> Option<u64> {",
        "fn peek(&self) -> u64 {\n        self.count.load(Ordering::Relaxed)\n    }\n\n    fn tail(&self) -> Option<u64> {",
    );
    assert_only(&analyze(&mutant, &registry()), Rule::UnregisteredOrdering);
}

#[test]
fn mutation_stale_ordering_tag() {
    // Class 3: a site is retagged without registering the tag.
    let mutant = HOT_RS.replace("// ordering: stat-relaxed", "// ordering: made-up-tag");
    let r = analyze(&mutant, &registry());
    // The registry's now-unused tag also drifts: both sides of the
    // contract fire, which is exactly the point of a bidirectional
    // registry. Stale must be among them.
    assert!(r.has_rule(Rule::StaleOrderingTag), "{}", r.render_human());
    assert!(
        r.diagnostics()
            .iter()
            .all(|d| matches!(d.rule, Rule::StaleOrderingTag | Rule::RegistryDrift)),
        "{}",
        r.render_human()
    );
}

#[test]
fn mutation_registry_drift_dead_tag() {
    // Class 4: the last site of a registered tag is deleted.
    let mutant = HOT_RS.replace(
        "self.count.fetch_add(1, Ordering::Relaxed); // ordering: stat-relaxed",
        "",
    );
    assert_only(&analyze(&mutant, &registry()), Rule::RegistryDrift);
}

#[test]
fn mutation_registry_drift_dangling_hot_fn() {
    // Class 4b: the hot function is renamed, the registry is not.
    let mutant = HOT_RS.replace("fn submit(", "fn submit_fast(");
    assert_only(&analyze(&mutant, &registry()), Rule::RegistryDrift);
}

#[test]
fn mutation_lock_inversion() {
    // Class 5: one code path takes beta before alpha.
    let mutant = HOT_RS.replace(
        "fn ordered_again(&self) {\n        let a = self.alpha.lock();\n        let b = self.beta.lock();",
        "fn ordered_again(&self) {\n        let b = self.beta.lock();\n        let a = self.alpha.lock();",
    );
    assert_ne!(mutant, HOT_RS, "replacement must apply");
    assert_only(&analyze(&mutant, &registry()), Rule::LockOrderCycle);
}

#[test]
fn mutation_lock_inversion_through_helper() {
    // Class 5b: the inversion hides one call deep.
    let mutant = HOT_RS.replace(
        "fn ordered_again(&self) {\n        let a = self.alpha.lock();\n        let b = self.beta.lock();\n        drop((a, b));\n    }",
        "fn ordered_again(&self) {\n        let b = self.beta.lock();\n        self.grab_alpha();\n        drop(b);\n    }\n\n    fn grab_alpha(&self) {\n        let a = self.alpha.lock();\n        drop(a);\n    }",
    );
    assert_ne!(mutant, HOT_RS, "replacement must apply");
    assert_only(&analyze(&mutant, &registry()), Rule::LockOrderCycle);
}

#[test]
fn mutation_lock_across_blocking() {
    // Class 6: a guard held over a blocking call.
    let mutant = HOT_RS.replace(
        "fn ordered(&self) {\n        let a = self.alpha.lock();",
        "fn ordered(&self) {\n        let a = self.alpha.lock();\n        std::thread::sleep(core::time::Duration::from_millis(1));",
    );
    assert_ne!(mutant, HOT_RS, "replacement must apply");
    assert_only(&analyze(&mutant, &registry()), Rule::LockAcrossBlocking);
}

#[test]
fn mutation_hot_path_unwrap() {
    // Class 7: the waiver comment is dropped from the hot expect.
    let mutant = HOT_RS.replace(
        "// hot-ok: the channel end lives for the whole service.\n        ",
        "",
    );
    assert_ne!(mutant, HOT_RS, "replacement must apply");
    assert_only(&analyze(&mutant, &registry()), Rule::HotPathUnwrap);
}

#[test]
fn mutation_hot_path_alloc() {
    // Class 8: a per-iteration allocation creeps into the hot loop.
    let mutant = HOT_RS.replace(
        "out.push(x + seen);",
        "let tmp: Vec<u64> = xs.iter().map(|v| v + seen).collect();\n            out.push(tmp[0] + x);",
    );
    assert_ne!(mutant, HOT_RS, "replacement must apply");
    assert_only(&analyze(&mutant, &registry()), Rule::HotPathAlloc);
}

#[test]
fn workspace_self_clean_gate() {
    // The real serve tree must stay clean under its own registry —
    // this is what CI's `ferrotcam analyze --deny` enforces.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let report = ferrotcam_analysis::analyze_workspace(&root).expect("workspace analyzes");
    assert!(
        report.is_clean(),
        "crates/serve must analyze clean:\n{}",
        report.render_human()
    );
}
