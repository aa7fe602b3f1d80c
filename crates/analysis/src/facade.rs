//! Sync-façade enforcement (`facade-bypass`).
//!
//! Every atomic, lock, or loom primitive used by ferrotcam-serve must
//! flow through `src/sync.rs`, the one file that selects between
//! `std::sync` and the loom shim and wraps `Mutex` in the lock-order
//! shadow. A direct `std::sync` primitive anywhere else would compile
//! and pass tests on std, then silently escape both loom model
//! checking and the runtime lock-order tracker — exactly the kind of
//! hole that only shows up as a production deadlock. This pass denies
//! it at lint time.
//!
//! Ownership types that carry no synchronisation protocol of their
//! own (`Arc`, `Weak`, the poison/lock result types) stay allowed:
//! routing them through the façade would add noise without adding
//! checking. A channel (`mpsc`) is a protocol, a blocking hand-off
//! loom cannot see, so it is denied like a lock: serve code hands
//! values over through façade-built types (`reply.rs`'s one-shot slot).

use crate::lexer::{self, Stripped};
use crate::{Diagnostic, Rule};

/// `std::sync` heads that may be used directly.
const ALLOWED: &[&str] = &["Arc", "Weak", "PoisonError", "TryLockError", "LockResult"];

/// Whether this file is the façade itself (the only file allowed to
/// name `std::sync` primitives and `loom`).
fn is_facade(path: &str) -> bool {
    path.ends_with("sync.rs")
}

/// Run the pass over `(path, stripped)` pairs.
pub fn check(files: &[(String, Stripped)], out: &mut Vec<Diagnostic>) {
    for (path, s) in files {
        if is_facade(path) {
            continue;
        }
        check_std_sync(path, s, out);
        check_loom(path, s, out);
    }
}

/// Flag `std::sync::<denied-head>` paths, including inside `use`
/// groups (`use std::sync::{Arc, Mutex}` flags `Mutex` only).
fn check_std_sync(path: &str, s: &Stripped, out: &mut Vec<Diagnostic>) {
    const NEEDLE: &str = "std::sync::";
    let code = &s.code;
    let b = code.as_bytes();
    let mut from = 0;
    while let Some(rel) = code[from..].find(NEEDLE) {
        let at = from + rel;
        from = at + NEEDLE.len();
        // Require a path boundary on the left so `xstd::sync` or
        // `my::std::sync` aliases do not match.
        if at > 0 && (lexer::is_ident_byte(b[at - 1]) || b[at - 1] == b':') {
            continue;
        }
        let after = at + NEEDLE.len();
        match lexer::next_nonspace(code, after, code.len()) {
            Some((open, b'{')) => {
                let Some(close) = match_group(code, open) else {
                    continue;
                };
                for (item_at, head) in group_heads(code, open + 1, close) {
                    if !ALLOWED.contains(&head) {
                        deny_head(path, s, item_at, head, out);
                    }
                }
            }
            Some((i, c)) if lexer::is_ident_byte(c) => {
                let head_end = code[i..]
                    .bytes()
                    .position(|c| !lexer::is_ident_byte(c))
                    .map_or(code.len(), |off| i + off);
                let head = &code[i..head_end];
                if !ALLOWED.contains(&head) {
                    deny_head(path, s, at, head, out);
                }
            }
            _ => {}
        }
    }
}

/// Flag any `loom` path outside the façade: even under `cfg(loom)`,
/// model-checked code must reach the shim through `crate::sync`.
fn check_loom(path: &str, s: &Stripped, out: &mut Vec<Diagnostic>) {
    for (at, ident) in lexer::idents(&s.code, 0..s.code.len()) {
        if ident != "loom" {
            continue;
        }
        // `loom` as a path head only: `loom::…` or `use loom`. A bare
        // `cfg(loom)` / `not(loom)` attribute or cfg test is fine.
        let after = at + ident.len();
        let next = lexer::next_nonspace(&s.code, after, s.code.len());
        if matches!(next, Some((_, b':'))) {
            out.push(Diagnostic::new(
                Rule::FacadeBypass,
                path,
                s.line_of(at),
                "`loom::` path outside the sync façade; model-checked \
                 code must use `crate::sync` so std builds stay in lockstep"
                    .to_string(),
            ));
        }
    }
}

fn deny_head(path: &str, s: &Stripped, at: usize, head: &str, out: &mut Vec<Diagnostic>) {
    out.push(Diagnostic::new(
        Rule::FacadeBypass,
        path,
        s.line_of(at),
        format!(
            "direct `std::sync::{head}` outside the sync façade; import it \
             from `crate::sync` so loom model checking and the lock-order \
             shadow see it"
        ),
    ));
}

/// Matching `}` for a `use`-group `{` (groups never nest braces more
/// than one level in practice, but handle nesting anyway).
fn match_group(code: &str, open: usize) -> Option<usize> {
    lexer::match_brace(code, open)
}

/// First path segment of each top-level item in a use group, as
/// `(offset, head)`.
fn group_heads(code: &str, start: usize, end: usize) -> Vec<(usize, &str)> {
    let b = code.as_bytes();
    let mut heads = Vec::new();
    let mut depth = 0usize;
    let mut item_start = start;
    let mut items = Vec::new();
    for (i, &c) in b.iter().enumerate().take(end).skip(start) {
        match c {
            b'{' => depth += 1,
            b'}' => depth = depth.saturating_sub(1),
            b',' if depth == 0 => {
                items.push(item_start..i);
                item_start = i + 1;
            }
            _ => {}
        }
    }
    items.push(item_start..end);
    for r in items {
        if let Some(&(at, head)) = lexer::idents(code, r).first() {
            // `self` re-imports the parent module itself — that is
            // `std::sync`, which is never a primitive.
            if head != "self" {
                heads.push((at, head));
            }
        }
    }
    heads
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::strip;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check(&[(path.to_string(), strip(src))], &mut out);
        out
    }

    #[test]
    fn denies_primitives_and_channels_allows_arc() {
        let d = run("a.rs", "use std::sync::{Arc, Mutex};\n");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("Mutex"));
        let d = run("a.rs", "use std::sync::{mpsc, Arc};\n");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("mpsc"));
        let d = run("a.rs", "let (tx, rx) = std::sync::mpsc::channel();\n");
        assert_eq!(d.len(), 1);
        assert!(run("a.rs", "use std::sync::{Arc, Weak};\n").is_empty());
    }

    #[test]
    fn denies_qualified_paths_and_atomics() {
        let d = run("a.rs", "let x = std::sync::atomic::AtomicU64::new(0);\n");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("atomic"));
    }

    #[test]
    fn facade_file_is_exempt() {
        assert!(run(
            "src/sync.rs",
            "use std::sync::Mutex;\nuse loom::sync::Mutex;\n"
        )
        .is_empty());
    }

    #[test]
    fn loom_paths_denied_but_cfg_loom_allowed() {
        let d = run("a.rs", "#[cfg(loom)]\nuse loom::sync::Mutex;\n");
        assert_eq!(d.len(), 1, "cfg(loom) fine, loom:: path denied");
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn comments_and_strings_do_not_trip() {
        assert!(run(
            "a.rs",
            "// std::sync::Mutex in prose\nlet s = \"std::sync::Mutex\";\n"
        )
        .is_empty());
    }
}
