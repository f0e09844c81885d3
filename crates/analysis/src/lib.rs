//! `basker-analysis` — the `basker-lint` invariant checker.
//!
//! The concurrency core of this workspace leans on conventions that
//! the compiler cannot enforce: every `unsafe` site documents its
//! contract, every weak atomic ordering documents why it suffices, raw
//! thread spawns stay inside the scheduler substrate, hot kernels
//! never allocate, and the serving tier never panics on hostile input.
//! `basker-lint` turns those conventions into CI-gated invariants.
//!
//! The checker is three small layers:
//!
//! * [`lexer`] — a line-oriented scanner that blanks string/comment
//!   interiors so rules match *code*, and collects comment text so
//!   rules can find justifications (`SAFETY:`, `ORDER:`, pragmas).
//! * [`rules`] — the five syntactic invariants (see module docs) and
//!   the [`rules::Allowlist`] escape hatch (`crates/analysis/lint.allow`).
//! * [`walk`] — which files the binary visits.
//!
//! The semantic complement — that the documented orderings actually
//! uphold the task latch protocol — is checked exhaustively by the
//! `basker_model` interleaving explorer; see the workspace README's
//! "Analysis layer" section.
//!
//! Run it as `cargo run -p basker-analysis --bin basker-lint`; exit
//! status 0 means the workspace is clean, non-zero comes with
//! `path:line: [rule] message` diagnostics on stdout.

pub mod lexer;
pub mod rules;
pub mod walk;

pub use rules::{check_file, Allowlist, Diagnostic};

#[cfg(test)]
mod workspace_self_test {
    use super::*;
    use std::path::Path;

    /// The lint must pass on its own workspace: this is the same
    /// invariant the CI step enforces, kept as a unit test so a plain
    /// `cargo test` catches violations before the lint job does.
    #[test]
    fn workspace_is_lint_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crates/analysis sits two levels under the root")
            .to_path_buf();
        let allow = match std::fs::read_to_string(root.join("crates/analysis/lint.allow")) {
            Ok(text) => Allowlist::parse(&text),
            Err(_) => Allowlist::default(),
        };
        let files = walk::workspace_files(&root).expect("workspace walk");
        assert!(
            files.iter().any(|f| f.ends_with("runtime/src/task.rs")),
            "walker must see the task core, got {} files",
            files.len()
        );
        let mut bad = Vec::new();
        for f in &files {
            let src = std::fs::read_to_string(root.join(f)).expect("read source");
            bad.extend(check_file(f, &src, &allow));
        }
        assert!(
            bad.is_empty(),
            "workspace has {} lint violation(s):\n{}",
            bad.len(),
            bad.iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
