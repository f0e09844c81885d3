//! The invariant rules `basker-lint` enforces over the workspace.
//!
//! Each rule works on the lexer's code/comment split (see
//! [`crate::lexer`]) so string literals and comments can't produce
//! false positives. The rules are deliberately *syntactic* — they
//! check that the discipline is followed and documented, not that the
//! documentation is true; the model checker (`basker_model`) carries
//! the semantic half for the sync core.
//!
//! | rule        | invariant                                                        |
//! |-------------|------------------------------------------------------------------|
//! | `safety`    | every `unsafe` site carries a `SAFETY:` / `# Safety` justification |
//! | `order`     | every `::Relaxed` / `::SeqCst` use carries an `ORDER:` justification |
//! | `spawn`     | raw `thread::spawn` only in the runtime, serve, and model layers |
//! | `deny-alloc`| no allocating calls in modules marked `basker-lint: deny-alloc`  |
//! | `no-unwrap` | no `unwrap()` / `expect(` on serve's wire-facing request paths   |

use crate::lexer::{scan, Line};

/// One rule violation, formatted `path:line: [rule] message` by the
/// binary.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (`safety`, `order`, `spawn`, `deny-alloc`, `no-unwrap`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Parsed `lint.allow` entries: `rule path-prefix` pairs that suppress
/// a rule for matching files.
#[derive(Debug, Default, Clone)]
pub struct Allowlist {
    entries: Vec<(String, String)>,
}

impl Allowlist {
    /// Parses the allowlist format: one `rule path-prefix` pair per
    /// line, `#` comments and blank lines ignored.
    pub fn parse(text: &str) -> Allowlist {
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some((rule, path)) = line.split_once(char::is_whitespace) {
                entries.push((rule.trim().to_string(), path.trim().to_string()));
            }
        }
        Allowlist { entries }
    }

    /// True when `rule` is suppressed for `path` (prefix match, so a
    /// directory entry covers everything under it).
    pub fn allows(&self, rule: &str, path: &str) -> bool {
        self.entries
            .iter()
            .any(|(r, p)| r == rule && path.starts_with(p.as_str()))
    }
}

/// Runs every rule over one file; `rel_path` uses `/` separators
/// relative to the workspace root.
pub fn check_file(rel_path: &str, src: &str, allow: &Allowlist) -> Vec<Diagnostic> {
    let lines = scan(src);
    let test_mask = test_mask(&lines);
    let mut out = Vec::new();
    if !allow.allows("safety", rel_path) {
        rule_safety(rel_path, &lines, &mut out);
    }
    if !allow.allows("order", rel_path) {
        rule_order(rel_path, &lines, &test_mask, &mut out);
    }
    if !allow.allows("spawn", rel_path) {
        rule_spawn(rel_path, &lines, &test_mask, &mut out);
    }
    if !allow.allows("deny-alloc", rel_path) {
        rule_deny_alloc(rel_path, &lines, &test_mask, &mut out);
    }
    if !allow.allows("no-unwrap", rel_path) {
        rule_no_unwrap(rel_path, &lines, &test_mask, &mut out);
    }
    out
}

// ---- shared matching helpers ----

/// True when `pat` occurs in `code` with no identifier character
/// immediately before or after the match.
fn has_token(code: &str, pat: &str) -> bool {
    find_token(code, pat).is_some()
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Byte offset of the first identifier-boundary occurrence of `pat`.
fn find_token(code: &str, pat: &str) -> Option<usize> {
    let cb = code.as_bytes();
    let first = *pat.as_bytes().first()?;
    let last = *pat.as_bytes().last()?;
    let mut from = 0;
    while let Some(rel) = code[from..].find(pat) {
        let at = from + rel;
        let pre_ok = !is_ident(first) || at == 0 || !is_ident(cb[at - 1]);
        let end = at + pat.len();
        let post_ok = !is_ident(last) || end >= cb.len() || !is_ident(cb[end]);
        if pre_ok && post_ok {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// Marks lines inside `#[cfg(test)]`-style items and `#[test]` fns:
/// the ordering/alloc/unwrap rules are about production paths, and the
/// spawn rule about production confinement — tests get free rein.
fn test_mask(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let code = lines[i].code.trim_start();
        let is_test_attr = code.starts_with("#[cfg(test)]")
            || code.starts_with("#[cfg(all(test")
            || code.starts_with("#[cfg(any(test")
            || code.starts_with("#[test]")
            || code.starts_with("#[bench]");
        if !is_test_attr {
            i += 1;
            continue;
        }
        // Mask from the attribute through the close of the next brace
        // block (the `mod tests { ... }` or `fn case() { ... }` body).
        let start = i;
        let mut depth = 0i32;
        let mut opened = false;
        let mut j = i;
        while j < lines.len() {
            for b in lines[j].code.bytes() {
                match b {
                    b'{' => {
                        depth += 1;
                        opened = true;
                    }
                    b'}' => depth -= 1,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            // An item ended without a body (e.g. a gated `use`): stop
            // at the first `;` before any brace opens.
            if !opened && lines[j].code.contains(';') {
                break;
            }
            j += 1;
        }
        let end = j.min(lines.len() - 1);
        for m in mask.iter_mut().take(end + 1).skip(start) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// True when any comment in the *justification window* of line `i`
/// contains `needle`. The window is the line itself plus the
/// contiguous run of lines above it (no fully-blank line in between),
/// clamped to `span` lines — this lets one `// ORDER: Relaxed ×3 — …`
/// comment cover the small cluster of loads right under it, which is
/// the workspace's documented style.
fn justified(lines: &[Line], i: usize, needle: &str, span: usize) -> bool {
    let mut k = i;
    let mut used = 0;
    loop {
        let l = &lines[k];
        if l.comment.contains(needle) {
            return true;
        }
        if k == 0 || used >= span {
            return false;
        }
        let above = &lines[k - 1];
        if above.is_code_blank() && !above.has_comment {
            // Blank line: the cluster (and its justification) ends.
            return false;
        }
        k -= 1;
        used += 1;
    }
}

// ---- rule: safety ----

fn rule_safety(path: &str, lines: &[Line], out: &mut Vec<Diagnostic>) {
    for (i, l) in lines.iter().enumerate() {
        if !has_token(&l.code, "unsafe") {
            continue;
        }
        // `unsafe` in a type position (`unsafe fn` pointer types in
        // struct fields / type aliases) still warrants the comment —
        // no exemption.
        if justified(lines, i, "SAFETY:", 20) || justified(lines, i, "# Safety", 40) {
            continue;
        }
        out.push(Diagnostic {
            path: path.to_string(),
            line: l.number,
            rule: "safety",
            message: "`unsafe` without an immediately preceding `// SAFETY:` \
                      (or `# Safety` doc section) justifying the contract"
                .to_string(),
        });
    }
}

// ---- rule: order ----

fn rule_order(path: &str, lines: &[Line], mask: &[bool], out: &mut Vec<Diagnostic>) {
    for (i, l) in lines.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let which = if has_token(&l.code, "::Relaxed") {
            "Relaxed"
        } else if has_token(&l.code, "::SeqCst") {
            "SeqCst"
        } else {
            continue;
        };
        if justified(lines, i, "ORDER:", 12) {
            continue;
        }
        out.push(Diagnostic {
            path: path.to_string(),
            line: l.number,
            rule: "order",
            message: format!(
                "`Ordering::{which}` without an `// ORDER:` comment justifying \
                 why this ordering suffices (or is required)"
            ),
        });
    }
}

// ---- rule: spawn ----

/// Path prefixes allowed to spawn OS threads directly (`thread::spawn`,
/// `thread::Builder`, `thread::scope`): the scheduler substrate, the
/// serving tier's process plumbing, and the model checker's own
/// engine. Everything else goes through the runtime's team APIs.
const SPAWN_ALLOWED: &[&str] = &["crates/runtime/", "crates/serve/", "shims/model/"];

fn rule_spawn(path: &str, lines: &[Line], mask: &[bool], out: &mut Vec<Diagnostic>) {
    if SPAWN_ALLOWED.iter().any(|p| path.starts_with(p)) {
        return;
    }
    for (i, l) in lines.iter().enumerate() {
        if mask[i] {
            continue;
        }
        if ["thread::spawn", "thread::Builder", "thread::scope"]
            .iter()
            .any(|pat| has_token(&l.code, pat))
        {
            out.push(Diagnostic {
                path: path.to_string(),
                line: l.number,
                rule: "spawn",
                message: "raw thread spawn outside crates/runtime, crates/serve, \
                          shims/model — use the runtime's team APIs so the \
                          scheduler substrate owns all parallelism"
                    .to_string(),
            });
        }
    }
}

// ---- rule: deny-alloc ----

/// The pragma text (matched in comments).
const DENY_ALLOC_PRAGMA: &str = "basker-lint: deny-alloc";

/// Allocating calls banned inside deny-alloc regions.
const ALLOC_PATTERNS: &[&str] = &[
    "Vec::new",
    "Vec::with_capacity",
    "vec!",
    "Box::new",
    ".to_vec()",
    ".collect()",
    ".collect::",
    "String::new",
    ".to_string()",
    "format!",
];

fn rule_deny_alloc(path: &str, lines: &[Line], mask: &[bool], out: &mut Vec<Diagnostic>) {
    // Determine the deny region(s): a pragma in the file's inner doc
    // block (`//! basker-lint: deny-alloc`) covers the whole file; a
    // plain-comment pragma immediately above an item covers that
    // item's brace-matched body.
    let mut deny = vec![false; lines.len()];
    for (i, l) in lines.iter().enumerate() {
        // The pragma must lead the comment (`// basker-lint:
        // deny-alloc`) — prose merely *mentioning* it doesn't arm the
        // rule.
        if !l.comment.trim_start().starts_with(DENY_ALLOC_PRAGMA) {
            continue;
        }
        if l.inner_doc {
            for d in deny.iter_mut() {
                *d = true;
            }
            break;
        }
        // Item-scoped: mask from the pragma through the close of the
        // next brace block.
        let mut depth = 0i32;
        let mut opened = false;
        let mut j = i;
        while j < lines.len() {
            for b in lines[j].code.bytes() {
                match b {
                    b'{' => {
                        depth += 1;
                        opened = true;
                    }
                    b'}' => depth -= 1,
                    _ => {}
                }
            }
            deny[j] = true;
            if opened && depth <= 0 {
                break;
            }
            j += 1;
        }
    }
    for (i, l) in lines.iter().enumerate() {
        if !deny[i] || mask[i] {
            continue;
        }
        for pat in ALLOC_PATTERNS {
            if has_token(&l.code, pat) {
                out.push(Diagnostic {
                    path: path.to_string(),
                    line: l.number,
                    rule: "deny-alloc",
                    message: format!(
                        "allocating call `{pat}` inside a `{DENY_ALLOC_PRAGMA}` \
                         region — hot kernels must work in caller-provided buffers"
                    ),
                });
                break;
            }
        }
    }
}

// ---- rule: no-unwrap ----

/// Serve-tier files that sit on the wire-facing request path: a
/// malformed or hostile peer must produce a protocol error, not a
/// worker panic.
const WIRE_FILES: &[&str] = &[
    "crates/serve/src/wire.rs",
    "crates/serve/src/proto.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/client.rs",
    "crates/serve/src/router.rs",
];

fn rule_no_unwrap(path: &str, lines: &[Line], mask: &[bool], out: &mut Vec<Diagnostic>) {
    if !WIRE_FILES.contains(&path) {
        return;
    }
    for (i, l) in lines.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let what = if has_token(&l.code, ".unwrap()") {
            ".unwrap()"
        } else if has_token(&l.code, ".expect(") {
            ".expect("
        } else {
            continue;
        };
        out.push(Diagnostic {
            path: path.to_string(),
            line: l.number,
            rule: "no-unwrap",
            message: format!(
                "`{what}` on a wire-facing request path — convert to a protocol \
                 error instead of panicking the worker"
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        check_file(path, src, &Allowlist::default())
    }

    fn rules_of(d: &[Diagnostic]) -> Vec<&'static str> {
        d.iter().map(|x| x.rule).collect()
    }

    // ---- safety ----

    #[test]
    fn undocumented_unsafe_flagged() {
        let d = run(
            "crates/x/src/lib.rs",
            "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
        );
        assert_eq!(rules_of(&d), ["safety"]);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn safety_comment_accepted() {
        let d = run(
            "crates/x/src/lib.rs",
            "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller contract.\n    unsafe { *p }\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn safety_doc_section_accepted_for_unsafe_fn() {
        let d = run(
            "crates/x/src/lib.rs",
            "/// Does things.\n///\n/// # Safety\n///\n/// `p` must be valid.\npub unsafe fn f(p: *const u8) {}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unsafe_in_string_ignored() {
        let d = run("crates/x/src/lib.rs", "let s = \"unsafe { }\";\n");
        assert!(d.is_empty(), "{d:?}");
    }

    // ---- order ----

    #[test]
    fn unjustified_relaxed_flagged() {
        let d = run(
            "crates/x/src/lib.rs",
            "fn f(a: &AtomicUsize) -> usize {\n    a.load(Ordering::Relaxed)\n}\n",
        );
        assert_eq!(rules_of(&d), ["order"]);
    }

    #[test]
    fn order_comment_covers_cluster() {
        let d = run(
            "crates/x/src/lib.rs",
            "fn f(a: &AtomicUsize) -> (usize, usize) {\n    \
             // ORDER: Relaxed ×2 — diagnostics only.\n    \
             let x = a.load(Ordering::Relaxed);\n    \
             let y = a.load(Ordering::Relaxed);\n    (x, y)\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn blank_line_breaks_order_cluster() {
        let d = run(
            "crates/x/src/lib.rs",
            "// ORDER: for the first one only.\nlet x = a.load(Ordering::Relaxed);\n\n\
             let y = a.load(Ordering::SeqCst);\n",
        );
        assert_eq!(rules_of(&d), ["order"]);
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn order_in_tests_exempt() {
        let d = run(
            "crates/x/src/lib.rs",
            "#[cfg(test)]\nmod tests {\n    fn f(a: &AtomicUsize) -> usize {\n        \
             a.load(Ordering::Relaxed)\n    }\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn acquire_release_never_flagged() {
        let d = run(
            "crates/x/src/lib.rs",
            "a.store(1, Ordering::Release);\nlet v = a.load(Ordering::Acquire);\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    // ---- spawn ----

    #[test]
    fn spawn_outside_runtime_flagged() {
        let d = run(
            "crates/core/src/lib.rs",
            "fn f() {\n    std::thread::spawn(|| {});\n}\n",
        );
        assert_eq!(rules_of(&d), ["spawn"]);
    }

    #[test]
    fn scoped_spawn_outside_runtime_flagged() {
        let d = run(
            "crates/core/src/lib.rs",
            "fn f() {\n    std::thread::scope(|s| {\n        s.spawn(|| {});\n    });\n}\n",
        );
        assert_eq!(rules_of(&d), ["spawn"]);
    }

    #[test]
    fn spawn_inside_runtime_allowed() {
        let d = run(
            "crates/runtime/src/pool.rs",
            "fn f() {\n    std::thread::spawn(|| {});\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn spawn_in_test_code_exempt() {
        let d = run(
            "crates/core/src/lib.rs",
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
             std::thread::spawn(|| {}).join().unwrap();\n    }\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    // ---- deny-alloc ----

    #[test]
    fn file_header_pragma_covers_whole_file() {
        let d = run(
            "crates/kernels/src/gemm.rs",
            "//! Kernels.\n//!\n//! basker-lint: deny-alloc\n\nfn f() -> Vec<u8> {\n    \
             Vec::new()\n}\n",
        );
        assert_eq!(rules_of(&d), ["deny-alloc"]);
        assert_eq!(d[0].line, 6);
    }

    #[test]
    fn item_pragma_covers_only_that_body() {
        let d = run(
            "crates/kernels/src/gemm.rs",
            "// basker-lint: deny-alloc\nfn hot(buf: &mut [f64]) {\n    buf[0] = 0.0;\n}\n\n\
             fn cold() -> Vec<u8> {\n    Vec::new()\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn item_pragma_flags_alloc_in_body() {
        let d = run(
            "crates/kernels/src/gemm.rs",
            "// basker-lint: deny-alloc\nfn hot(n: usize) -> Vec<f64> {\n    \
             vec![0.0; n]\n}\n",
        );
        assert_eq!(rules_of(&d), ["deny-alloc"]);
    }

    #[test]
    fn no_pragma_no_deny() {
        let d = run(
            "crates/kernels/src/gemm.rs",
            "fn cold() -> Vec<u8> {\n    Vec::new()\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    // ---- no-unwrap ----

    #[test]
    fn unwrap_on_wire_path_flagged() {
        let d = run(
            "crates/serve/src/wire.rs",
            "fn f(b: &[u8]) -> u32 {\n    u32::from_le_bytes(b.try_into().unwrap())\n}\n",
        );
        assert_eq!(rules_of(&d), ["no-unwrap"]);
    }

    #[test]
    fn expect_on_router_flagged() {
        // The router reads the stream id out of client payload bytes.
        let d = run(
            "crates/serve/src/router.rs",
            "fn f(m: &HashMap<u64, u32>, id: u64) -> u32 {\n    *m.get(&id).expect(\"routed\")\n}\n",
        );
        assert_eq!(rules_of(&d), ["no-unwrap"]);
    }

    #[test]
    fn unwrap_elsewhere_in_serve_fine() {
        let d = run(
            "crates/serve/src/shard.rs",
            "fn f(m: &Mutex<u32>) -> u32 {\n    *m.lock().unwrap()\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unwrap_in_wire_tests_exempt() {
        let d = run(
            "crates/serve/src/wire.rs",
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
             Some(1).unwrap();\n    }\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    // ---- allowlist ----

    #[test]
    fn allowlist_suppresses_by_prefix() {
        let allow = Allowlist::parse(
            "# comment\n\norder crates/serve/src/bin/\nsafety crates/x/src/lib.rs\n",
        );
        let d = check_file(
            "crates/serve/src/bin/shardd.rs",
            "let x = a.load(Ordering::Relaxed);\n",
            &allow,
        );
        assert!(d.is_empty(), "{d:?}");
        let d = check_file("crates/x/src/lib.rs", "unsafe { *p };\n", &allow);
        assert!(d.is_empty(), "{d:?}");
        // Different rule, same path: not suppressed.
        let d = check_file("crates/x/src/lib.rs", "a.load(Ordering::SeqCst);\n", &allow);
        assert_eq!(rules_of(&d), ["order"]);
    }
}
