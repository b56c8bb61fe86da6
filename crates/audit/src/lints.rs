//! The six workspace-invariant lints.
//!
//! Each lint is a pure function from scanned sources to [`Finding`]s, so
//! the unit tests can plant violations in string fixtures without touching
//! the filesystem. What they enforce (and why no off-the-shelf clippy lint
//! covers it):
//!
//! * **no-alloc** — modules that opt in with `#![doc = "audit: no-alloc"]`
//!   (the engine block loop, the gemm micro-kernels) must not contain any
//!   allocating construct outside `#[cfg(test)]`. This closes the loop
//!   with the counting-allocator test in `tests/workspace.rs`: the test
//!   proves a *run* allocated nothing, the lint proves the *source* cannot.
//! * **unsafe-registry** — every `unsafe` site needs an adjacent
//!   `// SAFETY:` comment (or a `# Safety` doc section) *and* its file
//!   must appear in `docs/unsafe_inventory.md` with the exact site count,
//!   so new unsafe code always shows up as inventory drift in review.
//! * **atomic-ordering** — every `Ordering::{Relaxed,Acquire,Release,
//!   AcqRel,SeqCst}` use needs an adjacent `// ORDERING:` justification,
//!   and `SeqCst` is denied outright unless whitelisted here: the repo's
//!   atomics are all counters/flags where `SeqCst` is pure fence overhead.
//! * **bit-identity** — `mul_add`/fused-multiply-add tokens are denied in
//!   the micro-kernel and engine paths unless the site carries a
//!   `// winrs-audit: allow(bit-identity)` saying why. DESIGN §9's
//!   contract is one arithmetic form per kernel at every width: the EWMM
//!   fuses at every width, every other kernel rounds its multiply and add
//!   apart, and one fused op on a kernel's one width would skip a rounding
//!   its other widths take and change ∇W bits with the dispatch width.
//! * **error-hygiene** — `unwrap`/`expect`/`panic!` family calls are
//!   denied in library crates outside test regions (precise, test-aware
//!   version of the clippy `unwrap_used` config, extended to `expect` and
//!   the panic macros).
//! * **lock-poison** — a bare `.lock().unwrap()`/`.lock().expect(` is
//!   denied in library code outside test regions: one panicked lock
//!   holder would cascade a poisoning panic into every later caller,
//!   which is exactly the failure the leasing `WorkspacePool` exists to
//!   contain. Recover deliberately (`unwrap_or_else(|p| p.into_inner())`
//!   when the protected state cannot be torn, discard-and-rebuild when it
//!   can — see `winrs-core::pool`). Deliberately *not* suppressed by an
//!   `allow(error-hygiene)` directive: the two lints answer different
//!   questions.

use crate::discover::Scope;
use crate::lex::SourceFile;

/// One diagnostic, printed as `path:line:col: [lint] message` (clickable
/// `file:line:col` form).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    pub lint: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.lint, self.msg
        )
    }
}

/// `SeqCst` sites that are deliberately sequentially consistent. Entries
/// are `(path suffix, code substring)`; empty today — the dispatch-cache
/// loads in `winrs-gemm::micro` were downgraded to `Relaxed` when this
/// auditor landed.
const SEQCST_ALLOW: &[(&str, &str)] = &[];

/// Allocating constructs denied in `audit: no-alloc` modules.
const ALLOC_TOKENS: &[&str] = &[
    "vec!",
    "Vec::new",
    "Vec::with_capacity",
    "Box::new",
    ".to_vec(",
    ".collect(",
    ".collect::<",
    "String::new",
    "String::from",
    "format!",
    ".to_owned(",
    ".to_string(",
];

/// Fused-multiply-add spellings denied on the bit-identity paths.
const FMA_TOKENS: &[&str] = &["mul_add", "fmadd", "fmaf", "vfma", "vfms"];

/// Panic-family constructs denied in library code.
pub const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// Bare lock-poisoning unwraps denied in library code (see the module
/// docs' **lock-poison** entry).
const LOCK_POISON_TOKENS: &[&str] = &[".lock().unwrap()", ".lock().expect("];

/// The atomic `Ordering` variants (the `std::cmp::Ordering` variants —
/// `Less`/`Equal`/`Greater` — never match).
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Paths (suffix match) under the scalar/SIMD bit-identity contract.
/// `micro` is a directory now: the prefix covers `mod.rs` plus every
/// per-width body (`avx2.rs`, `avx512.rs`).
const BIT_IDENTITY_SCOPES: &[&str] = &["crates/gemm/src/micro", "crates/core/src/engine/"];

/// Fallback library/binary split for callers without a discovered
/// [`Scope`] (string-fixture tests). The real audit derives this from the
/// workspace `Cargo.toml`s via [`Scope::discover`]; this list only backs
/// the path heuristic.
const BIN_CRATES: &[&str] = &["crates/cli/", "crates/bench/", "crates/audit/"];

pub fn push(findings: &mut Vec<Finding>, file: &SourceFile, i: usize, col: usize, lint: &'static str, msg: String) {
    if !file.is_allowed(i, lint) {
        findings.push(Finding {
            path: file.path.clone(),
            line: i + 1,
            col: col + 1,
            lint,
            msg,
        });
    }
}

/// Byte offset of `needle` in `hay` respecting a crude word boundary on
/// both sides for alphanumeric-edged needles.
pub fn find_token(hay: &str, needle: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = hay[from..].find(needle) {
        let at = from + rel;
        let pre_ok = needle.starts_with(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            || !hay[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        let post_ok = needle.ends_with(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            || !hay[at + needle.len()..]
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        if pre_ok && post_ok {
            return Some(at);
        }
        from = at + needle.len();
    }
    None
}

/// **no-alloc**: forbid allocating constructs in opted-in modules.
pub fn no_alloc(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    if !file.has_doc_marker("no-alloc") {
        return out;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for tok in ALLOC_TOKENS {
            if let Some(col) = find_token(&line.code, tok) {
                push(
                    &mut out,
                    file,
                    i,
                    col,
                    "no-alloc",
                    format!("`{tok}` in a `#![doc = \"audit: no-alloc\"]` module — hot-loop buffers must come from the workspace arena"),
                );
            }
        }
    }
    out
}

/// A line that may sit between an `unsafe` site and its SAFETY comment:
/// blank, attribute, or a sibling `unsafe impl` line (one comment may
/// cover a contiguous Send+Sync pair).
fn skippable_above_unsafe(code: &str) -> bool {
    let t = code.trim();
    t.is_empty() || t.starts_with("#[") || t.starts_with("#![") || code.contains("unsafe impl")
}

/// Does the site at line `i` have a SAFETY justification: same-line
/// comment, or a comment in the contiguous comment/attribute block above?
fn has_safety_comment(file: &SourceFile, i: usize) -> bool {
    let hit = |c: &str| c.contains("SAFETY:") || c.contains("# Safety");
    if hit(&file.lines[i].comment) {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let l = &file.lines[j];
        if hit(&l.comment) {
            return true;
        }
        if !skippable_above_unsafe(&l.code) {
            return false;
        }
    }
    false
}

/// Count `unsafe` keyword sites in the code view of a file.
pub fn count_unsafe_sites(file: &SourceFile) -> usize {
    file.lines
        .iter()
        .map(|l| {
            let mut n = 0;
            let mut hay: &str = &l.code;
            while let Some(at) = find_token(hay, "unsafe") {
                n += 1;
                hay = &hay[at + "unsafe".len()..];
            }
            n
        })
        .sum()
}

/// **unsafe-registry** (comment half): every `unsafe` site carries a
/// SAFETY justification. The inventory half lives in
/// [`crate::inventory::check`].
pub fn unsafe_registry(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if find_token(&line.code, "unsafe").is_none() {
            continue;
        }
        let col = find_token(&line.code, "unsafe").unwrap_or(0);
        if !has_safety_comment(file, i) {
            push(
                &mut out,
                file,
                i,
                col,
                "unsafe-registry",
                "`unsafe` without an adjacent `// SAFETY:` comment (or `# Safety` doc section)".to_string(),
            );
        }
    }
    out
}

/// Atomic `Ordering::<variant>` columns on a code line.
fn ordering_sites(code: &str) -> Vec<(usize, &'static str)> {
    let mut sites = Vec::new();
    let mut from = 0;
    while let Some(rel) = code[from..].find("Ordering::") {
        let at = from + rel;
        let tail = &code[at + "Ordering::".len()..];
        for v in ATOMIC_ORDERINGS {
            if let Some(rest) = tail.strip_prefix(v) {
                let after = rest.chars().next();
                if !after.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
                    sites.push((at, *v));
                }
                break;
            }
        }
        from = at + "Ordering::".len();
    }
    sites
}

/// Does the `Ordering` use at line `i` carry a justification? Accepted
/// forms: a same-line `// ORDERING:` comment, or an `// ORDERING:` comment
/// immediately above the contiguous group of ordering-bearing lines the
/// site belongs to (one comment may cover a block of consecutive atomic
/// statements, e.g. a counter `reset`).
fn has_ordering_comment(file: &SourceFile, i: usize) -> bool {
    let hit = |c: &str| c.contains("ORDERING:");
    if hit(&file.lines[i].comment) {
        return true;
    }
    // Walk to the top of the contiguous group of ordering-bearing lines.
    let mut j = i;
    while j > 0 && !ordering_sites(&file.lines[j - 1].code).is_empty() {
        j -= 1;
        if hit(&file.lines[j].comment) {
            return true;
        }
    }
    // Then a contiguous block of comment-only/attribute lines above it.
    while j > 0 {
        j -= 1;
        let l = &file.lines[j];
        if hit(&l.comment) {
            return true;
        }
        if !l.code.trim().is_empty() && !l.code.trim().starts_with("#[") {
            return false;
        }
    }
    false
}

/// **atomic-ordering**: justify every ordering; deny `SeqCst` unless
/// whitelisted.
pub fn atomic_ordering(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (col, variant) in ordering_sites(&line.code) {
            if *variant == *"SeqCst" {
                let allowed = SEQCST_ALLOW.iter().any(|(suffix, snippet)| {
                    file.path.ends_with(suffix) && line.code.contains(snippet)
                });
                if !allowed {
                    push(
                        &mut out,
                        file,
                        i,
                        col,
                        "atomic-ordering",
                        "`Ordering::SeqCst` is denied (not in the whitelist): the repo's atomics are counters/flags where SeqCst is pure fence overhead — use `Relaxed`/`Acquire`/`Release` and justify it".to_string(),
                    );
                }
            }
            if !has_ordering_comment(file, i) {
                push(
                    &mut out,
                    file,
                    i,
                    col,
                    "atomic-ordering",
                    format!("`Ordering::{variant}` without an adjacent `// ORDERING:` justification"),
                );
            }
        }
    }
    out
}

/// **bit-identity**: no fused multiply-add on the scalar/SIMD-identical
/// paths except at annotated sites — a kernel fuses at every width or at
/// none.
pub fn bit_identity(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    if !BIT_IDENTITY_SCOPES.iter().any(|s| {
        file.path.ends_with(s) || file.path.contains(s)
    }) {
        return out;
    }
    for (i, line) in file.lines.iter().enumerate() {
        for tok in FMA_TOKENS {
            // Plain substring match (no word boundary): the intrinsic
            // spellings embed the token (`_mm256_fmadd_ps`, `vfmadd231ps`).
            if let Some(col) = line.code.find(tok) {
                push(
                    &mut out,
                    file,
                    i,
                    col,
                    "bit-identity",
                    format!("`{tok}` on a bit-identity path — each kernel keeps one arithmetic form at every width; a fused multiply-add one width takes alone skips a rounding the others take and changes ∇W bits with the dispatch width (annotate only a kernel every width fuses, DESIGN §9.3)"),
                );
            }
        }
    }
    out
}

/// Is `path` library code for the caller-facing hygiene lints — a lib
/// crate's `src/` tree, excluding binaries? Heuristic fallback; the
/// discovered [`Scope`] (from the workspace manifests) takes precedence.
fn in_library_code(path: &str) -> bool {
    let p = path.replace('\\', "/");
    (p.contains("crates/") && p.contains("/src/") || p.starts_with("src/")
        || p.contains("vendor/") && p.contains("/src/"))
        && !BIN_CRATES.iter().any(|b| p.contains(b))
        && !p.contains("/bin/")
}

fn is_library(file: &SourceFile, scope: Option<&Scope>) -> bool {
    match scope {
        Some(s) => s.in_library_code(&file.path),
        None => in_library_code(&file.path),
    }
}

/// **error-hygiene**: no panic-family calls in library code outside tests.
pub fn error_hygiene(file: &SourceFile, scope: Option<&Scope>) -> Vec<Finding> {
    let mut out = Vec::new();
    if !is_library(file, scope) {
        return out;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for tok in PANIC_TOKENS {
            if let Some(col) = find_token(&line.code, tok) {
                push(
                    &mut out,
                    file,
                    i,
                    col,
                    "error-hygiene",
                    format!("`{tok}` in library code — surface a typed `WinrsError` instead (fail-safe execution contract, DESIGN §7)"),
                );
            }
        }
    }
    out
}

/// **lock-poison**: no bare lock-poisoning unwraps in library code
/// outside tests (shared state must survive a panicked holder; recover or
/// rebuild, never cascade — DESIGN §11).
pub fn lock_poison(file: &SourceFile, scope: Option<&Scope>) -> Vec<Finding> {
    let mut out = Vec::new();
    if !is_library(file, scope) {
        return out;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for tok in LOCK_POISON_TOKENS {
            if let Some(col) = find_token(&line.code, tok) {
                push(
                    &mut out,
                    file,
                    i,
                    col,
                    "lock-poison",
                    format!("`{tok}` cascades a holder's panic into every later caller — recover the guard (`unwrap_or_else(|p| p.into_inner())`) or discard-and-rebuild the state (see winrs-core::pool)"),
                );
            }
        }
    }
    out
}

/// Run every per-file lint. `scope` (when discovered from the workspace
/// manifests) decides the library/binary split; `None` falls back to the
/// path heuristic so fixture tests need no manifests.
pub fn run_all(file: &SourceFile, scope: Option<&Scope>) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(no_alloc(file));
    out.extend(unsafe_registry(file));
    out.extend(atomic_ordering(file));
    out.extend(bit_identity(file));
    out.extend(error_hygiene(file, scope));
    out.extend(lock_poison(file, scope));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::SourceFile;

    fn parse(path: &str, src: &str) -> SourceFile {
        SourceFile::parse(path, src)
    }

    // ---- planted violations, one per lint (the acceptance contract) ----

    #[test]
    fn planted_no_alloc_violation_is_caught() {
        let f = parse(
            "crates/x/src/hot.rs",
            "#![doc = \"audit: no-alloc\"]\nfn hot() { let v = vec![0.0f32; 8]; }\n",
        );
        let got = no_alloc(&f);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!((got[0].line, got[0].lint), (2, "no-alloc"));
        // Unannotated modules are not in scope.
        let free = parse("crates/x/src/cold.rs", "fn cold() { let v = vec![1]; }\n");
        assert!(no_alloc(&free).is_empty());
    }

    #[test]
    fn planted_unsafe_without_safety_comment_is_caught() {
        let f = parse(
            "crates/x/src/a.rs",
            "fn f() {\n    let p = unsafe { core::ptr::read(q) };\n}\n",
        );
        let got = unsafe_registry(&f);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].line, 2);
    }

    #[test]
    fn planted_unjustified_ordering_is_caught() {
        let f = parse(
            "crates/x/src/a.rs",
            "fn f(a: &AtomicU64) {\n    a.store(0, Ordering::Relaxed);\n}\n",
        );
        let got = atomic_ordering(&f);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].msg.contains("ORDERING"));
    }

    #[test]
    fn planted_seqcst_is_denied_even_with_justification() {
        let f = parse(
            "crates/x/src/a.rs",
            "// ORDERING: justified but still SeqCst\nlet v = a.load(Ordering::SeqCst);\n",
        );
        let got = atomic_ordering(&f);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].msg.contains("SeqCst"));
    }

    #[test]
    fn planted_fma_on_bit_identity_path_is_caught() {
        let f = parse(
            "crates/gemm/src/micro.rs",
            "fn k(a: f32, b: f32, c: f32) -> f32 { a.mul_add(b, c) }\n",
        );
        let got = bit_identity(&f);
        assert_eq!(got.len(), 1, "{got:?}");
        // Off-path files are free to fuse.
        let off = parse(
            "crates/winograd/src/points.rs",
            "fn k(a: f64, b: f64, c: f64) -> f64 { a.mul_add(b, c) }\n",
        );
        assert!(bit_identity(&off).is_empty());
        // A kernel every width fuses carries the directive at each site.
        let fused = parse(
            "crates/gemm/src/micro/avx512.rs",
            "// winrs-audit: allow(bit-identity) — every width fuses this kernel
let v = _mm512_fmadd_ps(g, d, v);
let w = _mm512_fmadd_ps(g, d, w);
",
        );
        let got = bit_identity(&fused);
        assert_eq!(got.len(), 1, "only the unannotated site: {got:?}");
        assert_eq!(got[0].line, 3);
    }

    #[test]
    fn planted_unwrap_in_lib_code_is_caught() {
        let f = parse(
            "crates/x/src/a.rs",
            "pub fn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n",
        );
        let got = error_hygiene(&f, None);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].line, 2);
    }

    #[test]
    fn planted_bare_lock_unwrap_is_caught() {
        let f = parse(
            "crates/x/src/a.rs",
            "fn f(m: &Mutex<u32>) -> u32 {\n    *m.lock().unwrap()\n}\n",
        );
        let got = lock_poison(&f, None);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!((got[0].line, got[0].lint), (2, "lock-poison"));
        let g = parse(
            "crates/x/src/a.rs",
            "fn f(m: &Mutex<u32>) -> u32 {\n    *m.lock().expect(\"poisoned\")\n}\n",
        );
        assert_eq!(lock_poison(&g, None).len(), 1);
    }

    #[test]
    fn recovering_lock_forms_pass_lock_poison() {
        let f = parse(
            "crates/x/src/a.rs",
            "fn f(m: &Mutex<u32>) -> u32 {\n    *m.lock().unwrap_or_else(|p| p.into_inner())\n}\n",
        );
        assert!(lock_poison(&f, None).is_empty());
        // Test regions and binaries stay exempt.
        let t = parse(
            "crates/x/src/a.rs",
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let _ = M.lock().unwrap();\n    }\n}\n",
        );
        assert!(lock_poison(&t, None).is_empty());
        let b = parse("crates/cli/src/main.rs", "let g = M.lock().unwrap();\n");
        assert!(lock_poison(&b, None).is_empty());
    }

    #[test]
    fn error_hygiene_allow_does_not_silence_lock_poison() {
        let f = parse(
            "crates/x/src/a.rs",
            "// winrs-audit: allow(error-hygiene)\nlet g = m.lock().unwrap();\n",
        );
        assert_eq!(lock_poison(&f, None).len(), 1, "distinct lint, distinct directive");
        let allowed = parse(
            "crates/x/src/a.rs",
            "// winrs-audit: allow(lock-poison) — single-threaded setup path\nlet g = m.lock().unwrap();\n",
        );
        assert!(lock_poison(&allowed, None).is_empty());
    }

    // ---- justified code passes ----

    #[test]
    fn safety_comment_forms_are_accepted() {
        let same_line = parse(
            "crates/x/src/a.rs",
            "let p = unsafe { f() }; // SAFETY: f has no preconditions\n",
        );
        assert!(unsafe_registry(&same_line).is_empty());

        let above = parse(
            "crates/x/src/a.rs",
            "// SAFETY: index verified in-bounds above\nlet p = unsafe { g(i) };\n",
        );
        assert!(unsafe_registry(&above).is_empty());

        let doc_section = parse(
            "crates/x/src/a.rs",
            "/// Reads raw.\n///\n/// # Safety\n/// Caller must uphold X.\n#[inline]\npub unsafe fn h() {}\n",
        );
        assert!(unsafe_registry(&doc_section).is_empty());

        let impl_pair = parse(
            "crates/x/src/a.rs",
            "// SAFETY: disjoint rows, see type docs\nunsafe impl<T: Send> Send for W<T> {}\nunsafe impl<T: Send> Sync for W<T> {}\n",
        );
        assert!(unsafe_registry(&impl_pair).is_empty(), "one comment covers the pair");
    }

    #[test]
    fn ordering_comment_covers_contiguous_group() {
        let f = parse(
            "crates/x/src/a.rs",
            "// ORDERING: plain counters, no ordering dependencies\na.store(0, Ordering::Relaxed);\nb.store(0, Ordering::Relaxed);\nc.store(0, Ordering::Relaxed);\n\nd.store(0, Ordering::Relaxed);\n",
        );
        let got = atomic_ordering(&f);
        assert_eq!(got.len(), 1, "group covered, detached line is not: {got:?}");
        assert_eq!(got[0].line, 6);
    }

    #[test]
    fn cmp_ordering_is_not_an_atomic_site() {
        let f = parse(
            "crates/x/src/a.rs",
            "fn cmp() -> std::cmp::Ordering { Ordering::Equal }\n",
        );
        assert!(atomic_ordering(&f).is_empty());
    }

    #[test]
    fn test_regions_are_exempt_from_hygiene_and_ordering() {
        let f = parse(
            "crates/x/src/a.rs",
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        foo().unwrap();\n        a.load(Ordering::SeqCst);\n    }\n}\n",
        );
        assert!(error_hygiene(&f, None).is_empty());
        assert!(atomic_ordering(&f).is_empty());
    }

    #[test]
    fn binaries_are_exempt_from_error_hygiene() {
        let f = parse(
            "crates/cli/src/main.rs",
            "fn main() { run().unwrap(); }\n",
        );
        assert!(error_hygiene(&f, None).is_empty());
    }

    #[test]
    fn allow_directive_suppresses_a_finding() {
        let f = parse(
            "vendor/x/src/lib.rs",
            "// winrs-audit: allow(error-hygiene) — vendored subset keeps upstream's panics\npub fn f(o: Option<u32>) -> u32 { o.unwrap() }\n",
        );
        assert!(error_hygiene(&f, None).is_empty());
        let file_wide = parse(
            "vendor/x/src/lib.rs",
            "//! winrs-audit: allow-file(error-hygiene)\npub fn f(o: Option<u32>) -> u32 { o.unwrap() }\npub fn g(o: Option<u32>) -> u32 { o.unwrap() }\n",
        );
        assert!(error_hygiene(&file_wide, None).is_empty());
    }

    #[test]
    fn tokens_in_strings_and_comments_never_match() {
        let f = parse(
            "crates/x/src/hot.rs",
            "#![doc = \"audit: no-alloc\"]\n// vec! would be bad here\nlet msg = \"do not Box::new in hot loops\";\n",
        );
        assert!(no_alloc(&f).is_empty());
        let g = parse(
            "crates/gemm/src/micro.rs",
            "// never fmadd: it skips the intermediate rounding\nlet x = a * b + c;\n",
        );
        assert!(bit_identity(&g).is_empty());
    }

    #[test]
    fn unsafe_site_counting_matches_occurrences() {
        let f = parse(
            "crates/x/src/a.rs",
            "// SAFETY: a\nunsafe impl Send for X {}\n// SAFETY: b\npub unsafe fn f() { unsafe { g() } }\n",
        );
        assert_eq!(count_unsafe_sites(&f), 3);
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        let f = parse(
            "crates/x/src/a.rs",
            "let a = o.unwrap_or(0);\nlet b = o.unwrap_or_else(|| 1);\nlet c = o.unwrap_or_default();\nlet d = r.expect_err(\"nope\");\n",
        );
        assert!(error_hygiene(&f, None).is_empty());
    }
}
