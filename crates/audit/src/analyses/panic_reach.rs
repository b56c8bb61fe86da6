//! Panic-reachability analysis: the execution surface must not leak
//! unwinds.
//!
//! `ExecHandle::run` / `ExecHandle::run_batch` promise callers a
//! `Result`, never a propagated panic: the kernel dispatch runs inside a
//! `catch_unwind` quarantine so a poisoned kernel degrades to an error
//! and the lease is released (DESIGN.md §7/§10). This pass enforces the
//! discipline structurally:
//!
//! 1. the *roots* are the `run`/`run_batch` methods of `ExecHandle` in
//!    `core/src/pool.rs`;
//! 2. `catch_unwind(` call lines open *quarantine extents* (to the end
//!    of their closure block);
//! 3. an **unguarded BFS** walks call edges from the roots, skipping
//!    call sites inside a quarantine extent — functions it visits can
//!    unwind all the way to the caller. Functions reachable *only*
//!    through quarantined sites are the quarantined tier;
//! 4. every panic-family site (`.unwrap()`, `.expect(`, `panic!(`, …)
//!    in an unguarded function and outside a quarantine extent must
//!    carry a `// winrs-audit: unwind-ok(<why>)` tag on or directly
//!    above its line; untagged sites are findings.
//!
//! Slice-indexing panics are deliberately *not* enumerated here: writes
//! through scratch regions are proven in-bounds by the workspace-bounds
//! analysis (`analyses::bounds`), which is a stronger guarantee than an
//! inventory row. Calls through closure values (the plan `Box<dyn Fn>`s
//! executed *inside* the quarantine, `sched::run_tasks` task bodies) are
//! invisible to the graph — the quarantine encloses exactly those, which
//! is why the extents are anchored at the `catch_unwind` call sites
//! themselves.
//!
//! The per-file tallies are written to `docs/panic_inventory.md` and
//! drift-checked, so a new panic site on the execution surface shows up
//! in review even when it is tagged.

use std::collections::BTreeMap;

use crate::graph::Graph;
use crate::lex::SourceFile;
use crate::lints::{find_token, push, Finding, PANIC_TOKENS};

/// Per-file panic-site tallies over the reachable surface.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct PanicRow {
    pub unguarded: usize,
    pub unwind_ok: usize,
    pub quarantined: usize,
}

/// Analysis output: findings plus the inventory tallies.
#[derive(Debug, Default)]
pub struct PanicReport {
    pub findings: Vec<Finding>,
    pub rows: BTreeMap<String, PanicRow>,
}

/// Quarantine extents (0-based inclusive line ranges) of one file: each
/// `catch_unwind(` call covers its own line and, when it opens a block,
/// every line until the block closes.
fn catch_extents(file: &SourceFile) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, l) in file.lines.iter().enumerate() {
        if l.in_test || !l.code.contains("catch_unwind(") {
            continue;
        }
        let d = l.depth_start;
        let mut end = i;
        if l.depth_end > d {
            end = file.lines.len() - 1;
            for (k, lk) in file.lines.iter().enumerate().skip(i + 1) {
                if lk.depth_end <= d {
                    end = k;
                    break;
                }
            }
        }
        out.push((i, end));
    }
    out
}

fn inside(extents: &[(usize, usize)], line: usize) -> bool {
    extents.iter().any(|&(s, e)| s <= line && line <= e)
}

/// Is the panic site on `line` excused by an `unwind-ok(<why>)` tag on
/// its own line or on the contiguous comment/attribute block above it?
fn has_unwind_ok(file: &SourceFile, line: usize) -> bool {
    const TAG: &str = "winrs-audit: unwind-ok(";
    if file.lines[line].comment.contains(TAG) {
        return true;
    }
    let mut k = line;
    while k > 0 {
        k -= 1;
        let l = &file.lines[k];
        let code = l.code.trim();
        if !code.is_empty() && !code.starts_with("#[") {
            return false;
        }
        if l.comment.contains(TAG) {
            return true;
        }
    }
    false
}

/// Locate the default roots: `ExecHandle::{run, run_batch}`.
pub fn default_roots(graph: &Graph) -> Vec<usize> {
    ["run", "run_batch"]
        .iter()
        .flat_map(|name| graph.find("core/src/pool.rs", name))
        .filter(|&i| graph.nodes[i].owner.as_deref() == Some("ExecHandle"))
        .collect()
}

/// Run the analysis from explicit roots (tests inject their own).
pub fn run_with_roots(files: &[SourceFile], graph: &Graph, roots: &[usize]) -> PanicReport {
    let mut report = PanicReport::default();
    let by_path: BTreeMap<&str, &SourceFile> =
        files.iter().map(|f| (f.path.as_str(), f)).collect();
    let extents: BTreeMap<&str, Vec<(usize, usize)>> = files
        .iter()
        .map(|f| (f.path.as_str(), catch_extents(f)))
        .collect();

    let unguarded = graph.reachable_filtered(roots, |n, ci| {
        let node = &graph.nodes[n];
        let line = node.calls[ci].line;
        !extents
            .get(node.path.as_str())
            .is_some_and(|e| inside(e, line))
    });
    let all = graph.reachable(roots);

    for &n in &all {
        let node = &graph.nodes[n];
        let Some(file) = by_path.get(node.path.as_str()) else {
            continue;
        };
        let ext = extents.get(node.path.as_str()).map_or(&[][..], |e| e);
        let row = report.rows.entry(node.path.clone()).or_default();
        for i in node.body.0..=node.body.1 {
            let l = &file.lines[i];
            if l.in_test {
                continue;
            }
            for tok in PANIC_TOKENS {
                let mut hay = l.code.as_str();
                let mut base = 0;
                while let Some(col) = find_token(hay, tok) {
                    let at = base + col;
                    if !unguarded.contains(&n) || inside(ext, i) {
                        row.quarantined += 1;
                    } else if has_unwind_ok(file, i) {
                        row.unwind_ok += 1;
                    } else {
                        row.unguarded += 1;
                        push(
                            &mut report.findings,
                            file,
                            i,
                            at,
                            "panic-reach",
                            format!(
                                "`{tok}` is reachable from ExecHandle::run/run_batch outside the catch_unwind quarantine — move it inside the quarantine, return an error, or tag it `// winrs-audit: unwind-ok(<why>)`",
                            ),
                        );
                    }
                    base = at + tok.len();
                    hay = &l.code[base..];
                }
            }
        }
    }
    report.rows.retain(|_, r| r.unguarded + r.unwind_ok + r.quarantined > 0);
    report
}

/// Run from the real roots; a missing root is itself a finding (the
/// analysis must fail loudly if the exec surface is renamed from under
/// it, not silently verify nothing).
pub fn run(files: &[SourceFile], graph: &Graph) -> PanicReport {
    let roots = default_roots(graph);
    if roots.is_empty() {
        return PanicReport {
            findings: vec![Finding {
                path: "crates/core/src/pool.rs".to_string(),
                line: 1,
                col: 1,
                lint: "panic-reach",
                msg: "ExecHandle::run/run_batch not found — panic-reachability roots are gone; update analyses/panic_reach.rs".to_string(),
            }],
            rows: BTreeMap::new(),
        };
    }
    run_with_roots(files, graph, &roots)
}

/// Render the inventory document (written by `--update-inventory`).
pub fn render_inventory(report: &PanicReport) -> String {
    let mut out = String::from(
        "# Panic inventory — ExecHandle execution surface\n\
         \n\
         Generated by `cargo xtask audit --update-inventory`; drift-checked in CI.\n\
         Counts are panic-family sites (`.unwrap()`, `.expect(`, `panic!(`, …) in\n\
         functions reachable from `ExecHandle::run`/`run_batch`:\n\
         \n\
         * **unguarded** — outside the `catch_unwind` quarantine with no\n\
         `winrs-audit: unwind-ok` tag (always 0 in a clean tree: each is a finding);\n\
         * **unwind-ok** — outside the quarantine, individually justified;\n\
         * **quarantined** — inside the quarantine or only reachable through it.\n\
         \n\
         Slice-indexing panics are not listed: scratch writes are proven in-bounds\n\
         by the workspace-bounds analysis instead (DESIGN.md §10).\n\
         \n\
         | file | unguarded | unwind-ok | quarantined |\n\
         |---|---|---|---|\n",
    );
    for (path, row) in &report.rows {
        out.push_str(&format!(
            "| `{path}` | {} | {} | {} |\n",
            row.unguarded, row.unwind_ok, row.quarantined
        ));
    }
    out
}

/// Parse an inventory document back into rows (for the drift check).
pub fn parse_inventory(text: &str) -> BTreeMap<String, PanicRow> {
    let mut rows = BTreeMap::new();
    for line in text.lines() {
        let t = line.trim();
        if !t.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = t.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() != 4 {
            continue;
        }
        let (Ok(ung), Ok(ok), Ok(q)) = (
            cells[1].parse::<usize>(),
            cells[2].parse::<usize>(),
            cells[3].parse::<usize>(),
        ) else {
            continue;
        };
        rows.insert(
            cells[0].trim_matches('`').to_string(),
            PanicRow {
                unguarded: ung,
                unwind_ok: ok,
                quarantined: q,
            },
        );
    }
    rows
}

/// Inventory path, workspace-relative.
pub const INVENTORY_PATH: &str = "docs/panic_inventory.md";

/// Drift check: the committed inventory must match the recomputed rows.
pub fn check_inventory(report: &PanicReport, committed: Option<&str>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let drift = |msg: String| Finding {
        path: INVENTORY_PATH.to_string(),
        line: 1,
        col: 1,
        lint: "panic-inventory",
        msg,
    };
    let Some(text) = committed else {
        findings.push(drift(
            "docs/panic_inventory.md is missing — run `cargo xtask audit --update-inventory`".to_string(),
        ));
        return findings;
    };
    let committed_rows = parse_inventory(text);
    for (path, row) in &report.rows {
        match committed_rows.get(path) {
            None => findings.push(drift(format!(
                "`{path}` has panic sites on the exec surface but no inventory row — run --update-inventory"
            ))),
            Some(c) if c != row => findings.push(drift(format!(
                "`{path}` inventory row is stale (committed {}/{}/{}, actual {}/{}/{}) — run --update-inventory",
                c.unguarded, c.unwind_ok, c.quarantined, row.unguarded, row.unwind_ok, row.quarantined
            ))),
            Some(_) => {}
        }
    }
    for path in committed_rows.keys() {
        if !report.rows.contains_key(path) {
            findings.push(drift(format!(
                "`{path}` is listed in the panic inventory but no longer has reachable panic sites — run --update-inventory"
            )));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyse(src: &str) -> (PanicReport, Vec<SourceFile>) {
        let file = SourceFile::parse("crates/x/src/a.rs", src);
        let files = vec![file];
        let graph = Graph::from_sources(&files);
        let roots = graph.find("a.rs", "entry");
        let report = run_with_roots(&files, &graph, &roots);
        (report, files)
    }

    #[test]
    fn planted_unguarded_unwrap_is_reported() {
        let (r, _) = analyse(
            "pub fn entry() {\n    helper();\n}\nfn helper(x: Option<u8>) {\n    let v = x.unwrap();\n}\n",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        let f = &r.findings[0];
        assert_eq!(f.lint, "panic-reach");
        assert_eq!((f.path.as_str(), f.line, f.col), ("crates/x/src/a.rs", 5, 14));
        let row = &r.rows["crates/x/src/a.rs"];
        assert_eq!((row.unguarded, row.unwind_ok, row.quarantined), (1, 0, 0));
    }

    #[test]
    fn unwind_ok_tag_excuses_a_site() {
        let (r, _) = analyse(
            "pub fn entry(x: Option<u8>) {\n    // invariant: caller checked — winrs-audit: unwind-ok(checked above)\n    let v = x.unwrap();\n}\n",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.rows["crates/x/src/a.rs"].unwind_ok, 1);
    }

    #[test]
    fn quarantine_extents_absorb_callees() {
        let (r, _) = analyse(
            "pub fn entry() {\n    let r = std::panic::catch_unwind(|| {\n        kernel();\n    });\n}\nfn kernel() {\n    panic!(\"poisoned\");\n}\n",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.rows["crates/x/src/a.rs"].quarantined, 1);
    }

    #[test]
    fn a_fn_reached_both_ways_stays_unguarded() {
        let (r, _) = analyse(
            "pub fn entry() {\n    let r = std::panic::catch_unwind(|| {\n        kernel();\n    });\n    kernel();\n}\nfn kernel() {\n    panic!(\"boom\");\n}\n",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].line, 8);
    }

    #[test]
    fn unreachable_panics_are_not_this_passes_business() {
        let (r, _) = analyse(
            "pub fn entry() {}\nfn island(x: Option<u8>) {\n    x.unwrap();\n}\n",
        );
        assert!(r.findings.is_empty());
        assert!(r.rows.is_empty());
    }

    #[test]
    fn inventory_round_trips_and_detects_drift() {
        let (r, _) = analyse(
            "pub fn entry(x: Option<u8>) {\n    // winrs-audit: unwind-ok(why)\n    x.unwrap();\n}\n",
        );
        let doc = render_inventory(&r);
        assert!(check_inventory(&r, Some(&doc)).is_empty());
        let parsed = parse_inventory(&doc);
        assert_eq!(parsed["crates/x/src/a.rs"].unwind_ok, 1);

        // Stale counts, a missing file, and a vanished file all drift.
        let stale = doc.replace("| 0 | 1 | 0 |", "| 0 | 2 | 0 |");
        assert_eq!(check_inventory(&r, Some(&stale)).len(), 1);
        assert_eq!(check_inventory(&r, None).len(), 1);
        let empty = PanicReport::default();
        assert_eq!(check_inventory(&empty, Some(&doc)).len(), 1);
    }

    #[test]
    fn missing_roots_fail_loudly() {
        let file = SourceFile::parse("crates/x/src/a.rs", "fn unrelated() {}\n");
        let files = vec![file];
        let graph = Graph::from_sources(&files);
        let r = run(&files, &graph);
        assert_eq!(r.findings.len(), 1);
        assert!(r.findings[0].msg.contains("roots are gone"));
    }
}
