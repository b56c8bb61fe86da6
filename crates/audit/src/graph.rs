//! Cross-crate symbol table and call graph.
//!
//! Built from the [`crate::parse`] fn items of every scanned file, minus
//! test collateral (test paths, `#[cfg(test)]` regions) and `vendor/`
//! (vendored dependency subsets are audited by their upstreams and would
//! only add resolution noise). Calls resolve by callee *name* with a
//! proximity tier order — same file, then same crate, then workspace —
//! taking every candidate at the winning tier (an over-approximation:
//! better a spurious edge than a silently missing one). Noise dampers
//! temper that where the receiver type is unknown: a method call whose
//! name collides with a ubiquitous `std`/prelude method
//! ([`STD_METHODS`]) never resolves at all — a workspace `fn lock` or
//! `fn collect` would otherwise absorb every `guard.lock()` /
//! `iter.collect()` in the tree — `drop(x)` is always `std::mem::drop`
//! (never a workspace `Drop` impl), a method call never resolves back to
//! the fn it appears in (the `fn name { self.inner().name() }`
//! delegation shape), a remaining *method* call resolves at the
//! workspace tier only when the name is workspace-unique, and a
//! `path::name(…)` call only to candidates whose file path contains the
//! qualifying segment. Free-function calls keep full resolution:
//! `lock()` inside `faults.rs` still resolves to the same-file helper.
//!
//! What the graph cannot see — calls through closures and function
//! values (`rayon::scope` bodies, stored `Box<dyn Fn>` plans) — the
//! analyses document as may-miss and fence with their own invariants.

use std::collections::{BTreeSet, HashMap, VecDeque};

use crate::discover::Scope;
use crate::lex::SourceFile;
use crate::parse::{self, Call, FnItem};

/// Method names so common in `std`/the prelude that a `x.name()` call is
/// overwhelmingly a standard-library call, never a workspace one — any
/// workspace fn sharing the name would soak up false edges from every
/// file. Kept sorted for binary search.
const STD_METHODS: &[&str] = &[
    "abs", "all", "any", "as_bytes", "as_mut", "as_mut_ptr", "as_ptr", "as_ref", "as_slice",
    "as_str", "borrow", "borrow_mut", "chain", "chars", "clear", "clone", "cloned", "cmp",
    "collect", "contains", "contains_key", "copied", "count", "dedup", "drain", "ends_with",
    "entry", "enumerate", "eq", "extend", "fill", "filter", "filter_map", "find", "first",
    "flat_map", "flatten", "fmt", "fold", "for_each", "get", "get_mut", "get_or_init", "hash",
    "insert", "into_inner", "into_iter", "is_empty", "is_none", "is_some", "iter", "iter_mut",
    "join", "last", "len", "load", "lock", "map", "map_err", "max", "min", "next", "notify_all",
    "notify_one", "parse", "pop", "position", "push", "push_str", "read", "recv", "remove",
    "replace", "resize", "retain", "rev", "send", "skip", "sort", "sort_by", "sort_by_key",
    "spawn", "split", "split_at", "split_at_mut", "starts_with", "store", "sum", "swap", "take",
    "take_while", "to_owned", "to_string", "to_vec", "trim", "try_into", "try_lock", "unwrap",
    "unwrap_or", "unwrap_or_default", "unwrap_or_else", "wait", "wait_timeout", "windows",
    "write", "zip",
];

/// One non-test function with a body.
#[derive(Debug)]
pub struct Node {
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// Function name.
    pub name: String,
    /// Enclosing `impl` type, when a method.
    pub owner: Option<String>,
    /// 0-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 0-based inclusive body line range.
    pub body: (usize, usize),
    /// Call expressions in the body.
    pub calls: Vec<Call>,
    /// Resolved targets per call (parallel to `calls`; empty = external
    /// or unresolved).
    pub targets: Vec<Vec<usize>>,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    pub nodes: Vec<Node>,
    by_name: HashMap<String, Vec<usize>>,
}

impl Graph {
    /// Build and resolve the graph from parsed files. Files under
    /// `vendor/` or test paths, bodyless declarations, and fns in
    /// `#[cfg(test)]` regions are excluded.
    pub fn build(files: Vec<(String, Vec<FnItem>)>) -> Graph {
        let mut g = Graph::default();
        for (path, fns) in files {
            if path.starts_with("vendor/")
                || path.contains("/vendor/")
                || SourceFile::is_test_path(&path)
            {
                continue;
            }
            for f in fns {
                let Some(body) = f.body else { continue };
                if f.in_test {
                    continue;
                }
                let idx = g.nodes.len();
                g.by_name.entry(f.name.clone()).or_default().push(idx);
                g.nodes.push(Node {
                    path: path.clone(),
                    name: f.name,
                    owner: f.owner,
                    sig_line: f.sig_line,
                    body,
                    calls: f.calls,
                    targets: Vec::new(),
                });
            }
        }
        g.resolve();
        g
    }

    /// Convenience: parse and build from scanned sources.
    pub fn from_sources(files: &[SourceFile]) -> Graph {
        Graph::build(
            files
                .iter()
                .map(|f| (f.path.clone(), parse::functions(f)))
                .collect(),
        )
    }

    fn resolve(&mut self) {
        let mut all_targets = Vec::with_capacity(self.nodes.len());
        for (idx, node) in self.nodes.iter().enumerate() {
            let key = Scope::crate_key(&node.path);
            let targets = node
                .calls
                .iter()
                .map(|c| self.resolve_call(c, idx, &node.path, key))
                .collect::<Vec<_>>();
            all_targets.push(targets);
        }
        for (node, targets) in self.nodes.iter_mut().zip(all_targets) {
            node.targets = targets;
        }
    }

    fn resolve_call(&self, call: &Call, caller: usize, path: &str, crate_key: &str) -> Vec<usize> {
        if call.method && STD_METHODS.binary_search(&call.name.as_str()).is_ok() {
            return Vec::new();
        }
        // `drop(x)` is std::mem::drop; `Drop::drop` impls are graph nodes
        // named `drop` but are (almost) never called explicitly, so any
        // resolution here would be a false edge.
        if call.name == "drop" {
            return Vec::new();
        }
        let Some(all_cands) = self.by_name.get(&call.name) else {
            return Vec::new();
        };
        // Delegation damper: `fn name(…) { self.inner().name(…) }` is a
        // very common wrapper shape, and the inner method call must not
        // resolve back to the enclosing wrapper; direct *method*
        // recursion is rare enough to trade away.
        let cands: Vec<usize> = all_cands
            .iter()
            .copied()
            .filter(|&i| !(call.method && i == caller))
            .collect();
        let same_file: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| self.nodes[i].path == path)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let same_crate: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| Scope::crate_key(&self.nodes[i].path) == crate_key)
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        // Workspace tier: apply the noise dampers.
        if let Some(q) = &call.qual {
            return cands
                .iter()
                .copied()
                .filter(|&i| self.nodes[i].path.contains(q.as_str()))
                .collect();
        }
        if call.method && cands.len() > 1 {
            return Vec::new();
        }
        cands
    }

    /// Nodes whose defining file ends with `path_suffix` and whose name
    /// is `name`.
    pub fn find(&self, path_suffix: &str, name: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.name == name && n.path.ends_with(path_suffix))
            .map(|(i, _)| i)
            .collect()
    }

    /// Node containing `line` (0-based) of `path`, if any. Innermost by
    /// signature line when bodies nest (closures don't create nodes, so
    /// ties mean nested items; the later signature wins).
    pub fn enclosing(&self, path: &str, line: usize) -> Option<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                n.path == path && n.sig_line <= line && line <= n.body.1
            })
            .max_by_key(|(_, n)| n.sig_line)
            .map(|(i, _)| i)
    }

    /// BFS over call edges from `roots`, traversing only call sites the
    /// filter admits. `admit(node, call_index)` returning false skips
    /// that one edge (used to stop at quarantined `catch_unwind` sites).
    pub fn reachable_filtered(
        &self,
        roots: &[usize],
        mut admit: impl FnMut(usize, usize) -> bool,
    ) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = roots.iter().copied().collect();
        let mut queue: VecDeque<usize> = roots.iter().copied().collect();
        while let Some(n) = queue.pop_front() {
            for (ci, targets) in self.nodes[n].targets.iter().enumerate() {
                if !admit(n, ci) {
                    continue;
                }
                for &t in targets {
                    if seen.insert(t) {
                        queue.push_back(t);
                    }
                }
            }
        }
        seen
    }

    /// BFS over every call edge from `roots`.
    pub fn reachable(&self, roots: &[usize]) -> BTreeSet<usize> {
        self.reachable_filtered(roots, |_, _| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str)]) -> Graph {
        Graph::from_sources(
            &files
                .iter()
                .map(|(p, s)| SourceFile::parse(p, s))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn same_file_beats_same_crate_beats_workspace() {
        let g = graph(&[
            ("crates/a/src/x.rs", "fn helper() {}\nfn caller() {\n    helper();\n}\n"),
            ("crates/a/src/y.rs", "fn helper() {}\nfn other() {\n    helper();\n}\n"),
            ("crates/b/src/z.rs", "fn helper() {}\n"),
        ]);
        let caller = g.find("x.rs", "caller")[0];
        let x_helper = g.find("x.rs", "helper")[0];
        assert_eq!(g.nodes[caller].targets[0], vec![x_helper]);

        let other = g.find("y.rs", "other")[0];
        let y_helper = g.find("y.rs", "helper")[0];
        assert_eq!(g.nodes[other].targets[0], vec![y_helper]);
    }

    #[test]
    fn std_named_methods_never_resolve_but_free_calls_do() {
        assert!(STD_METHODS.windows(2).all(|w| w[0] < w[1]), "STD_METHODS must stay sorted");
        let g = graph(&[(
            "crates/a/src/x.rs",
            "fn lock() {}\nfn caller(m: &Mutex<u8>) {\n    let g = m.lock();\n    let h = lock();\n}\n",
        )]);
        let caller = g.find("x.rs", "caller")[0];
        let helper = g.find("x.rs", "lock")[0];
        // `m.lock()` is Mutex::lock, not the workspace helper…
        assert!(g.nodes[caller].targets[0].is_empty());
        // …but the free call `lock()` still resolves same-file.
        assert_eq!(g.nodes[caller].targets[1], vec![helper]);
    }

    #[test]
    fn workspace_method_calls_resolve_only_when_unique() {
        let g = graph(&[
            ("crates/a/src/x.rs", "impl A {\n    fn run(&self) {}\n}\n"),
            ("crates/b/src/y.rs", "impl B {\n    fn run(&self) {}\n}\n"),
            ("crates/c/src/z.rs", "fn go(h: &A) {\n    h.run();\n}\nfn solo(q: &Q) {\n    q.only_here();\n}\n"),
            ("crates/d/src/w.rs", "impl Q {\n    fn only_here(&self) {}\n}\n"),
        ]);
        let go = g.find("z.rs", "go")[0];
        assert!(g.nodes[go].targets[0].is_empty(), "ambiguous method stays unresolved");
        let solo = g.find("z.rs", "solo")[0];
        let only = g.find("w.rs", "only_here")[0];
        assert_eq!(g.nodes[solo].targets[0], vec![only]);
    }

    #[test]
    fn qualified_calls_filter_by_path_segment() {
        let g = graph(&[
            ("crates/core/src/engine/sched.rs", "pub fn run_tasks() {}\n"),
            ("crates/other/src/run.rs", "pub fn run_tasks() {}\n"),
            ("crates/x/src/m.rs", "fn go() {\n    sched::run_tasks();\n}\n"),
        ]);
        let go = g.find("m.rs", "go")[0];
        let sched = g.find("sched.rs", "run_tasks")[0];
        assert_eq!(g.nodes[go].targets[0], vec![sched]);
    }

    #[test]
    fn vendor_and_test_code_stay_out_of_the_graph() {
        let g = graph(&[
            ("vendor/dep/src/lib.rs", "pub fn vended() {}\n"),
            ("crates/a/tests/e2e.rs", "fn tested() {}\n"),
            (
                "crates/a/src/x.rs",
                "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn in_cfg_test() {}\n}\n",
            ),
        ]);
        assert_eq!(g.nodes.len(), 1);
        assert_eq!(g.nodes[0].name, "live");
    }

    #[test]
    fn reachability_walks_transitively_and_filters_edges() {
        let g = graph(&[(
            "crates/a/src/x.rs",
            "fn a() {\n    b();\n}\nfn b() {\n    c();\n}\nfn c() {}\nfn d() {}\n",
        )]);
        let a = g.find("x.rs", "a")[0];
        let c = g.find("x.rs", "c")[0];
        let d = g.find("x.rs", "d")[0];
        let all = g.reachable(&[a]);
        assert!(all.contains(&c));
        assert!(!all.contains(&d));
        // Cutting a→b's single call edge stops the walk at a.
        let cut = g.reachable_filtered(&[a], |n, _| n != a);
        assert_eq!(cut.len(), 1);
    }

    #[test]
    fn enclosing_maps_lines_to_their_fn() {
        let g = graph(&[(
            "crates/a/src/x.rs",
            "fn first() {\n    work();\n}\n\nfn second() {\n    more();\n}\n",
        )]);
        let first = g.find("x.rs", "first")[0];
        let second = g.find("x.rs", "second")[0];
        assert_eq!(g.enclosing("crates/a/src/x.rs", 1), Some(first));
        assert_eq!(g.enclosing("crates/a/src/x.rs", 5), Some(second));
        assert_eq!(g.enclosing("crates/a/src/x.rs", 3), None);
    }
}

#[cfg(test)]
mod trace_tool {
    //! Maintenance diagnostic, not a test: prints the call-graph path by
    //! which the hot execution path reaches lock-acquiring functions.
    //! Run it when a `lock-order` finding looks spurious to see which
    //! resolved edge carried the lock into the held window:
    //!
    //! ```text
    //! cargo test -p winrs-audit trace_tool -- --ignored --nocapture
    //! ```

    use super::*;
    use crate::discover;

    #[test]
    #[ignore = "diagnostic tool; run with --ignored --nocapture"]
    fn paths_from_the_execution_root_to_lock_helpers() {
        let root = discover::workspace_root();
        let files = crate::load_sources(&root);
        let g = Graph::from_sources(&files);
        let Some(&start) = g.find("core/src/fallback.rs", "run_planned_into").first() else {
            println!("root fn not found; update the trace tool");
            return;
        };
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut queue = VecDeque::from([start]);
        let mut seen = BTreeSet::from([start]);
        while let Some(n) = queue.pop_front() {
            for targets in &g.nodes[n].targets {
                for &t in targets {
                    if seen.insert(t) {
                        parent.insert(t, n);
                        queue.push_back(t);
                    }
                }
            }
        }
        for (path_sfx, name) in [
            ("core/src/pool.rs", "run"),
            ("core/src/pool.rs", "run_batch"),
            ("core/src/pool.rs", "lease_for"),
            ("serve/src/queue.rs", "lock_inner"),
            ("core/src/engine/sched.rs", "lock"),
            ("core/src/faults.rs", "lock"),
        ] {
            for idx in g.find(path_sfx, name) {
                if !seen.contains(&idx) {
                    continue;
                }
                let mut chain = vec![idx];
                while let Some(&p) = parent.get(chain.last().unwrap()) {
                    chain.push(p);
                }
                chain.reverse();
                let hops: Vec<String> = chain
                    .iter()
                    .map(|&i| format!("{}::{}", g.nodes[i].path, g.nodes[i].name))
                    .collect();
                println!("{}", hops.join(" -> "));
            }
        }
    }
}
