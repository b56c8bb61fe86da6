//! Workspace-bounds dataflow: every write through a scratch region must
//! resolve to an offset provably inside that region's extent.
//!
//! Scope: files carrying `#![doc = "audit: bounds"]` (today the engine
//! hot path). For each function there, the pass tracks *buffer extents*
//! symbolically and discharges an obligation at every use:
//!
//! * `scratch.with_slot[_at](…, EXTENT, |buf| {` roots a tracked buffer
//!   of extent `EXTENT` (the pool hands the closure exactly that many
//!   elements);
//! * `let (a, b) = buf.split_at_mut(E);` checks `E ≤ extent(buf)` and
//!   tracks `a` at `E`, `b` at `extent(buf) − E`; slice aliases
//!   (`let o = &mut buf[..E];`) and stack arrays (`let w = [0.0; N];`)
//!   track similarly;
//! * `buf[..E]` / `buf[A..B]` / `buf[i]` obligate `E ≤ extent` /
//!   `B ≤ extent` / `i + 1 ≤ extent`;
//! * a tracked buffer passed *bare* to a call obligates the callee's
//!   declared contract: a `// BOUNDS(param): expr` comment above the
//!   callee gives the elements it may touch (in its own parameter
//!   names, substituted with the caller's arguments), and the special
//!   contract `len` promises the callee stays inside whatever slice
//!   length it receives. No contract → finding.
//!
//! A call to a *formula fn* — a non-test fn whose whole body is one
//! arithmetic expression over its parameters and upper-case constants —
//! resolves to that body with the caller's arguments substituted, so a
//! region size can be spelled once in a function and still bound the
//! region it sizes.
//!
//! Obligations are proven over polynomials in nonnegative symbolic
//! atoms. Facts come from `let x = A.min(B);` bindings (upper bounds on
//! `x`, including derived `x ≤ y` between two min-bindings), `for i in
//! A..B {` / `while i < E {` headers, `&&`-conjunct `x <= E` branch
//! guards (all lexically scoped by brace depth), and file-wide
//! `// BOUNDS: assume x >= c` lower bounds. The prover rewrites lower
//! bounds exactly, then searches a bounded substitution tree replacing a
//! variable of a negative monomial — or of every negative monomial that
//! holds it — with one of its upper bounds.
//!
//! Anything unresolvable — an extent or index the expression grammar
//! cannot parse, an unknown method on a tracked buffer — is a finding
//! unless the statement carries a `// BOUNDS: <why>` justification.
//! `let mut` scalars are never aliased (mutation would make the
//! substitution unsound); they stay opaque atoms.

use std::collections::{BTreeMap, BTreeSet};

use crate::lex::SourceFile;
use crate::lints::{push, Finding};
use crate::parse;

// ---------------------------------------------------------------------------
// Polynomials over nonnegative atoms
// ---------------------------------------------------------------------------

/// Monomial: atom name → power.
type Mono = BTreeMap<String, u32>;

/// Sparse polynomial with integer coefficients.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Poly(BTreeMap<Mono, i64>);

impl Poly {
    fn constant(c: i64) -> Poly {
        let mut p = Poly::default();
        if c != 0 {
            p.0.insert(Mono::new(), c);
        }
        p
    }

    fn atom(name: &str) -> Poly {
        let mut m = Mono::new();
        m.insert(name.to_string(), 1);
        Poly(BTreeMap::from([(m, 1)]))
    }

    fn add(&self, o: &Poly) -> Poly {
        let mut out = self.clone();
        for (m, c) in &o.0 {
            let e = out.0.entry(m.clone()).or_insert(0);
            *e += c;
            if *e == 0 {
                out.0.remove(m);
            }
        }
        out
    }

    fn scale(&self, k: i64) -> Poly {
        if k == 0 {
            return Poly::default();
        }
        Poly(self.0.iter().map(|(m, c)| (m.clone(), c * k)).collect())
    }

    fn sub(&self, o: &Poly) -> Poly {
        self.add(&o.scale(-1))
    }

    fn mul(&self, o: &Poly) -> Poly {
        let mut out = Poly::default();
        for (m1, c1) in &self.0 {
            for (m2, c2) in &o.0 {
                let mut m = m1.clone();
                for (a, p) in m2 {
                    *m.entry(a.clone()).or_insert(0) += p;
                }
                let e = out.0.entry(m).or_insert(0);
                *e += c1 * c2;
            }
        }
        out.0.retain(|_, c| *c != 0);
        out
    }

    /// Every monomial has a nonnegative coefficient — with all atoms
    /// nonnegative, the polynomial is provably ≥ 0.
    fn all_nonneg(&self) -> bool {
        self.0.values().all(|c| *c >= 0)
    }

    /// The polynomial is exactly one atom (power 1, coefficient 1).
    fn as_atom(&self) -> Option<&str> {
        if self.0.len() != 1 {
            return None;
        }
        let (m, c) = self.0.iter().next()?;
        if *c != 1 || m.len() != 1 {
            return None;
        }
        let (name, pow) = m.iter().next()?;
        (*pow == 1).then_some(name.as_str())
    }
}

/// Bounded substitution search: prove `d ≥ 0` given per-atom upper
/// bounds, by replacing one variable of a negative monomial with one of
/// its upper bounds (sound: atoms are nonnegative, so `m ≤ (m/v)·ub`
/// and the negative coefficient flips the inequality the right way).
///
/// The search deepens one step at a time, so a short proof is found
/// before any branch is explored to the full depth.
fn prove_nonneg(d: &Poly, ubs: &BTreeMap<String, Vec<Poly>>, depth: usize) -> bool {
    let mut failed = BTreeSet::new();
    (0..=depth).any(|limit| prove_memo(d, ubs, limit, &mut failed))
}

/// [`prove_nonneg`] to exactly `depth`, remembering the
/// `(polynomial, depth)` states that already failed: substitutions
/// commute, so the same state is reached along many orders.
fn prove_memo(
    d: &Poly,
    ubs: &BTreeMap<String, Vec<Poly>>,
    depth: usize,
    failed: &mut BTreeSet<(Poly, usize)>,
) -> bool {
    if d.all_nonneg() {
        return true;
    }
    if depth == 0 || failed.contains(&(d.clone(), depth)) {
        return false;
    }
    // Branch over every negative non-constant monomial (a negative
    // *constant* has nothing to substitute into — it must be absorbed by
    // substitutions performed on the variable monomials around it).
    let negs: Vec<(Mono, i64)> = d
        .0
        .iter()
        .filter(|(m, c)| **c < 0 && !m.is_empty())
        .map(|(m, c)| (m.clone(), *c))
        .collect();
    // `coeff·m` with one factor `var` replaced by `ub`.
    let step = |mono: &Mono, coeff: i64, var: &str, ub: &Poly| {
        let mut rest = mono.clone();
        if let Some(p) = rest.get_mut(var) {
            if *p == 1 {
                rest.remove(var);
            } else {
                *p -= 1;
            }
        }
        let old = Poly(BTreeMap::from([(mono.clone(), coeff)]));
        let new = Poly(BTreeMap::from([(rest, 1)])).mul(ub).scale(coeff);
        new.sub(&old)
    };
    // Whole-variable moves first: one bound substituted into every
    // negative monomial holding the variable at once (a sum of sound
    // single-monomial steps), so lowering one counter through several
    // monomials costs one level of the search, not one per monomial.
    let vars: BTreeSet<&String> = negs.iter().flat_map(|(m, _)| m.keys()).collect();
    for var in vars {
        let holders = negs.iter().filter(|(m, _)| m.contains_key(var)).count();
        let Some(bounds) = ubs.get(var).filter(|_| holders > 1) else {
            continue;
        };
        for ub in bounds {
            let d2 = negs
                .iter()
                .filter(|(m, _)| m.contains_key(var))
                .fold(d.clone(), |acc, (m, c)| acc.add(&step(m, *c, var, ub)));
            if prove_memo(&d2, ubs, depth - 1, failed) {
                return true;
            }
        }
    }
    for (mono, coeff) in &negs {
        for var in mono.keys() {
            let Some(bounds) = ubs.get(var) else { continue };
            for ub in bounds {
                let d2 = d.add(&step(mono, *coeff, var, ub));
                if prove_memo(&d2, ubs, depth - 1, failed) {
                    return true;
                }
            }
        }
    }
    failed.insert((d.clone(), depth));
    false
}

// ---------------------------------------------------------------------------
// Expression parsing
// ---------------------------------------------------------------------------

/// Parse the arithmetic subset (`+ - *`, integers, parenthesised
/// subexpressions, dotted atom paths) with `resolve` supplying the
/// polynomial for each atom. `None` = the expression is outside the
/// grammar (calls, casts, indexing, …).
fn parse_expr(text: &str, resolve: &mut dyn FnMut(&str) -> Option<Poly>) -> Option<Poly> {
    let chars: Vec<char> = text.chars().collect();
    let mut pos = 0usize;
    let p = parse_sum(&chars, &mut pos, resolve, 0)?;
    skip_ws(&chars, &mut pos);
    (pos == chars.len()).then_some(p)
}

fn skip_ws(c: &[char], pos: &mut usize) {
    while *pos < c.len() && c[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn parse_sum(
    c: &[char],
    pos: &mut usize,
    resolve: &mut dyn FnMut(&str) -> Option<Poly>,
    depth: usize,
) -> Option<Poly> {
    if depth > 16 {
        return None;
    }
    let mut acc = parse_product(c, pos, resolve, depth)?;
    loop {
        skip_ws(c, pos);
        match c.get(*pos) {
            Some('+') => {
                *pos += 1;
                acc = acc.add(&parse_product(c, pos, resolve, depth)?);
            }
            Some('-') => {
                *pos += 1;
                acc = acc.sub(&parse_product(c, pos, resolve, depth)?);
            }
            _ => return Some(acc),
        }
    }
}

fn parse_product(
    c: &[char],
    pos: &mut usize,
    resolve: &mut dyn FnMut(&str) -> Option<Poly>,
    depth: usize,
) -> Option<Poly> {
    let mut acc = parse_factor(c, pos, resolve, depth)?;
    loop {
        skip_ws(c, pos);
        if c.get(*pos) == Some(&'*') {
            *pos += 1;
            acc = acc.mul(&parse_factor(c, pos, resolve, depth)?);
        } else {
            return Some(acc);
        }
    }
}

fn parse_factor(
    c: &[char],
    pos: &mut usize,
    resolve: &mut dyn FnMut(&str) -> Option<Poly>,
    depth: usize,
) -> Option<Poly> {
    skip_ws(c, pos);
    match c.get(*pos)? {
        '(' => {
            *pos += 1;
            let inner = parse_sum(c, pos, resolve, depth + 1)?;
            skip_ws(c, pos);
            if c.get(*pos) == Some(&')') {
                *pos += 1;
                Some(inner)
            } else {
                None
            }
        }
        d if d.is_ascii_digit() => {
            let start = *pos;
            while c.get(*pos).is_some_and(|x| x.is_ascii_digit()) {
                *pos += 1;
            }
            // Typed literals (`0u64`, `0.0f32`) are outside the grammar.
            if c.get(*pos).is_some_and(|x| x.is_ascii_alphanumeric() || *x == '_' || *x == '.') {
                return None;
            }
            let n: i64 = c[start..*pos].iter().collect::<String>().parse().ok()?;
            Some(Poly::constant(n))
        }
        a if a.is_ascii_alphabetic() || *a == '_' => {
            let start = *pos;
            while c
                .get(*pos)
                .is_some_and(|x| x.is_ascii_alphanumeric() || *x == '_' || *x == '.')
            {
                *pos += 1;
            }
            // A call or index on the path is outside the grammar.
            let mut peek = *pos;
            skip_ws(c, &mut peek);
            if matches!(c.get(peek), Some('(') | Some('[')) {
                return None;
            }
            let name: String = c[start..*pos].iter().collect();
            let name = name.trim_end_matches('.');
            resolve(name)
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Contracts and formula fns
// ---------------------------------------------------------------------------

/// One function's bounds contracts.
#[derive(Debug, Default)]
pub struct FnContract {
    /// Parameter names in declaration order (`self` receivers dropped).
    pub params: Vec<String>,
    /// Parameter position → contract expression (`"len"` is special).
    pub exprs: BTreeMap<usize, String>,
}

/// All `// BOUNDS(param): expr` contracts in the workspace, by fn name.
pub type Contracts = BTreeMap<String, FnContract>;

/// Formula fns by name: parameter names and the body expression.
pub type Formulas = BTreeMap<String, (Vec<String>, String)>;

/// Split `text` on top-level commas (tracking `()`, `[]`, `<>` nesting).
fn split_args(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    for ch in text.chars() {
        match ch {
            '(' | '[' | '<' => depth += 1,
            ')' | ']' | '>' => depth -= 1,
            ',' if depth == 0 => {
                out.push(cur.trim().to_string());
                cur.clear();
                continue;
            }
            _ => {}
        }
        cur.push(ch);
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

/// Extract the parameter names of a fn whose signature starts on
/// `sig_line` (joining lines until the parameter list closes). The list
/// opens at the first `(` after the `fn` keyword, past any `pub(crate)`.
fn fn_params(file: &SourceFile, sig_line: usize) -> Vec<String> {
    let mut text = String::new();
    let mut depth = 0i32;
    let mut started = false;
    let mut skip = file
        .lines
        .get(sig_line)
        .and_then(|l| l.code.find("fn "))
        .unwrap_or(0);
    'outer: for l in file.lines.iter().skip(sig_line) {
        let code = &l.code[skip.min(l.code.len())..];
        skip = 0;
        for ch in code.chars() {
            if !started {
                if ch == '(' {
                    started = true;
                    depth = 1;
                }
                continue;
            }
            match ch {
                '(' | '[' => depth += 1,
                ')' | ']' => {
                    depth -= 1;
                    if depth == 0 {
                        break 'outer;
                    }
                }
                _ => {}
            }
            text.push(ch);
        }
        text.push(' ');
    }
    split_args(&text)
        .into_iter()
        .filter_map(|p| {
            let name_part = p.split(':').next().unwrap_or("").trim();
            let name = name_part.strip_prefix("mut ").unwrap_or(name_part).trim();
            if name.is_empty() || name.ends_with("self") {
                return None;
            }
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_')
                .then(|| name.to_string())
        })
        .collect()
}

/// Collect, in one pass over every file's fns, the contracts — `//
/// BOUNDS(param): expr` comment lines in the contiguous comment/attribute
/// block above a fn — and the formula fns. A formula name that is also
/// defined with a different body, formula or not, is ambiguous — a call
/// could bind to either — and resolves to nothing.
pub fn collect_decls(files: &[SourceFile]) -> (Contracts, Formulas) {
    let mut out = Contracts::new();
    let mut formulas = Formulas::new();
    let mut ambiguous = BTreeSet::new();
    for file in files {
        for item in parse::functions(file) {
            if item.in_test {
                continue;
            }
            if item.body.is_some() {
                match formula_of(file, &item) {
                    Some((params, body)) => match formulas.get(&item.name) {
                        Some((_, prev)) if *prev != body => {
                            ambiguous.insert(item.name.clone());
                        }
                        _ => {
                            formulas.insert(item.name.clone(), (params, body));
                        }
                    },
                    None => {
                        ambiguous.insert(item.name.clone());
                    }
                }
            }
            let mut decls: Vec<(String, String)> = Vec::new();
            let mut k = item.sig_line;
            while k > 0 {
                k -= 1;
                let l = &file.lines[k];
                let code = l.code.trim();
                if !code.is_empty() && !code.starts_with("#[") {
                    break;
                }
                if let Some(rest) = l.comment.find("BOUNDS(").map(|p| &l.comment[p + 7..]) {
                    if let Some((param, expr)) = rest.split_once("):") {
                        decls.push((param.trim().to_string(), expr.trim().to_string()));
                    }
                }
            }
            if decls.is_empty() {
                continue;
            }
            let params = fn_params(file, item.sig_line);
            let entry = out.entry(item.name.clone()).or_default();
            entry.params = params;
            for (param, expr) in decls {
                if let Some(pos) = entry.params.iter().position(|p| *p == param) {
                    entry.exprs.insert(pos, expr);
                }
            }
        }
    }
    formulas.retain(|name, _| !ambiguous.contains(name));
    (out, formulas)
}

/// `item`'s parameters and body when it is a *formula fn*: its whole
/// body is one arithmetic expression over its parameters and upper-case
/// constants (so at most a few lines long).
fn formula_of(file: &SourceFile, item: &parse::FnItem) -> Option<(Vec<String>, String)> {
    let (start, end) = item.body?;
    if end > start + 3 {
        return None;
    }
    let text: String = file.lines[start..=end]
        .iter()
        .map(|l| format!("{} ", l.code))
        .collect();
    let (open, close) = (text.find('{')?, text.rfind('}')?);
    let body = text.get(open + 1..close)?.trim();
    let params = fn_params(file, item.sig_line);
    let is_const = |a: &str| {
        a.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
    };
    let mut atoms_ok = |atom: &str| {
        (params.iter().any(|p| p == atom) || is_const(atom)).then(|| Poly::atom(atom))
    };
    parse_expr(body, &mut atoms_ok)?;
    Some((params, body.to_string()))
}

// ---------------------------------------------------------------------------
// Formula-fn expansion
// ---------------------------------------------------------------------------

/// Inline every formula-fn call in `text` — `f(a, b)` becomes
/// `(body[p₀ := (a), p₁ := (b)])`, arguments expanded first — so the
/// arithmetic grammar sees through it. Method calls and paths
/// (`x.f(`, `m::f(`) are left alone.
fn expand_formulas(text: &str, formulas: &Formulas, depth: usize) -> String {
    if formulas.is_empty() || depth == 0 {
        return text.to_string();
    }
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(ch) = rest.chars().next() {
        let boundary = !out.ends_with(|p: char| ident(p) || p == '.' || p == ':');
        if !(ident(ch) && boundary) {
            out.push(ch);
            rest = &rest[ch.len_utf8()..];
            continue;
        }
        let len = rest.find(|c: char| !ident(c)).unwrap_or(rest.len());
        let (name, after) = rest.split_at(len);
        let call = formulas.get(name).and_then(|(params, body)| {
            let (inner, close) = balanced(after, 0, '(', ')').filter(|_| after.starts_with('('))?;
            let args = split_args(&inner);
            (args.len() == params.len()).then(|| {
                let args: Vec<String> = args
                    .iter()
                    .map(|a| expand_formulas(a, formulas, depth - 1))
                    .collect();
                (substitute(body, params, &args), close)
            })
        });
        match call {
            Some((expanded, close)) => {
                out.push('(');
                out.push_str(&expanded);
                out.push(')');
                rest = &after[close + 1..];
            }
            None => {
                out.push_str(name);
                rest = after;
            }
        }
    }
    out
}

/// `body` with each free occurrence of `params[j]` replaced by
/// `(args[j])`.
fn substitute(body: &str, params: &[String], args: &[String]) -> String {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut out = String::with_capacity(body.len());
    let mut rest = body;
    while let Some(ch) = rest.chars().next() {
        if !ident(ch) || out.ends_with(|p: char| ident(p) || p == '.') {
            out.push(ch);
            rest = &rest[ch.len_utf8()..];
            continue;
        }
        let len = rest.find(|c: char| !ident(c)).unwrap_or(rest.len());
        let (name, after) = rest.split_at(len);
        match params.iter().position(|p| p == name) {
            Some(j) => {
                out.push('(');
                out.push_str(&args[j]);
                out.push(')');
            }
            None => out.push_str(name),
        }
        rest = after;
    }
    out
}

// ---------------------------------------------------------------------------
// Lexically scoped environment
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Env {
    /// `(scope_depth, name, value)` — immutable `let` aliases.
    aliases: Vec<(usize, String, Poly)>,
    /// `(scope_depth, name, extent)` — tracked buffers.
    tracked: Vec<(usize, String, Poly)>,
    /// `(scope_depth, atom, upper bound)` facts.
    ubs: Vec<(usize, String, Poly)>,
    /// File-wide `BOUNDS: assume atom >= c` lower bounds.
    lbs: BTreeMap<String, i64>,
    /// Workspace formula fns, inlined before parsing.
    formulas: Formulas,
}

impl Env {
    fn drop_below(&mut self, depth: usize) {
        self.aliases.retain(|(d, _, _)| *d <= depth);
        self.tracked.retain(|(d, _, _)| *d <= depth);
        self.ubs.retain(|(d, _, _)| *d <= depth);
    }

    fn resolve(&self, name: &str) -> Poly {
        if let Some((_, _, p)) = self.aliases.iter().rev().find(|(_, n, _)| n == name) {
            return p.clone();
        }
        if let Some(c) = self.lbs.get(name) {
            // Exact lower-bound rewrite: x ≥ c ⇒ x = c + x′, x′ ≥ 0.
            return Poly::constant(*c).add(&Poly::atom(&format!("{name}\u{2032}")));
        }
        Poly::atom(name)
    }

    fn parse(&self, text: &str) -> Option<Poly> {
        let text = expand_formulas(text, &self.formulas, 4);
        parse_expr(&text, &mut |name| Some(self.resolve(name)))
    }

    fn extent(&self, name: &str) -> Option<&Poly> {
        self.tracked
            .iter()
            .rev()
            .find(|(_, n, _)| n == name)
            .map(|(_, _, p)| p)
    }

    /// Active upper-bound facts, with derived `v ≤ w` facts between
    /// bounded atoms (`v ≤ w` when every bound of `w` dominates some
    /// bound of `v` — how `bm.min(ic − ic0) ≤ bm.min(ic)` resolves).
    fn ub_map(&self) -> BTreeMap<String, Vec<Poly>> {
        let mut map: BTreeMap<String, Vec<Poly>> = BTreeMap::new();
        for (_, atom, ub) in &self.ubs {
            map.entry(atom.clone()).or_default().push(ub.clone());
        }
        let atoms: Vec<String> = map.keys().cloned().collect();
        let mut derived: Vec<(String, Poly)> = Vec::new();
        for v in &atoms {
            for w in &atoms {
                if v == w {
                    continue;
                }
                let dominated = map[w].iter().all(|q| {
                    map[v]
                        .iter()
                        .any(|p| prove_nonneg(&q.sub(p), &map, 2))
                });
                if dominated {
                    derived.push((v.clone(), Poly::atom(w)));
                }
            }
        }
        for (v, w) in derived {
            map.entry(v).or_default().push(w);
        }
        map
    }

    /// Prove `lhs ≤ rhs` under the active facts.
    fn le(&self, lhs: &Poly, rhs: &Poly) -> bool {
        prove_nonneg(&rhs.sub(lhs), &self.ub_map(), 6)
    }
}

// ---------------------------------------------------------------------------
// Statements (physical lines joined into logical units)
// ---------------------------------------------------------------------------

struct Stmt {
    /// `(line index, offset of that line's code in `text`)`.
    parts: Vec<(usize, usize)>,
    text: String,
    first_line: usize,
    depth: usize,
}

impl Stmt {
    fn loc(&self, offset: usize) -> (usize, usize) {
        let mut best = (self.first_line, offset);
        for &(line, start) in &self.parts {
            if start <= offset {
                best = (line, offset - start);
            }
        }
        best
    }
}

fn join_statements(file: &SourceFile, start: usize, end: usize) -> Vec<Stmt> {
    let mut out = Vec::new();
    let mut cur: Option<Stmt> = None;
    let mut depth = 0i32;
    for i in start..=end.min(file.lines.len() - 1) {
        let l = &file.lines[i];
        if l.in_test {
            continue;
        }
        let code = &l.code;
        if code.trim().is_empty() && cur.is_none() {
            continue;
        }
        let stmt = cur.get_or_insert_with(|| Stmt {
            parts: Vec::new(),
            text: String::new(),
            first_line: i,
            depth: l.depth_start,
        });
        stmt.parts.push((i, stmt.text.len()));
        stmt.text.push_str(code);
        for ch in code.chars() {
            match ch {
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                _ => {}
            }
        }
        let t = code.trim_end();
        let opens_block = t.ends_with('{');
        if opens_block || (depth <= 0 && (t.ends_with(';') || t.ends_with('}'))) {
            out.push(cur.take().unwrap());
            depth = 0;
        }
    }
    out.extend(cur.take());
    out
}

// ---------------------------------------------------------------------------
// The analysis driver
// ---------------------------------------------------------------------------

/// Slice methods that cannot touch elements past the slice's own length.
const LEN_SAFE_METHODS: &[&str] = &[
    "fill", "len", "is_empty", "iter", "iter_mut", "first", "last", "get", "get_mut",
    "chunks", "chunks_mut", "chunks_exact", "chunks_exact_mut", "copy_from_slice",
    "clone_from_slice", "as_ptr", "as_mut_ptr", "to_f32",
];

fn is_justified(file: &SourceFile, stmt: &Stmt) -> bool {
    let has = |comment: &str| {
        comment
            .find("BOUNDS:")
            .is_some_and(|p| !comment[p + 7..].trim_start().starts_with("assume"))
    };
    for &(line, _) in &stmt.parts {
        if has(&file.lines[line].comment) {
            return true;
        }
    }
    let mut k = stmt.first_line;
    while k > 0 {
        k -= 1;
        let l = &file.lines[k];
        let code = l.code.trim();
        if !code.is_empty() && !code.starts_with("#[") {
            return false;
        }
        if has(&l.comment) {
            return true;
        }
    }
    false
}

/// Word-boundary occurrences of `name` in `text`.
fn occurrences(text: &str, name: &str) -> Vec<usize> {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = text[from..].find(name) {
        let at = from + rel;
        from = at + name.len();
        let pre_ok = at == 0 || !text[..at].chars().next_back().is_some_and(ident);
        let post_ok = !text[at + name.len()..].chars().next().is_some_and(ident);
        if pre_ok && post_ok {
            out.push(at);
        }
    }
    out
}

/// Content of the balanced bracket/paren group opening at `open`
/// (exclusive of the delimiters), plus the close offset.
fn balanced(text: &str, open: usize, open_ch: char, close_ch: char) -> Option<(String, usize)> {
    let chars: Vec<char> = text.chars().collect();
    let mut depth = 0;
    let mut inner = String::new();
    for (k, &ch) in chars.iter().enumerate().skip(open) {
        if ch == open_ch {
            depth += 1;
            if depth == 1 {
                continue;
            }
        } else if ch == close_ch {
            depth -= 1;
            if depth == 0 {
                return Some((inner, k));
            }
        }
        if depth >= 1 {
            inner.push(ch);
        }
    }
    None
}

struct Checker<'a> {
    file: &'a SourceFile,
    env: Env,
    contracts: &'a Contracts,
    findings: Vec<Finding>,
}

impl Checker<'_> {
    fn report(&mut self, stmt: &Stmt, offset: usize, msg: String) {
        if is_justified(self.file, stmt) {
            return;
        }
        let (line, col) = stmt.loc(offset);
        push(&mut self.findings, self.file, line, col, "workspace-bounds", msg);
    }

    /// Obligation `value ≤ extent(name)`; `what` describes the use.
    fn obligate(&mut self, stmt: &Stmt, offset: usize, name: &str, value: &Poly, what: &str) {
        let Some(extent) = self.env.extent(name).cloned() else {
            return;
        };
        if !self.env.le(value, &extent) {
            self.report(
                stmt,
                offset,
                format!(
                    "cannot prove {what} of `{name}` stays within its region extent — shrink the access, add a guard the analysis can see, or justify with `// BOUNDS: <why>`"
                ),
            );
        }
    }

    /// Check a bracket use `name[inner]`; returns the accessed extent
    /// when the form also *narrows* (for slice-alias bindings).
    fn check_brackets(
        &mut self,
        stmt: &Stmt,
        offset: usize,
        name: &str,
        inner: &str,
    ) -> Option<Poly> {
        let inner = inner.trim();
        if inner.is_empty() || inner == ".." {
            return self.env.extent(name).cloned();
        }
        if let Some((a, b)) = inner.split_once("..") {
            let (a, b) = (a.trim(), b.trim());
            let hi = if b.is_empty() { a } else { b };
            let Some(hi_p) = self.env.parse(hi) else {
                self.report(
                    stmt,
                    offset,
                    format!("unresolvable range bound `{hi}` on tracked buffer `{name}`"),
                );
                return None;
            };
            self.obligate(stmt, offset, name, &hi_p, "the range");
            if b.is_empty() {
                // buf[a..] — remainder extent.
                return self.env.extent(name).map(|e| e.sub(&hi_p));
            }
            let lo_p = if a.is_empty() { Some(Poly::constant(0)) } else { self.env.parse(a) };
            return lo_p.map(|lo| hi_p.sub(&lo));
        }
        let Some(idx) = self.env.parse(inner) else {
            self.report(
                stmt,
                offset,
                format!("unresolvable index `{inner}` into tracked buffer `{name}`"),
            );
            return None;
        };
        self.obligate(
            stmt,
            offset,
            name,
            &idx.add(&Poly::constant(1)),
            "the index",
        );
        Some(Poly::constant(1))
    }

    /// A tracked buffer passed bare at `offset`: find the enclosing call
    /// and discharge the callee's contract for that argument position.
    fn check_bare_use(&mut self, stmt: &Stmt, offset: usize, name: &str) {
        // Innermost call whose argument span contains `offset`.
        let mut best: Option<(usize, String, usize, usize)> = None; // (open, callee, inner_start, close)
        for call in parse::calls_on(&stmt.text, 0) {
            let open = stmt.text[call.col..].find('(').map(|p| call.col + p);
            let Some(open) = open else { continue };
            let Some((_, close)) = balanced(&stmt.text, open, '(', ')') else {
                continue;
            };
            if open < offset && offset < close && best.as_ref().is_none_or(|b| open > b.0) {
                best = Some((open, call.name.clone(), open + 1, close));
            }
        }
        let Some((_, callee, inner_start, close)) = best else {
            self.report(
                stmt,
                offset,
                format!(
                    "tracked buffer `{name}` used outside a recognized form — index it, slice it, or pass it to a contracted callee (or justify with `// BOUNDS: <why>`)"
                ),
            );
            return;
        };
        let args = split_args(&stmt.text[inner_start..close]);
        let arg_idx = stmt.text[inner_start..offset].chars().filter(|c| *c == ',').count();
        // Count only top-level commas before the occurrence.
        let arg_idx = {
            let mut depth = 0i32;
            let mut idx = 0usize;
            for ch in stmt.text[inner_start..offset].chars() {
                match ch {
                    '(' | '[' | '<' => depth += 1,
                    ')' | ']' | '>' => depth -= 1,
                    ',' if depth == 0 => idx += 1,
                    _ => {}
                }
            }
            let _ = arg_idx;
            idx
        };
        let Some(contract) = self.contracts.get(&callee) else {
            self.report(
                stmt,
                offset,
                format!(
                    "tracked buffer `{name}` passed to `{callee}` which declares no `// BOUNDS(param): …` contract"
                ),
            );
            return;
        };
        let Some(expr) = contract.exprs.get(&arg_idx) else {
            self.report(
                stmt,
                offset,
                format!(
                    "tracked buffer `{name}` passed to `{callee}` in a parameter position with no `// BOUNDS` contract"
                ),
            );
            return;
        };
        if expr == "len" {
            return; // callee stays inside whatever length it is handed
        }
        // Substitute callee parameter names with caller argument values.
        let params = &contract.params;
        let caller_env = &self.env;
        let mut resolve = |atom: &str| -> Option<Poly> {
            let (base, suffix) = match atom.split_once('.') {
                Some((b, s)) => (b, Some(s)),
                None => (atom, None),
            };
            if let Some(pos) = params.iter().position(|p| p == base) {
                let arg = args.get(pos)?;
                let arg = arg.strip_prefix("&mut ").unwrap_or(arg);
                let arg = arg.strip_prefix('&').unwrap_or(arg).trim();
                return match suffix {
                    None => caller_env.parse(arg),
                    Some(s) => {
                        // Field access on a param: the caller argument
                        // must itself be a simple path.
                        let ok = !arg.is_empty()
                            && arg
                                .chars()
                                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.');
                        ok.then(|| caller_env.resolve(&format!("{arg}.{s}")))
                    }
                };
            }
            Some(caller_env.resolve(atom))
        };
        let Some(need) = parse_expr(expr, &mut resolve) else {
            self.report(
                stmt,
                offset,
                format!("contract `{expr}` of `{callee}` does not resolve at this call site"),
            );
            return;
        };
        self.obligate(stmt, offset, name, &need, &format!("`{callee}`'s contracted access"));
    }

    /// Generic per-statement scan for uses of tracked buffers.
    fn scan_uses(&mut self, stmt: &Stmt) {
        let names: Vec<String> = self
            .env
            .tracked
            .iter()
            .map(|(_, n, _)| n.clone())
            .collect();
        let mut seen = std::collections::BTreeSet::new();
        for name in names {
            if !seen.insert(name.clone()) {
                continue;
            }
            for at in occurrences(&stmt.text, &name) {
                let after = stmt.text[at + name.len()..]
                    .char_indices()
                    .find(|(_, c)| !c.is_whitespace());
                let Some((rel, ch)) = after else {
                    self.check_bare_use(stmt, at, &name);
                    continue;
                };
                let after_at = at + name.len() + rel;
                match ch {
                    '[' => {
                        if let Some((inner, _)) = balanced(&stmt.text, after_at, '[', ']') {
                            self.check_brackets(stmt, at, &name, &inner);
                        }
                    }
                    '.' => {
                        let method: String = stmt.text[after_at + 1..]
                            .chars()
                            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                            .collect();
                        if LEN_SAFE_METHODS.contains(&method.as_str()) {
                            continue;
                        }
                        if method == "split_at_mut" || method == "split_at" {
                            let open = after_at + 1 + method.len();
                            if let Some((arg, _)) = balanced(&stmt.text, open, '(', ')') {
                                match self.env.parse(&arg) {
                                    Some(mid) => {
                                        self.obligate(stmt, at, &name, &mid, "the split point")
                                    }
                                    None => self.report(
                                        stmt,
                                        at,
                                        format!("unresolvable split point `{}` on `{name}`", arg.trim()),
                                    ),
                                }
                            }
                            continue;
                        }
                        self.report(
                            stmt,
                            at,
                            format!(
                                "method `.{method}(…)` on tracked buffer `{name}` is not in the length-safe allowlist"
                            ),
                        );
                    }
                    _ => self.check_bare_use(stmt, at, &name),
                }
            }
        }
    }

    /// Try the origin / environment statement patterns. Returns true if
    /// the statement was fully handled (generic scan skipped).
    fn try_patterns(&mut self, stmt: &Stmt) -> bool {
        let text = stmt.text.trim().to_string();
        let scope = stmt.depth;

        // -- with_slot / with_slot_at closures root a tracked buffer.
        for (token, extent_arg) in [(".with_slot_at(", 1usize), (".with_slot(", 0usize)] {
            let Some(p) = stmt.text.find(token) else { continue };
            let open = p + token.len() - 1;
            // The closure runs to the statement's block; the argument
            // list is cut at the closure pipe.
            let tail = &stmt.text[open + 1..];
            let Some(pipe) = tail.find('|') else { continue };
            let args = split_args(&tail[..pipe]);
            let closure_name: String = tail[pipe + 1..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if closure_name.is_empty() {
                continue;
            }
            match args.get(extent_arg).and_then(|e| self.env.parse(e)) {
                Some(extent) => {
                    self.env.tracked.push((scope + 1, closure_name, extent));
                }
                None => self.report(
                    stmt,
                    p,
                    format!(
                        "unresolvable scratch extent in `{token}…)` — downstream writes through `{closure_name}` cannot be checked"
                    ),
                ),
            }
            return true;
        }

        // -- let-statements.
        if let Some(rest) = text.strip_prefix("let ") {
            let is_mut = rest.starts_with("mut ");
            let rest_nm = rest.strip_prefix("mut ").unwrap_or(rest);

            // let (a, b) = …;
            if let Some(tuple_rest) = rest_nm.strip_prefix('(') {
                let Some((lhs, rhs)) = stmt.text.split_once('=') else {
                    return true;
                };
                let names: Vec<String> = split_args(
                    tuple_rest
                        .split_once(')')
                        .map(|(a, _)| a)
                        .unwrap_or(tuple_rest),
                );
                let _ = lhs;
                let rhs = rhs.trim().trim_end_matches(';').trim();
                // let (a, b) = X.split_at_mut(E);
                if let Some(dotpos) = rhs.find(".split_at_mut(") {
                    let base = rhs[..dotpos].trim();
                    if let Some(extent) = self.env.extent(base).cloned() {
                        let open = dotpos + ".split_at_mut(".len() - 1;
                        if let Some((arg, _)) = balanced(rhs, open, '(', ')') {
                            match self.env.parse(&arg) {
                                Some(mid) => {
                                    let off = stmt.text.find(".split_at_mut(").unwrap_or(0);
                                    self.obligate(stmt, off, base, &mid, "the split point");
                                    if let (Some(a), Some(b)) = (names.first(), names.get(1)) {
                                        self.env.tracked.push((scope, a.clone(), mid.clone()));
                                        self.env
                                            .tracked
                                            .push((scope, b.clone(), extent.sub(&mid)));
                                    }
                                }
                                None => self.report(
                                    stmt,
                                    0,
                                    format!("unresolvable split point on tracked `{base}`"),
                                ),
                            }
                        }
                        return true;
                    }
                    return false; // untracked base: nothing to do, nothing to scan
                }
                // let (a, b) = (E1, E2);
                if rhs.starts_with('(') && !is_mut {
                    if let Some((inner, _)) = balanced(rhs, 0, '(', ')') {
                        let vals = split_args(&inner);
                        for (name, val) in names.iter().zip(vals.iter()) {
                            if let Some(p) = self.env.parse(val) {
                                self.env.aliases.push((scope, name.clone(), p));
                            }
                        }
                    }
                    return true;
                }
                return false;
            }

            // Single-name lets.
            let name: String = rest_nm
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            let Some((_, rhs)) = stmt.text.split_once('=') else {
                return false;
            };
            let rhs = rhs.trim().trim_end_matches(';').trim();
            if name.is_empty() {
                return false;
            }

            // let w = [INIT; EXTENT];
            if rhs.starts_with('[') {
                if let Some((inner, _)) = balanced(rhs, 0, '[', ']') {
                    if let Some((_, ext)) = inner.rsplit_once(';') {
                        if let Some(extent) = self.env.parse(ext) {
                            self.env.tracked.push((scope, name, extent));
                            return true;
                        }
                    }
                }
                return false;
            }

            // let o = &mut X[RANGE];
            if rhs.starts_with('&') {
                let stripped = rhs.strip_prefix("&mut ").unwrap_or(rhs.strip_prefix('&').unwrap_or(rhs)).trim();
                let base: String = stripped
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if self.env.extent(&base).is_some() {
                    let boff = stripped[base.len()..].chars().next();
                    if boff == Some('[') {
                        let open = stmt.text.rfind(&format!("{base}[")).map(|p| p + base.len());
                        if let Some(open) = open {
                            if let Some((inner, _)) = balanced(&stmt.text, open, '[', ']') {
                                if let Some(sub) = self.check_brackets(stmt, open, &base, &inner) {
                                    self.env.tracked.push((scope, name, sub));
                                }
                                return true;
                            }
                        }
                    }
                }
                return false;
            }

            // let m = A.min(B);
            if let Some(minpos) = rhs.find(".min(") {
                let a = &rhs[..minpos];
                if let (Some(pa), Some((inner, close))) =
                    (self.env.parse(a), balanced(rhs, minpos + 4, '(', ')'))
                {
                    if close == rhs.len() - 1 && !is_mut {
                        if let Some(pb) = self.env.parse(&inner) {
                            self.env.ubs.push((scope, name.clone(), pa));
                            self.env.ubs.push((scope, name, pb));
                            return true;
                        }
                    }
                }
                return false;
            }

            // let x = E; — alias only when immutable (a `mut` binding's
            // later mutations would make the substitution unsound).
            if !is_mut {
                if let Some(p) = self.env.parse(rhs) {
                    self.env.aliases.push((scope, name, p));
                    return true;
                }
            }
            return false;
        }

        // -- Scoped facts from control-flow headers (generic scan still
        //    runs on these statements: their expressions can use buffers).
        if let Some(rest) = text.strip_prefix("for ") {
            if let Some((var_part, range_part)) = rest.split_once(" in ") {
                let var = var_part.trim();
                let range = range_part.trim().trim_end_matches('{').trim();
                if var.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                    if let Some((_, hi)) = range.split_once("..") {
                        if let Some(p) = self.env.parse(hi) {
                            let depth_in = self.file.lines[stmt.first_line].depth_end;
                            self.env.ubs.push((
                                depth_in,
                                var.to_string(),
                                p.sub(&Poly::constant(1)),
                            ));
                        }
                    }
                }
            }
            return false;
        }
        if let Some(rest) = text.strip_prefix("while ") {
            let cond = rest.trim_end_matches('{').trim();
            self.push_cmp_facts(cond, self.file.lines[stmt.first_line].depth_end);
            return false;
        }
        if let Some(rest) = text.strip_prefix("if ") {
            if !rest.starts_with("let ") && !rest.contains("||") {
                let cond = rest.trim_end_matches('{').trim();
                let depth_in = self.file.lines[stmt.first_line].depth_end;
                for part in cond.split("&&") {
                    self.push_cmp_facts(part.trim(), depth_in);
                }
            }
            return false;
        }
        false
    }

    /// `x <= E` / `x < E` facts (single-atom lhs only).
    fn push_cmp_facts(&mut self, cond: &str, scope: usize) {
        for (op, adjust) in [("<=", 0i64), ("<", -1i64)] {
            let Some((lhs, rhs)) = cond.split_once(op) else { continue };
            if op == "<" && lhs.ends_with('<') {
                continue; // was actually `<<`
            }
            let lhs = lhs.trim();
            if !lhs.is_empty()
                && lhs.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
            {
                if let Some(p) = self.env.parse(rhs.trim()) {
                    let atom = self
                        .env
                        .resolve(lhs)
                        .as_atom()
                        .map(str::to_string)
                        .unwrap_or_else(|| lhs.to_string());
                    self.env
                        .ubs
                        .push((scope, atom, p.add(&Poly::constant(adjust))));
                }
            }
            return;
        }
    }
}

/// Collect file-wide `// BOUNDS: assume x >= c` lower bounds.
fn collect_assumes(file: &SourceFile) -> BTreeMap<String, i64> {
    let mut out = BTreeMap::new();
    for l in &file.lines {
        let Some(p) = l.comment.find("BOUNDS: assume ") else {
            continue;
        };
        let rest = &l.comment[p + "BOUNDS: assume ".len()..];
        if let Some((atom, c)) = rest.split_once(">=") {
            let atom = atom.trim();
            if let Ok(c) = c.trim().parse::<i64>() {
                out.insert(atom.to_string(), c);
            }
        }
    }
    out
}

/// Run the analysis: contracts come from every file; obligations are
/// checked in files marked `#![doc = "audit: bounds"]`.
pub fn run(files: &[SourceFile]) -> Vec<Finding> {
    let (contracts, formulas) = collect_decls(files);
    let mut findings = Vec::new();
    for file in files {
        if !file.has_doc_marker("bounds") {
            continue;
        }
        let lbs = collect_assumes(file);
        for item in parse::functions(file) {
            if item.in_test {
                continue;
            }
            let Some((body_start, body_end)) = item.body else {
                continue;
            };
            if body_end <= body_start {
                continue;
            }
            let mut checker = Checker {
                file,
                env: Env {
                    lbs: lbs.clone(),
                    formulas: formulas.clone(),
                    ..Env::default()
                },
                contracts: &contracts,
                findings: Vec::new(),
            };
            // Contracted parameters are tracked inside their own fn too.
            if let Some(c) = contracts.get(&item.name) {
                let scope = file.lines[body_start].depth_end;
                for (pos, expr) in &c.exprs {
                    if expr == "len" {
                        continue;
                    }
                    if let (Some(pname), Some(extent)) =
                        (c.params.get(*pos), checker.env.parse(expr))
                    {
                        checker.env.tracked.push((scope, pname.clone(), extent));
                    }
                }
            }
            for stmt in join_statements(file, body_start + 1, body_end) {
                checker.env.drop_below(stmt.depth);
                if !checker.try_patterns(&stmt) {
                    checker.scan_uses(&stmt);
                }
            }
            findings.extend(checker.findings);
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(body: &str) -> Vec<Finding> {
        let src = format!("#![doc = \"audit: bounds\"]\n{body}");
        let file = SourceFile::parse("crates/x/src/a.rs", &src);
        run(std::slice::from_ref(&file))
    }

    #[test]
    fn in_extent_writes_are_clean() {
        let f = check(
            "fn f(scratch: &Pool, n: usize, m: usize) {\n    scratch.with_slot(n * m + n, |buf| {\n        let (a, b) = buf.split_at_mut(n * m);\n        a[..n * m].fill(0.0);\n        b[..n].fill(0.0);\n    });\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn planted_overrun_is_reported_with_location() {
        let f = check(
            "fn f(scratch: &Pool, n: usize) {\n    scratch.with_slot(n, |buf| {\n        buf[..n + 1].fill(0.0);\n    });\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "workspace-bounds");
        assert_eq!(
            (f[0].path.as_str(), f[0].line, f[0].col),
            ("crates/x/src/a.rs", 4, 9)
        );
    }

    #[test]
    fn split_beyond_the_region_is_reported() {
        let f = check(
            "fn f(scratch: &Pool, n: usize, m: usize) {\n    scratch.with_slot(n, |buf| {\n        let (a, b) = buf.split_at_mut(n + m);\n    });\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn min_bindings_and_loop_facts_prove_block_indexing() {
        // The hot-loop shape in miniature: bm_cur = bm.min(ic - ic0) is
        // dominated by bm_c = bm.min(ic), and the loop variable stays
        // under its bound.
        let f = check(
            "// BOUNDS: assume a >= 1\nfn f(scratch: &Pool, a: usize, bn: usize, bm: usize, ic: usize, ic0: usize) {\n    let bm_c = bm.min(ic);\n    scratch.with_slot(a * bn * bm_c, |acc| {\n        let bm_cur = bm.min(ic - ic0);\n        acc[..a * bn * bm_cur].fill(0.0);\n        for oi in 0..bn {\n            let orow = &acc[oi * bm_cur..];\n        }\n    });\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn assume_lower_bounds_are_needed_and_sufficient() {
        // `acc[oi * bm..]` with `oi < bn` needs `a ≥ 1` to fit in
        // `a * bn * bm` — exactly the hot-loop row-pointer pattern.
        let body = "fn f(scratch: &Pool, a: usize, bn: usize, bm: usize) {\n    scratch.with_slot(a * bn * bm, |acc| {\n        for oi in 0..bn {\n            let o = &mut acc[oi * bm..];\n        }\n    });\n}\n";
        let without = check(body);
        assert_eq!(without.len(), 1, "{without:?}");
        assert_eq!(without[0].line, 5);
        let with = check(&format!("// BOUNDS: assume a >= 1\n{body}"));
        assert!(with.is_empty(), "{with:?}");
    }

    #[test]
    fn contract_calls_check_the_callees_declared_access() {
        let f = check(
            "// BOUNDS(dst): k * n\nfn callee(k: usize, n: usize, dst: &mut [f32]) {}\n\nfn f(scratch: &Pool, k: usize, n: usize) {\n    scratch.with_slot(k * n, |buf| {\n        callee(k, n, buf);\n    });\n    scratch.with_slot(n, |small| {\n        callee(k, n, small);\n    });\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 10);
        assert!(f[0].msg.contains("callee"));
    }

    #[test]
    fn len_contract_and_missing_contract() {
        let f = check(
            "// BOUNDS(dst): len\nfn safe_sink(dst: &mut [f32]) {}\nfn opaque_sink(dst: &mut [f32]) {}\n\nfn f(scratch: &Pool, n: usize) {\n    scratch.with_slot(n, |buf| {\n        safe_sink(buf);\n        opaque_sink(buf);\n    });\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 9);
        assert!(f[0].msg.contains("opaque_sink"));
    }

    #[test]
    fn branch_guards_scope_to_their_block() {
        let f = check(
            "const CAP: usize = 8;\nfn f(n: usize) {\n    let mut w = [0.0f32; CAP];\n    if n <= CAP {\n        w[..n].fill(0.0);\n    }\n    w[..n].fill(0.0);\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 8, "only the unguarded use fails: {f:?}");
    }

    #[test]
    fn justifications_and_unresolvables() {
        let f = check(
            "fn g(x: usize) -> usize { x.saturating_sub(1) }\nfn f(scratch: &Pool, n: usize) {\n    scratch.with_slot(n, |buf| {\n        buf[..g(n)].fill(0.0);\n        // clamp above: BOUNDS: g(n) never exceeds n\n        buf[..g(n)].fill(0.0);\n    });\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
        assert!(f[0].msg.contains("unresolvable range bound"));
    }

    #[test]
    fn formula_fn_calls_resolve_to_their_body() {
        // The extent is spelled once, in `need`; the split points are
        // proven against its inlined body. `opaque` is no formula (its
        // body calls a method), so its extent stays unresolvable.
        let f = check(
            "const K: usize = 8;\n\
             fn need(a: usize, n: usize) -> usize {\n    a * (K * n + n)\n}\n\
             fn opaque(n: usize) -> usize {\n    n.max(1)\n}\n\
             fn f(scratch: &Pool, a: usize, n: usize) {\n    \
                 scratch.with_slot(need(a, n + 1), |buf| {\n        \
                     let (stage, acc) = buf.split_at_mut(K * a * (n + 1));\n        \
                     acc[..a * (n + 1)].fill(0.0);\n        \
                     acc[..a * (n + 2)].fill(0.0);\n    \
                 });\n    \
                 scratch.with_slot(opaque(n), |buf| {\n    \
                 });\n\
             }\n",
        );
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!(f[0].line, 13, "only the over-long acc use fails: {f:?}");
        assert!(f[1].msg.contains("unresolvable scratch extent"), "{f:?}");
    }

    #[test]
    fn staged_slot_slices_prove_and_overruns_do_not() {
        // The engine's stage: slot `s < k ≤ K` of `w`-wide tiles, with the
        // `a ≥ 1` rewrite splitting every monomial in two, so the bound on
        // `s` and then on `k` must each land in two monomials at once.
        let body = |hi: &str| {
            format!(
                "// BOUNDS: assume a >= 1\n\
                 const K: usize = 8;\n\
                 fn f(scratch: &Pool, a: usize, w: usize, n: usize, s0: usize) {{\n    \
                     scratch.with_slot(K * a * w, |stage| {{\n        \
                         let k = K.min(n - s0);\n        \
                         for s in 0..k {{\n            \
                             let t = &mut stage[s * a * w..{hi}];\n        \
                         }}\n        \
                         let all = &stage[..k * a * w];\n    \
                     }});\n\
                 }}\n"
            )
        };
        let ok = check(&body("(s + 1) * a * w"));
        assert!(ok.is_empty(), "{ok:?}");
        let over = check(&body("(s + 2) * a * w"));
        assert_eq!(over.len(), 1, "{over:?}");
        assert_eq!(over[0].line, 8, "the slot slice, not the flush slice");
    }

    #[test]
    fn slice_alias_narrows_the_extent() {
        let f = check(
            "fn f(scratch: &Pool, n: usize, m: usize) {\n    scratch.with_slot(n + m, |buf| {\n        let o = &mut buf[..m];\n        o[..m].fill(0.0);\n        o[..n + m].fill(0.0);\n    });\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn multiline_calls_join_into_one_statement() {
        let f = check(
            "// BOUNDS(dst): len\nfn sink(dst: &mut [f32], k: usize) {}\n\nfn f(scratch: &Pool, n: usize) {\n    scratch.with_slot(n, |buf| {\n        sink(\n            buf,\n            n,\n        );\n    });\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unmarked_files_are_out_of_scope() {
        let file = SourceFile::parse(
            "crates/x/src/a.rs",
            "fn f(scratch: &Pool, n: usize) {\n    scratch.with_slot(n, |buf| {\n        buf[..n + 1].fill(0.0);\n    });\n}\n",
        );
        assert!(run(std::slice::from_ref(&file)).is_empty());
    }

    // The scalar fallback path of the hot-loop tile loaders: the index
    // obligation carries a negative constant, which the prover must absorb
    // by substituting the surrounding variable monomials.
    #[test]
    fn nested_loop_index_with_negative_constant_proves() {
        let f = check(
            "// BOUNDS(ghat): t.alpha * bn_cur\n\
             fn load(t: &T, col0: usize, bn_cur: usize, ghat: &mut [f32]) {\n    \
                 let (alpha, r) = (t.alpha, t.r);\n    \
                 ghat[..alpha * bn_cur].fill(0.0);\n    \
                 for tt in 0..r {\n        \
                     let col = (col0 + tt) as isize;\n        \
                     for oc_i in 0..bn_cur {\n            \
                         let v = dy.get_padded(b, i as isize, col, oc_i).to_f32();\n            \
                         if v != 0.0 {\n                \
                             for beta in 0..alpha {\n                    \
                                 ghat[beta * bn_cur + oc_i] += t.g_f32[beta * r + tt] * v;\n                \
                             }\n            \
                         }\n        \
                     }\n    \
                 }\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
