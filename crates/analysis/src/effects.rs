//! Interprocedural side-effect summaries.
//!
//! Each function/method is summarized by the non-local locations it may
//! read and write, expressed in its own namespace (paths rooted at `this`
//! or at parameter names), plus an I/O flag. Summaries are computed as a
//! fixpoint over the call structure, then *rebased* into the caller's
//! namespace at each call site by [`crate::rw`].
//!
//! Locations rooted at callee locals are dropped: the optimistic analysis
//! assumes locals hold fresh, unaliased objects. This deliberately
//! under-approximates (paper Section 2.1) — the correctness validation
//! phase catches the cases where the assumption was wrong.

use crate::loc::StaticLoc;
use crate::rw::{stmt_effects, Effects};
use patty_minilang::ast::{FuncDecl, Program};
use std::collections::BTreeMap;

/// Maximum path depth kept in summaries; longer paths widen to `Unknown`
/// so the fixpoint terminates even for recursive structures.
const MAX_PATH_SEGMENTS: usize = 6;

/// Summary of one function or method.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FnSummary {
    /// Parameter names, for rebasing at call sites.
    pub params: Vec<String>,
    /// Non-local locations possibly read (callee namespace).
    pub reads: Vec<StaticLoc>,
    /// Non-local locations possibly written (callee namespace).
    pub writes: Vec<StaticLoc>,
    /// Performs order-sensitive I/O somewhere (transitively).
    pub io: bool,
}

impl FnSummary {
    /// Rebase this summary into a caller's [`Effects`] for a call with the
    /// given receiver path (`None` = unknown receiver) and argument paths.
    pub fn apply(&self, receiver: Option<&str>, arg_paths: &[Option<String>], e: &mut Effects) {
        self.apply_inner(Receiver::Known(receiver), arg_paths, e);
    }

    /// Like [`FnSummary::apply`] but for constructors: the receiver is a
    /// freshly allocated object, so `this`-rooted effects touch memory no
    /// one else can see yet and are dropped.
    pub(crate) fn apply_fresh(&self, arg_paths: &[Option<String>], e: &mut Effects) {
        self.apply_inner(Receiver::Fresh, arg_paths, e);
    }

    fn apply_inner(&self, receiver: Receiver<'_>, arg_paths: &[Option<String>], e: &mut Effects) {
        e.io |= self.io;
        let rebase = |loc: &StaticLoc| -> Option<StaticLoc> {
            match receiver {
                Receiver::Fresh if loc.root() == Some("this") => None,
                Receiver::Fresh => Some(loc.rebase(None, &self.params, arg_paths)),
                Receiver::Known(r) => Some(loc.rebase(r, &self.params, arg_paths)),
            }
        };
        for r in &self.reads {
            if let Some(loc) = rebase(r) {
                e.reads.insert(loc);
            }
        }
        for w in &self.writes {
            if let Some(loc) = rebase(w) {
                e.writes.insert(loc);
            }
        }
    }
}

#[derive(Clone, Copy)]
enum Receiver<'a> {
    Known(Option<&'a str>),
    Fresh,
}

/// All summaries of a program: free functions by name, methods by
/// `Class.method` and grouped by bare method name (call sites resolve
/// optimistically over all classes declaring the method).
#[derive(Clone, Debug, Default)]
pub struct SummaryTable {
    free: BTreeMap<String, FnSummary>,
    methods_by_name: BTreeMap<String, Vec<FnSummary>>,
}

impl SummaryTable {
    /// Compute summaries for every function and method by fixpoint
    /// iteration.
    pub fn build(program: &Program) -> SummaryTable {
        let mut table = SummaryTable::default();
        // Seed with empty summaries so call sites resolve during iteration.
        for f in &program.funcs {
            table.free.insert(f.name.clone(), FnSummary {
                params: f.params.clone(),
                ..FnSummary::default()
            });
        }
        for c in &program.classes {
            for m in &c.methods {
                table
                    .methods_by_name
                    .entry(m.name.clone())
                    .or_default()
                    .push(FnSummary { params: m.params.clone(), ..FnSummary::default() });
            }
        }
        // Fixpoint. The loc universe is finite (path depth capped), so this
        // terminates; bound iterations defensively anyway.
        for _round in 0..32 {
            let mut changed = false;
            for f in &program.funcs {
                let s = summarize(f, &table);
                let slot = table.free.get_mut(&f.name).expect("seeded");
                if *slot != s {
                    *slot = s;
                    changed = true;
                }
            }
            for c in &program.classes {
                // Methods are stored grouped by bare name; recompute the
                // group entry for this class's method by position.
                for m in &c.methods {
                    let s = summarize(m, &table);
                    let group = table
                        .methods_by_name
                        .get(&m.name)
                        .expect("seeded")
                        .clone();
                    // Find the entry with matching params belonging to this
                    // class: positions are stable because build order is
                    // deterministic; match by index of (class, method).
                    let idx = method_index(program, &c.name, &m.name);
                    if group.get(idx).map(|g| g != &s).unwrap_or(false) {
                        table.methods_by_name.get_mut(&m.name).expect("seeded")[idx] = s;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        table
    }

    /// Summary of a free (non-method) function, if declared.
    pub(crate) fn free_function(&self, name: &str) -> Option<&FnSummary> {
        self.free.get(name)
    }

    /// All summaries of methods with this bare name, across classes.
    pub fn methods(&self, name: &str) -> &[FnSummary] {
        self.methods_by_name
            .get(name)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }
}

/// Index of `(class, method)` within the by-name method group, matching
/// the deterministic seeding order in [`SummaryTable::build`].
fn method_index(program: &Program, class: &str, method: &str) -> usize {
    let mut idx = 0;
    for c in &program.classes {
        for m in &c.methods {
            if m.name == method {
                if c.name == class {
                    return idx;
                }
                idx += 1;
            }
        }
    }
    idx
}

/// Compute the summary of one function body under the current table.
fn summarize(func: &FuncDecl, table: &SummaryTable) -> FnSummary {
    let mut raw = Effects::default();
    for s in &func.body.stmts {
        raw.merge(stmt_effects(s, table));
    }
    let keep = |loc: &StaticLoc| -> Option<StaticLoc> {
        match loc {
            StaticLoc::Unknown => Some(StaticLoc::Unknown),
            StaticLoc::Var(_) => None, // callee-local by-value cells
            StaticLoc::Path(p) | StaticLoc::Elem(p) | StaticLoc::Struct(p) => {
                let root = p.split('.').next().unwrap_or(p);
                if root != "this" && !func.params.iter().any(|q| q == root) {
                    return None; // optimistic: local roots are fresh
                }
                if p.split('.').count() > MAX_PATH_SEGMENTS {
                    return Some(StaticLoc::Unknown);
                }
                Some(loc.clone())
            }
        }
    };
    FnSummary {
        params: func.params.clone(),
        reads: raw.reads.iter().filter_map(keep).collect(),
        writes: raw.writes.iter().filter_map(keep).collect(),
        io: raw.io,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patty_minilang::parse;

    #[test]
    fn pure_method_has_empty_summary() {
        let p = parse("class F { var g = 2; fn apply(x) { return x * this.g; } } fn main() { }").unwrap();
        let t = SummaryTable::build(&p);
        let s = &t.methods("apply")[0];
        assert!(s.writes.is_empty());
        assert!(!s.io);
        assert!(s.reads.contains(&StaticLoc::Path("this.g".into())));
    }

    #[test]
    fn mutating_method_writes_this_field() {
        let p = parse("class A { var n = 0; fn bump() { this.n += 1; } } fn main() { }").unwrap();
        let t = SummaryTable::build(&p);
        let s = &t.methods("bump")[0];
        assert!(s.writes.contains(&StaticLoc::Path("this.n".into())));
    }

    #[test]
    fn io_propagates_transitively() {
        let src = r#"
            fn log(x) { print(x); }
            fn outer(x) { log(x); }
            fn main() { }
        "#;
        let t = SummaryTable::build(&parse(src).unwrap());
        assert!(t.free_function("log").unwrap().io);
        assert!(t.free_function("outer").unwrap().io, "io must flow through the call chain");
    }

    #[test]
    fn effects_on_param_collections_kept() {
        let src = "fn push(buf, v) { buf.add(v); } fn main() { }";
        let t = SummaryTable::build(&parse(src).unwrap());
        let s = t.free_function("push").unwrap();
        assert!(s.writes.contains(&StaticLoc::Struct("buf".into())));
    }

    #[test]
    fn local_fresh_objects_are_dropped() {
        let src = r#"
            class P { var x = 0; }
            fn make() { var p = new P(); p.x = 1; return p; }
            fn main() { }
        "#;
        let t = SummaryTable::build(&parse(src).unwrap());
        let s = t.free_function("make").unwrap();
        assert!(s.writes.is_empty(), "writes to fresh locals must be dropped: {:?}", s.writes);
    }

    #[test]
    fn transitive_field_effects_through_methods() {
        let src = r#"
            class Inner { var n = 0; fn inc() { this.n += 1; } }
            class Outer { var inner = null; fn touch() { this.inner.inc(); } }
            fn main() { }
        "#;
        let t = SummaryTable::build(&parse(src).unwrap());
        let s = &t.methods("touch")[method_index(&parse(src).unwrap(), "Outer", "touch")];
        assert!(
            s.writes.contains(&StaticLoc::Path("this.inner.n".into())),
            "nested effect must be rebased through this.inner: {:?}",
            s.writes
        );
    }

    #[test]
    fn recursion_terminates() {
        let src = "fn f(n) { if (n > 0) { f(n - 1); } print(n); } fn main() { }";
        let t = SummaryTable::build(&parse(src).unwrap());
        assert!(t.free_function("f").unwrap().io);
    }
}
