//! Abstract memory locations for the *static* analyses.
//!
//! Patty's static side is deliberately **optimistic** (Section 2.1: "our
//! process is geared to reveal a high amount of parallel potential, so we
//! use optimistic parallelization analyses"): heap locations are identified
//! by their syntactic access path, and two distinct paths are assumed not
//! to alias. This over-reports parallel potential; the correctness
//! validation phase (parallel unit tests + systematic race testing)
//! recovers soundness, exactly as the paper prescribes.

use std::fmt;

/// A static abstract location.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StaticLoc {
    /// A local variable (function-scoped by construction — dependence
    /// queries never cross function boundaries on `Var`).
    Var(String),
    /// A field reached through a syntactic path, e.g. `aviOut.Images` or
    /// `this.total`.
    Path(String),
    /// The elements of the collection at a path (index-insensitive).
    Elem(String),
    /// The structure (length) of the collection at a path.
    Struct(String),
    /// Anything — the conservative top element; conflicts with everything.
    Unknown,
}

impl StaticLoc {
    /// Do two locations possibly name the same memory?
    pub fn conflicts(&self, other: &StaticLoc) -> bool {
        use StaticLoc::*;
        match (self, other) {
            (Unknown, _) | (_, Unknown) => true,
            (Var(a), Var(b)) => a == b,
            (Path(a), Path(b)) => a == b,
            (Elem(a), Elem(b)) => a == b,
            (Struct(a), Struct(b)) => a == b,
            // Growing a list (structure write) moves/creates elements, so
            // structure and elements of the same collection conflict.
            (Elem(a), Struct(b)) | (Struct(a), Elem(b)) => a == b,
            _ => false,
        }
    }

    /// The root variable of the access path, if any (`a.b.c` → `a`).
    pub fn root(&self) -> Option<&str> {
        match self {
            StaticLoc::Var(v) => Some(v),
            StaticLoc::Path(p) | StaticLoc::Elem(p) | StaticLoc::Struct(p) => {
                Some(p.split('.').next().unwrap_or(p))
            }
            StaticLoc::Unknown => None,
        }
    }

    /// Rebase a callee-namespace location into the caller's namespace:
    /// a path rooted at `this` is re-rooted at `receiver`, a path rooted at
    /// a parameter name is re-rooted at the corresponding argument path.
    ///
    /// `None` argument paths (the argument was not a simple path) degrade
    /// to [`StaticLoc::Unknown`].
    pub(crate) fn rebase(
        &self,
        receiver: Option<&str>,
        params: &[String],
        arg_paths: &[Option<String>],
    ) -> StaticLoc {
        let rebase_path = |p: &str| -> Option<String> {
            let mut parts = p.splitn(2, '.');
            let root = parts.next().unwrap_or(p);
            let rest = parts.next();
            let new_root: Option<String> = if root == "this" {
                receiver.map(|r| r.to_string())
            } else if let Some(idx) = params.iter().position(|q| q == root) {
                arg_paths.get(idx).cloned().flatten()
            } else {
                // A callee-local root should have been dropped by the
                // summary; treat defensively as unknown.
                None
            };
            new_root.map(|r| match rest {
                Some(rest) => format!("{r}.{rest}"),
                None => r,
            })
        };
        match self {
            StaticLoc::Unknown => StaticLoc::Unknown,
            StaticLoc::Var(v) => match rebase_path(v) {
                Some(p) if !p.contains('.') => StaticLoc::Var(p),
                Some(p) => StaticLoc::Path(p),
                None => StaticLoc::Unknown,
            },
            StaticLoc::Path(p) => rebase_path(p).map(StaticLoc::Path).unwrap_or(StaticLoc::Unknown),
            StaticLoc::Elem(p) => rebase_path(p).map(StaticLoc::Elem).unwrap_or(StaticLoc::Unknown),
            StaticLoc::Struct(p) => {
                rebase_path(p).map(StaticLoc::Struct).unwrap_or(StaticLoc::Unknown)
            }
        }
    }
}

impl fmt::Display for StaticLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaticLoc::Var(v) => write!(f, "{v}"),
            StaticLoc::Path(p) => write!(f, "{p}"),
            StaticLoc::Elem(p) => write!(f, "{p}[*]"),
            StaticLoc::Struct(p) => write!(f, "{p}.#"),
            StaticLoc::Unknown => write!(f, "?"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_paths_do_not_conflict() {
        // The optimistic assumption: different syntactic paths are assumed
        // to be different memory.
        let a = StaticLoc::Path("a.x".into());
        let b = StaticLoc::Path("b.x".into());
        assert!(!a.conflicts(&b));
        assert!(a.conflicts(&a.clone()));
    }

    #[test]
    fn unknown_conflicts_with_everything() {
        let u = StaticLoc::Unknown;
        assert!(u.conflicts(&StaticLoc::Var("x".into())));
        assert!(StaticLoc::Elem("xs".into()).conflicts(&u));
    }

    #[test]
    fn struct_and_elem_of_same_collection_conflict() {
        let e = StaticLoc::Elem("out.items".into());
        let s = StaticLoc::Struct("out.items".into());
        assert!(e.conflicts(&s));
        assert!(!e.conflicts(&StaticLoc::Struct("other".into())));
    }

    #[test]
    fn root_extraction() {
        assert_eq!(StaticLoc::Path("a.b.c".into()).root(), Some("a"));
        assert_eq!(StaticLoc::Var("x".into()).root(), Some("x"));
        assert_eq!(StaticLoc::Unknown.root(), None);
    }

    #[test]
    fn rebase_this_to_receiver() {
        let loc = StaticLoc::Path("this.total".into());
        let out = loc.rebase(Some("acc"), &[], &[]);
        assert_eq!(out, StaticLoc::Path("acc.total".into()));
    }

    #[test]
    fn rebase_param_to_argument_path() {
        let loc = StaticLoc::Elem("buf.items".into());
        let out = loc.rebase(None, &["buf".into()], &[Some("queue".into())]);
        assert_eq!(out, StaticLoc::Elem("queue.items".into()));
    }

    #[test]
    fn rebase_unknown_argument_degrades_to_unknown() {
        let loc = StaticLoc::Path("p.f".into());
        let out = loc.rebase(None, &["p".into()], &[None]);
        assert_eq!(out, StaticLoc::Unknown);
    }

    #[test]
    fn rebase_var_param_to_simple_arg() {
        let loc = StaticLoc::Var("p".into());
        assert_eq!(
            loc.rebase(None, &["p".into()], &[Some("x".into())]),
            StaticLoc::Var("x".into())
        );
        assert_eq!(
            loc.rebase(None, &["p".into()], &[Some("a.b".into())]),
            StaticLoc::Path("a.b".into())
        );
    }
}
