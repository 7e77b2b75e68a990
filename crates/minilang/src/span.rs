//! Source positions, spans and AST node identities.
//!
//! Every AST node carries a [`NodeId`] (stable within one parsed program)
//! and a [`Span`] pointing back into the original source text. Patty uses
//! node ids as the join key between the static analyses, the dynamic
//! profile, the pattern detector and the source rewriter, and spans to
//! render pattern overlays over the original source (paper Fig. 4b).

use std::fmt;

/// Identity of an AST node within a single parsed [`crate::ast::Program`].
///
/// Ids are dense and allocated in parse order, so they are usable as vector
/// indices. `NodeId(0)` is reserved for the program root.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A half-open byte range `[lo, hi)` into the source text, plus the
/// 1-based line of `lo` for human-readable locations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub lo: u32,
    /// Byte offset one past the last character.
    pub hi: u32,
    /// 1-based line number of `lo`.
    pub line: u32,
}

impl Span {
    /// A span covering nothing, used for synthesized nodes.
    pub const DUMMY: Span = Span { lo: 0, hi: 0, line: 0 };

    /// Create a new span.
    pub fn new(lo: u32, hi: u32, line: u32) -> Span {
        debug_assert!(lo <= hi);
        Span { lo, hi, line }
    }

    /// Smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            line: if self.lo <= other.lo { self.line } else { other.line },
        }
    }

    /// Extract the spanned text from the source it was produced from.
    pub fn text<'s>(&self, source: &'s str) -> &'s str {
        &source[self.lo as usize..self.hi as usize]
    }

    /// Whether this span fully contains `other`.
    pub fn contains(&self, other: Span) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Length in bytes.
    pub fn len(&self) -> u32 {
        self.hi - self.lo
    }

    /// True for zero-length spans.
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {} [{}..{})", self.line, self.lo, self.hi)
    }
}

/// Allocates dense [`NodeId`]s during parsing.
#[derive(Debug, Default)]
pub(crate) struct NodeIdGen {
    next: u32,
}

impl NodeIdGen {
    /// Fresh generator; the first id handed out is `NodeId(1)` because
    /// `NodeId(0)` is the program root.
    pub fn new() -> NodeIdGen {
        NodeIdGen { next: 1 }
    }

    /// Allocate the next id.
    pub fn fresh(&mut self) -> NodeId {
        let id = NodeId(self.next);
        self.next += 1;
        id
    }

    /// Number of ids allocated so far (including the root).
    pub fn count(&self) -> usize {
        self.next as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_join_orders_lines() {
        let a = Span::new(10, 14, 2);
        let b = Span::new(20, 30, 4);
        let j = a.to(b);
        assert_eq!(j, Span::new(10, 30, 2));
        let k = b.to(a);
        assert_eq!(k, Span::new(10, 30, 2));
    }

    #[test]
    fn span_contains_and_len() {
        let outer = Span::new(0, 100, 1);
        let inner = Span::new(10, 20, 2);
        assert!(outer.contains(inner));
        assert!(!inner.contains(outer));
        assert_eq!(inner.len(), 10);
        assert!(!inner.is_empty());
        assert!(Span::DUMMY.is_empty());
    }

    #[test]
    fn span_text_slices_source() {
        let src = "hello world";
        let s = Span::new(6, 11, 1);
        assert_eq!(s.text(src), "world");
    }

    #[test]
    fn node_id_gen_is_dense_and_skips_root() {
        let mut g = NodeIdGen::new();
        assert_eq!(g.fresh(), NodeId(1));
        assert_eq!(g.fresh(), NodeId(2));
        assert_eq!(g.count(), 3);
    }
}
