//! Dynamic execution profiles.
//!
//! Patty's semantic model is "the cross product from the control flow
//! graph, the data dependencies, the call graph, and runtime information"
//! (Section 2.1). The [`Profile`] is that runtime information: per-statement
//! hit counts, per-statement inclusive virtual cost (runtime shares drive
//! the tuning parameters in rule PLTP), observed call edges, and — for each
//! traced loop — one flat table of the memory accesses its first iterations
//! made ([`LoopTrace`]).
//!
//! The table is two vectors: the distinct locations in [`DynLoc`] order,
//! and one [`Access`] `(iteration, statement, location id, kind)` per
//! observed access, sorted and unique. Both engines number each location
//! the first time they record it, rank the numbers once after the run, and
//! end in the one constructor, [`LoopTrace::new`], with a loop's distinct
//! locations and its accesses by rank. So a location is materialised once
//! however often it was touched, and every reader — loop-carried dependence
//! extraction, unit-test generation, the JSON rendering, the size
//! statistics — is a pass over integers.

use crate::span::NodeId;
use crate::value::HeapId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;
use std::rc::Rc;

/// Read or write, for memory accesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    Read,
    Write,
}

/// A dynamically observed memory location.
///
/// Locals are identified by the frame serial so recursion and re-entry
/// produce distinct cells; heap locations carry the exact object identity
/// and (for elements) the index — this is what makes the dynamic analysis
/// precise where the static one must be optimistic. A trace holds each
/// distinct location once, in this type's `Ord` order, and its accesses
/// name it by position; names are shared `Rc<str>`s, so cloning one is a
/// refcount bump.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DynLoc {
    /// A local variable cell in a specific activation frame.
    Local(u32, Rc<str>),
    /// A field of a specific heap object.
    Field(HeapId, Rc<str>),
    /// An element of a specific list at a specific index.
    Elem(HeapId, i64),
    /// The structure (length) of a specific list; `add`/`clear` write it,
    /// `len`/iteration read it.
    ListStruct(HeapId),
}

/// One observed access: direct body statement `stmt` touched location
/// `locs()[loc]` during iteration `iter` of the loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Access {
    pub iter: u32,
    pub stmt: NodeId,
    /// Index into [`LoopTrace::locs`], which is also the location's rank.
    pub loc: u32,
    pub kind: AccessKind,
}

/// Trace of one loop: how often it iterated, what each direct body
/// statement cost, and the access table of its first iterations.
///
/// The table is canonical — `locs` distinct and ascending, `accesses`
/// ascending and unique by `(iter, stmt, loc, kind)` — so two traces of
/// the same behaviour are equal field for field whichever engine built
/// them and in whatever order the records arrived. The traced prefix runs
/// up to the last iteration that recorded anything.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoopTrace {
    /// Total iterations executed (can exceed `traced_iters()`).
    pub iterations: u64,
    /// Virtual cost attributed to each direct body statement, summed over
    /// the whole run (inclusive of callees). Drives stage runtime shares.
    pub stmt_cost: BTreeMap<NodeId, u64>,
    locs: Vec<DynLoc>,
    accesses: Vec<Access>,
}

/// An observed cross-iteration (loop-carried) dependency between two direct
/// body statements of a traced loop.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CarriedDep {
    /// Statement in the earlier iteration.
    pub src: NodeId,
    /// Statement in the later iteration.
    pub dst: NodeId,
    /// Flow (write→read), anti (read→write) or output (write→write).
    pub kind: DepKind,
    /// The location that carries the dependency.
    pub loc: DynLoc,
}

/// Dependence kinds (true/anti/output in the classic terminology; the
/// related-work section faults ParaGraph for *not* distinguishing these).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DepKind {
    Flow,
    Anti,
    Output,
}

impl DepKind {
    /// The dependence an `earlier` access imposes on a `later` one to the
    /// same location, if any (two reads impose none).
    fn between(earlier: AccessKind, later: AccessKind) -> Option<DepKind> {
        match (earlier, later) {
            (AccessKind::Write, AccessKind::Read) => Some(DepKind::Flow),
            (AccessKind::Read, AccessKind::Write) => Some(DepKind::Anti),
            (AccessKind::Write, AccessKind::Write) => Some(DepKind::Output),
            (AccessKind::Read, AccessKind::Read) => None,
        }
    }
}

impl LoopTrace {
    /// Build the canonical table from `locs` — distinct, ascending, each one
    /// named by some access — and raw accesses naming them by index (dense
    /// ranks), repeats allowed.
    ///
    /// Accesses grouped by ascending `(iter, stmt)`, the order one recording
    /// context emits them in, are put in table order by two stable counting
    /// passes: by `(loc, kind)`, then by group. Any other order — a loop
    /// that re-entered itself interleaves two contexts, a hash set has none
    /// — takes a comparison sort.
    pub fn new(
        iterations: u64,
        stmt_cost: BTreeMap<NodeId, u64>,
        locs: Vec<DynLoc>,
        mut accesses: Vec<Access>,
    ) -> LoopTrace {
        debug_assert!(locs.windows(2).all(|w| w[0] < w[1]), "locations not distinct and ascending");
        debug_assert!(accesses.iter().all(|a| (a.loc as usize) < locs.len()), "access past the locations");
        if accesses.windows(2).all(|w| (w[0].iter, w[0].stmt) <= (w[1].iter, w[1].stmt)) {
            counting_sort(&mut accesses, locs.len());
        } else {
            accesses.sort_unstable();
        }
        accesses.dedup();
        debug_assert!(accesses.windows(2).all(|w| w[0] < w[1]), "accesses not in table order");
        LoopTrace { iterations, stmt_cost, locs, accesses }
    }

    /// The distinct locations the traced iterations touched, ascending.
    pub fn locs(&self) -> &[DynLoc] {
        &self.locs
    }

    /// Every observed access, ascending by `(iter, stmt, loc, kind)`.
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// Length of the traced prefix: one past the last iteration that
    /// recorded an access (earlier ones may have recorded none).
    pub fn traced_iters(&self) -> usize {
        self.accesses.last().map_or(0, |a| a.iter as usize + 1)
    }

    /// Visit every observed loop-carried dependence on a location `keep`
    /// accepts, over the traced prefix of iterations; the same dependence
    /// can be reported more than once.
    ///
    /// A carried dependence exists when statement `src` accesses a location
    /// in iteration `i`, statement `dst` accesses the same location in a
    /// later iteration `j > i`, and at least one access is a write. Only a
    /// location that is written and touched in two iterations can carry
    /// one; those are bucketed by id and each bucket is walked once against
    /// the `(stmt, kind)` pairs its earlier iterations made.
    pub fn carried(
        &self,
        keep: impl Fn(&DynLoc) -> bool,
        mut emit: impl FnMut(NodeId, NodeId, DepKind, &DynLoc),
    ) {
        const WRITTEN: u8 = 1;
        const REVISITED: u8 = 2;
        let n = self.locs.len();
        let mut first_iter = vec![u32::MAX; n];
        let mut flags = vec![0u8; n];
        // Accesses per location for now, bucket boundaries below.
        let mut ends = vec![0usize; n];
        for a in &self.accesses {
            let l = a.loc as usize;
            if a.kind == AccessKind::Write {
                flags[l] |= WRITTEN;
            }
            if first_iter[l] == u32::MAX {
                first_iter[l] = a.iter;
            } else if first_iter[l] != a.iter {
                flags[l] |= REVISITED;
            }
            ends[l] += 1;
        }
        let mut total = 0;
        for l in 0..n {
            let live = flags[l] == WRITTEN | REVISITED && keep(&self.locs[l]);
            flags[l] = u8::from(live);
            let count = std::mem::replace(&mut ends[l], total);
            total += if live { count } else { 0 };
        }
        // Stable scatter: a bucket keeps (iter, stmt, kind) order, and
        // `ends[l]` finishes as the end of bucket `l`.
        let mut by_loc = vec![Access { iter: 0, stmt: NodeId(0), loc: 0, kind: AccessKind::Read }; total];
        for a in &self.accesses {
            let l = a.loc as usize;
            if flags[l] != 0 {
                by_loc[ends[l]] = *a;
                ends[l] += 1;
            }
        }
        let mut earlier: Vec<(NodeId, AccessKind)> = Vec::new();
        let mut begin = 0;
        for (loc, &end) in self.locs.iter().zip(&ends) {
            earlier.clear();
            for iteration in by_loc[begin..end].chunk_by(|a, b| a.iter == b.iter) {
                for later in iteration {
                    for &(src, kind) in &earlier {
                        if let Some(dep) = DepKind::between(kind, later.kind) {
                            emit(src, later.stmt, dep, loc);
                        }
                    }
                }
                for a in iteration {
                    if !earlier.contains(&(a.stmt, a.kind)) {
                        earlier.push((a.stmt, a.kind));
                    }
                }
            }
            begin = end;
        }
    }

    /// All observed loop-carried dependencies between direct body
    /// statements, as a set (see [`LoopTrace::carried`]).
    pub fn carried_deps(&self) -> BTreeSet<CarriedDep> {
        let mut out = BTreeSet::new();
        self.carried(
            |_| true,
            |src, dst, kind, loc| {
                out.insert(CarriedDep { src, dst, kind, loc: loc.clone() });
            },
        );
        out
    }

    /// Fraction of this loop's total direct-statement cost attributed to
    /// `stmt` (0.0 when the loop has no recorded cost).
    pub fn cost_share(&self, stmt: NodeId) -> f64 {
        let total: u64 = self.stmt_cost.values().sum();
        if total == 0 {
            return 0.0;
        }
        *self.stmt_cost.get(&stmt).unwrap_or(&0) as f64 / total as f64
    }
}

/// Table order for accesses grouped by ascending `(iter, stmt)`: a stable
/// counting pass by `(loc, kind)`, then one by group, so every group ends
/// sorted by `(loc, kind)`. Between the passes `iter` holds the group's
/// number. Linear in the accesses plus the locations.
fn counting_sort(accesses: &mut [Access], n_locs: usize) {
    // Per group: its `iter` and where it starts, in arrival order and so in
    // table order too.
    let mut groups: Vec<(u32, u32)> = Vec::new();
    let mut prev = None;
    for (at, a) in accesses.iter_mut().enumerate() {
        if prev != Some((a.iter, a.stmt)) {
            prev = Some((a.iter, a.stmt));
            groups.push((a.iter, at as u32));
        }
        a.iter = groups.len() as u32 - 1;
    }
    let key = |a: &Access| a.loc as usize * 2 + a.kind as usize;
    let mut next = vec![0u32; 2 * n_locs + 1];
    for a in accesses.iter() {
        next[key(a) + 1] += 1;
    }
    for k in 1..next.len() {
        next[k] += next[k - 1];
    }
    let mut by_loc = accesses.to_vec();
    for a in accesses.iter() {
        by_loc[next[key(a)] as usize] = *a;
        next[key(a)] += 1;
    }
    for a in by_loc {
        let (iter, at) = &mut groups[a.iter as usize];
        accesses[*at as usize] = Access { iter: *iter, ..a };
        *at += 1;
    }
}

/// The complete dynamic profile of one program execution.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Executions per statement.
    pub stmt_hits: BTreeMap<NodeId, u64>,
    /// Inclusive virtual cost per statement (callees included).
    pub stmt_cost: BTreeMap<NodeId, u64>,
    /// Per-loop traces (keyed by the loop statement's id).
    pub loop_traces: BTreeMap<NodeId, LoopTrace>,
    /// Total virtual cost of the run.
    pub total_cost: u64,
    /// Dynamically observed call edges (caller function, callee function),
    /// deduplicated.
    pub call_edges: BTreeSet<(String, String)>,
}

/// Size statistics of a profile — the paper's future-work metric is "the
/// runtime and memory increase" of the dynamic analysis, and this is the
/// memory side: how much trace data one profiled execution retains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfileStats {
    /// Loops that were traced.
    pub loops: usize,
    /// Total traced (loop, iteration) pairs.
    pub traced_iterations: usize,
    /// Total recorded (iteration, statement, location, kind) access
    /// entries: the summed length of the loops' access tables.
    pub recorded_accesses: usize,
    /// Statements with cost/hit counters.
    pub counted_statements: usize,
}

impl Profile {
    /// Runtime share of a statement relative to the whole run.
    pub fn share(&self, stmt: NodeId) -> f64 {
        if self.total_cost == 0 {
            return 0.0;
        }
        *self.stmt_cost.get(&stmt).unwrap_or(&0) as f64 / self.total_cost as f64
    }

    /// Size statistics of the retained trace data.
    pub fn stats(&self) -> ProfileStats {
        ProfileStats {
            loops: self.loop_traces.len(),
            traced_iterations: self.loop_traces.values().map(|t| t.traced_iters()).sum(),
            recorded_accesses: self.loop_traces.values().map(|t| t.accesses.len()).sum(),
            counted_statements: self.stmt_cost.len(),
        }
    }

    /// Canonical JSON rendering of the complete profile.
    ///
    /// Every container is ordered (`BTreeMap`/`BTreeSet`, the canonical
    /// access tables), so two profiles are byte-identical here iff they
    /// are semantically identical — the comparison the differential engine
    /// tests rely on.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        let _ = write!(s, "{{\"total_cost\":{},\"stmt_hits\":", self.total_cost);
        json_id_map(&mut s, &self.stmt_hits);
        s.push_str(",\"stmt_cost\":");
        json_id_map(&mut s, &self.stmt_cost);
        s.push_str(",\"call_edges\":");
        json_list(&mut s, &self.call_edges, |s, (from, to)| json_list(s, [from, to], |s, v| json_str(s, v)));
        s.push_str(",\"loop_traces\":");
        json_list(&mut s, &self.loop_traces, |s, (id, t)| {
            let _ = write!(s, "[{},{{\"iterations\":{},\"stmt_cost\":", id.0, t.iterations);
            json_id_map(s, &t.stmt_cost);
            s.push_str(",\"traced\":");
            let mut rest = t.accesses.as_slice();
            json_list(s, 0..t.traced_iters() as u32, |s, iter| {
                let (of_iter, later) = rest.split_at(rest.partition_point(|a| a.iter == iter));
                rest = later;
                json_list(s, of_iter.chunk_by(|a, b| a.stmt == b.stmt), |s, of_stmt| {
                    let _ = write!(s, "[{},", of_stmt[0].stmt.0);
                    json_list(s, of_stmt, |s, a| json_access(s, &t.locs[a.loc as usize], a.kind));
                    s.push(']');
                });
            });
            s.push_str("}]");
        });
        s.push('}');
        s
    }
}

/// `[item,item,…]`, each item written by `each`.
fn json_list<T>(s: &mut String, items: impl IntoIterator<Item = T>, mut each: impl FnMut(&mut String, T)) {
    s.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        each(s, item);
    }
    s.push(']');
}

fn json_id_map(s: &mut String, map: &BTreeMap<NodeId, u64>) {
    json_list(s, map, |s, (id, v)| {
        let _ = write!(s, "[{},{v}]", id.0);
    });
}

fn json_str(s: &mut String, v: &str) {
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
}

fn json_access(s: &mut String, loc: &DynLoc, kind: AccessKind) {
    let _ = match loc {
        DynLoc::Local(serial, _) => write!(s, "[[\"local\",{serial},"),
        DynLoc::Field(id, _) => write!(s, "[[\"field\",{id},"),
        DynLoc::Elem(id, idx) => write!(s, "[[\"elem\",{id},{idx}"),
        DynLoc::ListStruct(id) => write!(s, "[[\"list\",{id}"),
    };
    if let DynLoc::Local(_, name) | DynLoc::Field(_, name) = loc {
        json_str(s, name);
    }
    s.push_str(match kind {
        AccessKind::Read => "],\"r\"]",
        AccessKind::Write => "],\"w\"]",
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use AccessKind::{Read, Write};

    fn nid(n: u32) -> NodeId {
        NodeId(n)
    }

    /// A trace of `(iter, stmt, loc, kind)` records, in the order given.
    fn trace(records: &[(u32, u32, &DynLoc, AccessKind)]) -> LoopTrace {
        let mut locs: Vec<DynLoc> = records.iter().map(|r| r.2.clone()).collect();
        locs.sort();
        locs.dedup();
        let accesses = records
            .iter()
            .map(|&(iter, s, l, kind)| Access { iter, stmt: nid(s), loc: locs.binary_search(l).unwrap() as u32, kind })
            .collect();
        LoopTrace::new(0, BTreeMap::new(), locs, accesses)
    }

    #[test]
    fn carried_flow_dep_detected() {
        let loc = DynLoc::Field(7, "acc".into());
        // iter 0: stmt 1 writes acc; iter 1: stmt 2 reads acc
        let deps = trace(&[(0, 1, &loc, Write), (1, 2, &loc, Read)]).carried_deps();
        assert!(deps.contains(&CarriedDep { src: nid(1), dst: nid(2), kind: DepKind::Flow, loc }));
    }

    #[test]
    fn read_read_is_not_a_dependency() {
        let loc = DynLoc::Elem(3, 0);
        assert!(trace(&[(0, 1, &loc, Read), (1, 1, &loc, Read)]).carried_deps().is_empty());
    }

    #[test]
    fn disjoint_indices_do_not_conflict() {
        // a[i] = ...: each iteration writes a different element — the
        // precise dynamic view shows no carried dependency (DOALL).
        let elems: Vec<DynLoc> = (0..4).map(|i| DynLoc::Elem(9, i)).collect();
        let records: Vec<_> = elems.iter().enumerate().map(|(i, l)| (i as u32, 1, l, Write)).collect();
        assert!(trace(&records).carried_deps().is_empty());
    }

    #[test]
    fn anti_and_output_deps_classified() {
        let loc = DynLoc::Local(0, "x".into());
        let t = trace(&[(0, 1, &loc, Read), (0, 1, &loc, Write), (1, 1, &loc, Read), (1, 1, &loc, Write)]);
        let kinds: BTreeSet<DepKind> = t.carried_deps().into_iter().map(|d| d.kind).collect();
        assert_eq!(kinds, BTreeSet::from([DepKind::Flow, DepKind::Anti, DepKind::Output]));
    }

    #[test]
    fn table_is_canonical_whatever_the_record_order() {
        let (a, b) = (DynLoc::Local(1, "a".into()), DynLoc::Elem(2, -1));
        let t = trace(&[(2, 5, &b, Write), (0, 4, &b, Read), (2, 5, &a, Read), (2, 5, &b, Write)]);
        assert_eq!(t.locs(), [a, b]);
        let rows: Vec<_> = t.accesses().iter().map(|x| (x.iter, x.stmt.0, x.loc, x.kind)).collect();
        assert_eq!(rows, [(0, 4, 1, Read), (2, 5, 0, Read), (2, 5, 1, Write)]);
        // Iteration 1 recorded nothing and is still part of the prefix.
        assert_eq!(t.traced_iters(), 3);
    }

    #[test]
    fn grouped_records_take_the_counting_passes_to_the_same_table() {
        let (a, b, c) = (DynLoc::Local(1, "a".into()), DynLoc::Elem(2, -1), DynLoc::ListStruct(2));
        // Ascending (iter, stmt) groups, unsorted and repeated inside each.
        let grouped = [
            (0, 4, &c, Write),
            (0, 4, &a, Read),
            (0, 4, &c, Read),
            (0, 4, &a, Read),
            (0, 6, &b, Write),
            (2, 4, &b, Read),
            (2, 4, &a, Write),
            (2, 4, &b, Read),
        ];
        let mut scrambled = grouped;
        scrambled.reverse();
        let t = trace(&grouped);
        assert_eq!(t, trace(&scrambled));
        let rows: Vec<_> = t.accesses().iter().map(|x| (x.iter, x.stmt.0, x.loc, x.kind)).collect();
        assert_eq!(
            rows,
            [(0, 4, 0, Read), (0, 4, 2, Read), (0, 4, 2, Write), (0, 6, 1, Write), (2, 4, 0, Write), (2, 4, 1, Read)]
        );
    }

    #[test]
    fn cost_share_normalizes() {
        let mut t = LoopTrace::default();
        t.stmt_cost.insert(nid(1), 75);
        t.stmt_cost.insert(nid(2), 25);
        assert!((t.cost_share(nid(1)) - 0.75).abs() < 1e-9);
        assert_eq!(t.cost_share(nid(3)), 0.0);
    }
}
