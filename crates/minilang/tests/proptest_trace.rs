//! Property tests of the loop access table: on seeded random traces the
//! one-pass carried-dependence extraction agrees with an all-pairs
//! reference kept only here, and the table constructor lands on the same
//! table whatever order (and however often) its records arrive.

use patty_minilang::profile::{Access, AccessKind, CarriedDep, DepKind, DynLoc, LoopTrace};
use patty_minilang::span::NodeId;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

type Record = (DynLoc, u32, NodeId, AccessKind);

/// A few locations of every variant, some differing in one field only.
fn locations() -> Vec<DynLoc> {
    vec![
        DynLoc::Local(1, "a".into()),
        DynLoc::Local(2, "a".into()),
        DynLoc::Field(3, "f".into()),
        DynLoc::Elem(4, -1),
        DynLoc::Elem(4, 2),
        DynLoc::ListStruct(4),
    ]
}

/// Up to 60 accesses by 4 statements to 6 locations over 1–12 iterations;
/// sparse enough that whole iterations stay empty.
fn arb_records() -> impl Strategy<Value = Vec<Record>> {
    let access = (0u32..12, 0u32..4, 0usize..6, any::<bool>());
    (1u32..=12, proptest::collection::vec(access, 0..60)).prop_map(|(iters, raw)| {
        let locs = locations();
        raw.into_iter()
            .map(|(iter, stmt, loc, write)| {
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                (locs[loc].clone(), iter % iters, NodeId(stmt), kind)
            })
            .collect()
    })
}

/// The table of `records` in the order given: locations ranked among
/// themselves, accesses naming them by rank.
fn table(records: Vec<Record>) -> LoopTrace {
    let mut locs: Vec<DynLoc> = records.iter().map(|r| r.0.clone()).collect();
    locs.sort();
    locs.dedup();
    let accesses = records
        .iter()
        .map(|(loc, iter, stmt, kind)| {
            Access { iter: *iter, stmt: *stmt, loc: locs.binary_search(loc).unwrap() as u32, kind: *kind }
        })
        .collect();
    let traced = records.iter().map(|r| r.1 as usize + 1).max().unwrap_or(0);
    LoopTrace::new(0, traced, BTreeMap::new(), locs, accesses)
}

/// Every pair of accesses to one location in two different iterations,
/// at least one of them a write.
fn all_pairs(records: &[Record]) -> BTreeSet<CarriedDep> {
    let mut out = BTreeSet::new();
    for (loc, earlier, src, k1) in records {
        for (_, _, dst, k2) in records.iter().filter(|(l, later, ..)| l == loc && earlier < later) {
            let kind = match (k1, k2) {
                (AccessKind::Write, AccessKind::Read) => DepKind::Flow,
                (AccessKind::Read, AccessKind::Write) => DepKind::Anti,
                (AccessKind::Write, AccessKind::Write) => DepKind::Output,
                (AccessKind::Read, AccessKind::Read) => continue,
            };
            out.insert(CarriedDep { src: *src, dst: *dst, kind, loc: loc.clone() });
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn carried_deps_equal_the_all_pairs_reference(records in arb_records()) {
        let expected = all_pairs(&records);
        let t = table(records);
        prop_assert_eq!(t.carried_deps(), expected.clone());
        // A location filter drops exactly that location's dependences.
        let mut heap_only = BTreeSet::new();
        t.carried(
            |loc| !matches!(loc, DynLoc::Local(..)),
            |src, dst, kind, loc| {
                heap_only.insert(CarriedDep { src, dst, kind, loc: loc.clone() });
            },
        );
        let expected_heap: BTreeSet<CarriedDep> =
            expected.into_iter().filter(|d| !matches!(d.loc, DynLoc::Local(..))).collect();
        prop_assert_eq!(heap_only, expected_heap);
    }

    #[test]
    fn constructor_is_canonical_and_idempotent(records in arb_records(), turn in 0usize..60) {
        let t = table(records.clone());
        prop_assert!(t.locs().windows(2).all(|w| w[0] < w[1]));
        prop_assert!(t.accesses().windows(2).all(|w| w[0] < w[1]));

        // Reversed, rotated and with every record twice: the same table.
        let mut shuffled = records.clone();
        shuffled.reverse();
        shuffled.rotate_left(turn % records.len().max(1));
        shuffled.extend(records);
        prop_assert_eq!(&table(shuffled), &t);

        // Its own rows fed back: the same table.
        let rows = t.accesses().iter().map(|a| (t.locs()[a.loc as usize].clone(), a.iter, a.stmt, a.kind));
        prop_assert_eq!(&table(rows.collect()), &t);
    }

    #[test]
    fn counting_passes_and_the_sort_fallback_agree(records in arb_records()) {
        // Grouped by ascending (iter, stmt), as one recording context emits
        // them — repeats and (loc, kind) disorder kept inside each group —
        // the records take the counting passes; shuffled, the sort.
        let mut grouped = records.clone();
        grouped.sort_by_key(|r| (r.1, r.2));
        let mut shuffled = records;
        shuffled.sort_by_key(|r| (r.2, std::cmp::Reverse(r.1)));
        prop_assert_eq!(table(grouped), table(shuffled));
    }
}
