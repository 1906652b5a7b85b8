//! Property tests for the block-chained structure fingerprint.
//!
//! The hash absorbs rows in blocks of [`BLOCK_ROWS`], eight words per step,
//! into two lanes, and [`FingerprintState`] checkpoints both lanes once per
//! block. These tests pin what that construction must deliver:
//!
//! * resuming from any row's block checkpoint lands on the full digest,
//!   including resume rows just before, on and after a block boundary and
//!   in a final partial block;
//! * every single structural edit changes *both* lanes, including the
//!   edit that leaves `col_idx` untouched and moves only a row boundary;
//! * no two distinct structures among thousands of small graphs and all
//!   of their single-edit neighbours share either lane;
//! * values never reach the digest.
//!
//! Each test is sized so that a broken construction fails it: a hash that
//! skipped the `row_ptr` terminators, dropped a step's zero-padded tail,
//! resumed one block late, or let one lane skip half the words.

use std::collections::{BTreeSet, HashMap};

use graph_sparse::fingerprint::BLOCK_ROWS;
use graph_sparse::{Coo, Csr, FingerprintState, StructureFingerprint};
use proptest::prelude::*;
use proptest::TestRng;

/// A structure as its set of occupied `(row, col)` cells.
#[derive(Debug, Clone)]
struct Cells {
    nrows: usize,
    ncols: usize,
    set: BTreeSet<(u32, u32)>,
}

impl Cells {
    /// A random structure: each row holds up to `max_per_row` columns.
    fn random(rng: &mut TestRng, nrows: usize, ncols: usize, max_per_row: u64) -> Cells {
        let mut set = BTreeSet::new();
        for r in 0..nrows as u32 {
            for _ in 0..rng.below(max_per_row + 1) {
                set.insert((r, rng.below(ncols as u64) as u32));
            }
        }
        Cells { nrows, ncols, set }
    }

    fn csr(&self) -> Csr {
        let triples = self.set.iter().map(|&(r, c)| (r, c, 1.0));
        Coo::from_triples(self.nrows, self.ncols, triples).to_csr()
    }

    fn row(&self, r: u32) -> impl Iterator<Item = u32> + '_ {
        self.set.range((r, 0)..=(r, u32::MAX)).map(|&(_, c)| c)
    }

    /// The same cells with `cell` toggled: added if absent, dropped if
    /// present.
    fn toggled(&self, cell: (u32, u32)) -> Cells {
        let mut out = self.clone();
        if !out.set.remove(&cell) {
            out.set.insert(cell);
        }
        out
    }

    /// The same cells with `from` moved to `to` (which must be free).
    fn moved(&self, from: (u32, u32), to: (u32, u32)) -> Cells {
        let mut out = self.clone();
        assert!(out.set.remove(&from) && out.set.insert(to));
        out
    }
}

/// A random structure of 1-400 rows, so graphs cross several block
/// boundaries and usually end in a partial block.
fn arb_cells() -> impl Strategy<Value = (Cells, u64)> {
    (1usize..401, 1usize..97, 0u64..12, 0u64..u64::MAX).prop_map(|(r, c, per_row, seed)| {
        let mut rng = TestRng::new(seed);
        (Cells::random(&mut rng, r, c, per_row), seed)
    })
}

/// Assert that `edited` differs from `base` in both digest lanes.
fn assert_both_lanes_change(base: &Csr, edited: &Csr, what: &str) -> Result<(), TestCaseError> {
    let (a, b) = (
        StructureFingerprint::of(base),
        StructureFingerprint::of(edited),
    );
    prop_assert!(a.lo != b.lo, "{what}: low lane unchanged ({a:?})");
    prop_assert!(a.hi != b.hi, "{what}: high lane unchanged ({a:?})");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An edit whose first dirty row is `d` — chosen to sit at 63, 64 and
    /// 65, at block boundaries further in, and in the last row — resumed
    /// from every row `0..=d` gives exactly the state of a full recompute.
    #[test]
    fn update_from_every_resume_row_equals_full_recompute(
        (cells, seed) in arb_cells(),
        pick in 0usize..8,
    ) {
        let mut rng = TestRng::new(seed ^ 0x5eed);
        let last = cells.nrows - 1;
        let random_row = rng.below(cells.nrows as u64) as usize;
        let d = [63, 64, 65, 127, 128, 129, last, random_row][pick].min(last);
        // Toggle one cell in row `d`, and a few more at or after it.
        let mut edited = cells.toggled((d as u32, rng.below(cells.ncols as u64) as u32));
        for _ in 0..rng.below(4) {
            let r = d as u64 + rng.below((cells.nrows - d) as u64);
            edited = edited.toggled((r as u32, rng.below(cells.ncols as u64) as u32));
        }
        let (a, b) = (cells.csr(), edited.csr());
        let st = FingerprintState::of(&a);
        let full = FingerprintState::of(&b);
        prop_assert_eq!(full.fingerprint(), StructureFingerprint::of(&b));
        prop_assert_eq!(full.nrows(), b.nrows);
        prop_assert_eq!(
            full.checkpoint_bytes(),
            16 * (b.nrows.div_ceil(BLOCK_ROWS) as u64 + 1)
        );
        for resume in 0..=d {
            prop_assert_eq!(&st.update(&b, resume), &full, "resume at row {} (dirty {})", resume, d);
        }
        // An unchanged matrix resumed from its very end is the same state.
        prop_assert_eq!(&st.update(&a, a.nrows), &st);
    }

    /// Every kind of single structural edit changes both lanes: moving a
    /// column, adding or dropping an entry, shifting an entry to the
    /// adjacent row, and changing `nrows` or `ncols`.
    #[test]
    fn every_single_structure_edit_changes_both_lanes((cells, seed) in arb_cells()) {
        let mut rng = TestRng::new(seed ^ 0xed17);
        let base = cells.csr();
        let (nrows, ncols) = (cells.nrows as u32, cells.ncols as u32);
        // A random free column of row `r`, if it has one.
        let free_in = |r: u32, rng: &mut TestRng| {
            let free: Vec<u32> = (0..ncols).filter(|&col| !cells.set.contains(&(r, col))).collect();
            (!free.is_empty()).then(|| free[rng.below(free.len() as u64) as usize])
        };

        let add_row = rng.below(nrows as u64) as u32;
        if let Some(col) = free_in(add_row, &mut rng) {
            assert_both_lanes_change(&base, &cells.toggled((add_row, col)).csr(), "add")?;
        }
        let entries: Vec<(u32, u32)> = cells.set.iter().copied().collect();
        if !entries.is_empty() {
            let (r, c) = entries[rng.below(entries.len() as u64) as usize];
            assert_both_lanes_change(&base, &cells.toggled((r, c)).csr(), "drop")?;
            if let Some(to) = free_in(r, &mut rng) {
                let moved = cells.moved((r, c), (r, to));
                assert_both_lanes_change(&base, &moved.csr(), "move column")?;
            }
            for nr in [r.wrapping_sub(1), r + 1] {
                if nr < nrows && !cells.set.contains(&(nr, c)) {
                    let shifted = cells.moved((r, c), (nr, c));
                    assert_both_lanes_change(&base, &shifted.csr(), "shift row")?;
                }
            }
        }
        // The boundary shift: the last entry of row r becomes the first of
        // row r + 1. `col_idx` is unchanged; only `row_ptr[r + 1]` moves.
        let boundary = (0..nrows.saturating_sub(1)).find_map(|r| {
            let last = cells.row(r).last()?;
            (cells.row(r + 1).next().is_none_or(|first| last < first)).then_some((r, last))
        });
        if let Some((r, c)) = boundary {
            let shifted = cells.moved((r, c), (r + 1, c)).csr();
            prop_assert_eq!(&shifted.col_idx, &base.col_idx);
            assert_both_lanes_change(&base, &shifted, "boundary shift")?;
        }
        let taller = apply(&base, Edit::Taller);
        assert_both_lanes_change(&base, &taller, "nrows + 1")?;
        let wider = apply(&base, Edit::Wider);
        assert_both_lanes_change(&base, &wider, "ncols + 1")?;
    }

    /// Rewriting every value leaves the digest and every checkpoint as
    /// they were.
    #[test]
    fn values_only_edits_leave_the_digest_unchanged(
        (cells, _seed) in arb_cells(),
        scale in -4.0f32..4.0,
    ) {
        let a = cells.csr();
        let mut b = a.clone();
        for (i, v) in b.vals.iter_mut().enumerate() {
            *v = *v * scale - i as f32;
        }
        prop_assert_eq!(StructureFingerprint::of(&a), StructureFingerprint::of(&b));
        prop_assert_eq!(FingerprintState::of(&a), FingerprintState::of(&b));
    }
}

/// The structure a digest must determine, as one flat word vector.
fn structure_key(a: &Csr) -> Vec<u32> {
    let mut key = vec![a.nrows as u32, a.ncols as u32];
    key.extend_from_slice(&a.row_ptr);
    key.extend_from_slice(&a.col_idx);
    key
}

/// A single-edit neighbour of a base graph (or the graph itself).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Edit {
    None,
    Toggle(usize, u32),
    Taller,
    Wider,
}

/// `a` with `e` applied, editing the CSR arrays in place (the collision
/// test builds hundreds of thousands of neighbours).
fn apply(a: &Csr, e: Edit) -> Csr {
    let mut b = a.clone();
    match e {
        Edit::None => {}
        Edit::Toggle(r, c) => {
            let lo = a.row_ptr[r] as usize;
            let row = &a.col_idx[lo..a.row_ptr[r + 1] as usize];
            let shift = match row.binary_search(&c) {
                Ok(i) => {
                    b.col_idx.remove(lo + i);
                    b.vals.remove(lo + i);
                    u32::wrapping_sub
                }
                Err(i) => {
                    b.col_idx.insert(lo + i, c);
                    b.vals.insert(lo + i, 1.0);
                    u32::wrapping_add
                }
            };
            for p in &mut b.row_ptr[r + 1..] {
                *p = shift(*p, 1);
            }
        }
        Edit::Taller => {
            b.nrows += 1;
            b.row_ptr.push(a.nnz() as u32);
        }
        Edit::Wider => b.ncols += 1,
    }
    b
}

/// Over a few thousand random graphs and every single-edit neighbour of
/// each — every cell toggled, plus one more row and one more column — no
/// two distinct structures share the low lane, and none share the high
/// lane. Most graphs are small enough to toggle every cell; every fourth
/// one is tall and narrow, so its edits land in several row blocks.
///
/// Each lane value maps to the (graph, edit) that first produced it; on
/// a repeat, both structures are rebuilt and must be equal.
#[test]
fn no_lane_collisions_among_graphs_and_their_single_edit_neighbours() {
    let mut rng = TestRng::new(0xc011_1de5);
    let graphs: Vec<Csr> = (0..3_000)
        .map(|g| {
            if g % 4 == 3 {
                let (nrows, ncols) = (60 + rng.below(90) as usize, 1 + rng.below(3) as usize);
                Cells::random(&mut rng, nrows, ncols, 2).csr()
            } else {
                let (nrows, ncols) = (1 + rng.below(9) as usize, 1 + rng.below(9) as usize);
                Cells::random(&mut rng, nrows, ncols, 4).csr()
            }
        })
        .collect();
    let mut seen: [HashMap<u64, (usize, Edit)>; 2] = [HashMap::new(), HashMap::new()];
    let mut checked = 0usize;
    for (g, base) in graphs.iter().enumerate() {
        let ncols = base.ncols as u32;
        let toggles = (0..base.nrows).flat_map(|r| (0..ncols).map(move |c| Edit::Toggle(r, c)));
        for edit in [Edit::None, Edit::Taller, Edit::Wider]
            .into_iter()
            .chain(toggles)
        {
            let a = apply(base, edit);
            let fp = StructureFingerprint::of(&a);
            for (lane, value) in [fp.lo, fp.hi].into_iter().enumerate() {
                let (pg, pe) = *seen[lane].entry(value).or_insert((g, edit));
                if (pg, pe) != (g, edit) {
                    let prior = apply(&graphs[pg], pe);
                    assert_eq!(
                        structure_key(&prior),
                        structure_key(&a),
                        "lane {lane} collision at {value:#018x}: graph {pg} {pe:?} vs graph {g} {edit:?}"
                    );
                }
            }
            checked += 1;
        }
    }
    assert!(checked > 100_000, "too few structures checked: {checked}");
    assert!(
        seen[0].len() > 50_000,
        "too few distinct structures: {}",
        seen[0].len()
    );
    assert_eq!(
        seen[0].len(),
        seen[1].len(),
        "the lanes disagree on how many structures differ"
    );
}
