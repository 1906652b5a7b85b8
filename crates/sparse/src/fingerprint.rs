//! Deterministic structure fingerprint over a CSR matrix.
//!
//! The serving layer keys its plan cache on the *structure* of a graph —
//! dimensions, row pointers and column indices — because every plan
//! artifact (row windows, condensed columns, core choices, the LOA
//! permutation) is a pure function of structure. Values are deliberately
//! excluded: two requests whose graphs differ only in edge weights share a
//! plan, which is exactly the GNN-serving pattern (normalized adjacency
//! values change per model, connectivity does not).
//!
//! # Construction
//!
//! The fingerprint is a 128-bit hash made of two 64-bit lanes that both
//! absorb every structure word, each with its own constants:
//!
//! * The `(nrows, ncols)` header seeds both lanes.
//! * The rows are then absorbed in blocks of [`BLOCK_ROWS`] (the last block
//!   may be partial). A block contributes two flat `u32` streams: its
//!   `row_ptr[r0 + 1..=r1]` terminators, then its column slice
//!   `col_idx[row_ptr[r0]..row_ptr[r1]]`. Each stream is absorbed eight
//!   words at a time, packed into four `u64`s; a final partial step is
//!   zero-padded. The header fixes every stream's length (the terminator
//!   count from `nrows`, the column count from the terminators), so the
//!   padded word sequence still determines the structure exactly.
//! * Each step costs a lane one *folded multiply* (the full 64×64→128-bit
//!   product with its halves XORed) that depends on the lane state, plus
//!   one that does not. The dependent product takes the state in both
//!   operands, so only a word equal to the (pseudorandom) state could zero
//!   it. One dependent multiply per eight words leaves the loop bound by
//!   multiplier throughput, not by a chain of per-word scrambles.
//! * A SplitMix64 finalizer runs on each lane, so every digest bit —
//!   including the low bits `fp.lo & mask` that pick a cache shard — is
//!   avalanche-mixed.
//!
//! This is a non-cryptographic hash. Its collision bound is empirical (the
//! property tests find no collision in either lane over hundreds of
//! thousands of near-identical structures), not proven, and nothing stops
//! an adversary who knows the constants from constructing a collision.
//! The independent product vanishes when a packed word pair equals a lane
//! constant; every constant has both 32-bit halves at or above 2³¹, so that
//! takes a column index or row offset of 2³¹ or more.
//!
//! The hash is serial on purpose: the digest must be identical at any
//! worker-thread count, so it never touches the `hc-parallel` pool.
//!
//! # Incremental updates
//!
//! Absorbing whole row blocks in order is what makes the digest
//! *incrementally updatable*: [`FingerprintState`] keeps both lane states
//! after every block (16 bytes per [`BLOCK_ROWS`] rows), so a structural
//! edit whose first mutated row is `d` re-absorbs only the blocks from
//! `d / BLOCK_ROWS` on. Blocks before that hold only rows before `d`,
//! whose `row_ptr` terminators and column slices an edit starting at `d`
//! cannot change, so their checkpoint is valid for the mutated matrix too.

use crate::csr::Csr;

/// Rows per absorbed block, and so per [`FingerprintState`] checkpoint.
pub const BLOCK_ROWS: usize = 64;

/// 128-bit structure digest of a CSR matrix; the plan-cache key.
///
/// Equality means "same `nrows`, `ncols`, `row_ptr` and `col_idx`" up to
/// hash collisions (non-cryptographic; see the module docs); values play
/// no part.
///
/// ```
/// use graph_sparse::{gen, StructureFingerprint};
///
/// let a = gen::erdos_renyi(64, 200, 1);
/// let mut b = a.clone();
/// b.vals.iter_mut().for_each(|v| *v *= 2.0); // reweight only
/// assert_eq!(StructureFingerprint::of(&a), StructureFingerprint::of(&b));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructureFingerprint {
    /// Low lane of the digest.
    pub lo: u64,
    /// High lane of the digest.
    pub hi: u64,
}

/// SplitMix64 finalizer: a bijective scramble with full avalanche, so a
/// single-bit difference in the input flips ~half the output bits.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The folded multiply: the full 128-bit product of `a` and `b`, with its
/// two halves XORed together.
#[inline(always)]
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Number of row blocks covering `nrows` rows.
fn block_count(nrows: usize) -> usize {
    nrows.div_ceil(BLOCK_ROWS)
}

/// Both hash lanes, before finalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Lanes {
    lo: u64,
    hi: u64,
}

impl Lanes {
    /// Independent lane seeds (hex digits of π).
    const SEED: Lanes = Lanes {
        lo: 0x2435_f6a8_885a_308d,
        hi: 0x1319_8a2e_0370_7344,
    };

    /// Per-lane step constants (further hex digits of π, with the top bit
    /// of each 32-bit half set; see the module docs).
    const K_LO: [u64; 4] = [
        0xa409_3822_a99f_31d0,
        0x882e_fa98_ec4e_6c89,
        0xc528_21e6_b8d0_1377,
        0xbe54_66cf_b4e9_0c6c,
    ];
    const K_HI: [u64; 4] = [
        0xc0ac_29b7_c97c_50dd,
        0xbf84_d5b5_b547_0917,
        0x9216_d5d9_8979_fb1b,
        0xd131_0ba6_98df_b5ac,
    ];

    /// Seed both lanes from the `(nrows, ncols)` header.
    fn header(a: &Csr) -> Lanes {
        let seed = |s: u64| splitmix(splitmix(s ^ a.nrows as u64) ^ a.ncols as u64);
        Lanes {
            lo: seed(Lanes::SEED.lo),
            hi: seed(Lanes::SEED.hi),
        }
    }

    /// One lane's step over four packed words: a folded multiply chained
    /// through the state, XORed with one that is independent of it.
    #[inline(always)]
    fn mix(s: u64, w: [u64; 4], k: &[u64; 4]) -> u64 {
        let independent = fold(w[2] ^ k[2], w[3] ^ k[3]);
        fold(s ^ w[0] ^ k[0], s.rotate_left(32) ^ w[1] ^ k[1]) ^ independent
    }

    /// Absorb eight words (`c.len() == 8`) into both lanes.
    #[inline(always)]
    fn step(&mut self, c: &[u32]) {
        let w: [u64; 4] =
            std::array::from_fn(|i| u64::from(c[2 * i]) | u64::from(c[2 * i + 1]) << 32);
        self.lo = Lanes::mix(self.lo, w, &Lanes::K_LO);
        self.hi = Lanes::mix(self.hi, w, &Lanes::K_HI);
    }

    /// Absorb a flat word stream, eight words per step; the last partial
    /// step is zero-padded.
    fn stream(&mut self, words: &[u32]) {
        let mut steps = words.chunks_exact(8);
        for c in &mut steps {
            self.step(c);
        }
        let rest = steps.remainder();
        if !rest.is_empty() {
            let mut last = [0u32; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.step(&last);
        }
    }

    /// Absorb row block `b`: its `row_ptr` terminators, then its columns.
    fn block(&mut self, a: &Csr, b: usize) {
        let r0 = b * BLOCK_ROWS;
        let r1 = (r0 + BLOCK_ROWS).min(a.nrows);
        self.stream(&a.row_ptr[r0 + 1..=r1]);
        self.stream(&a.col_idx[a.row_ptr[r0] as usize..a.row_ptr[r1] as usize]);
    }

    fn digest(self) -> StructureFingerprint {
        StructureFingerprint {
            lo: splitmix(self.lo),
            hi: splitmix(self.hi),
        }
    }
}

impl StructureFingerprint {
    /// Digest the structure of `a`. Runs serially in one O(nrows + nnz)
    /// pass; bit-identical at any thread count by construction.
    pub fn of(a: &Csr) -> StructureFingerprint {
        let mut lanes = Lanes::header(a);
        for b in 0..block_count(a.nrows) {
            lanes.block(a, b);
        }
        lanes.digest()
    }

    /// Fixed-width hex rendering for logs and cache listings.
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

/// A [`StructureFingerprint`] together with the per-block lane checkpoints
/// that make it incrementally recomputable.
///
/// `checkpoints[b]` holds both lane states after absorbing the header and
/// row blocks `0..b`; the last one finalizes to the digest. When an edit
/// batch's first mutated row is `d`, [`FingerprintState::update`] resumes
/// from block `d / BLOCK_ROWS` and re-absorbs only the blocks from there
/// on — O(nrows − d + suffix nnz), up to one block, instead of
/// O(nrows + nnz). The checkpoints cost 16 bytes per [`BLOCK_ROWS`] rows.
///
/// ```
/// use graph_sparse::{gen, FingerprintState, StructureFingerprint};
///
/// let a = gen::erdos_renyi(64, 200, 1);
/// let st = FingerprintState::of(&a);
/// assert_eq!(st.fingerprint(), StructureFingerprint::of(&a));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FingerprintState {
    fingerprint: StructureFingerprint,
    /// Lane states after the header and each completed block; length
    /// `ceil(nrows / BLOCK_ROWS) + 1`.
    checkpoints: Vec<Lanes>,
    nrows: usize,
    ncols: usize,
}

impl FingerprintState {
    /// Digest `a` and keep the per-block checkpoints for later suffix
    /// updates. Same O(nrows + nnz) pass as [`StructureFingerprint::of`],
    /// plus one checkpoint write per block.
    pub fn of(a: &Csr) -> FingerprintState {
        let mut checkpoints = Vec::with_capacity(block_count(a.nrows) + 1);
        checkpoints.push(Lanes::header(a));
        FingerprintState::absorb_from(a, checkpoints)
    }

    /// Absorb the blocks of `a` after the last of `checkpoints`, pushing a
    /// checkpoint after each.
    fn absorb_from(a: &Csr, mut checkpoints: Vec<Lanes>) -> FingerprintState {
        let mut lanes = *checkpoints
            .last()
            .expect("the header checkpoint is always present");
        for b in checkpoints.len() - 1..block_count(a.nrows) {
            lanes.block(a, b);
            checkpoints.push(lanes);
        }
        FingerprintState {
            fingerprint: lanes.digest(),
            checkpoints,
            nrows: a.nrows,
            ncols: a.ncols,
        }
    }

    /// The digest this state describes.
    pub fn fingerprint(&self) -> StructureFingerprint {
        self.fingerprint
    }

    /// Number of rows the checkpoints cover.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Heap bytes held by the checkpoint vector (cache accounting).
    pub fn checkpoint_bytes(&self) -> u64 {
        (self.checkpoints.len() * std::mem::size_of::<Lanes>()) as u64
    }

    /// Recompute the digest for `updated`, which differs from the matrix
    /// this state was built over only in rows `>= first_dirty_row` (shape
    /// preserved). Resumes both lanes from the checkpoint of the block
    /// holding the first dirty row and re-absorbs only the blocks from
    /// there on; blocks before that checkpoint hold only rows before the
    /// first dirty row — `row_ptr` terminators and columns alike — which
    /// such an edit leaves unchanged, so their lane states still hold.
    ///
    /// Total on any input: if the shape changed or `first_dirty_row` is
    /// out of range, falls back to a full O(nrows + nnz) recompute.
    pub fn update(&self, updated: &Csr, first_dirty_row: usize) -> FingerprintState {
        if updated.nrows != self.nrows
            || updated.ncols != self.ncols
            || first_dirty_row > self.nrows
        {
            return FingerprintState::of(updated);
        }
        let resume = first_dirty_row / BLOCK_ROWS;
        let mut checkpoints = Vec::with_capacity(self.checkpoints.len());
        checkpoints.extend_from_slice(&self.checkpoints[..=resume]);
        FingerprintState::absorb_from(updated, checkpoints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::gen;

    #[test]
    fn values_do_not_affect_the_key() {
        let a = gen::community(256, 1_500, 8, 0.9, 1);
        let mut b = a.clone();
        for v in &mut b.vals {
            *v = v.mul_add(3.0, 1.0);
        }
        assert_eq!(StructureFingerprint::of(&a), StructureFingerprint::of(&b));
    }

    #[test]
    fn structural_edits_change_the_key() {
        let base = Coo::from_triples(32, 32, [(0, 1, 1.0), (5, 7, 1.0), (20, 3, 1.0)]).to_csr();
        let fp = StructureFingerprint::of(&base);
        // Add a non-zero.
        let added = Coo::from_triples(
            32,
            32,
            [(0, 1, 1.0), (5, 7, 1.0), (20, 3, 1.0), (9, 9, 1.0)],
        )
        .to_csr();
        assert_ne!(fp, StructureFingerprint::of(&added));
        // Move a non-zero to another column.
        let moved = Coo::from_triples(32, 32, [(0, 2, 1.0), (5, 7, 1.0), (20, 3, 1.0)]).to_csr();
        assert_ne!(fp, StructureFingerprint::of(&moved));
        // Change dimensions only.
        let wider = Coo::from_triples(32, 33, [(0, 1, 1.0), (5, 7, 1.0), (20, 3, 1.0)]).to_csr();
        assert_ne!(fp, StructureFingerprint::of(&wider));
    }

    #[test]
    fn empty_matrices_of_different_shapes_differ() {
        let a = StructureFingerprint::of(&Csr::empty(16, 16));
        let b = StructureFingerprint::of(&Csr::empty(16, 17));
        let c = StructureFingerprint::of(&Csr::empty(17, 16));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn hex_rendering_is_32_digits() {
        let fp = StructureFingerprint::of(&gen::erdos_renyi(64, 100, 2));
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 32);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn state_matches_direct_digest_and_has_one_checkpoint_per_block() {
        let a = gen::community(300, 2_000, 10, 0.9, 3);
        let st = FingerprintState::of(&a);
        assert_eq!(st.fingerprint(), StructureFingerprint::of(&a));
        // 300 rows: four full blocks of 64 plus a partial one, after the
        // header checkpoint.
        assert_eq!(st.checkpoints.len(), 6);
        assert_eq!(st.checkpoint_bytes(), 6 * 16);
    }

    #[test]
    fn suffix_update_matches_full_recompute_at_every_resume_row() {
        let a = Coo::from_triples(
            48,
            48,
            [(2, 3, 1.0), (17, 1, 1.0), (17, 9, 1.0), (40, 40, 1.0)],
        )
        .to_csr();
        let st = FingerprintState::of(&a);
        // Edit row 17: move (17, 9) to (17, 30).
        let b = Coo::from_triples(
            48,
            48,
            [(2, 3, 1.0), (17, 1, 1.0), (17, 30, 1.0), (40, 40, 1.0)],
        )
        .to_csr();
        let full = FingerprintState::of(&b);
        // Any conservative (earlier) first-dirty-row must agree too.
        for resume in [0, 5, 17] {
            let inc = st.update(&b, resume);
            assert_eq!(inc, full, "resume at row {resume}");
        }
        assert_eq!(inc_digest(&st, &b, 17), StructureFingerprint::of(&b));
    }

    fn inc_digest(st: &FingerprintState, b: &Csr, d: usize) -> StructureFingerprint {
        st.update(b, d).fingerprint()
    }

    #[test]
    fn shape_change_falls_back_to_full_recompute() {
        let a = gen::erdos_renyi(32, 100, 4);
        let b = gen::erdos_renyi(40, 100, 4);
        let st = FingerprintState::of(&a);
        assert_eq!(st.update(&b, 0), FingerprintState::of(&b));
        // Out-of-range resume row is total as well.
        assert_eq!(st.update(&a, a.nrows + 5), FingerprintState::of(&a));
    }
}
