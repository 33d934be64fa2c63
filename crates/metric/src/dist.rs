//! Distance metrics and their work models.
//!
//! Every metric implements [`Metric`], which reports both the distance value
//! and the *work* (≈ arithmetic operation count) of evaluating it. Work feeds
//! the simulated device clock: the paper's headline costs are dominated by
//! distance evaluations (edit distance on DNA is ~10⁴ ops; L2 on T-Loc is
//! ~6 ops), and the relative expense of metrics is exactly what separates the
//! datasets in the evaluation (§6).

use crate::object::Item;

/// A distance metric over objects of type `O`.
///
/// Implementations must satisfy the metric axioms (paper §3): symmetry,
/// non-negativity, identity of indiscernibles, and the triangle inequality
/// `d(a, b) ≤ d(a, c) + d(c, b)`. The property-based tests in this crate
/// check all four on sampled triples for every shipped metric.
pub trait Metric<O: ?Sized>: Send + Sync {
    /// The distance between `a` and `b`.
    fn distance(&self, a: &O, b: &O) -> f64;

    /// Work units (≈ scalar ops) to evaluate `distance(a, b)`; used by the
    /// simulated cost model. Must depend only on the objects, not the result.
    fn work(&self, a: &O, b: &O) -> u64;

    /// Human-readable metric name (for reports).
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// Edit distance
// ---------------------------------------------------------------------------

/// Levenshtein (word edit) distance over strings; the metric of the Words and
/// DNA datasets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EditDistance;

/// Reusable state of the bit-parallel Levenshtein kernels (Myers 1999,
/// "A fast bit-vector algorithm for approximate string matching based on
/// dynamic programming"; multi-word blocks after Hyyrö 2003).
///
/// The kernel treats one string as the *pattern*: its match masks `peq`
/// hold, for every byte value `c`, one bit per pattern position `i` with
/// `pattern[i] == c`. A distance then scans the other string (the *text*)
/// one byte at a time, advancing a whole DP column per step with a dozen
/// word operations instead of `|pattern|` cell updates. Patterns of up to
/// 128 bytes (Words, DNA reads) run in a single `u128` word; longer ones
/// in `u64` blocks whose vertical deltas live in `pv`/`mv`.
///
/// The batched kernels of [`crate::BatchMetric`] load the query as the
/// pattern once per batch ([`EditScratch::load_pattern`]) and scan every
/// stored object against it; the scalar entry points share a thread-local
/// instance. Nothing is allocated per distance once the scratch has grown
/// to the longest pattern seen.
#[derive(Clone, Debug, Default)]
pub struct EditScratch {
    /// The loaded pattern: the `peq` entries to reset on the next load,
    /// and the key that makes reloading the same pattern free.
    pattern: Vec<u8>,
    /// `peq[c * stride + w]`: bit `i % 64` of word `w = i / 64` is set iff
    /// `pattern[i] == c`.
    peq: Vec<u64>,
    /// Words per byte value in `peq`: `⌈m / 64⌉`, at least 2 so that a
    /// pattern of up to 128 bytes reads as one `u128`. Zero until the first
    /// load.
    stride: usize,
    /// Per-block vertical `+1` deltas of the current column (multi-block).
    pv: Vec<u64>,
    /// Per-block vertical `−1` deltas of the current column (multi-block).
    mv: Vec<u64>,
}

impl EditScratch {
    /// Make `pattern` the string every following distance is measured
    /// from (a new scratch holds the empty pattern). Reloading the pattern
    /// already loaded is a byte comparison; switching patterns resets only
    /// the previous pattern's masks.
    pub fn load_pattern(&mut self, pattern: &[u8]) {
        if self.stride != 0 && self.pattern == pattern {
            return;
        }
        let stride = pattern.len().div_ceil(64).max(2);
        if stride == self.stride {
            for &c in &self.pattern {
                self.peq[usize::from(c) * stride..][..stride].fill(0);
            }
        } else {
            self.stride = stride;
            self.peq.clear();
            self.peq.resize(256 * stride, 0);
        }
        for (i, &c) in pattern.iter().enumerate() {
            self.peq[usize::from(c) * stride + i / 64] |= 1 << (i % 64);
        }
        self.pattern.clear();
        self.pattern.extend_from_slice(pattern);
    }

    /// Levenshtein distance between the loaded pattern and `text`.
    pub fn distance(&mut self, text: &[u8]) -> u32 {
        self.scan(text, u64::MAX)
            .expect("an unbounded scan never abandons")
    }

    /// [`EditScratch::distance`] if it is at most `bound`, else `None`.
    ///
    /// Rejects on the length difference first, then abandons the scan at
    /// the first column `j` whose bottom cell proves the bound exceeded:
    /// `D[m][j] − (n − j) > bound`, since each remaining text byte lowers
    /// the bottom cell by at most one.
    pub fn distance_within(&mut self, text: &[u8], bound: u32) -> Option<u32> {
        if self.pattern.len().abs_diff(text.len()) > bound as usize {
            return None;
        }
        // `D[m][j] − (n − j) > bound` ⟺ `D[m][j] + j > bound + n`.
        self.scan(text, u64::from(bound) + text.len() as u64)
    }

    /// The Myers/Hyyrö recurrence over `text`, abandoning once the bottom
    /// cell plus the column index exceeds `cut`.
    fn scan(&mut self, text: &[u8], cut: u64) -> Option<u32> {
        let m = self.pattern.len();
        if m == 0 {
            return (text.len() as u64 <= cut).then_some(text.len() as u32);
        }
        let stride = self.stride;
        let mut score = m as u64;
        if m <= 128 {
            // One `u128` column: `pv`/`mv` flag the rows whose value is one
            // above/below the row above it. Bits past row `m − 1` hold
            // garbage that only ever propagates upwards (carries and left
            // shifts), so they never reach the bottom row read here.
            let last = m as u32 - 1;
            let (mut pv, mut mv) = (!0u128, 0u128);
            for (j, &c) in text.iter().enumerate() {
                let at = usize::from(c) * stride;
                let eq = u128::from(self.peq[at]) | u128::from(self.peq[at + 1]) << 64;
                let xv = eq | mv;
                let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
                let ph = mv | !(xh | pv);
                let mh = pv & xh;
                score = score + (ph >> last & 1) as u64 - (mh >> last & 1) as u64;
                // Global distance: the top row grows by one per column.
                let ph = ph << 1 | 1;
                let mh = mh << 1;
                pv = mh | !(xv | ph);
                mv = ph & xv;
                if score + j as u64 + 1 > cut {
                    return None;
                }
            }
        } else {
            // Hyyrö's blocks: each `u64` block of rows takes the horizontal
            // delta leaving the block above it (`+1` into the top block)
            // and hands its own bottom row's delta to the block below.
            let blocks = stride;
            let last_row = (m - 1) % 64;
            self.pv.clear();
            self.pv.resize(blocks, !0);
            self.mv.clear();
            self.mv.resize(blocks, 0);
            for (j, &c) in text.iter().enumerate() {
                let eqs = &self.peq[usize::from(c) * stride..][..blocks];
                let (mut hp, mut hm) = (1u64, 0u64);
                for (b, ((pv, mv), &eq)) in
                    self.pv.iter_mut().zip(&mut self.mv).zip(eqs).enumerate()
                {
                    let out = if b + 1 == blocks { last_row } else { 63 };
                    let xv = eq | *mv;
                    // A `−1` entering at the top acts as a match in row 0.
                    let eq = eq | hm;
                    let xh = ((eq & *pv).wrapping_add(*pv) ^ *pv) | eq;
                    let ph = *mv | !(xh | *pv);
                    let mh = *pv & xh;
                    let (hp_out, hm_out) = (ph >> out & 1, mh >> out & 1);
                    let ph = ph << 1 | hp;
                    let mh = mh << 1 | hm;
                    *pv = mh | !(xv | ph);
                    *mv = ph & xv;
                    (hp, hm) = (hp_out, hm_out);
                }
                score = score + hp - hm;
                if score + j as u64 + 1 > cut {
                    return None;
                }
            }
        }
        Some(score as u32)
    }
}

std::thread_local! {
    /// Per-thread scratch backing the scalar `edit_distance*` entry points
    /// **and** the batched edit kernels. Kernel execution fans out over
    /// host threads (`gpu_sim::exec` chunk workers), so the scratch must be
    /// per-thread, not global: each worker reuses its own masks across
    /// every chunk it executes, and chunks never contend.
    static EDIT_SCRATCH: std::cell::RefCell<EditScratch> =
        std::cell::RefCell::new(EditScratch::default());
}

/// Run `f` with this thread's reusable [`EditScratch`] — the chunk-safe
/// scratch entry the batched kernels use (one pattern table per host
/// thread, reused across batches and chunks, never shared between threads).
pub fn with_edit_scratch<R>(f: impl FnOnce(&mut EditScratch) -> R) -> R {
    EDIT_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Levenshtein distance between two strings.
///
/// Operates on bytes; the generators emit ASCII, matching the paper's word
/// and DNA data.
pub fn edit_distance(a: &str, b: &str) -> u32 {
    edit_distance_bytes(a.as_bytes(), b.as_bytes())
}

/// Byte-level Levenshtein distance (thread-local scratch).
pub fn edit_distance_bytes(a: &[u8], b: &[u8]) -> u32 {
    with_edit_scratch(|s| edit_distance_bytes_with(a, b, s))
}

/// Byte-level Levenshtein distance with `a` as the pattern, using
/// caller-provided scratch.
pub fn edit_distance_bytes_with(a: &[u8], b: &[u8], scratch: &mut EditScratch) -> u32 {
    scratch.load_pattern(a);
    scratch.distance(b)
}

/// Early-abandoning edit distance: `Some(d)` iff `d = d(a, b) ≤ bound`,
/// giving up as soon as the scan proves the bound exceeded.
///
/// Used by verification steps where a query radius is known; the simulated
/// device charges it [`EditDistance::work_bounded`].
pub fn edit_distance_bounded(a: &str, b: &str, bound: u32) -> Option<u32> {
    with_edit_scratch(|s| edit_distance_bounded_bytes_with(a.as_bytes(), b.as_bytes(), bound, s))
}

/// Byte-level [`edit_distance_bounded`] with `a` as the pattern, using
/// caller-provided scratch.
pub fn edit_distance_bounded_bytes_with(
    a: &[u8],
    b: &[u8],
    bound: u32,
    scratch: &mut EditScratch,
) -> Option<u32> {
    scratch.load_pattern(a);
    scratch.distance_within(b, bound)
}

/// The work model charges the dynamic-programming cells a GPU kernel
/// evaluates, not the host's bit-parallel column steps: simulated cycles
/// depend on string lengths alone and stay independent of the host kernel.
impl EditDistance {
    /// Work of the full DP: `(|a|+1)·(|b|+1)` cell updates, ~3 ops each.
    pub fn work_full(a: &str, b: &str) -> u64 {
        Self::work_full_lens(a.len(), b.len())
    }

    /// [`EditDistance::work_full`] from payload lengths alone (the batched
    /// kernels read lengths off the arena offsets without touching bytes).
    pub fn work_full_lens(a_len: usize, b_len: usize) -> u64 {
        3 * ((a_len as u64 + 1) * (b_len as u64 + 1))
    }

    /// Work of a DP banded to half-width `bound` (the charge of an
    /// early-abandoning evaluation).
    pub fn work_bounded(a: &str, b: &str, bound: u32) -> u64 {
        Self::work_bounded_lens(a.len(), b.len(), bound)
    }

    /// [`EditDistance::work_bounded`] from payload lengths alone.
    pub fn work_bounded_lens(a_len: usize, b_len: usize, bound: u32) -> u64 {
        let band = (2 * u64::from(bound) + 1).min(b_len as u64 + 1);
        3 * (a_len as u64 + 1) * band
    }
}

impl Metric<str> for EditDistance {
    fn distance(&self, a: &str, b: &str) -> f64 {
        f64::from(edit_distance(a, b))
    }

    fn work(&self, a: &str, b: &str) -> u64 {
        Self::work_full(a, b)
    }

    fn name(&self) -> &'static str {
        "edit"
    }
}

// ---------------------------------------------------------------------------
// Vector metrics
// ---------------------------------------------------------------------------

/// Metrics over dense `f32` vectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VectorMetric {
    /// Manhattan distance (Color dataset).
    L1,
    /// Euclidean distance (T-Loc dataset).
    L2,
    /// Angular distance `arccos(cos θ)/π ∈ [0, 1]`.
    ///
    /// The paper's Vector dataset uses "word cosine distance"; raw
    /// `1 − cos θ` violates the triangle inequality, so exact metric indexing
    /// uses its metric completion, the normalised angle (documented
    /// substitution; see DESIGN.md §1).
    Angular,
}

/// Lanes summed in parallel by the block-wise L1/L2 kernels — one
/// [`AlignedBlock`](crate::arena::AlignedBlock) worth of `f32`s.
pub const LANES: usize = crate::arena::AlignedBlock::LANES;

/// The **canonical lane-summation order** shared by every L1/L2 entry point
/// (slice or block-row): 8 per-lane `f64` accumulators filled sequentially
/// across blocks, reduced once at the end by this fixed binary tree. The
/// parallel accumulators break the loop-carried add dependency of a
/// sequential fold (so rustc can vectorize), and because *every* layout and
/// chunking runs this exact order, results are a pure function of the
/// logical payloads: bit-identical between legacy and aligned arenas, for
/// any host thread count, and for 1 or N shards.
///
/// Zero-padded tail lanes are exact, not approximate: each contributes
/// `+0.0` to an accumulator that is non-negative (sums of `|·|` or `(·)²`
/// starting at `+0.0`), and `x + 0.0 == x` bitwise for every non-negative
/// `x` — so padding never changes a single result bit.
#[inline(always)]
fn lane_reduce(acc: [f64; LANES]) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// L1 (Manhattan) distance, block-wise canonical order (see `lane_reduce`).
pub fn l1(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            acc[l] += f64::from((xa[l] - xb[l]).abs());
        }
    }
    for (l, (x, y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        acc[l] += f64::from((x - y).abs());
    }
    lane_reduce(acc)
}

/// L2 (Euclidean) distance, block-wise canonical order (see `lane_reduce`).
pub fn l2(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            let d = f64::from(xa[l] - xb[l]);
            acc[l] += d * d;
        }
    }
    for (l, (x, y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        let d = f64::from(x - y);
        acc[l] += d * d;
    }
    lane_reduce(acc).sqrt()
}

/// L1 distance over zero-padded block rows — the aligned-arena fast path.
///
/// Same canonical order as [`l1`] on the logical payloads (padding lanes
/// add `+0.0`, a bitwise identity), but with no tail handling: every
/// iteration consumes one whole 8-lane block, the shape rustc turns into
/// packed SIMD. Rows must pack equal logical lengths.
#[inline]
pub fn l1_blocks(a: &[crate::arena::AlignedBlock], b: &[crate::arena::AlignedBlock]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    // Same loop body as the packed slice kernel, over the flat lane view —
    // whole blocks only, so the slice kernel's tail loop is dead here. A
    // hand-rolled per-block loop regresses ~40%: LLVM's SLP vectorizer
    // folds the final reduction's lane permutation into every iteration.
    l1(
        crate::arena::AlignedBlock::lanes_of(a),
        crate::arena::AlignedBlock::lanes_of(b),
    )
}

/// L2 distance over zero-padded block rows — the aligned-arena fast path
/// (see [`l1_blocks`] for the identity argument).
#[inline]
pub fn l2_blocks(a: &[crate::arena::AlignedBlock], b: &[crate::arena::AlignedBlock]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    // See `l1_blocks` for why this delegates to the slice kernel.
    l2(
        crate::arena::AlignedBlock::lanes_of(a),
        crate::arena::AlignedBlock::lanes_of(b),
    )
}

/// Angular distance `arccos(cosine similarity) / π`, a metric on the unit
/// sphere. Inputs need not be normalised; zero vectors are at distance 0
/// from everything by convention (they do not occur in the generators).
pub fn angular(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let (mut dot, mut na, mut nb) = (0f64, 0f64, 0f64);
    for (x, y) in a.iter().zip(b) {
        let (x, y) = (f64::from(*x), f64::from(*y));
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    let cos = (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0);
    cos.acos() / std::f64::consts::PI
}

/// A distance kernel over zero-padded aligned block rows
/// ([`l1_blocks`]/[`l2_blocks`]).
pub type BlockKernel = fn(&[crate::arena::AlignedBlock], &[crate::arena::AlignedBlock]) -> f64;

impl VectorMetric {
    /// The block-row kernel of this metric, if it has one: the L1/L2 loops
    /// are block-wise ([`l1_blocks`]/[`l2_blocks`]); angular stays scalar
    /// (its three coupled accumulators gain nothing from lane splitting),
    /// so aligned arenas are never built for it.
    pub fn block_kernel(&self) -> Option<BlockKernel> {
        match self {
            VectorMetric::L1 => Some(l1_blocks),
            VectorMetric::L2 => Some(l2_blocks),
            VectorMetric::Angular => None,
        }
    }

    /// [`Metric::work`] from the dimensionality alone (the batched kernels
    /// read lengths off the arena offsets without touching payloads).
    pub fn work_len(&self, dims: usize) -> u64 {
        let d = dims as u64;
        match self {
            VectorMetric::L1 => 2 * d,
            VectorMetric::L2 => 3 * d + 8,
            VectorMetric::Angular => 6 * d + 32,
        }
    }
}

impl Metric<[f32]> for VectorMetric {
    fn distance(&self, a: &[f32], b: &[f32]) -> f64 {
        match self {
            VectorMetric::L1 => l1(a, b),
            VectorMetric::L2 => l2(a, b),
            VectorMetric::Angular => angular(a, b),
        }
    }

    fn work(&self, a: &[f32], _b: &[f32]) -> u64 {
        self.work_len(a.len())
    }

    fn name(&self) -> &'static str {
        match self {
            VectorMetric::L1 => "L1",
            VectorMetric::L2 => "L2",
            VectorMetric::Angular => "angular",
        }
    }
}

// ---------------------------------------------------------------------------
// Dynamic metric over `Item`
// ---------------------------------------------------------------------------

/// A metric over [`Item`]s — the dynamic dispatch point tying a dataset to
/// its distance function (Table 2 of the paper).
///
/// # Panics
/// Panics if the two items are of mismatched variants (text vs vector) or, in
/// debug builds, mismatched dimensionality; a dataset is always homogeneous.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemMetric {
    /// Edit distance over [`Item::Text`].
    Edit,
    /// A vector metric over [`Item::Vector`].
    Vector(VectorMetric),
}

impl ItemMetric {
    /// Manhattan distance over vectors.
    pub const L1: ItemMetric = ItemMetric::Vector(VectorMetric::L1);
    /// Euclidean distance over vectors.
    pub const L2: ItemMetric = ItemMetric::Vector(VectorMetric::L2);
    /// Angular (normalised-arccos cosine) distance over vectors.
    pub const ANGULAR: ItemMetric = ItemMetric::Vector(VectorMetric::Angular);

    /// Whether this is an Lp-norm metric over vectors (the only family the
    /// LBPG-Tree baseline supports, per the paper's Remark in §6.1).
    pub fn is_lp_vector(&self) -> bool {
        matches!(
            self,
            ItemMetric::Vector(VectorMetric::L1) | ItemMetric::Vector(VectorMetric::L2)
        )
    }

    /// Whether this metric operates on vector objects at all (GANNS supports
    /// vector data only).
    pub fn is_vector(&self) -> bool {
        matches!(self, ItemMetric::Vector(_))
    }
}

impl Metric<Item> for ItemMetric {
    fn distance(&self, a: &Item, b: &Item) -> f64 {
        match (self, a, b) {
            (ItemMetric::Edit, Item::Text(x), Item::Text(y)) => EditDistance.distance(x, y),
            (ItemMetric::Vector(m), Item::Vector(x), Item::Vector(y)) => m.distance(x, y),
            _ => panic!("metric/object mismatch: {:?} on {:?} vs {:?}", self, a, b),
        }
    }

    fn work(&self, a: &Item, b: &Item) -> u64 {
        match (self, a, b) {
            (ItemMetric::Edit, Item::Text(x), Item::Text(y)) => EditDistance.work(x, y),
            (ItemMetric::Vector(m), Item::Vector(x), Item::Vector(y)) => m.work(x, y),
            _ => panic!("metric/object mismatch"),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            ItemMetric::Edit => "edit",
            ItemMetric::Vector(m) => m.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_basic() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("a", "ab"), 1);
    }

    #[test]
    fn edit_paper_example() {
        // Fig. 1 of the paper: d(o1="a", o2="ab") = 1, d(o1, o3="bac") = 2.
        assert_eq!(edit_distance("a", "ab"), 1);
        assert_eq!(edit_distance("a", "bac"), 2);
        assert_eq!(edit_distance("aabc", "babcc"), 2);
    }

    use crate::edit_dp::levenshtein;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Lengths on both sides of every word boundary the kernels branch on:
    /// the `u128` single word (≤ 128 bytes) and the `u64` blocks beyond.
    const EDGE_LENS: [usize; 10] = [0, 1, 63, 64, 65, 127, 128, 129, 200, 300];

    /// `len` bytes over an alphabet of `sigma` byte values starting at a
    /// random offset (so the full 0..=255 range is exercised).
    fn random_bytes(rng: &mut StdRng, len: usize, sigma: u32) -> Vec<u8> {
        let base = rng.gen_range(0..=256 - sigma);
        (0..len)
            .map(|_| (base + rng.gen_range(0..sigma)) as u8)
            .collect()
    }

    /// A pair sharing structure (the second is a mutated copy of the
    /// first) so distances land well below the length, where off-by-one
    /// errors in the recurrence would show.
    fn related_pair(rng: &mut StdRng, la: usize, lb: usize, sigma: u32) -> (Vec<u8>, Vec<u8>) {
        let a = random_bytes(rng, la, sigma);
        let mut b: Vec<u8> = a.iter().copied().take(lb).collect();
        b.extend(random_bytes(rng, lb - b.len(), sigma));
        for _ in 0..lb / 8 {
            let at = rng.gen_range(0..lb);
            b[at] = random_bytes(rng, 1, sigma)[0];
        }
        (a, b)
    }

    #[test]
    fn myers_matches_dp_oracle_across_word_boundaries() {
        let mut rng = StdRng::seed_from_u64(0x6d79_6572);
        let mut scratch = EditScratch::default();
        for &la in &EDGE_LENS {
            for &lb in &EDGE_LENS {
                for sigma in [1, 2, 4, 26, 256] {
                    let (a, b) = if sigma % 2 == 0 {
                        related_pair(&mut rng, la, lb, sigma)
                    } else {
                        (
                            random_bytes(&mut rng, la, sigma),
                            random_bytes(&mut rng, lb, sigma),
                        )
                    };
                    let want = levenshtein(&a, &b);
                    // Both argument orders: the query is always the pattern,
                    // so this covers a longer and a shorter pattern.
                    assert_eq!(edit_distance_bytes_with(&a, &b, &mut scratch), want);
                    assert_eq!(edit_distance_bytes_with(&b, &a, &mut scratch), want);
                    assert_eq!(edit_distance_bytes(&a, &b), want, "{la}x{lb} σ={sigma}");
                }
            }
        }
    }

    #[test]
    fn myers_matches_dp_oracle_on_multibyte_utf8() {
        let alphabet = ['a', 'é', 'ß', '中', '文', '🧬', 'Ω', 'z'];
        let mut rng = StdRng::seed_from_u64(0x7574_6638);
        for &chars in &[0usize, 1, 20, 40, 70, 130] {
            let word = |rng: &mut StdRng| -> String {
                (0..chars)
                    .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                    .collect()
            };
            for _ in 0..8 {
                let (a, b) = (word(&mut rng), word(&mut rng));
                let want = levenshtein(a.as_bytes(), b.as_bytes());
                assert_eq!(edit_distance(&a, &b), want, "{a:?} vs {b:?}");
                assert_eq!(edit_distance(&b, &a), want, "{b:?} vs {a:?}");
            }
        }
    }

    #[test]
    fn bounded_answers_exactly_as_the_oracle_for_every_bound() {
        let mut rng = StdRng::seed_from_u64(0x626f_756e);
        let mut scratch = EditScratch::default();
        for &la in &EDGE_LENS {
            for &lb in &EDGE_LENS {
                let (a, b) = related_pair(&mut rng, la, lb, 4);
                let d = levenshtein(&a, &b);
                let max_len = la.max(lb) as u32;
                for bound in (0..=max_len + 1).chain([u32::MAX]) {
                    let want = (d <= bound).then_some(d);
                    assert_eq!(
                        edit_distance_bounded_bytes_with(&a, &b, bound, &mut scratch),
                        want,
                        "{la}x{lb} d={d} bound={bound}"
                    );
                    assert_eq!(
                        edit_distance_bounded_bytes_with(&b, &a, bound, &mut scratch),
                        want,
                        "{lb}x{la} d={d} bound={bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_loaded_pattern_serves_many_texts_and_reloads_cleanly() {
        // Switch between single-word and multi-block patterns (the mask
        // table changes shape) and between patterns of one shape (only the
        // old pattern's masks are reset): stale masks would skew distances.
        let mut rng = StdRng::seed_from_u64(0x7065_7121);
        let mut scratch = EditScratch::default();
        for &lp in &[300usize, 5, 300, 64, 129, 0, 128, 7, 7] {
            let pattern = random_bytes(&mut rng, lp, 4);
            scratch.load_pattern(&pattern);
            for &lt in &EDGE_LENS {
                let text = random_bytes(&mut rng, lt, 4);
                let want = levenshtein(&pattern, &text);
                assert_eq!(scratch.distance(&text), want, "pattern {lp}, text {lt}");
                assert_eq!(scratch.distance_within(&text, want), Some(want));
                if want > 0 {
                    assert_eq!(scratch.distance_within(&text, want - 1), None);
                }
            }
        }
    }

    #[test]
    fn edit_bounded_agrees_when_within() {
        let pairs = [("kitten", "sitting"), ("abcdef", "azced"), ("aa", "aa")];
        for (a, b) in pairs {
            let full = levenshtein(a.as_bytes(), b.as_bytes());
            for bound in 0..8 {
                let got = edit_distance_bounded(a, b, bound);
                if full <= bound {
                    assert_eq!(got, Some(full), "{a} {b} bound={bound}");
                } else {
                    assert_eq!(got, None, "{a} {b} bound={bound}");
                }
            }
        }
    }

    #[test]
    fn edit_bounded_survives_maximal_bound() {
        // `bound = u32::MAX` must not wrap the `inf` sentinel to 0.
        assert_eq!(
            edit_distance_bounded("kitten", "sitting", u32::MAX),
            Some(3)
        );
        assert_eq!(edit_distance_bounded("", "abc", u32::MAX), Some(3));
    }

    #[test]
    fn l_norms() {
        let a = [0.0f32, 0.0];
        let b = [3.0f32, 4.0];
        assert_eq!(l1(&a, &b), 7.0);
        assert_eq!(l2(&a, &b), 5.0);
    }

    #[test]
    fn block_kernels_match_slices_bitwise() {
        use crate::arena::AlignedBlock;
        // Every length across block boundaries, including 0 and one lane.
        for n in [0usize, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 128, 130] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32).sin() * 3.7).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.13).cos() - 1.2).collect();
            let (ba, bb) = (AlignedBlock::pack(&a), AlignedBlock::pack(&b));
            assert_eq!(
                l1(&a, &b).to_bits(),
                l1_blocks(&ba, &bb).to_bits(),
                "L1 n={n}"
            );
            assert_eq!(
                l2(&a, &b).to_bits(),
                l2_blocks(&ba, &bb).to_bits(),
                "L2 n={n}"
            );
        }
    }

    #[test]
    fn low_dim_l2_matches_sequential_fold() {
        // For dims ≤ 3 the canonical lane order degenerates to the plain
        // left-to-right fold — the property that keeps the 2-D T-Loc
        // fingerprints (shard invariance, descent-engine pins) unchanged.
        for n in 0..=3usize {
            let a: Vec<f32> = (0..n).map(|i| i as f32 * 1.25 + 0.1).collect();
            let b: Vec<f32> = (0..n).map(|i| 2.0 - i as f32 * 0.75).collect();
            // Plain left-to-right fold from `+0.0` — the order the legacy
            // scalar kernels used. (`Iterator::sum` folds from `-0.0`, which
            // would flip the sign bit of the empty sum.)
            let seq_l2 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| {
                    let d = f64::from(x - y);
                    d * d
                })
                .fold(0f64, |s, t| s + t)
                .sqrt();
            let seq_l1 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| f64::from((x - y).abs()))
                .fold(0f64, |s, t| s + t);
            assert_eq!(l2(&a, &b).to_bits(), seq_l2.to_bits(), "L2 n={n}");
            assert_eq!(l1(&a, &b).to_bits(), seq_l1.to_bits(), "L1 n={n}");
        }
    }

    #[test]
    fn block_kernel_availability() {
        assert!(VectorMetric::L1.block_kernel().is_some());
        assert!(VectorMetric::L2.block_kernel().is_some());
        assert!(VectorMetric::Angular.block_kernel().is_none());
    }

    #[test]
    fn angular_range_and_identity() {
        let a = [1.0f32, 0.0];
        let b = [0.0f32, 1.0];
        let c = [-1.0f32, 0.0];
        assert!((angular(&a, &a)).abs() < 1e-9);
        assert!((angular(&a, &b) - 0.5).abs() < 1e-9);
        assert!((angular(&a, &c) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn item_metric_dispatch() {
        let m = ItemMetric::Edit;
        assert_eq!(m.distance(&Item::text("ab"), &Item::text("abc")), 1.0);
        let m = ItemMetric::L2;
        let d = m.distance(&Item::vector(vec![0.0, 0.0]), &Item::vector(vec![3.0, 4.0]));
        assert_eq!(d, 5.0);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn item_metric_mismatch_panics() {
        ItemMetric::Edit.distance(&Item::text("a"), &Item::vector(vec![1.0]));
    }

    #[test]
    fn work_positive_and_monotone_in_size() {
        let m = ItemMetric::Edit;
        let short = m.work(&Item::text("ab"), &Item::text("cd"));
        let long = m.work(&Item::text("abcdefgh"), &Item::text("ijklmnop"));
        assert!(long > short && short > 0);
        let v = ItemMetric::L1;
        assert!(v.work(&Item::vector(vec![0.0; 300]), &Item::vector(vec![0.0; 300])) >= 600);
    }

    #[test]
    fn lp_classification() {
        assert!(ItemMetric::L1.is_lp_vector());
        assert!(ItemMetric::L2.is_lp_vector());
        assert!(!ItemMetric::ANGULAR.is_lp_vector());
        assert!(!ItemMetric::Edit.is_lp_vector());
        assert!(ItemMetric::ANGULAR.is_vector());
        assert!(!ItemMetric::Edit.is_vector());
    }
}
