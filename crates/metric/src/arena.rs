//! Flat object arena: contiguous device-style storage for a homogeneous
//! object collection.
//!
//! [`Item`] keeps every payload behind its own heap allocation, which is the
//! right shape for a host-side dynamic union but the wrong shape for a
//! distance kernel: each evaluation chases a pointer and the payloads of
//! neighbouring objects share no cache lines. GPU similarity-search systems
//! (Johnson et al.'s billion-scale search, GENIE's generic match kernels)
//! all store objects as one contiguous buffer plus offsets, so a batch of
//! distance evaluations streams linearly through memory. [`ObjectArena`] is
//! that layout: one `f32` buffer for vector datasets, one byte buffer for
//! string datasets, and an offsets array mapping object ids to payload
//! ranges. The batched kernels of [`crate::BatchMetric`] resolve ids against
//! an arena instead of an `&[Item]`.
//!
//! Vector arenas additionally come in two layouts ([`ArenaLayout`]):
//!
//! * **Legacy** — payloads stored back-to-back in one `f32` buffer, each
//!   row starting wherever the previous one ended. The natural layout for
//!   per-element scalar loops.
//! * **Aligned** — payloads stored as rows of [`AlignedBlock`]s: 8-lane
//!   `f32` blocks, 32-byte aligned, the tail block zero-padded. Every row
//!   starts on a block (and therefore cache-line-half) boundary and spans
//!   only whole blocks, so the L1/L2 kernels iterate fixed-width lanes with
//!   no tail handling — the shape rustc autovectorizes (FAISS stores
//!   vectors exactly this way for its GPU kernels). Zero padding is exact
//!   for the Lp kernels: a padded lane contributes `|0 − 0| = +0.0` to a
//!   non-negative accumulator, which is a bitwise identity.

use crate::object::Item;
use std::fmt;

/// One 8-lane `f32` SIMD block, 32-byte aligned.
///
/// The unit of the [`ArenaLayout::Aligned`] storage: vector payloads are
/// packed into rows of these blocks with the tail zero-padded, so block-wise
/// kernels (see [`crate::dist::l2_blocks`]) always consume whole blocks.
#[repr(C, align(32))]
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AlignedBlock(pub [f32; 8]);

impl AlignedBlock {
    /// Lanes per block (f32 elements).
    pub const LANES: usize = 8;

    /// The all-zero block (padding).
    pub const ZERO: AlignedBlock = AlignedBlock([0.0; 8]);

    /// Blocks needed to hold `len` elements.
    #[inline]
    pub fn blocks_for(len: usize) -> usize {
        len.div_ceil(Self::LANES)
    }

    /// Append `src` to `out` as zero-padded blocks (the tail block's unused
    /// lanes are `+0.0`). Appends nothing for an empty slice.
    pub fn pack_into(src: &[f32], out: &mut Vec<AlignedBlock>) {
        out.reserve(Self::blocks_for(src.len()));
        let mut chunks = src.chunks_exact(Self::LANES);
        for chunk in &mut chunks {
            let mut b = [0.0f32; Self::LANES];
            b.copy_from_slice(chunk);
            out.push(AlignedBlock(b));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut b = [0.0f32; Self::LANES];
            b[..rem.len()].copy_from_slice(rem);
            out.push(AlignedBlock(b));
        }
    }

    /// `src` as a fresh zero-padded block row.
    pub fn pack(src: &[f32]) -> Vec<AlignedBlock> {
        let mut out = Vec::new();
        Self::pack_into(src, &mut out);
        out
    }

    /// The flat lane view of a block row: `blocks.len() * 8` contiguous
    /// `f32`s — the logical payload followed by `+0.0` padding lanes. The
    /// block kernels run the canonical slice kernels over this view, so
    /// block rows and packed slices share one (well-vectorized) loop body.
    #[inline]
    pub fn lanes_of(blocks: &[AlignedBlock]) -> &[f32] {
        // SAFETY: `AlignedBlock` is `#[repr(C, align(32))]` over `[f32; 8]`:
        // its size (32 bytes) equals its alignment, so consecutive blocks
        // carry no padding between them and the row is one contiguous run
        // of `blocks.len() * 8` initialised `f32`s starting at the base.
        unsafe {
            core::slice::from_raw_parts(blocks.as_ptr().cast::<f32>(), blocks.len() * Self::LANES)
        }
    }
}

/// Storage layout of a vector arena's payload buffer.
///
/// An execution-strategy choice, not index structure: both layouts hold the
/// same logical payloads and the block-wise kernels are bit-identical to
/// the legacy ones (one canonical lane-summation order, see
/// [`crate::dist::l2`]), so switching layouts never changes answers or
/// simulated cycles — only wall-clock speed. Text arenas are always
/// `Legacy` (variable-width byte rows have no block form).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ArenaLayout {
    /// Back-to-back unpadded `f32` rows (and all text arenas).
    #[default]
    Legacy,
    /// Zero-padded rows of 32-byte-aligned 8-lane [`AlignedBlock`]s.
    Aligned,
}

/// Typed rejection returned by a kernel that cannot resolve payloads from
/// an arena of the given layout (e.g. the early-abandoning edit kernel, whose
/// variable-width byte rows are exempt from the aligned layout).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayoutUnsupported {
    /// The kernel that rejected the arena.
    pub kernel: &'static str,
    /// The arena layout it was handed.
    pub layout: ArenaLayout,
}

impl fmt::Display for LayoutUnsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel `{}` cannot resolve payloads from a {:?}-layout arena",
            self.kernel, self.layout
        )
    }
}

impl std::error::Error for LayoutUnsupported {}

/// Payload family stored by an arena. A dataset is always homogeneous
/// (Table 2 of the paper), so one arena holds exactly one family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArenaKind {
    /// Byte-string payloads (Words, DNA; edit distance).
    Text,
    /// Dense `f32` payloads (T-Loc, Vector, Color; L1/L2/angular).
    Vector,
}

/// Contiguous storage for the payloads of a homogeneous object collection,
/// addressed by object id.
///
/// Ids are indices into the originating collection; the arena stores the
/// payload of object `i` at `offsets[i]..offsets[i + 1]` of the buffer
/// matching its [`ArenaKind`]. Appending keeps ids dense, mirroring how the
/// GTS object store only ever grows (ids are never recycled).
#[derive(Clone, Debug, Default)]
pub struct ObjectArena {
    text: bool,
    layout: ArenaLayout,
    /// Vector payloads, flat (`Vector` arenas with the `Legacy` layout).
    floats: Vec<f32>,
    /// Vector payloads as zero-padded block rows (`Aligned` layout).
    blocks: Vec<AlignedBlock>,
    /// `block_offsets[i]..block_offsets[i+1]` is object `i`'s block-row
    /// range in `blocks` (`Aligned` layout only); length `len + 1`.
    block_offsets: Vec<u32>,
    /// String payloads, flat bytes (`Text` arenas).
    bytes: Vec<u8>,
    /// `offsets[i]..offsets[i+1]` is object `i`'s **logical** payload range
    /// (elements, not blocks — maintained under both layouts so `arity`
    /// never depends on the layout); length `len + 1` with `offsets[0] = 0`.
    offsets: Vec<u32>,
}

impl ObjectArena {
    /// An empty arena of the given kind (legacy layout).
    pub fn new(kind: ArenaKind) -> ObjectArena {
        ObjectArena::new_with(kind, ArenaLayout::Legacy)
    }

    /// An empty arena of the given kind and layout. Text arenas have no
    /// block form, so a `Text` + `Aligned` request degrades to `Legacy`.
    pub fn new_with(kind: ArenaKind, layout: ArenaLayout) -> ObjectArena {
        let text = kind == ArenaKind::Text;
        ObjectArena {
            text,
            layout: if text { ArenaLayout::Legacy } else { layout },
            floats: Vec::new(),
            blocks: Vec::new(),
            block_offsets: vec![0],
            bytes: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Build an arena over a homogeneous `Item` collection. Returns `None`
    /// when the collection is empty or mixes text and vector objects (no
    /// flat layout exists; callers fall back to per-pair access).
    pub fn from_items(items: &[Item]) -> Option<ObjectArena> {
        ObjectArena::from_items_with(items, ArenaLayout::Legacy)
    }

    /// [`ObjectArena::from_items`] with an explicit payload layout.
    pub fn from_items_with(items: &[Item], layout: ArenaLayout) -> Option<ObjectArena> {
        let kind = match items.first()? {
            Item::Text(_) => ArenaKind::Text,
            Item::Vector(_) => ArenaKind::Vector,
        };
        let mut arena = ObjectArena::new_with(kind, layout);
        arena.reserve_for(items);
        for item in items {
            if !arena.push_item(item) {
                return None;
            }
        }
        Some(arena)
    }

    fn reserve_for(&mut self, items: &[Item]) {
        self.offsets.reserve(items.len());
        let payload: usize = items.iter().map(Item::arity).sum();
        if self.text {
            self.bytes.reserve(payload);
        } else if self.layout == ArenaLayout::Aligned {
            self.block_offsets.reserve(items.len());
            self.blocks
                .reserve(payload / AlignedBlock::LANES + items.len());
        } else {
            self.floats.reserve(payload);
        }
    }

    /// Append one object's payload; its id is the previous [`len`].
    /// Returns `false` (arena unchanged) if the item's family does not
    /// match the arena's kind, or if the flat buffer would outgrow the
    /// `u32` offset space (callers degrade to per-pair access rather than
    /// silently wrapping payload ranges).
    ///
    /// [`len`]: ObjectArena::len
    pub fn push_item(&mut self, item: &Item) -> bool {
        match (self.text, item) {
            (true, Item::Text(s)) => {
                if u32::try_from(self.bytes.len() + s.len()).is_err() {
                    return false;
                }
                self.bytes.extend_from_slice(s.as_bytes());
                self.offsets.push(self.bytes.len() as u32);
                true
            }
            (false, Item::Vector(v)) => {
                let base = *self.offsets.last().expect("offsets start at [0]") as usize;
                if u32::try_from(base + v.len()).is_err() {
                    return false;
                }
                match self.layout {
                    ArenaLayout::Legacy => self.floats.extend_from_slice(v),
                    ArenaLayout::Aligned => {
                        AlignedBlock::pack_into(v, &mut self.blocks);
                        // Block count ≤ element count, so the element-space
                        // check above already covers the block offsets.
                        self.block_offsets.push(self.blocks.len() as u32);
                    }
                }
                self.offsets.push((base + v.len()) as u32);
                true
            }
            _ => false,
        }
    }

    /// Payload family of this arena.
    pub fn kind(&self) -> ArenaKind {
        if self.text {
            ArenaKind::Text
        } else {
            ArenaKind::Vector
        }
    }

    /// Payload layout of this arena (always `Legacy` for text arenas).
    pub fn layout(&self) -> ArenaLayout {
        self.layout
    }

    /// Number of objects stored.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the arena holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The byte-string payload of object `id`.
    ///
    /// # Panics
    /// Panics if this is a vector arena or `id` is out of range.
    #[inline]
    pub fn text_bytes(&self, id: u32) -> &[u8] {
        debug_assert!(self.text, "text_bytes on a vector arena");
        let (lo, hi) = self.range(id);
        &self.bytes[lo..hi]
    }

    /// The vector payload of object `id` (legacy layout).
    ///
    /// # Panics
    /// Panics if this is a text arena, an aligned arena (its payloads are
    /// block rows — use [`ObjectArena::blocks`]), or `id` is out of range.
    #[inline]
    pub fn vector(&self, id: u32) -> &[f32] {
        debug_assert!(!self.text, "vector on a text arena");
        assert_eq!(
            self.layout,
            ArenaLayout::Legacy,
            "vector payloads of an aligned arena are block rows; use `blocks`"
        );
        let (lo, hi) = self.range(id);
        &self.floats[lo..hi]
    }

    /// The zero-padded block row of object `id` (aligned layout). The row
    /// holds [`ObjectArena::arity`]`(id)` logical elements in
    /// `row.len() * 8` lanes, padding lanes all `+0.0`.
    ///
    /// # Panics
    /// Panics if this is not an aligned vector arena or `id` is out of
    /// range.
    #[inline]
    pub fn blocks(&self, id: u32) -> &[AlignedBlock] {
        assert_eq!(
            self.layout,
            ArenaLayout::Aligned,
            "block rows exist only under the aligned layout"
        );
        let id = id as usize;
        &self.blocks[self.block_offsets[id] as usize..self.block_offsets[id + 1] as usize]
    }

    #[inline]
    fn range(&self, id: u32) -> (usize, usize) {
        let id = id as usize;
        (self.offsets[id] as usize, self.offsets[id + 1] as usize)
    }

    /// Payload length (characters or dimensions) of object `id` — the same
    /// quantity as [`Item::arity`], read without touching the payload.
    #[inline]
    pub fn arity(&self, id: u32) -> usize {
        let (lo, hi) = self.range(id);
        hi - lo
    }

    /// Bytes occupied by the flat buffers + offsets (device residency of
    /// the arena layout). Aligned arenas count whole blocks — padding is
    /// resident too.
    pub fn size_bytes(&self) -> u64 {
        let block_bytes = match self.layout {
            ArenaLayout::Legacy => 0,
            ArenaLayout::Aligned => {
                self.blocks.len() * std::mem::size_of::<AlignedBlock>()
                    + self.block_offsets.len() * std::mem::size_of::<u32>()
            }
        };
        (self.bytes.len()
            + self.floats.len() * std::mem::size_of::<f32>()
            + block_bytes
            + self.offsets.len() * std::mem::size_of::<u32>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_arena_roundtrip() {
        let items = [Item::text("abc"), Item::text(""), Item::text("zz")];
        let a = ObjectArena::from_items(&items).expect("homogeneous");
        assert_eq!(a.kind(), ArenaKind::Text);
        assert_eq!(a.len(), 3);
        assert_eq!(a.text_bytes(0), b"abc");
        assert_eq!(a.text_bytes(1), b"");
        assert_eq!(a.text_bytes(2), b"zz");
        assert_eq!(a.arity(1), 0);
        assert_eq!(a.arity(2), 2);
    }

    #[test]
    fn vector_arena_roundtrip() {
        let items = [Item::vector(vec![1.0, 2.0]), Item::vector(vec![3.0])];
        let a = ObjectArena::from_items(&items).expect("homogeneous");
        assert_eq!(a.kind(), ArenaKind::Vector);
        assert_eq!(a.vector(0), &[1.0, 2.0]);
        assert_eq!(a.vector(1), &[3.0]);
        assert_eq!(a.arity(0), 2);
    }

    #[test]
    fn mixed_and_empty_rejected() {
        assert!(ObjectArena::from_items(&[]).is_none());
        let mixed = [Item::text("a"), Item::vector(vec![1.0])];
        assert!(ObjectArena::from_items(&mixed).is_none());
    }

    #[test]
    fn push_grows_and_rejects_mismatch() {
        let mut a = ObjectArena::new(ArenaKind::Text);
        assert!(a.is_empty());
        assert!(a.push_item(&Item::text("hi")));
        assert!(!a.push_item(&Item::vector(vec![0.0])), "kind mismatch");
        assert_eq!(a.len(), 1);
        assert_eq!(a.text_bytes(0), b"hi");
    }

    #[test]
    fn size_accounts_payload_and_offsets() {
        let a = ObjectArena::from_items(&[Item::text("abcd")]).expect("arena");
        assert_eq!(a.size_bytes(), 4 + 2 * 4, "4 payload bytes + 2 u32 offsets");
        let v = ObjectArena::from_items(&[Item::vector(vec![0.0; 8])]).expect("arena");
        assert_eq!(v.size_bytes(), 8 * 4 + 2 * 4);
    }

    #[test]
    fn aligned_block_packing_pads_with_zero() {
        let row = AlignedBlock::pack(&[1.0, 2.0, 3.0]);
        assert_eq!(row.len(), 1);
        assert_eq!(row[0].0, [1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        // Padding must be +0.0 (the additive identity for the non-negative
        // Lp accumulators), never -0.0.
        assert!(row[0].0[3..].iter().all(|p| p.to_bits() == 0));
        let full = AlignedBlock::pack(&[0.5; 16]);
        assert_eq!(full.len(), 2, "exact multiples gain no padding block");
        assert!(AlignedBlock::pack(&[]).is_empty());
        assert_eq!(AlignedBlock::blocks_for(0), 0);
        assert_eq!(AlignedBlock::blocks_for(8), 1);
        assert_eq!(AlignedBlock::blocks_for(9), 2);
    }

    #[test]
    fn aligned_blocks_are_32_byte_aligned() {
        assert_eq!(std::mem::align_of::<AlignedBlock>(), 32);
        assert_eq!(std::mem::size_of::<AlignedBlock>(), 32);
        let a = ObjectArena::from_items_with(
            &[Item::vector(vec![1.0; 11]), Item::vector(vec![2.0; 11])],
            ArenaLayout::Aligned,
        )
        .expect("arena");
        for id in 0..2 {
            let row = a.blocks(id);
            assert_eq!(row.as_ptr() as usize % 32, 0, "row {id} misaligned");
        }
    }

    #[test]
    fn aligned_arena_roundtrip() {
        let items = [
            Item::vector(vec![1.0, 2.0, 3.0]),
            Item::vector((0..8).map(|i| i as f32).collect::<Vec<f32>>()),
            Item::vector(vec![]),
            Item::vector(vec![9.0; 17]),
        ];
        let a = ObjectArena::from_items_with(&items, ArenaLayout::Aligned).expect("arena");
        assert_eq!(a.layout(), ArenaLayout::Aligned);
        assert_eq!(a.len(), 4);
        for (id, item) in items.iter().enumerate() {
            let v = item.as_vector().expect("vector items");
            assert_eq!(a.arity(id as u32), v.len(), "arity is layout-invariant");
            let row = a.blocks(id as u32);
            assert_eq!(row.len(), AlignedBlock::blocks_for(v.len()));
            let flat: Vec<f32> = row.iter().flat_map(|b| b.0).collect();
            assert_eq!(&flat[..v.len()], v, "payload survives packing");
            assert!(
                flat[v.len()..].iter().all(|p| p.to_bits() == 0),
                "tail lanes are +0.0"
            );
        }
    }

    #[test]
    fn aligned_push_grows_rows() {
        let mut a = ObjectArena::new_with(ArenaKind::Vector, ArenaLayout::Aligned);
        assert!(a.push_item(&Item::vector(vec![1.0; 9])));
        assert!(a.push_item(&Item::vector(vec![2.0; 2])));
        assert!(!a.push_item(&Item::text("nope")), "kind mismatch");
        assert_eq!(a.len(), 2);
        assert_eq!(a.blocks(0).len(), 2);
        assert_eq!(a.blocks(1).len(), 1);
        assert_eq!(a.arity(0), 9);
        assert_eq!(a.arity(1), 2);
    }

    #[test]
    fn text_arena_ignores_aligned_request() {
        let a = ObjectArena::from_items_with(&[Item::text("abc")], ArenaLayout::Aligned)
            .expect("arena");
        assert_eq!(
            a.layout(),
            ArenaLayout::Legacy,
            "variable-width byte rows have no block form"
        );
        assert_eq!(a.text_bytes(0), b"abc");
    }

    #[test]
    fn aligned_size_counts_padding() {
        let legacy = ObjectArena::from_items(&[Item::vector(vec![0.0; 3])]).expect("arena");
        let aligned =
            ObjectArena::from_items_with(&[Item::vector(vec![0.0; 3])], ArenaLayout::Aligned)
                .expect("arena");
        assert_eq!(legacy.size_bytes(), 3 * 4 + 2 * 4);
        // One whole 32-byte block + 2 block offsets + 2 logical offsets.
        assert_eq!(aligned.size_bytes(), 32 + 2 * 4 + 2 * 4);
    }
}
