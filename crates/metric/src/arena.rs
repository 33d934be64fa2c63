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

use crate::object::Item;

/// Payload layout of an arena. There is one: payloads stored back-to-back
/// in one flat buffer. The type is kept only so that callers of
/// [`crate::BatchMetric::build_arena_with`] (the wall-clock benchmark
/// harness) keep compiling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ArenaLayout {
    /// Back-to-back unpadded payload rows.
    #[default]
    Legacy,
}

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
    /// Vector payloads, flat (`Vector` arenas).
    floats: Vec<f32>,
    /// String payloads, flat bytes (`Text` arenas).
    bytes: Vec<u8>,
    /// `offsets[i]..offsets[i+1]` is object `i`'s payload range; length
    /// `len + 1` with `offsets[0] = 0`.
    offsets: Vec<u32>,
}

impl ObjectArena {
    /// An empty arena of the given kind.
    pub fn new(kind: ArenaKind) -> ObjectArena {
        ObjectArena {
            text: kind == ArenaKind::Text,
            floats: Vec::new(),
            bytes: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Build an arena over a homogeneous `Item` collection. Returns `None`
    /// when the collection is empty or mixes text and vector objects (no
    /// flat layout exists; callers fall back to per-pair access).
    pub fn from_items(items: &[Item]) -> Option<ObjectArena> {
        let kind = match items.first()? {
            Item::Text(_) => ArenaKind::Text,
            Item::Vector(_) => ArenaKind::Vector,
        };
        let mut arena = ObjectArena::new(kind);
        arena.offsets.reserve(items.len());
        let payload: usize = items.iter().map(Item::arity).sum();
        if arena.text {
            arena.bytes.reserve(payload);
        } else {
            arena.floats.reserve(payload);
        }
        for item in items {
            if !arena.push_item(item) {
                return None;
            }
        }
        Some(arena)
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
                if u32::try_from(self.floats.len() + v.len()).is_err() {
                    return false;
                }
                self.floats.extend_from_slice(v);
                self.offsets.push(self.floats.len() as u32);
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

    /// The vector payload of object `id`.
    ///
    /// # Panics
    /// Panics if this is a text arena or `id` is out of range.
    #[inline]
    pub fn vector(&self, id: u32) -> &[f32] {
        debug_assert!(!self.text, "vector on a text arena");
        let (lo, hi) = self.range(id);
        &self.floats[lo..hi]
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
    /// the arena layout).
    pub fn size_bytes(&self) -> u64 {
        (self.bytes.len()
            + self.floats.len() * std::mem::size_of::<f32>()
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
}
