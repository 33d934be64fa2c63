//! Index snapshots: serialize a constructed GTS structure so it can be
//! persisted or shipped between processes without paying reconstruction.
//!
//! The snapshot contains the *index* (node list, table list, liveness,
//! cache ids, parameters) but **not** the raw objects — those belong to the
//! caller's object store and are re-attached on [`Gts::restore`](crate::index::Gts::restore), which
//! validates that the provided store is consistent with the snapshot
//! (object count, id ranges). The format is a versioned little-endian
//! binary layout with no external dependencies.

use crate::node::{Node, NodeList, TreeShape};
use crate::params::GtsParams;
use crate::table::{TableEntry, TableList};
use metric_space::index::IndexError;

/// Magic + version tag (bumped whenever the layout changes; `GTS3`
/// dropped the arena-toggle parameter byte `GTS2` carried).
const MAGIC: &[u8; 4] = b"GTS3";

/// Little-endian writer (shared with the sharded-index snapshot, which
/// embeds per-shard `encode` payloads in its own envelope).
pub(crate) struct W(pub(crate) Vec<u8>);

impl W {
    pub(crate) fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
}

/// Encoded size of one node: pivot, three `f64` radii, position, size.
const NODE_BYTES: usize = 4 + 3 * 8 + 4 + 4;

/// Little-endian reader with bounds checking.
pub(crate) struct R<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> R<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], IndexError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(IndexError::Unsupported("truncated snapshot"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, IndexError> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn u32(&mut self) -> Result<u32, IndexError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, IndexError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn f64(&mut self) -> Result<f64, IndexError> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Serializable view of the index internals (crate-private bridge).
pub(crate) struct SnapshotParts<'a> {
    pub params: &'a GtsParams,
    pub nodes: &'a NodeList,
    pub table: &'a TableList,
    pub live: &'a [bool],
    pub cache_ids: &'a [u32],
}

pub(crate) fn encode(parts: SnapshotParts<'_>) -> Vec<u8> {
    let mut w = W(Vec::with_capacity(
        64 + parts.nodes.len() * 40 + parts.table.len() * 16,
    ));
    w.0.extend_from_slice(MAGIC);
    // Parameters.
    w.u32(parts.params.node_capacity);
    w.u64(parts.params.seed);
    w.u64(parts.params.cache_capacity_bytes as u64);
    w.u8(u8::from(parts.params.two_sided_pruning));
    w.u8(u8::from(parts.params.fft_pivots));
    w.u8(u8::from(parts.params.query_grouping));
    // Tree shape + nodes.
    let shape = parts.nodes.shape();
    w.u32(shape.nc);
    w.u32(shape.h);
    w.u64(parts.nodes.len() as u64);
    for id in 1..=parts.nodes.len() {
        let n = parts.nodes.get(id);
        w.u32(n.pivot.map_or(0, |p| p + 1));
        w.f64(n.min_dis);
        w.f64(n.max_dis);
        w.f64(n.own_max_dis);
        w.u32(n.pos);
        w.u32(n.size);
    }
    // Table list.
    w.u64(parts.table.len() as u64);
    for e in parts.table.iter() {
        w.u32(e.obj);
        w.f64(e.dis);
        w.u8(u8::from(e.deleted));
    }
    // Liveness bitmap.
    w.u64(parts.live.len() as u64);
    let mut byte = 0u8;
    for (i, &l) in parts.live.iter().enumerate() {
        if l {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            w.u8(byte);
            byte = 0;
        }
    }
    if !parts.live.len().is_multiple_of(8) {
        w.u8(byte);
    }
    // Cache ids.
    w.u64(parts.cache_ids.len() as u64);
    for &id in parts.cache_ids {
        w.u32(id);
    }
    w.0
}

/// Decoded snapshot contents.
pub(crate) struct Decoded {
    pub params: GtsParams,
    pub nodes: NodeList,
    pub table: TableList,
    pub live: Vec<bool>,
    pub cache_ids: Vec<u32>,
}

pub(crate) fn decode(bytes: &[u8], object_count: usize) -> Result<Decoded, IndexError> {
    let mut r = R { buf: bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(IndexError::Unsupported("bad snapshot magic/version"));
    }
    let params = GtsParams {
        node_capacity: r.u32()?,
        seed: r.u64()?,
        cache_capacity_bytes: r.u64()? as usize,
        two_sided_pruning: r.u8()? != 0,
        fft_pivots: r.u8()? != 0,
        query_grouping: r.u8()? != 0,
        // Execution-topology and kernel-strategy knobs are not single-index
        // state: a restored index uses the restoring machine's parallelism
        // and default kernel strategy, and the sharded envelope records its
        // own shard count.
        bounded_verification: false,
        host_threads: 0,
        bound_broadcast: false,
        shards: 1,
        replicas: 1,
    };
    if params.node_capacity < 2 {
        return Err(IndexError::Unsupported("corrupt snapshot: node capacity"));
    }
    let shape = TreeShape {
        nc: r.u32()?,
        h: r.u32()?,
    };
    let node_count = r.u64()?;
    if shape.nc != params.node_capacity
        || shape.h == 0
        || shape.total_nodes().map(|n| n as u64) != Some(node_count)
    {
        return Err(IndexError::Unsupported("corrupt snapshot: tree shape"));
    }
    // Check the claimed node list against the bytes left before allocating
    // it: a hostile header must not make the decoder ask for petabytes.
    if node_count > (r.remaining() / NODE_BYTES) as u64 {
        return Err(IndexError::Unsupported("truncated snapshot"));
    }
    let node_count = node_count as usize;
    let mut nodes = NodeList::new(shape);
    for id in 1..=node_count {
        let pivot_raw = r.u32()?;
        let node = Node {
            pivot: pivot_raw.checked_sub(1),
            min_dis: r.f64()?,
            max_dis: r.f64()?,
            own_max_dis: r.f64()?,
            pos: r.u32()?,
            size: r.u32()?,
        };
        if let Some(p) = node.pivot {
            if p as usize >= object_count {
                return Err(IndexError::Unsupported("corrupt snapshot: pivot id"));
            }
        }
        *nodes.get_mut(id) = node;
    }
    let table_len = r.u64()? as usize;
    if table_len > object_count {
        return Err(IndexError::Unsupported("corrupt snapshot: table length"));
    }
    let mut ids = Vec::with_capacity(table_len);
    let mut dis = Vec::with_capacity(table_len);
    let mut deleted = Vec::with_capacity(table_len);
    for _ in 0..table_len {
        let obj = r.u32()?;
        if obj as usize >= object_count {
            return Err(IndexError::Unsupported("corrupt snapshot: object id"));
        }
        ids.push(obj);
        dis.push(r.f64()?);
        deleted.push(r.u8()? != 0);
    }
    // Every node's table range must lie inside the table: search slices
    // the table by these ranges and sizes buffers by them.
    for id in 1..=node_count {
        let n = nodes.get(id);
        if u64::from(n.pos) + u64::from(n.size) > table_len as u64 {
            return Err(IndexError::Unsupported("corrupt snapshot: node range"));
        }
    }
    let table = TableList::from_columns(ids, dis, deleted);
    let live_len = r.u64()? as usize;
    if live_len != object_count {
        return Err(IndexError::Unsupported(
            "snapshot object count does not match the provided store",
        ));
    }
    let mut live = Vec::with_capacity(live_len);
    let bytes_needed = live_len.div_ceil(8);
    let bits = r.take(bytes_needed)?;
    for i in 0..live_len {
        live.push(bits[i / 8] & (1 << (i % 8)) != 0);
    }
    let cache_len = r.u64()? as usize;
    if cache_len > object_count {
        return Err(IndexError::Unsupported("corrupt snapshot: cache length"));
    }
    let mut cache_ids = Vec::with_capacity(cache_len);
    for _ in 0..cache_len {
        let id = r.u32()?;
        if id as usize >= object_count {
            return Err(IndexError::Unsupported("corrupt snapshot: cache id"));
        }
        cache_ids.push(id);
    }
    if !r.done() {
        return Err(IndexError::Unsupported("trailing bytes in snapshot"));
    }
    let _ = TableEntry::default();
    Ok(Decoded {
        params,
        nodes,
        table,
        live,
        cache_ids,
    })
}

// The public API lives on `Gts`: see [`crate::index::Gts::snapshot`] and
// [`crate::index::Gts::restore`].

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Gts;
    use gpu_sim::Device;
    use metric_space::index::{DynamicIndex, SimilarityIndex};
    use metric_space::{DatasetKind, Item, ItemMetric};

    fn build() -> (Vec<Item>, ItemMetric, Gts<Item, ItemMetric>) {
        let data = DatasetKind::Words.generate(400, 81);
        let dev = Device::rtx_2080_ti();
        let gts =
            Gts::build(&dev, data.items.clone(), data.metric, GtsParams::default()).expect("build");
        (data.items, data.metric, gts)
    }

    #[test]
    fn roundtrip_preserves_answers() {
        let (items, metric, mut gts) = build();
        // Mutate a little so liveness + cache are non-trivial.
        gts.remove(7).expect("rm");
        gts.insert(Item::text("snapshotted")).expect("ins");
        let mut all_items = items.clone();
        all_items.push(Item::text("snapshotted"));

        let bytes = gts.snapshot();
        let dev2 = Device::rtx_2080_ti();
        let restored = Gts::restore(&dev2, all_items, metric, &bytes).expect("restore");

        let q = Item::text("snapshotted");
        let want = gts.range_query(&q, 2.0).expect("orig");
        let got = restored.range_query(&q, 2.0).expect("restored");
        assert_eq!(got, want);
        assert_eq!(restored.len(), gts.len());
        assert_eq!(restored.height(), gts.height());
        // Tombstoned object stays gone.
        assert!(!restored
            .range_query(&items[7], 0.0)
            .expect("q")
            .iter()
            .any(|n| n.id == 7));
    }

    #[test]
    fn restore_validates_store_size() {
        let (items, metric, gts) = build();
        let bytes = gts.snapshot();
        let dev = Device::rtx_2080_ti();
        let short = items[..100].to_vec();
        assert!(matches!(
            Gts::restore(&dev, short, metric, &bytes),
            Err(IndexError::Unsupported(_))
        ));
    }

    #[test]
    fn corrupt_snapshots_rejected() {
        let (items, metric, gts) = build();
        let bytes = gts.snapshot();
        let dev = Device::rtx_2080_ti();
        // Truncation.
        assert!(Gts::restore(&dev, items.clone(), metric, &bytes[..bytes.len() / 2]).is_err());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(Gts::restore(&dev, items.clone(), metric, &bad).is_err());
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(Gts::restore(&dev, items, metric, &long).is_err());
    }

    #[test]
    fn hostile_tree_height_is_rejected_before_allocating() {
        // A real snapshot whose header claims height 12 (with the matching
        // node count) would need ~8.6 PB of nodes; the decoder must answer
        // with a typed error instead of aborting on the allocation.
        let (items, metric, gts) = build();
        let mut bytes = gts.snapshot();
        // MAGIC, node_capacity u32, seed u64, cache u64, three flag bytes.
        let shape_at = 4 + 4 + 8 + 8 + 3;
        let nc = u32::from_le_bytes(bytes[shape_at..shape_at + 4].try_into().expect("nc"));
        let hostile = TreeShape { nc, h: 12 };
        let count = hostile.total_nodes().expect("fits in usize") as u64;
        bytes[shape_at + 4..shape_at + 8].copy_from_slice(&12u32.to_le_bytes());
        bytes[shape_at + 8..shape_at + 16].copy_from_slice(&count.to_le_bytes());
        let dev = Device::rtx_2080_ti();
        assert!(matches!(
            Gts::restore(&dev, items.clone(), metric, &bytes),
            Err(IndexError::Unsupported(_))
        ));
        // A height whose node count overflows is rejected too.
        bytes[shape_at + 4..shape_at + 8].copy_from_slice(&200u32.to_le_bytes());
        assert!(Gts::restore(&dev, items, metric, &bytes).is_err());
        assert_eq!(TreeShape { nc, h: 200 }.total_nodes(), None);
    }

    #[test]
    fn snapshot_is_deterministic() {
        let (_, _, gts) = build();
        assert_eq!(gts.snapshot(), gts.snapshot());
    }
}
