//! Storage layout for the packed R-tree index (`mob-core`'s
//! [`RTree`]): two database arrays — leaf entries and nodes — behind a
//! root record, exactly like every other Sec-4 value.
//!
//! A leaf entry is `(tuple, unit, cube)`: the cube of a run of
//! consecutive units that starts at `unit` (`mob_core::run_cubes`).
//! Two entry layouts exist, told apart by the root record's kind tag
//! and by [`StoredIndex::frame`]:
//!
//! * **`u16`** (tag 12, the one [`save_index`] writes): the root record
//!   keeps the tree's frame, its root cube, once as six `f64`, and a
//!   leaf entry takes 20 bytes, `(tuple u32, unit u32, six u16 codes)`
//!   ([`CodedEntryRecord`]), each code a fraction of its frame axis
//!   (`mob_core::index::encode`). A tree holds its leaves as these very
//!   codes, so a save then a load gives the same tree back.
//! * **`f64`** (tag 11, read only): no frame, and a leaf entry takes 56
//!   bytes with its cube as six `f64` ([`IndexEntryRecord`]), the
//!   layout of every store written before compact leaves. It loads
//!   through `RTree::from_parts`, which validates the `f64` tree and
//!   then codes its leaves in its root cube. An index with one entry
//!   per unit (`mob_core::unit_cubes`) is a tree of one-unit runs and
//!   loads through either layout.
//!
//! Node records take 60 bytes, `(cube as six f64, first, count,
//! level)`, in both layouts.
//!
//! Decode is untrusted end to end: record reads reject NaN coordinates,
//! inverted bounds and codes whose min is above their max, and
//! [`load_index`] re-runs the full structural validation
//! ([`RTree::from_parts`], [`RTree::from_coded_parts`]) — the frame
//! equal to the root cube, child ranges tiling each level, parent-cube
//! containment, leaf ids in range — so a forged or bit-rotted index
//! surfaces as a [`DecodeError`] and the query layer falls back to a
//! full scan instead of trusting a wrong candidate set.

use crate::checked::count_u32;
use crate::dbarray::{load_array, save_array, SavedArray};
use crate::page::PageStore;
use crate::record::{get_f64, get_u32, put_f64, put_u16, put_u32, FixedRecord};
use mob_base::{DecodeError, DecodeResult, Instant, Interval, Real};
use mob_core::index::check_codes;
use mob_core::{CodedEntry, IndexEntry, IndexNode, RTree};
use mob_spatial::{Cube, Rect};

/// Root record of a stored index: counts, the entry layout's frame,
/// plus the two arrays.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredIndex {
    /// Number of tuples of the indexed relation.
    pub num_tuples: u32,
    /// Node fan-out the tree was packed with.
    pub fanout: u32,
    /// The tree's frame (its root cube) when the entries are 16-bit
    /// codes in it ([`CodedEntryRecord`], tag 12); `None` when they are
    /// `f64` cubes ([`IndexEntryRecord`], tag 11).
    pub frame: Option<Cube>,
    /// Leaf entries, in the layout `frame` names.
    pub entries: SavedArray,
    /// Tree nodes, leaves first, root last ([`IndexNodeRecord`]).
    pub nodes: SavedArray,
}

impl StoredIndex {
    /// The leaf entry layout: `"u16"` codes or `"f64"` cubes.
    pub fn layout(&self) -> &'static str {
        if self.frame.is_some() {
            "u16"
        } else {
            "f64"
        }
    }

    /// Bytes per stored leaf entry.
    pub fn entry_bytes(&self) -> usize {
        if self.frame.is_some() {
            CodedEntryRecord::SIZE
        } else {
            IndexEntryRecord::SIZE
        }
    }
}

/// Serialize a cube as `(min_x, min_y, max_x, max_y, t_min, t_max)`.
pub(crate) fn put_cube(out: &mut Vec<u8>, c: &Cube) {
    put_f64(out, c.rect.min_x().get());
    put_f64(out, c.rect.min_y().get());
    put_f64(out, c.rect.max_x().get());
    put_f64(out, c.rect.max_y().get());
    put_f64(out, c.t_min.as_f64());
    put_f64(out, c.t_max.as_f64());
}

/// A cube from its six bounds in [`put_cube`] order, rejecting NaN and
/// inverted bounds — an index cube damaged into a *smaller* box would
/// prune wrongly, so nothing questionable may pass.
pub(crate) fn cube_from_bounds(b: [f64; 6]) -> DecodeResult<Cube> {
    let [min_x, min_y, max_x, max_y, t_min, t_max] = b;
    let (min_x, min_y) = (Real::try_new(min_x)?, Real::try_new(min_y)?);
    let (max_x, max_y) = (Real::try_new(max_x)?, Real::try_new(max_y)?);
    let (t_min, t_max) = (Instant::try_from_f64(t_min)?, Instant::try_from_f64(t_max)?);
    if min_x > max_x || min_y > max_y || t_max < t_min {
        return Err(DecodeError::BadStructure {
            what: "index cube",
            detail: "inverted bounding cube".to_string(),
        });
    }
    Ok(Cube::new(
        Rect::new(min_x, min_y, max_x, max_y),
        &Interval::closed(t_min, t_max),
    ))
}

/// Decode a cube at `off` ([`cube_from_bounds`]).
fn get_cube(buf: &[u8], off: usize) -> DecodeResult<Cube> {
    cube_from_bounds([
        get_f64(buf, off)?,
        get_f64(buf, off + 8)?,
        get_f64(buf, off + 16)?,
        get_f64(buf, off + 24)?,
        get_f64(buf, off + 32)?,
        get_f64(buf, off + 40)?,
    ])
}

const CUBE_SIZE: usize = 48;

/// Leaf-entry record of the `f64` layout (tag 11, read only):
/// `(tuple, unit, cube)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexEntryRecord(pub IndexEntry);

impl FixedRecord for IndexEntryRecord {
    const SIZE: usize = 8 + CUBE_SIZE;
    const WHAT: &'static str = "index entry record";
    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        put_u32(out, self.0.tuple);
        put_u32(out, self.0.unit);
        put_cube(out, &self.0.cube);
    }
    #[inline]
    fn read(buf: &[u8]) -> DecodeResult<Self> {
        Ok(IndexEntryRecord(IndexEntry {
            tuple: get_u32(buf, 0)?,
            unit: get_u32(buf, 4)?,
            cube: get_cube(buf, 8)?,
        }))
    }
}

/// Leaf-entry record of the `u16` layout (tag 12): `(tuple, unit, six
/// codes)`, the codes in [`mob_core::index::encode`] order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodedEntryRecord(pub CodedEntry);

impl FixedRecord for CodedEntryRecord {
    const SIZE: usize = 8 + 6 * 2;
    const WHAT: &'static str = "index coded entry record";
    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        put_u32(out, self.0.tuple);
        put_u32(out, self.0.unit);
        for c in self.0.codes {
            put_u16(out, c);
        }
    }
    #[inline]
    fn read(buf: &[u8]) -> DecodeResult<Self> {
        // One bounds check for the whole record: a load decodes one per
        // indexed unit run.
        let Some(&[t0, t1, t2, t3, u0, u1, u2, u3, x0, x1, y0, y1, x2, x3, y2, y3, s0, s1, s2, s3]) =
            buf.get(..Self::SIZE)
        else {
            return Err(DecodeError::Truncated {
                what: Self::WHAT,
                need: Self::SIZE,
                have: buf.len(),
            });
        };
        let codes = [
            u16::from_le_bytes([x0, x1]),
            u16::from_le_bytes([y0, y1]),
            u16::from_le_bytes([x2, x3]),
            u16::from_le_bytes([y2, y3]),
            u16::from_le_bytes([s0, s1]),
            u16::from_le_bytes([s2, s3]),
        ];
        check_codes(codes)?;
        Ok(CodedEntryRecord(CodedEntry {
            tuple: u32::from_le_bytes([t0, t1, t2, t3]),
            unit: u32::from_le_bytes([u0, u1, u2, u3]),
            codes,
        }))
    }
}

/// Node record: `(cube, first, count, level)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexNodeRecord(pub IndexNode);

impl FixedRecord for IndexNodeRecord {
    const SIZE: usize = CUBE_SIZE + 12;
    const WHAT: &'static str = "index node record";
    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        put_cube(out, &self.0.cube);
        put_u32(out, self.0.first);
        put_u32(out, self.0.count);
        put_u32(out, self.0.level);
    }
    #[inline]
    fn read(buf: &[u8]) -> DecodeResult<Self> {
        Ok(IndexNodeRecord(IndexNode {
            cube: get_cube(buf, 0)?,
            first: get_u32(buf, CUBE_SIZE)?,
            count: get_u32(buf, CUBE_SIZE + 4)?,
            level: get_u32(buf, CUBE_SIZE + 8)?,
        }))
    }
}

/// Save a packed R-tree in the `u16` layout: the frame in the root
/// record, the coded entries and the `f64` nodes as database arrays.
/// An empty tree has no frame and stores the zero cube in its place.
pub fn save_index(tree: &RTree, store: &mut PageStore) -> StoredIndex {
    let entries: Vec<CodedEntryRecord> = tree
        .coded_entries()
        .iter()
        .copied()
        .map(CodedEntryRecord)
        .collect();
    let nodes: Vec<IndexNodeRecord> = tree.nodes().iter().copied().map(IndexNodeRecord).collect();
    let frame = tree.frame().unwrap_or_else(|| {
        Cube::new(
            Rect::new(Real::ZERO, Real::ZERO, Real::ZERO, Real::ZERO),
            &Interval::closed(Instant::ZERO, Instant::ZERO),
        )
    });
    StoredIndex {
        num_tuples: count_u32(tree.num_tuples()),
        fanout: count_u32(tree.fanout()),
        frame: Some(frame),
        entries: save_array(&entries, store),
        nodes: save_array(&nodes, store),
    }
}

/// Load and fully re-validate a stored index of either layout.
///
/// Quarantined blobs, ragged arrays, NaN cubes, inverted codes and
/// every structural forgery (a frame other than the root cube, wrong
/// tiling, broken containment, out-of-range ids) are [`DecodeError`]s
/// — the caller treats any failure as "no index" and scans fully.
pub fn load_index(stored: &StoredIndex, store: &PageStore) -> DecodeResult<RTree> {
    let nodes: Vec<IndexNode> = load_array::<IndexNodeRecord>(&stored.nodes, store)?
        .into_iter()
        .map(|r| r.0)
        .collect();
    match stored.frame {
        Some(frame) => {
            let entries: Vec<CodedEntryRecord> = load_array(&stored.entries, store)?;
            RTree::from_coded_parts(
                stored.num_tuples,
                stored.fanout,
                frame,
                entries.into_iter().map(|r| r.0).collect(),
                nodes,
            )
        }
        None => {
            let entries: Vec<IndexEntryRecord> = load_array(&stored.entries, store)?;
            RTree::from_parts(
                stored.num_tuples,
                stored.fanout,
                entries.into_iter().map(|r| r.0).collect(),
                nodes,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mob_base::t;
    use mob_core::{unit_cubes, MovingPoint};
    use mob_spatial::pt;

    fn sample_tree(tuples: usize, units: usize) -> RTree {
        let mut entries = Vec::new();
        for k in 0..tuples {
            let x0 = k as f64;
            let samples: Vec<_> = (0..units)
                .map(|i| (t(i as f64), pt(x0 + (i % 2) as f64, i as f64)))
                .collect();
            entries.extend(unit_cubes(k as u32, &MovingPoint::from_samples(&samples)));
        }
        RTree::bulk(tuples, entries)
    }

    #[test]
    fn roundtrip_preserves_tree_and_answers() {
        let tree = sample_tree(9, 20);
        let mut store = PageStore::new();
        let stored = save_index(&tree, &mut store);
        assert!(
            !stored.entries.is_inline(),
            "9×19 entries must land in an external blob"
        );
        assert_eq!(stored.layout(), "u16");
        assert_eq!(stored.entry_bytes(), 20);
        assert_eq!(stored.frame, tree.frame());
        let back = load_index(&stored, &store).unwrap();
        assert_eq!(back, tree);
        assert_eq!(back.query_instant(t(2.5)), tree.query_instant(t(2.5)));
        // The root record, frame included, survives the store file.
        let mut file = crate::StoreFile::new();
        let stored = save_index(&tree, file.store_mut());
        file.put("index", crate::RootRecord::Index(stored.clone()));
        let again = crate::StoreFile::from_bytes(&file.to_bytes().unwrap()).unwrap();
        assert_eq!(again.get("index"), Some(&crate::RootRecord::Index(stored)));
    }

    /// The `f64` layout (tag 11) as stores written before compact
    /// leaves hold it: every entry cube as six `f64`, no frame.
    fn save_f64(tree: &RTree, store: &mut PageStore) -> StoredIndex {
        let entries: Vec<IndexEntryRecord> = tree.entries().map(IndexEntryRecord).collect();
        let nodes: Vec<IndexNodeRecord> =
            tree.nodes().iter().map(|n| IndexNodeRecord(*n)).collect();
        StoredIndex {
            num_tuples: count_u32(tree.num_tuples()),
            fanout: count_u32(tree.fanout()),
            frame: None,
            entries: save_array(&entries, store),
            nodes: save_array(&nodes, store),
        }
    }

    #[test]
    fn f64_layout_still_loads() {
        let tree = sample_tree(9, 20);
        let mut store = PageStore::new();
        let stored = save_f64(&tree, &mut store);
        assert_eq!((stored.layout(), stored.entry_bytes()), ("f64", 56));
        assert_eq!(load_index(&stored, &store).unwrap(), tree);
        let compact = save_index(&tree, &mut store);
        let bytes = |a: &SavedArray| a.byte_len(&store).unwrap();
        assert_eq!(bytes(&stored.entries), tree.num_entries() * 56);
        assert_eq!(bytes(&compact.entries), tree.num_entries() * 20);
    }

    #[test]
    fn empty_tree_roundtrips() {
        let tree = RTree::bulk(0, Vec::new());
        let mut store = PageStore::new();
        let stored = save_index(&tree, &mut store);
        let back = load_index(&stored, &store).unwrap();
        assert_eq!(back.num_entries(), 0);
    }

    #[test]
    fn record_level_damage_is_rejected() {
        // NaN coordinate.
        let tree = sample_tree(2, 4);
        let mut buf = Vec::new();
        let first = tree.entries().next().unwrap();
        IndexEntryRecord(first).write(&mut buf);
        let mut bad = buf.clone();
        bad[8..16].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(IndexEntryRecord::read(&bad).is_err());
        // Inverted cube (min_x > max_x).
        let mut bad = buf.clone();
        bad[8..16].copy_from_slice(&1e9f64.to_le_bytes());
        assert!(matches!(
            IndexEntryRecord::read(&bad),
            Err(DecodeError::BadStructure { .. })
        ));
        // Truncation.
        assert!(IndexEntryRecord::read(&buf[..20]).is_err());
        let mut nbuf = Vec::new();
        IndexNodeRecord(tree.nodes()[0]).write(&mut nbuf);
        assert!(IndexNodeRecord::read(&nbuf[..50]).is_err());
        assert_eq!(IndexNodeRecord::read(&nbuf).unwrap().0, tree.nodes()[0]);

        // The compact 20 B record.
        let (coded, nodes) = (tree.coded_entries(), tree.nodes().to_vec());
        let mut cbuf = Vec::new();
        CodedEntryRecord(coded[0]).write(&mut cbuf);
        assert_eq!(cbuf.len(), CodedEntryRecord::SIZE);
        assert_eq!(CodedEntryRecord::read(&cbuf).unwrap().0, coded[0]);
        // Truncated anywhere.
        for cut in 0..cbuf.len() {
            assert!(
                CodedEntryRecord::read(&cbuf[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        // Min code above max code (min_x code at its largest, max_x at 0).
        let mut bad = cbuf.clone();
        bad[8..10].copy_from_slice(&u16::MAX.to_le_bytes());
        bad[12..14].copy_from_slice(&0u16.to_le_bytes());
        assert!(matches!(
            CodedEntryRecord::read(&bad),
            Err(DecodeError::BadStructure { .. })
        ));

        // A frame that differs from the root cube, and a shrunk leaf
        // node, both refused at load.
        let mut store = PageStore::new();
        let stored = save_index(&tree, &mut store);
        load_index(&stored, &store).unwrap();
        let mut forged = stored.clone();
        let frame = tree.frame().unwrap();
        forged.frame = Some(Cube {
            t_max: Instant::from_f64(frame.t_max.as_f64() + 1.0),
            ..frame
        });
        assert!(load_index(&forged, &store).is_err(), "forged frame");
        let mut shrunk: Vec<IndexNodeRecord> = nodes.into_iter().map(IndexNodeRecord).collect();
        shrunk[0].0.cube = first.cube;
        let mut forged = stored.clone();
        forged.nodes = save_array(&shrunk, &mut store);
        assert!(load_index(&forged, &store).is_err(), "shrunk leaf node");
    }

    #[test]
    fn structural_forgeries_fail_load() {
        let tree = sample_tree(5, 8);
        let mut store = PageStore::new();
        let mut stored = save_index(&tree, &mut store);
        // Lie about the tuple count: leaf ids fall out of range.
        stored.num_tuples = 1;
        assert!(load_index(&stored, &store).is_err());
        stored.num_tuples = 5;
        // Quarantine the entries blob: load refuses.
        if let crate::dbarray::Placement::External(id) = stored.entries.placement {
            store.mark_quarantined(id).unwrap();
            assert!(matches!(
                load_index(&stored, &store),
                Err(DecodeError::Quarantined { .. })
            ));
        } else {
            panic!("test premise: external entries blob");
        }
    }
}
