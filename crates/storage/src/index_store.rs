//! Storage layout for the packed R-tree index (`mob-core`'s
//! [`RTree`]): two database arrays — leaf entries and nodes — behind a
//! fixed-size root record, exactly like every other Sec-4 value.
//!
//! A leaf entry is `(tuple, unit, cube)`: the cube of a run of
//! consecutive units that starts at `unit` (`mob_core::run_cubes`).
//! The layout carries no version tag because it needs none: an index
//! written with one entry per unit (`mob_core::unit_cubes`, every store
//! written before run packing) is a tree of one-unit runs, decodes
//! through the same records and validation, and prunes soundly.
//!
//! Decode is untrusted end to end: record reads reject NaN coordinates
//! and inverted bounds, and [`load_index`] re-runs the full structural
//! validation ([`RTree::from_parts`]) — child ranges tiling each level,
//! parent-cube containment, leaf ids in range — so a forged or bit-rotted
//! index surfaces as a [`DecodeError`] and the query layer falls back to
//! a full scan instead of trusting a wrong candidate set.

use crate::checked::count_u32;
use crate::dbarray::{load_array, save_array, SavedArray};
use crate::page::PageStore;
use crate::record::{get_f64, get_u32, put_f64, put_u32, FixedRecord};
use mob_base::{DecodeError, DecodeResult, Instant, Interval, Real};
use mob_core::{IndexEntry, IndexNode, RTree};
use mob_spatial::{Cube, Rect};

/// Root record of a stored index: counts plus the two arrays.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredIndex {
    /// Number of tuples of the indexed relation.
    pub num_tuples: u32,
    /// Node fan-out the tree was packed with.
    pub fanout: u32,
    /// Leaf entries ([`IndexEntryRecord`]).
    pub entries: SavedArray,
    /// Tree nodes, leaves first, root last ([`IndexNodeRecord`]).
    pub nodes: SavedArray,
}

/// Serialize a cube as `(min_x, min_y, max_x, max_y, t_min, t_max)`.
fn put_cube(out: &mut Vec<u8>, c: &Cube) {
    put_f64(out, c.rect.min_x().get());
    put_f64(out, c.rect.min_y().get());
    put_f64(out, c.rect.max_x().get());
    put_f64(out, c.rect.max_y().get());
    put_f64(out, c.t_min.as_f64());
    put_f64(out, c.t_max.as_f64());
}

/// Decode a cube at `off`, rejecting NaN and inverted bounds — an
/// index cube damaged into a *smaller* box would prune wrongly, so
/// nothing questionable may pass.
fn get_cube(buf: &[u8], off: usize) -> DecodeResult<Cube> {
    let min_x = Real::try_new(get_f64(buf, off)?)?;
    let min_y = Real::try_new(get_f64(buf, off + 8)?)?;
    let max_x = Real::try_new(get_f64(buf, off + 16)?)?;
    let max_y = Real::try_new(get_f64(buf, off + 24)?)?;
    let t_min = Instant::try_from_f64(get_f64(buf, off + 32)?)?;
    let t_max = Instant::try_from_f64(get_f64(buf, off + 40)?)?;
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

const CUBE_SIZE: usize = 48;

/// Leaf-entry record: `(tuple, unit, cube)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexEntryRecord(pub IndexEntry);

impl FixedRecord for IndexEntryRecord {
    const SIZE: usize = 8 + CUBE_SIZE;
    const WHAT: &'static str = "index entry record";
    fn write(&self, out: &mut Vec<u8>) {
        put_u32(out, self.0.tuple);
        put_u32(out, self.0.unit);
        put_cube(out, &self.0.cube);
    }
    fn read(buf: &[u8]) -> DecodeResult<Self> {
        Ok(IndexEntryRecord(IndexEntry {
            tuple: get_u32(buf, 0)?,
            unit: get_u32(buf, 4)?,
            cube: get_cube(buf, 8)?,
        }))
    }
}

/// Node record: `(cube, first, count, level)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexNodeRecord(pub IndexNode);

impl FixedRecord for IndexNodeRecord {
    const SIZE: usize = CUBE_SIZE + 12;
    const WHAT: &'static str = "index node record";
    fn write(&self, out: &mut Vec<u8>) {
        put_cube(out, &self.0.cube);
        put_u32(out, self.0.first);
        put_u32(out, self.0.count);
        put_u32(out, self.0.level);
    }
    fn read(buf: &[u8]) -> DecodeResult<Self> {
        Ok(IndexNodeRecord(IndexNode {
            cube: get_cube(buf, 0)?,
            first: get_u32(buf, CUBE_SIZE)?,
            count: get_u32(buf, CUBE_SIZE + 4)?,
            level: get_u32(buf, CUBE_SIZE + 8)?,
        }))
    }
}

/// Save a packed R-tree: entries and nodes as database arrays.
pub fn save_index(tree: &RTree, store: &mut PageStore) -> StoredIndex {
    let entries: Vec<IndexEntryRecord> = tree
        .entries()
        .iter()
        .map(|e| IndexEntryRecord(*e))
        .collect();
    let nodes: Vec<IndexNodeRecord> = tree.nodes().iter().map(|n| IndexNodeRecord(*n)).collect();
    StoredIndex {
        num_tuples: count_u32(tree.num_tuples()),
        fanout: count_u32(tree.fanout()),
        entries: save_array(&entries, store),
        nodes: save_array(&nodes, store),
    }
}

/// Load and fully re-validate a stored index.
///
/// Quarantined blobs, ragged arrays, NaN cubes and every structural
/// forgery (wrong tiling, broken containment, out-of-range ids) are
/// [`DecodeError`]s — the caller treats any failure as "no index" and
/// scans fully.
pub fn load_index(stored: &StoredIndex, store: &PageStore) -> DecodeResult<RTree> {
    let entries: Vec<IndexEntryRecord> = load_array(&stored.entries, store)?;
    let nodes: Vec<IndexNodeRecord> = load_array(&stored.nodes, store)?;
    RTree::from_parts(
        stored.num_tuples,
        stored.fanout,
        entries.into_iter().map(|r| r.0).collect(),
        nodes.into_iter().map(|r| r.0).collect(),
    )
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
        let back = load_index(&stored, &store).unwrap();
        assert_eq!(back, tree);
        assert_eq!(back.query_instant(t(2.5)), tree.query_instant(t(2.5)));
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
        IndexEntryRecord(tree.entries()[0]).write(&mut buf);
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
