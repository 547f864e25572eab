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
//!   records (`mob_core::index::write_entry`), so a save writes the
//!   tree's own entry bytes and an attach ([`attach_index`]) searches
//!   the stored ones where they lie: the tree holds the entry array as
//!   a range of its blob's shared buffer.
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
//! Decode is untrusted end to end. Record reads reject NaN coordinates,
//! inverted bounds and codes whose min is above their max.
//! [`attach_index`], the open path, validates the nodes whole — the
//! frame equal to the root cube, child ranges tiling each level, each
//! child node inside its parent ([`RTree::from_stored`]) — and leaves
//! each leaf node's entries (ids in range, codes ordered, inside the
//! leaf) to the first search that reads them. [`load_index`] runs every
//! check at once ([`RTree::validate`]), for auditors. A forged or
//! bit-rotted index surfaces as a [`DecodeError`] at attach, or as the
//! failed search of a scan, and the query layer falls back to a full
//! scan instead of trusting a wrong candidate set.

use crate::checked::count_u32;
use crate::dbarray::{load_array, save_array, save_array_bytes, share_array, SavedArray};
use crate::page::PageStore;
use crate::record::{get_f64, get_u32, put_f64, put_u32, FixedRecord};
use mob_base::{DecodeError, DecodeResult, Instant, Interval, Real};
use mob_core::index::{check_codes, read_entry, write_entry, ENTRY_BYTES};
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
    const SIZE: usize = ENTRY_BYTES;
    const WHAT: &'static str = "index coded entry record";
    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        write_entry(out, &self.0);
    }
    #[inline]
    fn read(buf: &[u8]) -> DecodeResult<Self> {
        let entry = read_entry(buf).ok_or(DecodeError::Truncated {
            what: Self::WHAT,
            need: Self::SIZE,
            have: buf.len(),
        })?;
        check_codes(entry.codes)?;
        Ok(CodedEntryRecord(entry))
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
    let entries = tree.entry_bytes().to_vec();
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
        entries: save_array_bytes(tree.num_entries(), entries, store),
        nodes: save_array(&nodes, store),
    }
}

/// Attach a stored index of either layout for searching: the nodes
/// decoded and structurally validated, and, for the `u16` layout, the
/// leaf entries left where they lie — the tree holds the stored entry
/// array as a range of its blob's buffer ([`PageStore`] shares it), and
/// checks each leaf node's entries the first time a search reads them
/// ([`RTree::from_stored`]). An `f64` tree loads through
/// `RTree::from_parts`, which validates it whole and codes its leaves.
///
/// Quarantined blobs, ragged arrays, NaN node cubes and every
/// structural forgery of the nodes (a frame other than the root cube,
/// wrong tiling, broken containment) are [`DecodeError`]s here; a
/// forged leaf entry fails the first search that reads its leaf, which
/// the query layer answers with a full scan.
pub fn attach_index(stored: &StoredIndex, store: &PageStore) -> DecodeResult<RTree> {
    let nodes: Vec<IndexNode> = load_array::<IndexNodeRecord>(&stored.nodes, store)?
        .into_iter()
        .map(|r| r.0)
        .collect();
    match stored.frame {
        Some(frame) => {
            let (buf, range) = share_array::<CodedEntryRecord>(&stored.entries, store)?;
            RTree::from_stored(stored.num_tuples, stored.fanout, frame, buf, range, nodes)
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

/// Load and fully re-validate a stored index of either layout.
///
/// Quarantined blobs, ragged arrays, NaN cubes, inverted codes and
/// every structural forgery (a frame other than the root cube, wrong
/// tiling, broken containment, out-of-range ids) are [`DecodeError`]s
/// — the caller treats any failure as "no index" and scans fully.
pub fn load_index(stored: &StoredIndex, store: &PageStore) -> DecodeResult<RTree> {
    let tree = attach_index(stored, store)?;
    tree.validate()?;
    Ok(tree)
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
        assert!(back.query_instant(t(2.5)).unwrap().units > 0);
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
        let (coded, nodes): (Vec<_>, _) = (tree.coded_entries().collect(), tree.nodes().to_vec());
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

    /// A seeded fleet of random walks: `tuples` tracks of 1..=`legs`
    /// units each, in a box of side `side`.
    fn random_fleet(seed: u64, tuples: usize, legs: u64, side: f64) -> Vec<IndexEntry> {
        let mut rng = proptest::TestRng::deterministic();
        for _ in 0..seed % 97 {
            rng.next_u64();
        }
        let mut entries = Vec::new();
        for k in 0..tuples {
            let n = 1 + rng.below(legs);
            let (mut x, mut y) = (rng.unit_f64() * side, rng.unit_f64() * side);
            let t0 = rng.below(50) as f64;
            let samples: Vec<_> = (0..=n)
                .map(|i| {
                    x += rng.unit_f64() * 6.0 - 3.0;
                    y += rng.unit_f64() * 6.0 - 3.0;
                    (t(t0 + i as f64), pt(x, y))
                })
                .collect();
            let m = MovingPoint::from_samples(&samples);
            entries.extend(mob_core::run_cubes(k as u32, &m));
        }
        entries
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]
        /// A tree attached to its stored bytes answers every probe with
        /// the same candidates as the same tree built in memory: tuples,
        /// entries hit and nodes visited, for `query`, `query_rect` and
        /// `query_instant`, before and after its leaves are checked.
        #[test]
        fn in_place_tree_answers_like_the_tree_in_memory(
            seed in 0u64..1 << 20,
            tuples in 1usize..60,
            fanout in 2usize..17,
            probes in proptest::collection::vec((0u64..1 << 20, 1u32..40, 0u32..60), 1..12),
        ) {
            let side = 100.0;
            let tree = RTree::build(tuples, random_fleet(seed, tuples, 20, side), fanout);
            let mut store = PageStore::new();
            let stored = save_index(&tree, &mut store);
            let attached = attach_index(&stored, &store).expect("a clean index attaches");
            proptest::prop_assert_eq!(&attached, &tree);
            for (k, (p, w, d)) in probes.iter().enumerate() {
                let (x, y) = ((p % 1000) as f64 / 10.0, (p / 1000 % 1000) as f64 / 10.0);
                let (w, d) = (f64::from(*w), f64::from(*d));
                let rect = Rect::of_points([pt(x, y), pt(x + w, y + w)]);
                let cube = Cube::new(rect, &Interval::closed(t(d), t(d + w)));
                let at = t(d + f64::from(k as u32) / 3.0);
                for tree_under_test in [&attached, &attached.clone()] {
                    proptest::prop_assert_eq!(tree_under_test.query(&cube), tree.query(&cube));
                    proptest::prop_assert_eq!(tree_under_test.query_rect(&rect), tree.query_rect(&rect));
                    proptest::prop_assert_eq!(tree_under_test.query_instant(at), tree.query_instant(at));
                }
            }
            attached.validate().expect("a clean tree validates");
            let all = tree.frame().expect("non-empty");
            proptest::prop_assert_eq!(attached.query(&all), tree.query(&all));
        }
    }

    /// A forgery of one stored leaf entry, given the tuple count.
    type Forge = fn(&mut CodedEntry, u32);

    /// The stored tree of a random fleet with one entry of its first
    /// leaf node changed by `forge`, attached; and the tree in memory.
    fn forged(forge: Forge) -> (RTree, RTree) {
        let tree = RTree::build(40, random_fleet(7, 40, 12, 400.0), 4);
        let mut store = PageStore::new();
        let stored = save_index(&tree, &mut store);
        let mut entries: Vec<CodedEntryRecord> =
            tree.coded_entries().map(CodedEntryRecord).collect();
        forge(&mut entries[1].0, stored.num_tuples);
        let forged = StoredIndex {
            entries: save_array(&entries, &mut store),
            ..stored
        };
        let attached = attach_index(&forged, &store).expect("leaf entries are checked on search");
        assert!(
            load_index(&forged, &store).is_err(),
            "the full check refuses it"
        );
        (tree, attached)
    }

    #[test]
    fn a_forged_leaf_entry_fails_every_search_that_reads_its_leaf() {
        let cases: [(&str, Forge); 3] = [
            ("tuple id out of range", |e, n| e.tuple = n),
            ("min code above max code", |e, _| {
                (e.codes[0], e.codes[2]) = (1, 0);
            }),
            ("entry escaping its leaf", |e, _| {
                e.codes = [
                    0,
                    0,
                    mob_core::CODE_MAX,
                    mob_core::CODE_MAX,
                    0,
                    mob_core::CODE_MAX,
                ];
            }),
        ];
        for (what, forge) in cases {
            let (tree, attached) = forged(forge);
            let leaf = tree.nodes()[0].cube;
            for _ in 0..2 {
                assert!(attached.query(&leaf).is_err(), "{what}");
                assert!(attached.query_rect(&leaf.rect).is_err(), "{what}");
            }
            // A leaf node apart from it is read, and answered, as in
            // memory: the forged leaf is never reached.
            let apart = (tree.nodes().iter())
                .find(|nd| nd.level == 0 && !nd.cube.intersects(&leaf))
                .expect("the fleet spreads over several leaves");
            let got = attached
                .query(&apart.cube)
                .expect("the forged leaf is not read");
            assert_eq!(got, tree.query(&apart.cube).unwrap(), "{what}");
            assert!(!got.tuples.is_empty(), "{what}");
        }
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
