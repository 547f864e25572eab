//! Spatio-temporal index: a bulk-loaded **packed R-tree** over
//! (x, y, t) bounding cubes of *runs* of consecutive units.
//!
//! Sec 4.2 already stores summary information (bounding boxes / time
//! intervals) with every unit precisely so that queries can prune
//! without decoding unit payloads. This module turns those summaries
//! into a queryable structure. [`run_cubes`] walks the units of any
//! [`UnitSeq`] of `upoint`s (in-memory mapping or storage-backed view
//! alike) once and emits one [`IndexEntry`] per maximal run of
//! consecutive units whose union cube spans at most an eighth
//! ([`DEFAULT_RUN_DIVISOR`]) of the tuple's own bounding cube on each
//! of x, y and t. The rule follows the tuple's own scale: a 12-leg
//! flight, whose every leg covers more than an eighth of its route,
//! keeps one entry per unit, while a 4,096-unit taxi track packs about
//! ten units per entry, so the tree a probe walks shrinks tenfold.
//! [`unit_cubes`], one entry per unit, is the degenerate layout of
//! one-unit runs; a tree built from it is just as valid.
//!
//! [`RTree::build`] packs the entries with the classic
//! Sort-Tile-Recurse (STR) bulk load — sort by x, tile, sort by y,
//! tile, sort by t, then pack consecutive runs into nodes bottom-up.
//! The result is pointer-free (children are array index ranges, in the
//! spirit of \[DG98\]) and therefore trivially serializable by
//! `mob-storage`.
//!
//! # Pruning contract
//!
//! Cubes are *conservative*: a query can only use a miss as evidence of
//! absence. Every unit lies inside the cube of the entry for its run,
//! and [`RTree::query`] returns every tuple with an entry cube that
//! intersects the probe — a superset of the true answer — and the
//! caller re-checks candidates with the exact Section-5 algorithms.
//! Equivalently: a tuple **not** in the candidate set is guaranteed to
//! have no unit intersecting the probe cube, so a pruned scan may skip
//! it (or emit ⊥ for a snapshot) without changing the result. How the
//! units were grouped into entries never changes an answer, only how
//! many candidates a probe yields.
//!
//! Decoded trees are untrusted like everything else read from storage:
//! [`RTree::from_parts`] re-validates the full structure (child ranges
//! tile each level exactly, every child cube contained in its parent,
//! leaf ids in range) and rejects anything inconsistent with a
//! [`DecodeError`].

use crate::seq::UnitSeq;
use crate::upoint::UPoint;
use mob_base::{DecodeError, DecodeResult, Instant};
use mob_spatial::{Cube, Rect};

/// Default node fan-out (maximum children per node).
pub const DEFAULT_FANOUT: usize = 16;

/// One leaf entry: the bounding cube of a run of consecutive units of
/// tuple `tuple`, starting at unit `unit`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexEntry {
    /// Tuple id (position in the indexed relation).
    pub tuple: u32,
    /// Index of the first unit of the run within the tuple's mapping
    /// (the run ends where the tuple's next entry starts).
    pub unit: u32,
    /// The (x, y, t) bounding cube of every unit of the run.
    pub cube: Cube,
}

/// One tree node: a cube covering a contiguous run of children.
///
/// `level` 0 nodes reference entries (`first..first + count` into the
/// entry array); higher levels reference nodes of the level below (same
/// range convention into the node array). Nodes are stored level by
/// level, leaves first, the single root last.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexNode {
    /// Union cube of all children.
    pub cube: Cube,
    /// Index of the first child (entry index at level 0, node index
    /// above).
    pub first: u32,
    /// Number of children.
    pub count: u32,
    /// Height above the entries: 0 = leaf node.
    pub level: u32,
}

/// What one tree probe returned: the candidate tuples plus the honest
/// cost of finding them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Candidates {
    /// Candidate tuple ids, sorted ascending, deduplicated.
    pub tuples: Vec<u32>,
    /// Entries hit: entry (unit-run) cubes that intersected the probe.
    pub units: u64,
    /// Tree nodes visited (the `index.nodes_visited` metric).
    pub nodes_visited: u64,
}

/// A packed (STR bulk-loaded) R-tree over unit-run bounding cubes.
#[derive(Clone, Debug, PartialEq)]
pub struct RTree {
    num_tuples: u32,
    fanout: u32,
    entries: Vec<IndexEntry>,
    nodes: Vec<IndexNode>,
}

/// Sort key: center of a cube along one axis (plain `f64` — carrier-set
/// types guarantee no NaN, so `total_cmp` is a total order anyway).
fn center(lo: f64, hi: f64) -> f64 {
    (lo + hi) / 2.0
}

impl RTree {
    /// Bulk-load a tree over `entries` describing a relation of
    /// `num_tuples` tuples, with the default fan-out.
    pub fn bulk(num_tuples: usize, entries: Vec<IndexEntry>) -> RTree {
        RTree::build(num_tuples, entries, DEFAULT_FANOUT)
    }

    /// Bulk-load with an explicit fan-out (`≥ 2`).
    ///
    /// STR: sort the entries by x-center and cut into vertical slabs,
    /// sort each slab by y-center and cut into runs, sort each run by
    /// t-center; then pack consecutive entries into leaf nodes of
    /// `fanout` and build the upper levels by packing consecutive nodes
    /// until a single root remains.
    pub fn build(num_tuples: usize, mut entries: Vec<IndexEntry>, fanout: usize) -> RTree {
        let fanout = fanout.max(2);
        let n = entries.len();
        if n > 0 {
            let leaves = n.div_ceil(fanout);
            // Number of slabs per axis: the smallest s with s³ ≥ leaves
            // (integer cube root, no float/int casts).
            let mut s = 1usize;
            while s * s * s < leaves {
                s += 1;
            }
            entries.sort_by(|a, b| {
                center(a.cube.rect.min_x().get(), a.cube.rect.max_x().get()).total_cmp(&center(
                    b.cube.rect.min_x().get(),
                    b.cube.rect.max_x().get(),
                ))
            });
            let slab = n.div_ceil(s);
            for chunk in entries.chunks_mut(slab.max(1)) {
                chunk.sort_by(|a, b| {
                    center(a.cube.rect.min_y().get(), a.cube.rect.max_y().get()).total_cmp(&center(
                        b.cube.rect.min_y().get(),
                        b.cube.rect.max_y().get(),
                    ))
                });
                let run = chunk.len().div_ceil(s);
                for run_chunk in chunk.chunks_mut(run.max(1)) {
                    run_chunk.sort_by(|a, b| {
                        center(a.cube.t_min.as_f64(), a.cube.t_max.as_f64())
                            .total_cmp(&center(b.cube.t_min.as_f64(), b.cube.t_max.as_f64()))
                    });
                }
            }
        }

        // Pack bottom-up: leaf nodes over entry runs, then node runs.
        let mut nodes: Vec<IndexNode> = Vec::new();
        if n > 0 {
            let mut first = 0usize;
            for chunk in entries.chunks(fanout) {
                let cube = union_cubes(&chunk[0].cube, chunk[1..].iter().map(|e| &e.cube));
                nodes.push(IndexNode {
                    cube,
                    first: idx_u32(first),
                    count: idx_u32(chunk.len()),
                    level: 0,
                });
                first += chunk.len();
            }
            let mut level = 0u32;
            let mut lvl_start = 0usize;
            while nodes.len() - lvl_start > 1 {
                let lvl_end = nodes.len();
                level += 1;
                let mut child = lvl_start;
                while child < lvl_end {
                    let count = fanout.min(lvl_end - child);
                    let cube = union_cubes(
                        &nodes[child].cube,
                        nodes[child + 1..child + count].iter().map(|nd| &nd.cube),
                    );
                    nodes.push(IndexNode {
                        cube,
                        first: idx_u32(child),
                        count: idx_u32(count),
                        level,
                    });
                    child += count;
                }
                lvl_start = lvl_end;
            }
        }

        let tree = RTree {
            num_tuples: idx_u32(num_tuples),
            fanout: idx_u32(fanout),
            entries,
            nodes,
        };
        debug_assert!(
            tree.validate().is_ok(),
            "bulk load broke its own invariants"
        );
        tree
    }

    /// Reassemble a tree from decoded parts, re-validating everything —
    /// the untrusted entry point `mob-storage`'s `load_index` uses.
    pub fn from_parts(
        num_tuples: u32,
        fanout: u32,
        entries: Vec<IndexEntry>,
        nodes: Vec<IndexNode>,
    ) -> DecodeResult<RTree> {
        let tree = RTree {
            num_tuples,
            fanout,
            entries,
            nodes,
        };
        tree.validate()?;
        Ok(tree)
    }

    /// Number of tuples in the relation the tree was built over.
    pub fn num_tuples(&self) -> usize {
        self.num_tuples as usize
    }

    /// Number of leaf entries (indexed unit-run cubes).
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Number of tree nodes across all levels.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node fan-out the tree was packed with.
    pub fn fanout(&self) -> usize {
        self.fanout as usize
    }

    /// The leaf entries in packed order (for serialization).
    pub fn entries(&self) -> &[IndexEntry] {
        &self.entries
    }

    /// The nodes, leaves first, root last (for serialization).
    pub fn nodes(&self) -> &[IndexNode] {
        &self.nodes
    }

    /// Check every structural invariant of the packed layout:
    ///
    /// * `fanout ≥ 2`; no nodes exactly when there are no entries;
    /// * nodes are stored level by level, levels contiguous from 0,
    ///   topped by a single root;
    /// * the children of each level tile the level below **exactly**
    ///   (level 0 tiles the entry array);
    /// * every child cube is contained in its parent's cube;
    /// * every leaf entry's tuple id is `< num_tuples`.
    ///
    /// Decode paths call this on untrusted bytes, so violations are
    /// [`DecodeError`]s, never panics.
    pub fn validate(&self) -> DecodeResult<()> {
        let bad = |detail: String| DecodeError::BadStructure {
            what: "rtree index",
            detail,
        };
        if self.fanout < 2 {
            return Err(bad(format!("fanout {} < 2", self.fanout)));
        }
        for (i, e) in self.entries.iter().enumerate() {
            if e.tuple >= self.num_tuples {
                return Err(DecodeError::OutOfBounds {
                    what: "rtree entry tuple id",
                    index: e.tuple as usize,
                    bound: self.num_tuples as usize,
                });
            }
            if e.cube.rect.is_empty() || e.cube.t_max < e.cube.t_min {
                return Err(bad(format!("entry {i} carries an empty or inverted cube")));
            }
        }
        if self.entries.is_empty() {
            if !self.nodes.is_empty() {
                return Err(bad("nodes present without entries".to_string()));
            }
            return Ok(());
        }
        if self.nodes.is_empty() {
            return Err(bad("entries present without nodes".to_string()));
        }
        // Walk the node array level by level; each level must tile its
        // child array exactly, left to right.
        let mut pos = 0usize;
        let mut level = 0u32;
        let mut lvl_start;
        let mut child_bound = self.entries.len(); // size of the level below
        let mut prev_level_first = 0usize; // node index where the level below starts
        loop {
            lvl_start = pos;
            let mut next_child = if level == 0 { 0 } else { prev_level_first };
            let tile_end = if level == 0 {
                child_bound
            } else {
                prev_level_first + child_bound
            };
            while pos < self.nodes.len() && self.nodes[pos].level == level {
                let nd = &self.nodes[pos];
                if nd.count == 0 {
                    return Err(bad(format!("node {pos} has no children")));
                }
                if nd.first as usize != next_child {
                    return Err(bad(format!(
                        "node {pos} children start at {} instead of {next_child}",
                        nd.first
                    )));
                }
                let end = nd.first as usize + nd.count as usize;
                if end > tile_end {
                    return Err(DecodeError::OutOfBounds {
                        what: "rtree node child range",
                        index: end,
                        bound: tile_end,
                    });
                }
                for c in nd.first as usize..end {
                    let child_cube = if level == 0 {
                        &self.entries[c].cube
                    } else {
                        &self.nodes[c].cube
                    };
                    if !nd.cube.contains(child_cube) {
                        return Err(bad(format!(
                            "node {pos} (level {level}) does not contain child {c}"
                        )));
                    }
                }
                next_child = end;
                pos += 1;
            }
            if next_child != tile_end {
                return Err(bad(format!(
                    "level {level} covers children up to {next_child}, expected {tile_end}"
                )));
            }
            let lvl_len = pos - lvl_start;
            if lvl_len == 0 {
                return Err(bad(format!("level {level} is empty")));
            }
            if pos == self.nodes.len() {
                if lvl_len != 1 {
                    return Err(bad(format!("top level has {lvl_len} roots, expected 1")));
                }
                return Ok(());
            }
            prev_level_first = lvl_start;
            child_bound = lvl_len;
            level += 1;
        }
    }

    /// Probe with a full (x, y, t) cube: every entry whose cube
    /// intersects `q` contributes its tuple to the candidate set.
    pub fn query(&self, q: &Cube) -> Candidates {
        self.search(|c| c.intersects(q))
    }

    /// Probe with an instant only (the `snapshot_at` prune): time-axis
    /// overlap, any spatial extent.
    pub fn query_instant(&self, t: Instant) -> Candidates {
        self.search(|c| c.t_min <= t && t <= c.t_max)
    }

    /// Probe with a spatial rectangle only (the `filter_inside` prune):
    /// space-axis overlap, any time.
    pub fn query_rect(&self, r: &Rect) -> Candidates {
        self.search(move |c| c.rect.intersects(r))
    }

    fn search(&self, hit: impl Fn(&Cube) -> bool) -> Candidates {
        let mut out = Candidates::default();
        if self.nodes.is_empty() {
            return out;
        }
        let mut stack = vec![self.nodes.len() - 1];
        while let Some(i) = stack.pop() {
            let nd = &self.nodes[i];
            out.nodes_visited += 1;
            if !hit(&nd.cube) {
                continue;
            }
            let range = nd.first as usize..nd.first as usize + nd.count as usize;
            if nd.level == 0 {
                for e in &self.entries[range] {
                    if hit(&e.cube) {
                        out.units += 1;
                        out.tuples.push(e.tuple);
                    }
                }
            } else {
                stack.extend(range);
            }
        }
        out.tuples.sort_unstable();
        out.tuples.dedup();
        out
    }
}

/// Union of a non-empty cube sequence, seeded with its first element
/// (callers always union over `chunks()` output, which is never empty).
fn union_cubes<'a>(first: &Cube, rest: impl Iterator<Item = &'a Cube>) -> Cube {
    rest.fold(*first, |acc, c| acc.union(c))
}

/// Saturating `usize → u32` for packed-array offsets and counts.
/// Indexes beyond `u32::MAX` entries are out of scope; a saturated
/// tree fails `validate()` loudly instead of truncating silently.
fn idx_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Extract one [`IndexEntry`] per unit of a moving point — the Sec-4.2
/// summary fields (interval + endpoint box) turned into index cubes.
/// Works over both access paths: in-memory `Mapping<UPoint>` and the
/// storage-backed `MappingView` decode each unit exactly once here.
/// This is the layout of one-unit runs, which every tree written
/// before [`run_cubes`] holds; indexes are now built with
/// [`run_cubes`].
pub fn unit_cubes<S>(tuple: u32, seq: &S) -> Vec<IndexEntry>
where
    S: UnitSeq<Unit = UPoint>,
{
    (0..seq.len())
        .map(|i| IndexEntry {
            tuple,
            unit: idx_u32(i),
            cube: seq.unit(i).bounding_cube(),
        })
        .collect()
}

/// Default run granularity of [`run_cubes`]: a run's union cube may
/// span at most one eighth of the tuple's own bounding cube on each of
/// x, y and t.
pub const DEFAULT_RUN_DIVISOR: u32 = 8;

/// Extract one [`IndexEntry`] per *run* of consecutive units of a
/// moving point, with the default divisor ([`DEFAULT_RUN_DIVISOR`]) —
/// the entries [`crate::RTree`] indexes are built from.
pub fn run_cubes<S>(tuple: u32, seq: &S) -> Vec<IndexEntry>
where
    S: UnitSeq<Unit = UPoint>,
{
    run_cubes_with(tuple, seq, DEFAULT_RUN_DIVISOR)
}

/// [`run_cubes`] with an explicit divisor (`≥ 1`): one entry per
/// maximal run of consecutive units whose union cube is no wider than
/// `1 / divisor` of the tuple's own bounding cube on each of x, y and
/// t. `unit` is the run's first unit and `cube` the union of its unit
/// cubes, so every unit still lies inside an entry cube and nothing is
/// ever pruned wrongly. A unit too wide on its own forms a one-unit
/// run, so a short straight flight keeps one entry per unit (exactly
/// [`unit_cubes`]), while a long track that wanders through one city
/// packs many units per entry.
///
/// Each unit is decoded exactly once, into the one vector
/// [`unit_cubes`] returns; the runs are then cut greedily, left to
/// right, once the tuple's extent is known, and merged in place, so
/// building the entries allocates no more than [`unit_cubes`] does.
pub fn run_cubes_with<S>(tuple: u32, seq: &S, divisor: u32) -> Vec<IndexEntry>
where
    S: UnitSeq<Unit = UPoint>,
{
    let mut entries = unit_cubes(tuple, seq);
    let Some((first, rest)) = entries.split_first() else {
        return entries;
    };
    let divisor = f64::from(divisor.max(1));
    let limit =
        extents(&union_cubes(&first.cube, rest.iter().map(|e| &e.cube))).map(|w| w / divisor);
    let fits = |c: &Cube| extents(c).iter().zip(&limit).all(|(w, l)| w <= l);
    // `entries[..=last]` holds the runs cut so far; the last one grows.
    let mut last = 0;
    for i in 1..entries.len() {
        let grown = entries[last].cube.union(&entries[i].cube);
        if fits(&grown) {
            entries[last].cube = grown;
        } else {
            last += 1;
            entries[last] = entries[i];
        }
    }
    entries.truncate(last + 1);
    entries
}

/// A cube's width along x, y and t.
fn extents(c: &Cube) -> [f64; 3] {
    [
        c.rect.width().get(),
        c.rect.height().get(),
        c.t_max.as_f64() - c.t_min.as_f64(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moving::MovingPoint;
    use mob_base::{t, Interval};
    use mob_spatial::pt;

    fn zigzag(k: usize, n: usize) -> MovingPoint {
        let x0 = k as f64;
        let samples: Vec<_> = (0..n)
            .map(|i| (t(i as f64), pt(x0 + (i % 2) as f64, i as f64 * 0.5)))
            .collect();
        MovingPoint::from_samples(&samples)
    }

    fn fleet_tree(tuples: usize, units: usize) -> RTree {
        let mut entries = Vec::new();
        for k in 0..tuples {
            entries.extend(unit_cubes(k as u32, &zigzag(k, units)));
        }
        RTree::bulk(tuples, entries)
    }

    /// Exhaustive reference: scan every entry cube.
    fn brute(tree: &RTree, hit: impl Fn(&Cube) -> bool) -> Vec<u32> {
        let mut out: Vec<u32> = tree
            .entries()
            .iter()
            .filter(|e| hit(&e.cube))
            .map(|e| e.tuple)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn empty_tree_is_valid_and_returns_nothing() {
        let tree = RTree::bulk(0, Vec::new());
        tree.validate().unwrap();
        assert_eq!(tree.num_nodes(), 0);
        let c = tree.query_instant(t(1.0));
        assert!(c.tuples.is_empty());
        assert_eq!(c.nodes_visited, 0);
    }

    #[test]
    fn build_validates_across_sizes_and_fanouts() {
        for (tuples, units, fanout) in [(1, 2, 2), (3, 5, 2), (7, 9, 4), (20, 13, 16), (40, 3, 5)] {
            let mut entries = Vec::new();
            for k in 0..tuples {
                entries.extend(unit_cubes(k as u32, &zigzag(k, units)));
            }
            let tree = RTree::build(tuples, entries, fanout);
            tree.validate()
                .unwrap_or_else(|e| panic!("{tuples}×{units} fanout {fanout}: {e}"));
            assert_eq!(tree.num_entries(), tuples * (units - 1));
        }
    }

    #[test]
    fn queries_agree_with_brute_force() {
        let tree = fleet_tree(17, 12);
        // Instant probes, including out-of-range ones.
        for ti in [-1.0, 0.0, 3.25, 10.9, 11.0, 99.0] {
            let got = tree.query_instant(t(ti));
            let want = brute(&tree, |c| c.t_min <= t(ti) && t(ti) <= c.t_max);
            assert_eq!(got.tuples, want, "instant {ti}");
            assert!(got.units as usize >= got.tuples.len());
        }
        // Rect probes.
        use mob_base::r;
        for (x0, x1) in [(0.0, 2.5), (5.0, 9.0), (40.0, 50.0)] {
            let rect = Rect::new(r(x0), r(0.0), r(x1), r(6.0));
            let got = tree.query_rect(&rect);
            let want = brute(&tree, |c| c.rect.intersects(&rect));
            assert_eq!(got.tuples, want, "rect {x0}..{x1}");
        }
        // Full cube probes.
        let cube = Cube::new(
            Rect::new(r(2.0), r(0.0), r(4.0), r(99.0)),
            &Interval::closed(t(1.0), t(2.0)),
        );
        let got = tree.query(&cube);
        assert_eq!(got.tuples, brute(&tree, |c| c.intersects(&cube)));
    }

    #[test]
    fn selective_probes_visit_few_nodes() {
        let tree = fleet_tree(64, 8);
        let all = tree.query_instant(t(3.0));
        assert_eq!(all.tuples.len(), 64, "every flight is live at t=3");
        // A probe outside every lifetime touches only the root.
        let none = tree.query_instant(t(500.0));
        assert!(none.tuples.is_empty());
        assert_eq!(none.nodes_visited, 1);
        // A spatially selective probe prunes most of the tree.
        use mob_base::r;
        let corner = tree.query_rect(&Rect::new(r(0.0), r(0.0), r(1.0), r(4.0)));
        assert!(!corner.tuples.is_empty());
        assert!(
            (corner.nodes_visited as usize) < tree.num_nodes(),
            "selective probe must not visit every node ({} of {})",
            corner.nodes_visited,
            tree.num_nodes()
        );
    }

    #[test]
    fn from_parts_rejects_forged_layouts() {
        let tree = fleet_tree(4, 6);
        let (nt, f) = (tree.num_tuples, tree.fanout);
        // Pristine parts round-trip.
        RTree::from_parts(nt, f, tree.entries.clone(), tree.nodes.clone()).unwrap();
        // Tuple id out of range.
        let mut e = tree.entries.clone();
        e[0].tuple = 99;
        assert!(RTree::from_parts(nt, f, e, tree.nodes.clone()).is_err());
        // Shrunk node cube no longer contains its children.
        let mut nd = tree.nodes.clone();
        let last = nd.len() - 1;
        nd[last].cube = tree.entries[0].cube;
        assert!(RTree::from_parts(nt, f, tree.entries.clone(), nd).is_err());
        // Child range overflowing the entry array.
        let mut nd = tree.nodes.clone();
        nd[0].count += 1000;
        assert!(RTree::from_parts(nt, f, tree.entries.clone(), nd).is_err());
        // Dropping the root leaves a forest, not a tree.
        let mut nd = tree.nodes.clone();
        nd.pop();
        assert!(nd.len() > 1, "test premise: multiple leaf nodes");
        assert!(RTree::from_parts(nt, f, tree.entries.clone(), nd).is_err());
        // Fanout below 2.
        assert!(RTree::from_parts(nt, 1, tree.entries.clone(), tree.nodes.clone()).is_err());
        // Entries without nodes / nodes without entries.
        assert!(RTree::from_parts(nt, f, tree.entries.clone(), Vec::new()).is_err());
        assert!(RTree::from_parts(nt, f, Vec::new(), tree.nodes.clone()).is_err());
        assert!(RTree::from_parts(nt, f, Vec::new(), Vec::new()).is_ok());
    }

    #[test]
    fn unit_cubes_match_unit_bounds() {
        let m = zigzag(2, 6);
        let cubes = unit_cubes(7, &m);
        assert_eq!(cubes.len(), crate::seq::UnitSeq::len(&m));
        for (i, e) in cubes.iter().enumerate() {
            assert_eq!(e.tuple, 7);
            assert_eq!(e.unit, i as u32);
            let u = crate::seq::UnitSeq::unit(&m, i).into_owned();
            assert_eq!(e.cube, u.bounding_cube());
        }
    }

    /// A seeded random walk of `n` steps of at most 1 per axis in a
    /// 40×40 box — the shape of a taxi track that keeps crossing its own
    /// city.
    fn wander(seed: u64, n: usize) -> MovingPoint {
        let mut state = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut step = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 2.0 - 1.0
        };
        let (mut x, mut y) = (0.0f64, 0.0f64);
        let samples: Vec<_> = (0..=n)
            .map(|i| {
                if i > 0 {
                    x = (x + step()).clamp(-20.0, 20.0);
                    y = (y + step()).clamp(-20.0, 20.0);
                }
                (t(i as f64), pt(x, y))
            })
            .collect();
        MovingPoint::from_samples(&samples)
    }

    /// Check the layout contract of `runs` over `m`: the runs tile
    /// `0..len` in order, every unit cube lies inside its run's cube, and
    /// every run longer than one unit spans at most `1 / divisor` of the
    /// tuple's bounding cube on each axis. Returns the run lengths.
    fn check_runs(m: &MovingPoint, runs: &[IndexEntry], divisor: f64) -> Vec<usize> {
        let cubes = unit_cubes(3, m);
        let n = cubes.len();
        let whole = cubes[1..]
            .iter()
            .fold(cubes[0].cube, |a, e| a.union(&e.cube));
        let limit = extents(&whole).map(|w| w / divisor);
        assert_eq!(
            runs.first().map(|e| e.unit),
            Some(0),
            "first run starts at unit 0"
        );
        let mut lens = Vec::new();
        for (k, run) in runs.iter().enumerate() {
            assert_eq!(run.tuple, 3);
            let end = runs.get(k + 1).map_or(n, |next| next.unit as usize);
            assert!(
                (run.unit as usize) < end,
                "run {k} is empty or out of order"
            );
            let mut union = cubes[run.unit as usize].cube;
            for u in &cubes[run.unit as usize..end] {
                assert!(
                    run.cube.contains(&u.cube),
                    "unit {} escapes run {k}",
                    u.unit
                );
                union = union.union(&u.cube);
            }
            assert_eq!(run.cube, union, "run {k} cube is the union of its units");
            if end - run.unit as usize > 1 {
                for (w, l) in extents(&run.cube).iter().zip(&limit) {
                    assert!(w <= l, "run {k} spans {w} > {l}");
                }
            }
            lens.push(end - run.unit as usize);
        }
        assert_eq!(lens.iter().sum::<usize>(), n, "runs tile every unit");
        lens
    }

    #[test]
    fn run_cubes_tile_a_wandering_track_into_bounded_runs() {
        for seed in 0..8 {
            let m = wander(seed, 2048);
            let runs = run_cubes(3, &m);
            let lens = check_runs(&m, &runs, f64::from(DEFAULT_RUN_DIVISOR));
            assert!(
                runs.len() * 4 <= lens.iter().sum::<usize>(),
                "seed {seed}: {} runs over 2048 units do not pack",
                runs.len()
            );
            // A coarser divisor never yields more runs.
            let coarse = run_cubes_with(3, &m, 4);
            check_runs(&m, &coarse, 4.0);
            assert!(coarse.len() <= runs.len(), "seed {seed}");
        }
    }

    #[test]
    fn run_cubes_keep_an_oversized_unit_on_its_own() {
        // Short steps around the origin, one 100-unit jump, short steps
        // again: the jump alone spans most of the tuple's x extent.
        let mut samples: Vec<_> = (0..40)
            .map(|i| (t(i as f64), pt((i % 2) as f64, 0.0)))
            .collect();
        samples.extend((40..80).map(|i| (t(i as f64), pt(100.0 + (i % 2) as f64, 0.0))));
        let m = MovingPoint::from_samples(&samples);
        let runs = run_cubes(3, &m);
        let lens = check_runs(&m, &runs, f64::from(DEFAULT_RUN_DIVISOR));
        let jump = runs
            .iter()
            .position(|e| e.unit == 39)
            .expect("the jump starts a run");
        assert_eq!(lens[jump], 1, "the jump is a one-unit run");
        assert!(runs.len() < 79, "the short steps still pack");
    }

    #[test]
    fn run_cubes_handle_a_stationary_tuple() {
        // Zero spatial extent: 32 stationary units separated by gaps (so
        // they do not merge), cut by the time axis alone.
        let mut b = crate::mapping::MappingBuilder::new();
        for i in 0..32 {
            let iv = Interval::closed(t(2.0 * i as f64), t(2.0 * i as f64 + 1.0));
            b.push(UPoint::between(iv, pt(5.0, 5.0), pt(5.0, 5.0)));
        }
        let m: MovingPoint = b.finish();
        assert_eq!(crate::seq::UnitSeq::len(&m), 32);
        let runs = run_cubes(3, &m);
        let lens = check_runs(&m, &runs, f64::from(DEFAULT_RUN_DIVISOR));
        // 63 time units / 8 allow a run of 4 units (7 time units).
        assert_eq!(lens, vec![4; 8]);
    }

    #[test]
    fn run_cubes_of_an_empty_sequence_are_empty() {
        assert!(run_cubes(3, &MovingPoint::empty()).is_empty());
        assert!(run_cubes_with(3, &MovingPoint::empty(), 1).is_empty());
    }

    #[test]
    fn run_cubes_keep_a_straight_flight_per_unit() {
        // A straight route flown in 12 legs whose speeds alternate (so
        // the legs do not merge into one unit): every leg covers more
        // than an eighth of the route.
        let samples: Vec<_> = (0..=12)
            .map(|i| {
                let s = 3.0 * i as f64 + if i % 2 == 1 { 0.5 } else { 0.0 };
                (t(i as f64), pt(s, 2.0 * s / 3.0))
            })
            .collect();
        let m = MovingPoint::from_samples(&samples);
        assert_eq!(crate::seq::UnitSeq::len(&m), 12);
        assert_eq!(run_cubes(3, &m), unit_cubes(3, &m));
    }
}
