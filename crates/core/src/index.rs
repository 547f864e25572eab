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
//! # Compact leaves
//!
//! A tree's **frame** is its root cube, the union of every leaf cube.
//! [`RTree::build`] codes each leaf cube in the frame: [`encode`] turns
//! each of the six bounds into a code, a fraction `code / CODE_MAX` of
//! its frame axis, rounding mins down and maxes up, and the tree keeps
//! the codes ([`CodedEntry`], 20 bytes) — in memory as on disk, with
//! the frame kept once. The leaf entries are one byte array of stored
//! records ([`ENTRY_BYTES`] each, [`write_entry`]), so a tree attached
//! to a store ([`RTree::from_stored`]) searches the stored bytes where
//! they lie. Each leaf stands for the cube [`decode`] gives
//! back: the run's cube snapped outward to the grid. Leaf nodes are the
//! decoded unions of their entries, and a probe is compared with the
//! leaves in code space, so no search or load decodes a leaf. The frame
//! is per tree, not per node, so an entry decodes without its parent
//! and a shrunk node cube still fails the containment check.
//!
//! # Pruning contract
//!
//! Cubes are *conservative*: a query can only use a miss as evidence of
//! absence. Every unit lies inside the cube of the entry for its run,
//! snapping only widens that cube, and [`RTree::query`] returns every
//! tuple with an entry cube that intersects the probe — a superset of
//! the true answer — and the caller re-checks candidates with the exact
//! Section-5 algorithms. Equivalently: a tuple **not** in the candidate
//! set is guaranteed to have no unit intersecting the probe cube, so a
//! pruned scan may skip it (or emit ⊥ for a snapshot) without changing
//! the result. How the units were grouped into entries, and how coarse
//! the grid is, never changes an answer, only how many candidates a
//! probe yields.
//!
//! Decoded trees are untrusted like everything else read from storage.
//! [`RTree::from_parts`] (the older layout with `f64` leaf cubes)
//! re-validates the full structure (child ranges tile each level
//! exactly, every child cube contained in its parent, leaf ids in
//! range) and rejects anything inconsistent with a [`DecodeError`].
//! [`RTree::from_stored`] checks the same of the nodes, and refuses a
//! frame other than the root cube; each leaf node's entries (ids in
//! range, no min code above its max, inside the leaf) are checked the
//! first time a search reads them, which then fails instead of
//! answering, and a pass is recorded for the life of the tree.
//! [`RTree::validate`] checks everything at once.

use crate::seq::UnitSeq;
use crate::upoint::UPoint;
use mob_base::{DecodeError, DecodeResult, Instant, Real};
use mob_spatial::{Cube, Rect};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Default node fan-out (maximum children per node).
pub const DEFAULT_FANOUT: usize = 16;

/// One leaf entry: the bounding cube of a run of consecutive units of
/// tuple `tuple`, starting at unit `unit` — what [`RTree::build`] is
/// given, and what [`RTree::entries`] decodes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexEntry {
    /// Tuple id (position in the indexed relation).
    pub tuple: u32,
    /// Index of the first unit of the run within the tuple's mapping
    /// (the run ends where the tuple's next entry starts).
    pub unit: u32,
    /// The (x, y, t) bounding cube of every unit of the run; in the
    /// entries of a tree, snapped outward to the frame's 16-bit grid.
    pub cube: Cube,
}

/// One leaf entry as a tree holds and stores it: the run's cube as six
/// [`encode`]d codes in the tree's frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodedEntry {
    /// Tuple id (position in the indexed relation).
    pub tuple: u32,
    /// Index of the first unit of the run.
    pub unit: u32,
    /// Codes of `(min_x, min_y, max_x, max_y, t_min, t_max)`.
    pub codes: [u16; 6],
}

/// One tree node: a cube covering a contiguous run of children.
///
/// `level` 0 nodes reference entries (`first..first + count` into the
/// entry array); higher levels reference nodes of the level below (same
/// range convention into the node array). Nodes are stored level by
/// level, leaves first, the single root last.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexNode {
    /// Union cube of all children (of the decoded entries at level 0).
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

/// Bytes of one leaf entry as a tree holds and stores it: `(tuple u32,
/// unit u32, six u16 codes)`, little-endian ([`write_entry`]).
pub const ENTRY_BYTES: usize = 20;

/// Append `e` in the leaf entry layout ([`ENTRY_BYTES`] bytes).
pub fn write_entry(out: &mut Vec<u8>, e: &CodedEntry) {
    out.extend_from_slice(&entry_record(e));
}

/// `e` in the leaf entry layout.
fn entry_record(e: &CodedEntry) -> [u8; ENTRY_BYTES] {
    let [t0, t1, t2, t3] = e.tuple.to_le_bytes();
    let [u0, u1, u2, u3] = e.unit.to_le_bytes();
    let [[x0, x1], [y0, y1], [x2, x3], [y2, y3], [s0, s1], [s2, s3]] =
        e.codes.map(u16::to_le_bytes);
    [
        t0, t1, t2, t3, u0, u1, u2, u3, x0, x1, y0, y1, x2, x3, y2, y3, s0, s1, s2, s3,
    ]
}

/// The leaf entry a record holds.
#[inline]
fn record_entry(rec: &[u8; ENTRY_BYTES]) -> CodedEntry {
    let &[t0, t1, t2, t3, u0, u1, u2, u3, ..] = rec;
    CodedEntry {
        tuple: u32::from_le_bytes([t0, t1, t2, t3]),
        unit: u32::from_le_bytes([u0, u1, u2, u3]),
        codes: record_codes(rec),
    }
}

/// The six codes of a leaf entry record.
#[inline]
fn record_codes(rec: &[u8; ENTRY_BYTES]) -> [u16; 6] {
    let &[_, _, _, _, _, _, _, _, x0, x1, y0, y1, x2, x3, y2, y3, s0, s1, s2, s3] = rec;
    [
        u16::from_le_bytes([x0, x1]),
        u16::from_le_bytes([y0, y1]),
        u16::from_le_bytes([x2, x3]),
        u16::from_le_bytes([y2, y3]),
        u16::from_le_bytes([s0, s1]),
        u16::from_le_bytes([s2, s3]),
    ]
}

/// The leaf entry at the front of `rec` ([`write_entry`]'s layout), or
/// `None` when `rec` is shorter than [`ENTRY_BYTES`]. The codes are not
/// checked: see [`check_codes`].
#[inline]
pub fn read_entry(rec: &[u8]) -> Option<CodedEntry> {
    rec.get(..ENTRY_BYTES)?.try_into().ok().map(record_entry)
}

/// A packed (STR bulk-loaded) R-tree over unit-run bounding cubes, its
/// leaf entries held as codes in the frame (the root cube).
///
/// The leaf entries are one byte array in the stored layout
/// ([`ENTRY_BYTES`] each, in packed order), a range of a shared buffer:
/// a tree built in memory owns its buffer, and a tree attached to a
/// store ([`RTree::from_stored`]) searches the stored bytes where they
/// lie. The nodes are decoded. Each leaf node's entries are checked the
/// first time a search reads them, and a passed check is recorded for
/// the life of the tree (see [`RTree::query`]).
pub struct RTree {
    num_tuples: u32,
    fanout: u32,
    /// The buffer holding the leaf entries, at `entries`.
    buf: Arc<Vec<u8>>,
    entries: Range<usize>,
    nodes: Vec<IndexNode>,
    /// Which leaf nodes' entries passed their checks.
    checked: LeafChecks,
}

/// Per leaf node of a tree (the level-0 nodes, first in its node
/// array), whether its entries passed their checks, and how many have
/// not. A check reads only the immutable entry bytes and publishes
/// nothing else, so a racing second check merely repeats the first: the
/// `Release`/`AcqRel` writes and `Acquire` loads pair only these flags
/// and the count.
struct LeafChecks {
    passed: Vec<AtomicBool>,
    /// Leaf nodes not passed yet: 0 once every one has, when a search
    /// skips the per-leaf flags.
    left: AtomicUsize,
}

impl LeafChecks {
    /// `leaves` flags, all set to `passed`.
    fn new(leaves: usize, passed: bool) -> LeafChecks {
        LeafChecks {
            passed: (0..leaves).map(|_| AtomicBool::new(passed)).collect(),
            left: AtomicUsize::new(if passed { 0 } else { leaves }),
        }
    }

    /// Whether every leaf passed.
    #[inline]
    fn all(&self) -> bool {
        self.left.load(Ordering::Acquire) == 0
    }

    /// Whether leaf node `leaf` passed.
    #[inline]
    fn passed(&self, leaf: usize) -> bool {
        self.passed
            .get(leaf)
            .is_some_and(|c| c.load(Ordering::Acquire))
    }

    /// Record that leaf node `leaf` passed; the count falls once per
    /// leaf, whoever records it.
    fn pass(&self, leaf: usize) {
        if self
            .passed
            .get(leaf)
            .is_some_and(|c| !c.swap(true, Ordering::AcqRel))
        {
            // `checked_sub` keeps a `pass_all` racing ahead at 0.
            let fall = |n: usize| n.checked_sub(1);
            let _ = self
                .left
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, fall);
        }
    }

    /// Record that every leaf passed.
    fn pass_all(&self) {
        for c in &self.passed {
            c.store(true, Ordering::Release);
        }
        self.left.store(0, Ordering::Release);
    }
}

impl Clone for LeafChecks {
    fn clone(&self) -> LeafChecks {
        LeafChecks {
            passed: (self.passed.iter())
                .map(|c| AtomicBool::new(c.load(Ordering::Acquire)))
                .collect(),
            left: AtomicUsize::new(self.left.load(Ordering::Acquire)),
        }
    }
}

impl Clone for RTree {
    fn clone(&self) -> RTree {
        RTree {
            num_tuples: self.num_tuples,
            fanout: self.fanout,
            buf: Arc::clone(&self.buf),
            entries: self.entries.clone(),
            nodes: self.nodes.clone(),
            checked: self.checked.clone(),
        }
    }
}

/// Trees are equal when their counts, leaf entries and nodes are; what
/// was checked so far, and where the entries lie, is not compared.
impl PartialEq for RTree {
    fn eq(&self, other: &RTree) -> bool {
        self.num_tuples == other.num_tuples
            && self.fanout == other.fanout
            && self.entry_bytes() == other.entry_bytes()
            && self.nodes == other.nodes
    }
}

impl std::fmt::Debug for RTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RTree")
            .field("num_tuples", &self.num_tuples)
            .field("fanout", &self.fanout)
            .field("entries", &self.num_entries())
            .field("nodes", &self.nodes.len())
            .finish_non_exhaustive()
    }
}

/// STR sort key: the sum of an entry's min and max code on one axis
/// (`0` = x, `1` = y, `2` = t), twice its center in code units.
fn center(rec: &[u8; ENTRY_BYTES], axis: usize) -> u32 {
    let [x0, y0, x1, y1, t0, t1] = record_codes(rec);
    let (lo, hi) = match axis {
        0 => (x0, x1),
        1 => (y0, y1),
        _ => (t0, t1),
    };
    u32::from(lo) + u32::from(hi)
}

/// The codes covering a non-empty run of entries: the smallest min and
/// the largest max code on each axis. Decoding is monotone, so this
/// decodes to the union of the entries' decoded cubes.
fn code_union(codes: impl Iterator<Item = [u16; 6]>) -> [u16; 6] {
    codes.fold([CODE_MAX, CODE_MAX, 0, 0, CODE_MAX, 0], |acc, c| {
        let [a0, a1, a2, a3, a4, a5] = acc;
        let [c0, c1, c2, c3, c4, c5] = c;
        [
            a0.min(c0),
            a1.min(c1),
            a2.max(c2),
            a3.max(c3),
            a4.min(c4),
            a5.max(c5),
        ]
    })
}

impl RTree {
    /// Bulk-load a tree over `entries` describing a relation of
    /// `num_tuples` tuples, with the default fan-out.
    pub fn bulk(num_tuples: usize, entries: Vec<IndexEntry>) -> RTree {
        RTree::build(num_tuples, entries, DEFAULT_FANOUT)
    }

    /// Bulk-load with an explicit fan-out (`≥ 2`).
    ///
    /// First every leaf cube is coded in the frame, the union of all
    /// leaf cubes ([`encode`]): the tree keeps the codes, so each leaf
    /// stands for the cube snapped outward to the frame's grid. Then
    /// STR on code centers: sort the entries by x-center and cut into
    /// vertical slabs, sort each slab by y-center and cut into runs,
    /// sort each run by t-center; then pack consecutive entries into
    /// leaf nodes of `fanout`, each node the decoded union of its
    /// entries, and build the upper levels by packing consecutive nodes
    /// until a single root remains. The root cube is the frame.
    pub fn build(num_tuples: usize, entries: Vec<IndexEntry>, fanout: usize) -> RTree {
        let fanout = fanout.max(2);
        let (num_tuples, fanout_u32) = (idx_u32(num_tuples), idx_u32(fanout));
        let Some(frame) = entries.iter().map(|e| e.cube).reduce(|a, c| a.union(&c)) else {
            return RTree::checked(num_tuples, fanout_u32, Vec::new(), Vec::new());
        };
        let grid = Grid::new(&frame);
        // Each entry goes straight into its stored record: the tree
        // packs and keeps the records themselves.
        let mut coded: Vec<[u8; ENTRY_BYTES]> = entries
            .iter()
            .map(|e| {
                entry_record(&CodedEntry {
                    tuple: e.tuple,
                    unit: e.unit,
                    codes: grid.encode(&e.cube),
                })
            })
            .collect();
        // The codes replace the f64 cubes; free those before packing.
        drop(entries);

        let n = coded.len();
        let leaves = n.div_ceil(fanout);
        // Number of slabs per axis: the smallest s with s³ ≥ leaves
        // (integer cube root, no float/int casts).
        let mut s = 1usize;
        while s * s * s < leaves {
            s += 1;
        }
        coded.sort_by_key(|e| center(e, 0));
        let slab = n.div_ceil(s);
        for chunk in coded.chunks_mut(slab.max(1)) {
            chunk.sort_by_key(|e| center(e, 1));
            let run = chunk.len().div_ceil(s);
            for run_chunk in chunk.chunks_mut(run.max(1)) {
                run_chunk.sort_by_key(|e| center(e, 2));
            }
        }

        // Pack bottom-up: leaf nodes over entry runs, then node runs.
        let mut nodes: Vec<IndexNode> = Vec::new();
        let mut first = 0usize;
        for chunk in coded.chunks(fanout) {
            nodes.push(IndexNode {
                cube: grid.decode(code_union(chunk.iter().map(record_codes))),
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
        let tree = RTree::checked(num_tuples, fanout_u32, coded.into_flattened(), nodes);
        debug_assert!(
            tree.validate().is_ok(),
            "bulk load broke its own invariants"
        );
        tree
    }

    /// A tree over the leaf entry records `buf` and `nodes` that this
    /// process built or fully validated: every leaf counts as checked.
    fn checked(num_tuples: u32, fanout: u32, buf: Vec<u8>, nodes: Vec<IndexNode>) -> RTree {
        let leaves = nodes.iter().take_while(|nd| nd.level == 0).count();
        RTree {
            num_tuples,
            fanout,
            entries: 0..buf.len(),
            buf: Arc::new(buf),
            nodes,
            checked: LeafChecks::new(leaves, true),
        }
    }

    /// Reassemble a tree from the `f64` layout every store written
    /// before compact leaves holds — leaf cubes as `f64` — re-validating
    /// everything, then coding the leaves in the frame (the root cube).
    /// The codes are snapped outward, so each leaf node is widened to
    /// cover its decoded entries, and each parent to cover its
    /// children; the root, and so the frame, stays. The untrusted entry
    /// point `mob-storage`'s `load_index` uses for that layout.
    pub fn from_parts(
        num_tuples: u32,
        fanout: u32,
        entries: Vec<IndexEntry>,
        mut nodes: Vec<IndexNode>,
    ) -> DecodeResult<RTree> {
        for (i, e) in entries.iter().enumerate() {
            check_tuple(e.tuple, num_tuples)?;
            if e.cube.rect.is_empty() || e.cube.t_max < e.cube.t_min {
                return Err(bad(format!("entry {i} carries an empty or inverted cube")));
            }
        }
        validate_nodes(fanout, entries.len(), &nodes, |node, range| {
            range
                .clone()
                .find(|&c| entries.get(c).is_none_or(|e| !node.cube.contains(&e.cube)))
        })?;
        let Some(frame) = nodes.last().map(|root| root.cube) else {
            return Ok(RTree::checked(num_tuples, fanout, Vec::new(), nodes));
        };
        let grid = Grid::new(&frame);
        let coded: Vec<CodedEntry> = entries
            .iter()
            .map(|e| CodedEntry {
                tuple: e.tuple,
                unit: e.unit,
                codes: grid.encode(&e.cube),
            })
            .collect();
        // Children precede their parents in the node array, so one pass
        // in order sees every child already widened.
        // The ranges were validated above; `get` keeps the walk total.
        for i in 0..nodes.len() {
            let Some(nd) = nodes.get(i).copied() else {
                break;
            };
            let range = nd.first as usize..nd.first as usize + nd.count as usize;
            let cube = if nd.level == 0 {
                coded.get(range).map(|run| {
                    nd.cube
                        .union(&grid.decode(code_union(run.iter().map(|e| e.codes))))
                })
            } else {
                nodes
                    .get(range)
                    .map(|kids| union_cubes(&nd.cube, kids.iter().map(|c| &c.cube)))
            };
            if let (Some(cube), Some(slot)) = (cube, nodes.get_mut(i)) {
                slot.cube = cube;
            }
        }
        let mut buf = Vec::with_capacity(coded.len() * ENTRY_BYTES);
        for e in &coded {
            write_entry(&mut buf, e);
        }
        let tree = RTree::checked(num_tuples, fanout, buf, nodes);
        debug_assert!(tree.validate().is_ok(), "widening broke containment");
        Ok(tree)
    }

    /// Attach a tree to its compact stored form — the frame, the nodes,
    /// and bytes `entries` of `buf` holding the leaf entries in the
    /// stored layout ([`ENTRY_BYTES`] each) — without copying or
    /// decoding the entries. The untrusted entry point `mob-storage`'s
    /// index attach uses for that layout.
    ///
    /// Checked here: the entry bytes are whole records, the frame
    /// equals the root cube, and the nodes pass every structural check
    /// of [`RTree::validate`] but the leaf entries' own (fanout, levels,
    /// exact tiling of the entries, one root, each child node inside
    /// its parent). Each leaf node's entries are checked the first time
    /// a search reads them ([`RTree::query`]), or all at once by
    /// [`RTree::validate`].
    pub fn from_stored(
        num_tuples: u32,
        fanout: u32,
        frame: Cube,
        buf: Arc<Vec<u8>>,
        entries: Range<usize>,
        nodes: Vec<IndexNode>,
    ) -> DecodeResult<RTree> {
        let len = buf
            .get(entries.clone())
            .map(<[u8]>::len)
            .ok_or(DecodeError::OutOfBounds {
                what: "rtree entry bytes",
                index: entries.end,
                bound: buf.len(),
            })?;
        if !len.is_multiple_of(ENTRY_BYTES) {
            return Err(DecodeError::Ragged {
                what: "rtree entry bytes",
                len,
                record_size: ENTRY_BYTES,
            });
        }
        if nodes.last().is_some_and(|root| root.cube != frame) {
            return Err(bad("frame differs from the root cube".to_string()));
        }
        validate_nodes(fanout, len / ENTRY_BYTES, &nodes, |_, _| None)?;
        let leaves = nodes.iter().take_while(|nd| nd.level == 0).count();
        Ok(RTree {
            num_tuples,
            fanout,
            buf,
            entries,
            nodes,
            checked: LeafChecks::new(leaves, false),
        })
    }

    /// Number of tuples in the relation the tree was built over.
    pub fn num_tuples(&self) -> usize {
        self.num_tuples as usize
    }

    /// Number of leaf entries (indexed unit-run cubes).
    pub fn num_entries(&self) -> usize {
        self.entry_bytes().len() / ENTRY_BYTES
    }

    /// Number of tree nodes across all levels.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node fan-out the tree was packed with.
    pub fn fanout(&self) -> usize {
        self.fanout as usize
    }

    /// The tree's frame: the root cube, the box every leaf code is a
    /// fraction of. `None` for an empty tree.
    pub fn frame(&self) -> Option<Cube> {
        self.nodes.last().map(|root| root.cube)
    }

    /// The leaf entries in packed order, in the stored layout
    /// ([`ENTRY_BYTES`] each; for serialization).
    pub fn entry_bytes(&self) -> &[u8] {
        self.buf.get(self.entries.clone()).unwrap_or_default()
    }

    /// The leaf entries in packed order, as codes in the frame.
    pub fn coded_entries(&self) -> impl Iterator<Item = CodedEntry> + '_ {
        self.entry_bytes()
            .chunks_exact(ENTRY_BYTES)
            .filter_map(read_entry)
    }

    /// Leaf entry `i`, if there is one.
    fn entry(&self, i: usize) -> Option<CodedEntry> {
        read_entry(self.entry_bytes().get(i.checked_mul(ENTRY_BYTES)?..)?)
    }

    /// The leaf entries in packed order with their cubes decoded: each
    /// the run's cube snapped outward to the frame's grid.
    pub fn entries(&self) -> impl Iterator<Item = IndexEntry> + '_ {
        let grid = self.frame().map(|f| Grid::new(&f));
        self.coded_entries().filter_map(move |e| {
            grid.map(|g| IndexEntry {
                tuple: e.tuple,
                unit: e.unit,
                cube: g.decode(e.codes),
            })
        })
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
    /// * every child cube is contained in its parent's cube — at level
    ///   0, the entry's cube as its codes decode in the frame;
    /// * every leaf entry's tuple id is `< num_tuples`, and no entry has
    ///   a min code above its max code.
    ///
    /// Decode paths call this on untrusted bytes, so violations are
    /// [`DecodeError`]s, never panics. A tree that passes has every leaf
    /// recorded as checked.
    pub fn validate(&self) -> DecodeResult<()> {
        for e in self.coded_entries() {
            check_tuple(e.tuple, self.num_tuples)?;
            check_codes(e.codes)?;
        }
        let grid = self.frame().map(|f| Grid::new(&f));
        validate_nodes(
            self.fanout,
            self.num_entries(),
            &self.nodes,
            |node, range| self.escapes(grid.as_ref(), node, range),
        )?;
        self.checked.pass_all();
        Ok(())
    }

    /// The first entry of `range` not inside `node`: an entry lies
    /// inside the node exactly when its codes lie inside the node's
    /// cube coded inward.
    fn escapes(
        &self,
        grid: Option<&Grid>,
        node: &IndexNode,
        range: &Range<usize>,
    ) -> Option<usize> {
        let inward = grid.and_then(|g| g.inward(&node.cube));
        range.clone().find(|&c| {
            let codes = self.entry(c).map(|e| e.codes);
            match (codes, inward) {
                (Some([x0, y0, x1, y1, t0, t1]), Some([a0, b0, a1, b1, s0, s1])) => {
                    x0 < a0 || y0 < b0 || x1 > a1 || y1 > b1 || t0 < s0 || t1 > s1
                }
                _ => true,
            }
        })
    }

    /// Check the entries of leaf node `leaf` the first time a search
    /// reads them: every tuple id `< num_tuples`, no min code above its
    /// max code, every entry inside the node. A pass is recorded for
    /// the life of the tree; a failure is not, so every later visit
    /// fails again with the same error. Out of the search loop: a
    /// search calls it only for a leaf not yet recorded.
    #[cold]
    #[inline(never)]
    fn check_leaf(&self, grid: &Grid, leaf: usize) -> DecodeResult<()> {
        let node = self
            .nodes
            .get(leaf)
            .ok_or_else(|| bad(format!("no leaf node {leaf}")))?;
        let range = node.first as usize..node.first as usize + node.count as usize;
        for c in range.clone() {
            let e = self
                .entry(c)
                .ok_or_else(|| bad(format!("leaf node {leaf} has no entry {c}")))?;
            check_tuple(e.tuple, self.num_tuples)?;
            check_codes(e.codes)?;
        }
        if let Some(c) = self.escapes(Some(grid), node, &range) {
            return Err(bad(format!(
                "node {leaf} (level 0) does not contain child {c}"
            )));
        }
        self.checked.pass(leaf);
        Ok(())
    }

    /// Probe with a full (x, y, t) cube: every entry whose cube
    /// intersects `q` contributes its tuple to the candidate set.
    ///
    /// # Errors
    ///
    /// A leaf node the search reads whose entries fail their first-visit
    /// check (see [`RTree::from_stored`]): the tree cannot answer for
    /// it, and the caller must scan without it.
    pub fn query(&self, q: &Cube) -> DecodeResult<Candidates> {
        let meets = |g: &Grid| g.meets(Some(&q.rect), Some((q.t_min, q.t_max)));
        self.search(|c| c.intersects(q), meets)
    }

    /// Probe with an instant only (the `snapshot_at` prune): time-axis
    /// overlap, any spatial extent. Errors as [`RTree::query`].
    pub fn query_instant(&self, t: Instant) -> DecodeResult<Candidates> {
        let meets = |g: &Grid| g.meets(None, Some((t, t)));
        self.search(|c| c.t_min <= t && t <= c.t_max, meets)
    }

    /// Probe with a spatial rectangle only (the `filter_inside` prune):
    /// space-axis overlap, any time. Errors as [`RTree::query`].
    pub fn query_rect(&self, r: &Rect) -> DecodeResult<Candidates> {
        let meets = |g: &Grid| g.meets(Some(r), None);
        self.search(move |c| c.rect.intersects(r), meets)
    }

    /// Walk the tree: nodes whose cube passes `hit`, and entries whose
    /// codes lie in the code window `meets` gives for the frame — the
    /// entries whose decoded cube passes `hit`, compared in code space,
    /// read where they lie after their leaf's check.
    fn search(
        &self,
        hit: impl Fn(&Cube) -> bool,
        meets: impl Fn(&Grid) -> Option<[u16; 6]>,
    ) -> DecodeResult<Candidates> {
        let mut out = Candidates::default();
        let Some(frame) = self.frame() else {
            return Ok(out);
        };
        let grid = Grid::new(&frame);
        let window = meets(&grid);
        // Whole records: a search reads each in place, its codes first.
        let (records, _) = self.entry_bytes().as_chunks::<ENTRY_BYTES>();
        let all_checked = self.checked.all();
        let mut stack = vec![self.nodes.len() - 1];
        while let Some(i) = stack.pop() {
            let Some(nd) = self.nodes.get(i) else {
                continue;
            };
            out.nodes_visited += 1;
            if !hit(&nd.cube) {
                continue;
            }
            let range = nd.first as usize..nd.first as usize + nd.count as usize;
            if nd.level == 0 {
                let Some([a0, b0, a1, b1, s0, s1]) = window else {
                    continue;
                };
                if !all_checked && !self.checked.passed(i) {
                    self.check_leaf(&grid, i)?;
                }
                for rec in records.get(range).unwrap_or_default() {
                    let [x0, y0, x1, y1, t0, t1] = record_codes(rec);
                    if x0 <= a1 && x1 >= a0 && y0 <= b1 && y1 >= b0 && t0 <= s1 && t1 >= s0 {
                        out.units += 1;
                        out.tuples.push(record_entry(rec).tuple);
                    }
                }
            } else {
                stack.extend(range);
            }
        }
        out.tuples.sort_unstable();
        out.tuples.dedup();
        Ok(out)
    }
}

/// A structural violation of the index.
fn bad(detail: String) -> DecodeError {
    DecodeError::BadStructure {
        what: "rtree index",
        detail,
    }
}

/// Refuse a leaf tuple id outside the relation.
fn check_tuple(tuple: u32, num_tuples: u32) -> DecodeResult<()> {
    if tuple >= num_tuples {
        return Err(DecodeError::OutOfBounds {
            what: "rtree entry tuple id",
            index: tuple as usize,
            bound: num_tuples as usize,
        });
    }
    Ok(())
}

/// The structural checks common to both leaf layouts over `entries`
/// leaves: fanout, levels, exact tiling, one root, and containment —
/// of each child node in its parent here, and of the leaf entries in a
/// level-0 node through `escapes(node, range)`, which returns the first
/// entry of `range` not inside `node`.
fn validate_nodes(
    fanout: u32,
    entries: usize,
    nodes: &[IndexNode],
    escapes: impl Fn(&IndexNode, &std::ops::Range<usize>) -> Option<usize>,
) -> DecodeResult<()> {
    if fanout < 2 {
        return Err(bad(format!("fanout {fanout} < 2")));
    }
    if entries == 0 {
        if !nodes.is_empty() {
            return Err(bad("nodes present without entries".to_string()));
        }
        return Ok(());
    }
    if nodes.is_empty() {
        return Err(bad("entries present without nodes".to_string()));
    }
    // Walk the node array level by level; each level must tile its
    // child array exactly, left to right.
    let mut pos = 0usize;
    let mut level = 0u32;
    let mut lvl_start;
    let mut child_bound = entries; // size of the level below
    let mut prev_level_first = 0usize; // node index where the level below starts
    loop {
        lvl_start = pos;
        let mut next_child = if level == 0 { 0 } else { prev_level_first };
        let tile_end = if level == 0 {
            child_bound
        } else {
            prev_level_first + child_bound
        };
        while let Some(nd) = nodes.get(pos).filter(|nd| nd.level == level) {
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
            let range = nd.first as usize..end;
            let escaped = if level == 0 {
                escapes(nd, &range)
            } else {
                range.clone().find(|&c| {
                    nodes
                        .get(c)
                        .is_none_or(|child| !nd.cube.contains(&child.cube))
                })
            };
            if let Some(c) = escaped {
                return Err(bad(format!(
                    "node {pos} (level {level}) does not contain child {c}"
                )));
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
        if pos == nodes.len() {
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

/// Union of a non-empty cube sequence, seeded with its first element
/// (callers always union over `chunks()` output, which is never empty).
fn union_cubes<'a>(first: &Cube, rest: impl Iterator<Item = &'a Cube>) -> Cube {
    rest.fold(*first, |acc, c| acc.union(c))
}

/// Largest leaf code: code `c` stands for the fraction `c / CODE_MAX`
/// of its frame axis, so `0` and `CODE_MAX` are the frame bounds.
pub const CODE_MAX: u16 = u16::MAX;

/// [`CODE_MAX`] as a float: the number of steps a frame axis is cut
/// into.
const STEPS: f64 = CODE_MAX as f64;

/// A cube's six bounds in code order:
/// `(min_x, min_y, max_x, max_y, t_min, t_max)`.
fn bounds(c: &Cube) -> [f64; 6] {
    [
        c.rect.min_x().get(),
        c.rect.min_y().get(),
        c.rect.max_x().get(),
        c.rect.max_y().get(),
        c.t_min.as_f64(),
        c.t_max.as_f64(),
    ]
}

/// Encode `cube`, which must lie inside `frame`, as six codes in
/// `frame`: each min rounds down to the largest code that decodes at or
/// below it, each max up to the smallest code that decodes at or above
/// it, so [`decode`] gives back a cube that contains `cube` and lies
/// inside `frame`. On a frame axis of zero or non-finite width every
/// min codes as `0` and every max as [`CODE_MAX`]: the frame bounds.
pub fn encode(cube: &Cube, frame: &Cube) -> [u16; 6] {
    Grid::new(frame).encode(cube)
}

/// Decode six codes in `frame`, the inverse of [`encode`]: always a
/// cube inside `frame`, never NaN, with `0` and [`CODE_MAX`] decoding
/// to the frame bounds exactly. Codes whose min is above their max
/// decode to an empty or inverted cube; [`check_codes`] refuses them.
pub fn decode(codes: [u16; 6], frame: &Cube) -> Cube {
    Grid::new(frame).decode(codes)
}

/// Refuse codes whose min is above their max on any axis: they stand
/// for no cube, and decoding them would hide the damage.
pub fn check_codes(codes: [u16; 6]) -> DecodeResult<()> {
    let [x0, y0, x1, y1, t0, t1] = codes;
    if x0 > x1 || y0 > y1 || t0 > t1 {
        return Err(DecodeError::BadStructure {
            what: "rtree entry codes",
            detail: format!("min code above max code in {codes:?}"),
        });
    }
    Ok(())
}

/// A frame set up for coding: its x, y and t axes.
#[derive(Clone, Copy, Debug)]
struct Grid([Axis; 3]);

impl Grid {
    fn new(frame: &Cube) -> Grid {
        let [x0, y0, x1, y1, t0, t1] = bounds(frame);
        Grid([Axis::new(x0, x1), Axis::new(y0, y1), Axis::new(t0, t1)])
    }

    fn encode(&self, cube: &Cube) -> [u16; 6] {
        let [x, y, t] = &self.0;
        let [x0, y0, x1, y1, t0, t1] = bounds(cube);
        [
            x.code_down(x0),
            y.code_down(y0),
            x.code_up(x1),
            y.code_up(y1),
            t.code_down(t0),
            t.code_up(t1),
        ]
    }

    fn decode(&self, codes: [u16; 6]) -> Cube {
        let [x, y, t] = &self.0;
        let [x0, y0, x1, y1, t0, t1] = codes;
        Cube {
            rect: Rect::new(
                Real::new(x.at(x0)),
                Real::new(y.at(y0)),
                Real::new(x.at(x1)),
                Real::new(y.at(y1)),
            ),
            t_min: Instant::new(Real::new(t.at(t0))),
            t_max: Instant::new(Real::new(t.at(t1))),
        }
    }

    /// The code window of the entries whose decoded cube meets a probe
    /// (`None` for an unconstrained part): an entry meets it exactly
    /// when each min code is at or below the window's max and each max
    /// code at or above its min, window in [`encode`] order. `None`
    /// when no code range can meet it.
    fn meets(&self, rect: Option<&Rect>, span: Option<(Instant, Instant)>) -> Option<[u16; 6]> {
        let [x, y, t] = &self.0;
        let any = (0, CODE_MAX);
        let (xa, xb, ya, yb) = match rect {
            Some(r) if r.is_empty() => return None,
            Some(r) => {
                let (xa, xb) = x.meets(r.min_x().get(), r.max_x().get())?;
                let (ya, yb) = y.meets(r.min_y().get(), r.max_y().get())?;
                (xa, xb, ya, yb)
            }
            None => (any.0, any.1, any.0, any.1),
        };
        let (ta, tb) = match span {
            Some((a, b)) => t.meets(a.as_f64(), b.as_f64())?,
            None => any,
        };
        Some([xa, ya, xb, yb, ta, tb])
    }

    /// `cube` coded inward: the smallest min codes and the largest max
    /// codes whose decoded values stay inside it, so a cube of codes
    /// decodes inside `cube` exactly when its mins are at or above and
    /// its maxes at or below these. `None` when no code on some axis
    /// decodes inside.
    fn inward(&self, cube: &Cube) -> Option<[u16; 6]> {
        let [x, y, t] = &self.0;
        let [x0, y0, x1, y1, t0, t1] = bounds(cube);
        Some([
            x.first_at_or_above(x0)?,
            y.first_at_or_above(y0)?,
            x.last_at_or_below(x1)?,
            y.last_at_or_below(y1)?,
            t.first_at_or_above(t0)?,
            t.last_at_or_below(t1)?,
        ])
    }
}

/// One frame axis `lo..=hi` cut into [`CODE_MAX`] steps.
#[derive(Clone, Copy, Debug)]
struct Axis {
    lo: f64,
    hi: f64,
    /// Width of one step; `0` when the width is zero, not finite, or
    /// too small to cut, and every code then stands for a bound.
    step: f64,
    /// Steps per unit length (an estimate's scale).
    per_unit: f64,
}

impl Axis {
    fn new(lo: f64, hi: f64) -> Axis {
        let w = hi - lo;
        let step = if w.is_finite() { w / STEPS } else { 0.0 };
        Axis {
            lo,
            hi,
            step,
            per_unit: STEPS / w,
        }
    }

    /// The value code `c` stands for: monotone in `c`, `lo` at `0` and
    /// `hi` at [`CODE_MAX`], never outside `lo..=hi`.
    fn at(&self, c: u16) -> f64 {
        if c == CODE_MAX {
            self.hi
        } else {
            (self.lo + f64::from(c) * self.step).min(self.hi)
        }
    }

    /// `false` when every code stands for a bound.
    fn cut(&self) -> bool {
        self.step > 0.0
    }

    /// The code of a min bound `v`: the largest code that decodes at or
    /// below it, or `0` on an axis not [`Axis::cut`].
    fn code_down(&self, v: f64) -> u16 {
        if !self.cut() {
            return 0;
        }
        self.last_at_or_below(v).unwrap_or(0)
    }

    /// The code of a max bound `v`: the smallest code that decodes at
    /// or above it, or [`CODE_MAX`] on an axis not [`Axis::cut`].
    fn code_up(&self, v: f64) -> u16 {
        if !self.cut() {
            return CODE_MAX;
        }
        self.first_at_or_above(v).unwrap_or(CODE_MAX)
    }

    /// The largest code that decodes at or below `v`, if any.
    fn last_at_or_below(&self, v: f64) -> Option<u16> {
        last_below(self.nearest(v), |c| self.at(c) <= v)
    }

    /// The smallest code that decodes at or above `v`, if any: one past
    /// the largest code that decodes below it.
    fn first_at_or_above(&self, v: f64) -> Option<u16> {
        let est = self.nearest(v).saturating_sub(1);
        match last_below(est, |c| self.at(c) < v) {
            None => Some(0),
            Some(c) => c.checked_add(1),
        }
    }

    /// The codes whose decoded interval meets `a..=b`: an interval of
    /// codes `lo..=hi` meets it exactly when `lo` is at or below the
    /// second code returned and `hi` at or above the first.
    fn meets(&self, a: f64, b: f64) -> Option<(u16, u16)> {
        Some((self.first_at_or_above(a)?, self.last_at_or_below(b)?))
    }

    /// The code nearest to `v`, from one multiplication: the estimate
    /// [`last_below`] corrects.
    fn nearest(&self, v: f64) -> u16 {
        truncated_code((v - self.lo) * self.per_unit + 0.5)
    }
}

/// `x` truncated toward zero as a code: NaN and anything below 1 at 0,
/// anything at or past the last code the last.
fn truncated_code(x: f64) -> u16 {
    if x.is_nan() || x < 1.0 {
        return 0;
    }
    if x >= f64::from(CODE_MAX) {
        return CODE_MAX;
    }
    // 1 <= x < 65535: the sign bit is clear and the unbiased exponent
    // is 0..=15, so the integer part is the mantissa with its implicit
    // one, shifted right past the 52 - exponent fraction bits.
    let bits = x.to_bits();
    let exponent = (bits >> 52) - 1023;
    let mantissa = (bits & ((1 << 52) - 1)) | (1 << 52);
    u16::try_from(mantissa >> (52 - exponent)).unwrap_or(CODE_MAX)
}

/// The largest code `c` with `below(c)`, for a `below` that holds on a
/// prefix of the codes, or `None` when it holds for none, starting from
/// the estimate `est`. Rounding leaves the estimate at most a code off,
/// so a step or two settles it, each evaluating `below` once; only an
/// axis too narrow for the magnitude of its bounds, where many codes
/// decode to one `f64`, or with no cut at all, falls through to
/// bisection.
fn last_below(est: u16, below: impl Fn(u16) -> bool) -> Option<u16> {
    let mut c = est;
    if below(c) {
        // Walk up while the next code still holds.
        for _ in 0..2 {
            if c == CODE_MAX || !below(c + 1) {
                return Some(c);
            }
            c += 1;
        }
    } else {
        // Walk down to the first code that holds; the one above it did
        // not.
        for _ in 0..2 {
            c = c.checked_sub(1)?;
            if below(c) {
                return Some(c);
            }
        }
    }
    if !below(0) {
        return None;
    }
    let (mut yes, mut no) = (0u16, CODE_MAX);
    if below(no) {
        return Some(no);
    }
    while no - yes > 1 {
        let mid = yes + (no - yes) / 2;
        if below(mid) {
            yes = mid;
        } else {
            no = mid;
        }
    }
    Some(yes)
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

    /// A tree from its coded parts, fully validated: [`RTree::from_stored`]
    /// over the entries laid out in a buffer, then [`RTree::validate`].
    fn from_coded_parts(
        num_tuples: u32,
        fanout: u32,
        frame: Cube,
        coded: Vec<CodedEntry>,
        nodes: Vec<IndexNode>,
    ) -> DecodeResult<RTree> {
        let mut buf = Vec::new();
        for e in &coded {
            write_entry(&mut buf, e);
        }
        let len = buf.len();
        let tree = RTree::from_stored(num_tuples, fanout, frame, Arc::new(buf), 0..len, nodes)?;
        tree.validate()?;
        Ok(tree)
    }

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
        let c = tree.query_instant(t(1.0)).unwrap();
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
            let got = tree.query_instant(t(ti)).unwrap();
            let want = brute(&tree, |c| c.t_min <= t(ti) && t(ti) <= c.t_max);
            assert_eq!(got.tuples, want, "instant {ti}");
            assert!(got.units as usize >= got.tuples.len());
        }
        // Rect probes.
        use mob_base::r;
        for (x0, x1) in [(0.0, 2.5), (5.0, 9.0), (40.0, 50.0)] {
            let rect = Rect::new(r(x0), r(0.0), r(x1), r(6.0));
            let got = tree.query_rect(&rect).unwrap();
            let want = brute(&tree, |c| c.rect.intersects(&rect));
            assert_eq!(got.tuples, want, "rect {x0}..{x1}");
        }
        // Full cube probes.
        let cube = Cube::new(
            Rect::new(r(2.0), r(0.0), r(4.0), r(99.0)),
            &Interval::closed(t(1.0), t(2.0)),
        );
        let got = tree.query(&cube).unwrap();
        assert_eq!(got.tuples, brute(&tree, |c| c.intersects(&cube)));
    }

    #[test]
    fn selective_probes_visit_few_nodes() {
        let tree = fleet_tree(64, 8);
        let all = tree.query_instant(t(3.0)).unwrap();
        assert_eq!(all.tuples.len(), 64, "every flight is live at t=3");
        // A probe outside every lifetime touches only the root.
        let none = tree.query_instant(t(500.0)).unwrap();
        assert!(none.tuples.is_empty());
        assert_eq!(none.nodes_visited, 1);
        // A spatially selective probe prunes most of the tree.
        use mob_base::r;
        let corner = tree
            .query_rect(&Rect::new(r(0.0), r(0.0), r(1.0), r(4.0)))
            .unwrap();
        assert!(!corner.tuples.is_empty());
        assert!(
            (corner.nodes_visited as usize) < tree.num_nodes(),
            "selective probe must not visit every node ({} of {})",
            corner.nodes_visited,
            tree.num_nodes()
        );
    }

    /// Exhaustive reference on seeded probes: the code-space leaf test
    /// must pick exactly the entries whose decoded cube meets a probe,
    /// including probes on grid values and outside the frame.
    #[test]
    fn frame_code_space_probes_agree_with_decoded_cubes() {
        use mob_base::r;
        let mut state = 0xc0deu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut entries = Vec::new();
        for k in 0..40u32 {
            entries.extend(run_cubes(k, &wander(u64::from(k), 64)));
        }
        let tree = RTree::build(40, entries, 4);
        let on_grid: Vec<IndexEntry> = tree.entries().collect();
        for p in 0..400 {
            // Every fourth probe reuses a decoded bound exactly.
            let pick = |v: f64, k: usize| {
                if p % 4 == 0 {
                    let e = &on_grid[(p * 7 + k) % on_grid.len()].cube;
                    [
                        e.rect.min_x(),
                        e.rect.min_y(),
                        e.rect.max_x(),
                        e.rect.max_y(),
                    ][k % 4]
                        .get()
                } else {
                    v
                }
            };
            let (x, y) = (pick(next() * 50.0 - 25.0, 0), pick(next() * 50.0 - 25.0, 1));
            let (w, h) = (next() * 6.0, next() * 6.0);
            let rect = Rect::new(r(x), r(y), r(x + w), r(y + h));
            let from = if p % 4 == 0 {
                on_grid[p % on_grid.len()].cube.t_max.as_f64()
            } else {
                next() * 70.0 - 3.0
            };
            let span = Interval::closed(t(from), t(from + next() * 4.0));
            let cube = Cube::new(rect, &span);
            assert_eq!(
                tree.query(&cube).unwrap().tuples,
                brute(&tree, |c| c.intersects(&cube)),
                "probe {p}"
            );
            assert_eq!(
                tree.query_rect(&rect).unwrap().tuples,
                brute(&tree, |c| c.rect.intersects(&rect)),
                "rect {p}"
            );
            let at = t(from);
            assert_eq!(
                tree.query_instant(at).unwrap().tuples,
                brute(&tree, |c| c.t_min <= at && at <= c.t_max),
                "instant {p}"
            );
        }
    }

    /// A tree's f64 parts: its entries decoded and its nodes as built.
    fn f64_parts(tree: &RTree) -> (Vec<IndexEntry>, Vec<IndexNode>) {
        (tree.entries().collect(), tree.nodes.clone())
    }

    #[test]
    fn from_parts_rejects_forged_layouts() {
        let tree = fleet_tree(4, 6);
        let (nt, f) = (tree.num_tuples, tree.fanout);
        let (entries, nodes) = f64_parts(&tree);
        // Pristine parts round-trip.
        assert_eq!(
            RTree::from_parts(nt, f, entries.clone(), nodes.clone()).unwrap(),
            tree
        );
        // Tuple id out of range.
        let mut e = entries.clone();
        e[0].tuple = 99;
        assert!(RTree::from_parts(nt, f, e, nodes.clone()).is_err());
        // Shrunk node cube no longer contains its children.
        let mut nd = nodes.clone();
        let last = nd.len() - 1;
        nd[last].cube = entries[0].cube;
        assert!(RTree::from_parts(nt, f, entries.clone(), nd).is_err());
        // Child range overflowing the entry array.
        let mut nd = nodes.clone();
        nd[0].count += 1000;
        assert!(RTree::from_parts(nt, f, entries.clone(), nd).is_err());
        // Dropping the root leaves a forest, not a tree.
        let mut nd = nodes.clone();
        nd.pop();
        assert!(nd.len() > 1, "test premise: multiple leaf nodes");
        assert!(RTree::from_parts(nt, f, entries.clone(), nd).is_err());
        // Fanout below 2.
        assert!(RTree::from_parts(nt, 1, entries.clone(), nodes.clone()).is_err());
        // Entries without nodes / nodes without entries.
        assert!(RTree::from_parts(nt, f, entries.clone(), Vec::new()).is_err());
        assert!(RTree::from_parts(nt, f, Vec::new(), nodes.clone()).is_err());
        assert!(RTree::from_parts(nt, f, Vec::new(), Vec::new()).is_ok());

        // The compact form: pristine coded parts rebuild the tree.
        let frame = tree.frame().unwrap();
        let coded = tree.coded_entries().collect::<Vec<_>>();
        let rebuilt = from_coded_parts(nt, f, frame, coded.clone(), nodes.clone()).unwrap();
        assert_eq!(rebuilt, tree);
        // A frame that differs from the root cube.
        let mut wide = frame;
        wide.t_max = t(frame.t_max.as_f64() + 1.0);
        assert!(from_coded_parts(nt, f, wide, coded.clone(), nodes.clone()).is_err());
        // A min code above its max code.
        let mut bad = coded.clone();
        bad[0].codes.swap(0, 2);
        assert!(bad[0].codes[0] > bad[0].codes[2], "test premise");
        assert!(from_coded_parts(nt, f, frame, bad, nodes.clone()).is_err());
        // A shrunk leaf node no longer contains the decoded entries.
        let mut nd = nodes.clone();
        nd[0].cube = entries[0].cube;
        assert!(from_coded_parts(nt, f, frame, coded.clone(), nd).is_err());
        // A tuple id out of range, in the coded form too.
        let mut bad = coded.clone();
        bad[0].tuple = 99;
        assert!(from_coded_parts(nt, f, frame, bad, nodes.clone()).is_err());
        // The empty tree has no frame to check.
        assert!(from_coded_parts(nt, f, frame, Vec::new(), Vec::new()).is_ok());
    }

    /// A cube from its six bounds in code order.
    fn cube6(b: [f64; 6]) -> Cube {
        let [x0, y0, x1, y1, t0, t1] = b;
        use mob_base::r;
        Cube::new(
            Rect::new(r(x0), r(y0), r(x1), r(y1)),
            &Interval::closed(t(t0), t(t1)),
        )
    }

    /// The codec contract on `cubes`: each decoded cube contains its
    /// input and lies inside the frame (their union), re-encoding a
    /// decoded cube gives it back, the bulk-loaded tree's root is the
    /// frame, and its compact parts rebuild it exactly.
    fn check_frame(ctx: &str, cubes: &[Cube]) {
        let frame = cubes[1..].iter().fold(cubes[0], |a, c| a.union(c));
        for (i, c) in cubes.iter().enumerate() {
            let codes = encode(c, &frame);
            check_codes(codes).unwrap_or_else(|e| panic!("{ctx} cube {i}: {e}"));
            let d = decode(codes, &frame);
            assert!(d.contains(c), "{ctx} cube {i}: {d:?} misses {c:?}");
            assert!(frame.contains(&d), "{ctx} cube {i}: {d:?} leaves the frame");
            assert_eq!(decode(encode(&d, &frame), &frame), d, "{ctx} cube {i}");
        }
        let entries: Vec<IndexEntry> = cubes
            .iter()
            .enumerate()
            .map(|(i, c)| IndexEntry {
                tuple: i as u32,
                unit: 0,
                cube: *c,
            })
            .collect();
        let tree = RTree::build(cubes.len(), entries, 4);
        tree.validate().unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_eq!(tree.frame(), Some(frame), "{ctx}: root cube is the frame");
        for e in tree.entries() {
            assert!(e.cube.contains(&cubes[e.tuple as usize]), "{ctx}");
        }
        let back = from_coded_parts(
            tree.num_tuples,
            tree.fanout,
            frame,
            tree.coded_entries().collect::<Vec<_>>(),
            tree.nodes.clone(),
        )
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_eq!(back, tree, "{ctx}: compact parts rebuild the tree");
        // Every probe over the frame and past it finds every entry it
        // meets.
        let all = tree.query(&frame).unwrap();
        assert_eq!(all.tuples.len(), cubes.len(), "{ctx}: the frame meets all");
    }

    #[test]
    fn frame_codec_holds_on_seeded_cubes() {
        let mut state = 0x5eedu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for (lo, span) in [(0.0, 1.0), (-5000.0, 10_000.0), (1e9, 3.7), (-1e-3, 2e-3)] {
            let cubes: Vec<Cube> = (0..200)
                .map(|_| {
                    let mut b = [0.0; 6];
                    for axis in [(0, 2), (1, 3), (4, 5)] {
                        let (a, c) = (lo + next() * span, lo + next() * span);
                        b[axis.0] = a.min(c);
                        b[axis.1] = a.max(c);
                    }
                    cube6(b)
                })
                .collect();
            check_frame(&format!("frame at {lo} + {span}"), &cubes);
        }
    }

    #[test]
    fn frame_truncated_code_matches_the_saturating_cast() {
        // The expression `truncated_code` replaced: a float-to-integer
        // `as` truncates toward zero and saturates, NaN at 0.
        let cast = |x: f64| u16::try_from(x as u64).unwrap_or(CODE_MAX);
        let check = |x: f64| assert_eq!(truncated_code(x), cast(x), "x = {x:e}");
        for x in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            0.0,
            -0.0,
            f64::MAX,
            f64::MIN,
            65_534.999_999_999,
            65535.0,
            65535.5,
            65536.0,
            1e300,
        ] {
            check(x);
        }
        for i in 0..=65_536u32 {
            let x = f64::from(i);
            for y in [x, x + 0.5, x + 1e-9, x - 1e-9, x.next_up(), x.next_down()] {
                check(y);
            }
        }
        let mut state = 0x5eedu64;
        for _ in 0..200_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            check(unit * 70_000.0 - 2_000.0);
            check(f64::from_bits(state));
        }
    }

    #[test]
    fn frame_codes_zero_and_max_are_the_frame_bounds() {
        let frame = cube6([-3.0, 1.0, 7.5, 2.0, 10.0, 20.0]);
        assert_eq!(
            decode([0; 6], &frame),
            cube6([-3.0, 1.0, -3.0, 1.0, 10.0, 10.0])
        );
        assert_eq!(
            decode([CODE_MAX; 6], &frame),
            cube6([7.5, 2.0, 7.5, 2.0, 20.0, 20.0])
        );
        assert_eq!(
            encode(&frame, &frame),
            [0, 0, CODE_MAX, CODE_MAX, 0, CODE_MAX]
        );
        // Decoding is monotone in the code on every axis.
        let axis = Axis::new(-3.0, 7.5);
        let mut prev = axis.at(0);
        for c in 1..=CODE_MAX {
            let v = axis.at(c);
            assert!(prev <= v && v <= 7.5, "code {c}");
            prev = v;
        }
    }

    #[test]
    fn frame_of_zero_width_axes() {
        // A stationary fleet: every x and y equal, time still spread.
        let still: Vec<Cube> = (0..20)
            .map(|i| cube6([4.0, -2.0, 4.0, -2.0, f64::from(i), f64::from(i) + 1.0]))
            .collect();
        check_frame("stationary", &still);
        // A single instant: the time axis has zero width.
        let instant: Vec<Cube> = (0..20)
            .map(|i| cube6([f64::from(i), 0.0, f64::from(i) + 2.0, 1.0, 5.0, 5.0]))
            .collect();
        check_frame("instant", &instant);
        // One point cube.
        check_frame("point", &[cube6([1.0, 1.0, 1.0, 1.0, 1.0, 1.0])]);
    }

    #[test]
    fn frame_bounds_and_negative_zero() {
        let cubes = [
            cube6([-0.0, -0.0, 0.0, 0.0, -0.0, 0.0]),
            cube6([0.0, -1.0, 3.0, -0.0, 0.0, 8.0]),
            cube6([-0.0, 0.0, 3.0, 5.0, -0.0, -0.0]),
            cube6([3.0, 5.0, 3.0, 5.0, 8.0, 8.0]),
        ];
        check_frame("signed zeros", &cubes);
        let mut rev = cubes;
        rev.reverse();
        check_frame("signed zeros reversed", &rev);
    }

    #[test]
    fn frame_with_an_infinite_tail_cube() {
        // The tail index widens a unit it cannot evaluate to the whole
        // plane; every x and y bound then codes to the frame bounds.
        let (lo, hi) = (f64::NEG_INFINITY, f64::INFINITY);
        let cubes = [
            cube6([0.0, 0.0, 1.0, 1.0, 0.0, 1.0]),
            cube6([lo, lo, hi, hi, 1.0, 2.0]),
            cube6([5.0, -3.0, 6.0, 9.0, 2.0, 3.0]),
        ];
        check_frame("infinite tail", &cubes);
        let frame = cubes[1..].iter().fold(cubes[0], |a, c| a.union(c));
        let codes = encode(&cubes[0], &frame);
        assert_eq!(codes[..4], [0, 0, CODE_MAX, CODE_MAX]);
        // Every code decodes to a frame bound on an infinite axis.
        let axis = Axis::new(lo, hi);
        for c in [0, 1, 30_000, CODE_MAX - 1] {
            assert_eq!(axis.at(c), lo);
        }
        assert_eq!(axis.at(CODE_MAX), hi);
        // A half-infinite axis: all times from -inf.
        check_frame(
            "half-infinite",
            &[
                cube6([0.0, 0.0, 1.0, 1.0, lo, 3.0]),
                cube6([1.0, 1.0, 2.0, 2.0, 0.0, 4.0]),
            ],
        );
    }

    #[test]
    fn frame_width_overflowing_to_infinity() {
        let cubes = [
            cube6([-1e308, 0.0, -1e307, 1.0, 0.0, 1.0]),
            cube6([-5.0, 0.0, 5.0, 1.0, 0.0, 1.0]),
            cube6([1e307, 0.0, 1e308, 1.0, 0.0, 1.0]),
        ];
        check_frame("overflowing width", &cubes);
        let frame = cubes[1..].iter().fold(cubes[0], |a, c| a.union(c));
        for c in &cubes {
            let codes = encode(c, &frame);
            assert_eq!((codes[0], codes[2]), (0, CODE_MAX), "x codes at the bounds");
            assert!(!Axis::new(-1e308, 1e308).at(1).is_nan());
        }
    }

    #[test]
    fn frame_too_narrow_for_its_magnitude() {
        // 1e9 ± a few ulps: many codes decode to one f64, so the
        // estimate's steps do not settle and bisection does.
        let base = 1e9;
        let ulp = f64::EPSILON * base;
        let cubes: Vec<Cube> = (0..8)
            .map(|i| {
                let a = base + f64::from(i) * ulp;
                cube6([a, 0.0, a + ulp, 1.0, a, a + 2.0 * ulp])
            })
            .collect();
        check_frame("narrow", &cubes);
    }

    #[test]
    fn frame_widening_of_an_f64_tree() {
        // A tree in the f64 layout: leaf cubes off the grid and nodes
        // that are the unions of them.
        let built = fleet_tree(6, 9);
        let raw: Vec<IndexEntry> = built
            .entries()
            .map(|e| IndexEntry {
                cube: {
                    let m = zigzag(e.tuple as usize, 9);
                    crate::seq::UnitSeq::unit(&m, e.unit as usize).bounding_cube()
                },
                ..e
            })
            .collect();
        let mut nodes = built.nodes.clone();
        for i in 0..nodes.len() {
            let nd = nodes[i];
            let r = nd.first as usize..(nd.first + nd.count) as usize;
            nodes[i].cube = if nd.level == 0 {
                raw[r.clone()][1..]
                    .iter()
                    .fold(raw[r.start].cube, |a, e| a.union(&e.cube))
            } else {
                nodes[r.clone()][1..]
                    .iter()
                    .fold(nodes[r.start].cube, |a, c| a.union(&c.cube))
            };
        }
        let frame = nodes.last().unwrap().cube;
        let tree = RTree::from_parts(built.num_tuples, built.fanout, raw.clone(), nodes).unwrap();
        assert_eq!(tree.frame(), Some(frame), "the root keeps the frame");
        for (snapped, f) in tree.entries().zip(&raw) {
            assert!(snapped.cube.contains(&f.cube), "snapped outward");
        }
        // Its compact form stores and reloads as the same tree.
        let back = from_coded_parts(
            tree.num_tuples,
            tree.fanout,
            frame,
            tree.coded_entries().collect::<Vec<_>>(),
            tree.nodes.clone(),
        )
        .expect("widened nodes contain the snapped leaves");
        assert_eq!(back, tree);
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
