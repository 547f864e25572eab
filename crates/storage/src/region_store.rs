//! Storage layout for `region` values (Sec 4.1).
//!
//! The halfsegment array is augmented with link fields (`next_in_cycle`)
//! and two further arrays `cycles` and `faces` represent the structure:
//! each cycle record points (by index — never by pointer) to its first
//! halfsegment and to the next cycle of its face; each face record points
//! to its first cycle. The root record carries counts, bounding box,
//! area and perimeter summary fields.

use crate::checked::{count_u32, idx_usize};
use crate::dbarray::{load_array, save_array, SavedArray};
use crate::line_store::HalfSegRecord;
use crate::page::PageStore;
use crate::record::{get_bool, get_u32, put_u32, FixedRecord};
use mob_base::{DecodeError, DecodeResult};
use mob_spatial::{Face, HalfSeg, Point, Region, Ring, Seg};
use std::collections::BTreeMap;

/// Sentinel index meaning "no next element".
pub const NIL: u32 = u32::MAX;

/// A region halfsegment record: the geometric record plus structure
/// links.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RegionHalfSegRecord {
    /// The geometric halfsegment.
    pub hs: HalfSegRecord,
    /// Index of the next halfsegment of the same cycle (circular).
    pub next_in_cycle: u32,
    /// Index of the owning cycle.
    pub cycle: u32,
}

impl FixedRecord for RegionHalfSegRecord {
    const SIZE: usize = HalfSegRecord::SIZE + 8;
    const WHAT: &'static str = "region halfsegment record";
    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        self.hs.write(out);
        put_u32(out, self.next_in_cycle);
        put_u32(out, self.cycle);
    }
    #[inline]
    fn read(buf: &[u8]) -> DecodeResult<Self> {
        Ok(RegionHalfSegRecord {
            hs: HalfSegRecord::read(buf)?,
            next_in_cycle: get_u32(buf, HalfSegRecord::SIZE)?,
            cycle: get_u32(buf, HalfSegRecord::SIZE + 4)?,
        })
    }
}

/// A cycle record: first halfsegment and next cycle of the same face.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CycleRecord {
    /// Index of the first halfsegment of this cycle.
    pub first_halfseg: u32,
    /// Index of the next cycle of the same face, or [`NIL`].
    pub next_cycle_in_face: u32,
    /// `true` for hole cycles.
    pub is_hole: bool,
}

impl FixedRecord for CycleRecord {
    const SIZE: usize = 9;
    const WHAT: &'static str = "cycle record";
    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        put_u32(out, self.first_halfseg);
        put_u32(out, self.next_cycle_in_face);
        out.push(u8::from(self.is_hole));
    }
    #[inline]
    fn read(buf: &[u8]) -> DecodeResult<Self> {
        Ok(CycleRecord {
            first_halfseg: get_u32(buf, 0)?,
            next_cycle_in_face: get_u32(buf, 4)?,
            is_hole: get_bool(buf, 8)?,
        })
    }
}

/// A face record: its first cycle (the outer cycle).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaceRecord {
    /// Index into the cycles array.
    pub first_cycle: u32,
}

impl FixedRecord for FaceRecord {
    const SIZE: usize = 4;
    const WHAT: &'static str = "face record";
    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        put_u32(out, self.first_cycle);
    }
    #[inline]
    fn read(buf: &[u8]) -> DecodeResult<Self> {
        Ok(FaceRecord {
            first_cycle: get_u32(buf, 0)?,
        })
    }
}

/// A stored `region` value: root record plus three database arrays.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredRegion {
    /// Number of faces.
    pub num_faces: u32,
    /// Number of cycles.
    pub num_cycles: u32,
    /// Number of segments (halfsegment count is twice this).
    pub num_segments: u32,
    /// Total area (root-record summary field).
    pub area: f64,
    /// Total perimeter.
    pub perimeter: f64,
    /// Bounding box `(min_x, min_y, max_x, max_y)`.
    pub bbox: [f64; 4],
    /// Ordered halfsegment records with links.
    pub halfsegments: SavedArray,
    /// Cycle records.
    pub cycles: SavedArray,
    /// Face records.
    pub faces: SavedArray,
}

/// Save a `region` value, deriving the link structure (the inverse of
/// `close()`: the logical structure is turned into linked index arrays).
pub fn save_region(region: &Region, store: &mut PageStore) -> StoredRegion {
    // Ordered halfsegment sequence and an index by (seg, is_left).
    let hsegs: Vec<HalfSeg> = region.halfsegments();
    let index: BTreeMap<(Seg, bool), u32> = hsegs
        .iter()
        .enumerate()
        .map(|(i, h)| ((h.seg(), h.is_left()), count_u32(i)))
        .collect();
    let mut records: Vec<RegionHalfSegRecord> = hsegs
        .iter()
        .map(|h| RegionHalfSegRecord {
            hs: HalfSegRecord::from_halfseg(h),
            next_in_cycle: NIL,
            cycle: NIL,
        })
        .collect();
    let mut cycles: Vec<CycleRecord> = Vec::new();
    let mut faces: Vec<FaceRecord> = Vec::new();
    for face in region.faces() {
        let face_first_cycle = count_u32(cycles.len());
        faces.push(FaceRecord {
            first_cycle: face_first_cycle,
        });
        let mut link_cycle = |ring: &Ring, is_hole: bool, cycles: &mut Vec<CycleRecord>| {
            let cycle_id = count_u32(cycles.len());
            // Both halfsegments of each ring edge, chained circularly in
            // ring order (left halfsegment then right halfsegment).
            let mut chain: Vec<u32> = Vec::with_capacity(ring.len() * 2);
            for s in ring.segments() {
                chain.push(index[&(s, true)]);
                chain.push(index[&(s, false)]);
            }
            for (k, &idx) in chain.iter().enumerate() {
                records[idx as usize].next_in_cycle = chain[(k + 1) % chain.len()];
                records[idx as usize].cycle = cycle_id;
            }
            cycles.push(CycleRecord {
                first_halfseg: chain[0],
                next_cycle_in_face: NIL,
                is_hole,
            });
            cycle_id
        };
        let outer_id = link_cycle(face.outer(), false, &mut cycles);
        let mut prev = outer_id;
        for hole in face.holes() {
            let hid = link_cycle(hole, true, &mut cycles);
            cycles[prev as usize].next_cycle_in_face = hid;
            prev = hid;
        }
    }
    let bbox = region.bbox();
    StoredRegion {
        num_faces: count_u32(region.num_faces()),
        num_cycles: count_u32(region.num_cycles()),
        num_segments: count_u32(region.num_segments()),
        area: region.area().get(),
        perimeter: region.perimeter().get(),
        bbox: [
            bbox.min_x().get(),
            bbox.min_y().get(),
            bbox.max_x().get(),
            bbox.max_y().get(),
        ],
        halfsegments: save_array(&records, store),
        cycles: save_array(&cycles, store),
        faces: save_array(&faces, store),
    }
}

/// Load a `region` value back by following the face → cycle →
/// halfsegment links.
///
/// The link structure is untrusted: dangling indices, non-terminating
/// chains and faces without an outer cycle are reported as
/// [`DecodeError`]s (a corrupt `next_in_cycle` byte must not hang the
/// loader).
pub fn load_region(stored: &StoredRegion, store: &PageStore) -> DecodeResult<Region> {
    let records: Vec<RegionHalfSegRecord> = load_array(&stored.halfsegments, store)?;
    let cycles: Vec<CycleRecord> = load_array(&stored.cycles, store)?;
    let faces: Vec<FaceRecord> = load_array(&stored.faces, store)?;
    let hs_at = |i: u32| -> DecodeResult<&RegionHalfSegRecord> {
        records.get(idx_usize(i)).ok_or(DecodeError::OutOfBounds {
            what: RegionHalfSegRecord::WHAT,
            index: idx_usize(i),
            bound: records.len(),
        })
    };
    let mut region_faces: Vec<Face> = Vec::with_capacity(faces.len());
    for f in &faces {
        let mut outer: Option<Ring> = None;
        let mut holes: Vec<Ring> = Vec::new();
        let mut cid = f.first_cycle;
        // Bound the cycle chain: a well-formed chain visits each cycle
        // at most once.
        let mut cycle_steps = 0usize;
        while cid != NIL {
            cycle_steps += 1;
            if cycle_steps > cycles.len() {
                return Err(DecodeError::BadStructure {
                    what: CycleRecord::WHAT,
                    detail: "next_cycle_in_face chain does not terminate".to_string(),
                });
            }
            let c = cycles.get(idx_usize(cid)).ok_or(DecodeError::OutOfBounds {
                what: CycleRecord::WHAT,
                index: idx_usize(cid),
                bound: cycles.len(),
            })?;
            // Walk the circular chain; keep each edge once (left hs).
            // Bound the walk: a valid chain has at most `records.len()`
            // links before returning to its start.
            let mut segs: Vec<Seg> = Vec::new();
            let mut idx = c.first_halfseg;
            let mut hs_steps = 0usize;
            loop {
                hs_steps += 1;
                if hs_steps > records.len() {
                    return Err(DecodeError::BadStructure {
                        what: RegionHalfSegRecord::WHAT,
                        detail: "next_in_cycle chain does not return to its start".to_string(),
                    });
                }
                let rec = hs_at(idx)?;
                if rec.hs.left_dom {
                    segs.push(rec.hs.try_seg()?);
                }
                idx = rec.next_in_cycle;
                if idx == c.first_halfseg {
                    break;
                }
            }
            let ring = ring_from_segs(&segs)?;
            if c.is_hole {
                holes.push(ring);
            } else {
                outer = Some(ring);
            }
            cid = c.next_cycle_in_face;
        }
        let Some(outer) = outer else {
            return Err(DecodeError::BadStructure {
                what: FaceRecord::WHAT,
                detail: "face has no outer cycle".to_string(),
            });
        };
        region_faces.push(Face::try_new(outer, holes)?);
    }
    Ok(Region::try_new(region_faces)?)
}

/// Chain an unordered set of cycle edges into a ring (vertex walk).
///
/// Rejects edge sets that are not a single simple cycle (every vertex
/// must have degree exactly 2, and the walk must close after visiting
/// all vertices) instead of panicking or looping.
pub fn ring_from_segs(segs: &[Seg]) -> DecodeResult<Ring> {
    let mut adjacency: BTreeMap<Point, Vec<Point>> = BTreeMap::new();
    for s in segs {
        adjacency.entry(s.u()).or_default().push(s.v());
        adjacency.entry(s.v()).or_default().push(s.u());
    }
    for (v, nbrs) in &adjacency {
        if nbrs.len() != 2 {
            return Err(DecodeError::BadStructure {
                what: "cycle edges",
                detail: format!("vertex {v:?} has degree {} (want 2)", nbrs.len()),
            });
        }
    }
    let Some(start) = adjacency.keys().next().copied() else {
        return Err(DecodeError::BadStructure {
            what: "cycle edges",
            detail: "empty cycle".to_string(),
        });
    };
    let mut walk = vec![start];
    let mut prev = start;
    let mut cur = adjacency[&start][0];
    while cur != start {
        if walk.len() > adjacency.len() {
            return Err(DecodeError::BadStructure {
                what: "cycle edges",
                detail: "edge walk does not close".to_string(),
            });
        }
        walk.push(cur);
        let nbrs = &adjacency[&cur];
        let next = if nbrs[0] == prev { nbrs[1] } else { nbrs[0] };
        prev = cur;
        cur = next;
    }
    if walk.len() != adjacency.len() {
        return Err(DecodeError::BadStructure {
            what: "cycle edges",
            detail: "edges form more than one cycle".to_string(),
        });
    }
    Ok(Ring::try_new(walk)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mob_spatial::{pt, rect_ring};

    fn figure3_region() -> Region {
        // Face with hole, plus an island face inside the hole (Fig 3).
        Region::try_new(vec![
            Face::try_new(
                rect_ring(0.0, 0.0, 10.0, 10.0),
                vec![rect_ring(2.0, 2.0, 8.0, 8.0)],
            )
            .unwrap(),
            Face::simple(rect_ring(4.0, 4.0, 6.0, 6.0)),
        ])
        .unwrap()
    }

    #[test]
    fn region_roundtrip_with_structure() {
        let region = figure3_region();
        let mut store = PageStore::new();
        let stored = save_region(&region, &mut store);
        assert_eq!(stored.num_faces, 2);
        assert_eq!(stored.num_cycles, 3);
        assert_eq!(stored.num_segments, 12);
        assert_eq!(mob_base::Real::new(stored.area), region.area());
        let back = load_region(&stored, &store).unwrap();
        assert_eq!(back.area(), region.area());
        assert_eq!(back.num_faces(), 2);
        assert_eq!(back.num_cycles(), 3);
        // Semantics preserved: same membership on probe points.
        for p in [
            pt(1.0, 5.0),
            pt(3.0, 5.0),
            pt(5.0, 5.0),
            pt(20.0, 20.0),
            pt(2.0, 2.0),
        ] {
            assert_eq!(back.contains_point(p), region.contains_point(p), "{p:?}");
        }
    }

    #[test]
    fn links_are_circular_and_complete() {
        let region = figure3_region();
        let mut store = PageStore::new();
        let stored = save_region(&region, &mut store);
        let records: Vec<RegionHalfSegRecord> = load_array(&stored.halfsegments, &store).unwrap();
        // Every halfsegment belongs to exactly one cycle and the chains
        // partition the array.
        let mut seen = vec![false; records.len()];
        let cycles: Vec<CycleRecord> = load_array(&stored.cycles, &store).unwrap();
        for c in &cycles {
            let mut idx = c.first_halfseg;
            loop {
                assert!(!seen[idx as usize], "halfsegment in two cycles");
                seen[idx as usize] = true;
                assert_eq!(records[idx as usize].cycle, cycles_index_of(&cycles, c));
                idx = records[idx as usize].next_in_cycle;
                if idx == c.first_halfseg {
                    break;
                }
            }
        }
        assert!(seen.iter().all(|b| *b), "unlinked halfsegment");
    }

    fn cycles_index_of(cycles: &[CycleRecord], c: &CycleRecord) -> u32 {
        cycles
            .iter()
            .position(|x| x == c)
            .expect("cycle must be present") as u32
    }

    #[test]
    fn empty_region_roundtrip() {
        let mut store = PageStore::new();
        let stored = save_region(&Region::empty(), &mut store);
        assert_eq!(stored.num_faces, 0);
        let back = load_region(&stored, &store).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn ring_from_segs_chains() {
        let ring = rect_ring(0.0, 0.0, 2.0, 2.0);
        let rebuilt = ring_from_segs(&ring.segments()).unwrap();
        // Same cycle up to orientation.
        assert!(rebuilt == ring || rebuilt == ring.reversed());
    }
}
