//! Storage layout for `points` and `line` values (Sec 4.1).
//!
//! A `line` value is stored as an ordered array of *halfsegment records*
//! (four reals plus a flag indicating the dominating point); the root
//! record carries the segment count, total length and bounding box.

use crate::checked::{count_u32, idx_usize};
use crate::dbarray::{load_array, save_array, SavedArray};
use crate::page::PageStore;
use crate::record::{get_bool, get_f64, put_f64, FixedRecord};
use mob_base::{DecodeError, DecodeResult, Real};
use mob_spatial::{HalfSeg, Line, Point, Points, Seg};

/// A halfsegment record: the segment's four coordinates plus the
/// dominating-point flag.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HalfSegRecord {
    /// Left end point x.
    pub x1: f64,
    /// Left end point y.
    pub y1: f64,
    /// Right end point x.
    pub x2: f64,
    /// Right end point y.
    pub y2: f64,
    /// `true` if the dominating point is the left end point.
    pub left_dom: bool,
}

impl HalfSegRecord {
    /// Build from a halfsegment.
    pub fn from_halfseg(hs: &HalfSeg) -> HalfSegRecord {
        let s = hs.seg();
        HalfSegRecord {
            x1: s.u().x.get(),
            y1: s.u().y.get(),
            x2: s.v().x.get(),
            y2: s.v().y.get(),
            left_dom: hs.is_left(),
        }
    }

    /// The stored segment.
    pub fn seg(&self) -> Seg {
        Seg::new(
            Point::from_f64(self.x1, self.y1),
            Point::from_f64(self.x2, self.y2),
        )
    }

    /// Fallible segment decode: rejects NaN coordinates and degenerate
    /// (zero-length) segments instead of panicking.
    pub fn try_seg(&self) -> DecodeResult<Seg> {
        let u = Point::new(Real::try_new(self.x1)?, Real::try_new(self.y1)?);
        let v = Point::new(Real::try_new(self.x2)?, Real::try_new(self.y2)?);
        if u == v {
            return Err(DecodeError::BadStructure {
                what: Self::WHAT,
                detail: "degenerate segment (u = v)".to_string(),
            });
        }
        Ok(Seg::new(u, v))
    }

    /// The halfsegment.
    pub fn halfseg(&self) -> HalfSeg {
        if self.left_dom {
            HalfSeg::left(self.seg())
        } else {
            HalfSeg::right(self.seg())
        }
    }
}

impl FixedRecord for HalfSegRecord {
    const SIZE: usize = 33;
    const WHAT: &'static str = "halfsegment record";
    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        put_f64(out, self.x1);
        put_f64(out, self.y1);
        put_f64(out, self.x2);
        put_f64(out, self.y2);
        out.push(u8::from(self.left_dom));
    }
    #[inline]
    fn read(buf: &[u8]) -> DecodeResult<Self> {
        Ok(HalfSegRecord {
            x1: get_f64(buf, 0)?,
            y1: get_f64(buf, 8)?,
            x2: get_f64(buf, 16)?,
            y2: get_f64(buf, 24)?,
            left_dom: get_bool(buf, 32)?,
        })
    }
}

/// A stored `line` value: root record plus the halfsegment array.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredLine {
    /// Number of segments (halfsegment count is twice this).
    pub num_segments: u32,
    /// Total length (summary information in the root record).
    pub length: f64,
    /// Bounding box: `(min_x, min_y, max_x, max_y)`; meaningless when
    /// `num_segments == 0`.
    pub bbox: [f64; 4],
    /// The ordered halfsegment array.
    pub halfsegs: SavedArray,
}

/// Save a `line` value.
pub fn save_line(line: &Line, store: &mut PageStore) -> StoredLine {
    let records: Vec<HalfSegRecord> = line
        .halfsegments()
        .iter()
        .map(HalfSegRecord::from_halfseg)
        .collect();
    let bbox = line.bbox();
    StoredLine {
        num_segments: count_u32(line.num_segments()),
        length: line.length().get(),
        bbox: [
            bbox.min_x().get(),
            bbox.min_y().get(),
            bbox.max_x().get(),
            bbox.max_y().get(),
        ],
        halfsegs: save_array(&records, store),
    }
}

/// Load a `line` value back.
pub fn load_line(stored: &StoredLine, store: &PageStore) -> DecodeResult<Line> {
    let records: Vec<HalfSegRecord> = load_array(&stored.halfsegs, store)?;
    let mut segs: Vec<Seg> = Vec::with_capacity(records.len() / 2);
    for r in records.iter().filter(|r| r.left_dom) {
        segs.push(r.try_seg()?);
    }
    if segs.len() != idx_usize(stored.num_segments) {
        return Err(DecodeError::CountMismatch {
            what: "line root record",
            expected: idx_usize(stored.num_segments),
            found: segs.len(),
        });
    }
    Ok(Line::try_new(segs)?)
}

/// A stored `points` value: count plus the ordered point array.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredPoints {
    /// Number of points.
    pub count: u32,
    /// Lexicographically ordered points.
    pub points: SavedArray,
}

/// Save a `points` value.
pub fn save_points(points: &Points, store: &mut PageStore) -> StoredPoints {
    let pts: Vec<Point> = points.iter().collect();
    StoredPoints {
        count: count_u32(pts.len()),
        points: save_array(&pts, store),
    }
}

/// Load a `points` value back.
pub fn load_points(stored: &StoredPoints, store: &PageStore) -> DecodeResult<Points> {
    Ok(Points::from_points(load_array::<Point>(
        &stored.points,
        store,
    )?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mob_spatial::{pt, seg};

    #[test]
    fn line_roundtrip() {
        let line = Line::normalize(vec![
            seg(0.0, 0.0, 3.0, 4.0),
            seg(1.0, 1.0, 2.0, 5.0),
            seg(-1.0, 0.0, 0.0, 0.0),
        ]);
        let mut store = PageStore::new();
        let stored = save_line(&line, &mut store);
        assert_eq!(stored.num_segments, 3);
        assert_eq!(mob_base::Real::new(stored.length), line.length());
        let back = load_line(&stored, &store).unwrap();
        assert_eq!(back, line);
    }

    #[test]
    fn line_halfsegment_order_is_persisted() {
        let line = Line::normalize(vec![seg(5.0, 0.0, 6.0, 0.0), seg(0.0, 0.0, 1.0, 0.0)]);
        let mut store = PageStore::new();
        let stored = save_line(&line, &mut store);
        let recs: Vec<HalfSegRecord> = load_array(&stored.halfsegs, &store).unwrap();
        let hs: Vec<_> = recs.iter().map(HalfSegRecord::halfseg).collect();
        for w in hs.windows(2) {
            assert!(w[0] < w[1], "halfsegments stored out of order");
        }
    }

    #[test]
    fn empty_line_roundtrip() {
        let mut store = PageStore::new();
        let stored = save_line(&Line::empty(), &mut store);
        assert_eq!(stored.num_segments, 0);
        assert!(load_line(&stored, &store).unwrap().is_empty());
    }

    #[test]
    fn big_line_goes_external() {
        let segs: Vec<_> = (0..200)
            .map(|i| seg(i as f64 * 2.0, 0.0, i as f64 * 2.0 + 1.0, 1.0))
            .collect();
        let line = Line::normalize(segs);
        let mut store = PageStore::new();
        let stored = save_line(&line, &mut store);
        assert!(!stored.halfsegs.is_inline());
        assert_eq!(load_line(&stored, &store).unwrap(), line);
    }

    #[test]
    fn points_roundtrip() {
        let points = Points::from_points(vec![pt(2.0, 1.0), pt(0.0, 0.0), pt(2.0, 1.0)]);
        let mut store = PageStore::new();
        let stored = save_points(&points, &mut store);
        assert_eq!(stored.count, 2);
        assert_eq!(load_points(&stored, &store).unwrap(), points);
    }
}
