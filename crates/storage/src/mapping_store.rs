//! Storage layout for sliced representations (Sec 4.2–4.3, Fig 7).
//!
//! Fixed-size units (`const(bool)`, `ureal`, `upoint`, ...) are stored
//! directly in the `units` array. Variable-size units (`upoints`,
//! `uregion`) store subarray references; all units of one `mapping`
//! share the same database arrays, exactly as in Fig 7.

use crate::checked::{count_u32, idx_usize};
use crate::dbarray::{save_array, SavedArray, SubArrayRef};
use crate::page::PageStore;
use crate::record::{get_bool, get_f64, put_f64, FixedRecord};
use mob_base::{DecodeError, DecodeResult, Real, TimeInterval};
use mob_core::{
    MCycle, MovingBool, MovingLine, MovingPoint, MovingPoints, MovingReal, MovingRegion,
    PointMotion, Unit,
};

impl FixedRecord for PointMotion {
    const SIZE: usize = 32;
    const WHAT: &'static str = "point motion";
    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        put_f64(out, self.x0.get());
        put_f64(out, self.x1.get());
        put_f64(out, self.y0.get());
        put_f64(out, self.y1.get());
    }
    #[inline]
    fn read(buf: &[u8]) -> DecodeResult<Self> {
        Ok(PointMotion::new(
            Real::try_new(get_f64(buf, 0)?)?,
            Real::try_new(get_f64(buf, 8)?)?,
            Real::try_new(get_f64(buf, 16)?)?,
            Real::try_new(get_f64(buf, 24)?)?,
        ))
    }
}

// ---------------------------------------------------------------------
// Fixed-size units
// ---------------------------------------------------------------------

/// `const(bool)` unit record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UBoolRecord {
    /// Unit interval.
    pub interval: TimeInterval,
    /// The constant value.
    pub value: bool,
}

impl FixedRecord for UBoolRecord {
    const SIZE: usize = TimeInterval::SIZE + 1;
    const WHAT: &'static str = "ubool record";
    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        self.interval.write(out);
        out.push(u8::from(self.value));
    }
    #[inline]
    fn read(buf: &[u8]) -> DecodeResult<Self> {
        Ok(UBoolRecord {
            interval: TimeInterval::read(buf)?,
            value: get_bool(buf, TimeInterval::SIZE)?,
        })
    }
}

/// `ureal` unit record: interval plus `(a, b, c, r)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct URealRecord {
    /// Unit interval.
    pub interval: TimeInterval,
    /// Quadratic coefficient.
    pub a: f64,
    /// Linear coefficient.
    pub b: f64,
    /// Constant coefficient.
    pub c: f64,
    /// Square-root flag.
    pub r: bool,
}

impl FixedRecord for URealRecord {
    const SIZE: usize = TimeInterval::SIZE + 25;
    const WHAT: &'static str = "ureal record";
    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        self.interval.write(out);
        put_f64(out, self.a);
        put_f64(out, self.b);
        put_f64(out, self.c);
        out.push(u8::from(self.r));
    }
    #[inline]
    fn read(buf: &[u8]) -> DecodeResult<Self> {
        let o = TimeInterval::SIZE;
        Ok(URealRecord {
            interval: TimeInterval::read(buf)?,
            a: get_f64(buf, o)?,
            b: get_f64(buf, o + 8)?,
            c: get_f64(buf, o + 16)?,
            r: get_bool(buf, o + 24)?,
        })
    }
}

/// `upoint` unit record: interval plus the `MPoint` quadruple.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UPointRecord {
    /// Unit interval.
    pub interval: TimeInterval,
    /// The linear motion.
    pub motion: PointMotion,
}

impl FixedRecord for UPointRecord {
    const SIZE: usize = TimeInterval::SIZE + PointMotion::SIZE;
    const WHAT: &'static str = "upoint record";
    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        self.interval.write(out);
        self.motion.write(out);
    }
    #[inline]
    fn read(buf: &[u8]) -> DecodeResult<Self> {
        crate::record::need_bytes(buf, Self::SIZE, Self::WHAT)?;
        Ok(UPointRecord {
            interval: TimeInterval::read(buf)?,
            motion: PointMotion::read(&buf[TimeInterval::SIZE..])?,
        })
    }
}

/// A stored fixed-size-unit mapping: a root record (count) and one
/// `units` database array.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredMapping {
    /// Number of units.
    pub num_units: u32,
    /// The ordered units array.
    pub units: SavedArray,
}

/// Check the root-record count against the saved units array.
pub(crate) fn check_root_count(num_units: u32, units: &SavedArray) -> DecodeResult<()> {
    if idx_usize(num_units) != units.count {
        return Err(DecodeError::CountMismatch {
            what: "mapping root record",
            expected: idx_usize(num_units),
            found: units.count,
        });
    }
    Ok(())
}

/// Save `moving(bool)`.
pub fn save_mbool(m: &MovingBool, store: &mut PageStore) -> StoredMapping {
    let records: Vec<UBoolRecord> = m
        .units()
        .iter()
        .map(|u| UBoolRecord {
            interval: *u.interval(),
            value: *u.value(),
        })
        .collect();
    StoredMapping {
        num_units: count_u32(records.len()),
        units: save_array(&records, store),
    }
}

/// Save `moving(real)`.
pub fn save_mreal(m: &MovingReal, store: &mut PageStore) -> StoredMapping {
    let records: Vec<URealRecord> = m
        .units()
        .iter()
        .map(|u| {
            let (a, b, c, r) = u.coeffs();
            URealRecord {
                interval: *u.interval(),
                a: a.get(),
                b: b.get(),
                c: c.get(),
                r,
            }
        })
        .collect();
    StoredMapping {
        num_units: count_u32(records.len()),
        units: save_array(&records, store),
    }
}

/// Save `moving(point)`.
pub fn save_mpoint(m: &MovingPoint, store: &mut PageStore) -> StoredMapping {
    let records: Vec<UPointRecord> = m
        .units()
        .iter()
        .map(|u| UPointRecord {
            interval: *u.interval(),
            motion: *u.motion(),
        })
        .collect();
    StoredMapping {
        num_units: count_u32(records.len()),
        units: save_array(&records, store),
    }
}

// ---------------------------------------------------------------------
// Variable-size units: upoints (Fig 7's example shape)
// ---------------------------------------------------------------------

/// `upoints` unit record: interval, subarray reference into the shared
/// motions array, and the 3D bounding cube.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UPointsRecord {
    /// Unit interval.
    pub interval: TimeInterval,
    /// Subrange of the shared motions array.
    pub sub: SubArrayRef,
    /// Bounding cube `(min_x, min_y, max_x, max_y, t_min, t_max)`.
    pub cube: [f64; 6],
}

impl FixedRecord for UPointsRecord {
    const SIZE: usize = TimeInterval::SIZE + SubArrayRef::SIZE + 48;
    const WHAT: &'static str = "upoints record";
    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        self.interval.write(out);
        self.sub.write(out);
        for v in self.cube {
            put_f64(out, v);
        }
    }
    #[inline]
    fn read(buf: &[u8]) -> DecodeResult<Self> {
        crate::record::need_bytes(buf, Self::SIZE, Self::WHAT)?;
        let o = TimeInterval::SIZE + SubArrayRef::SIZE;
        let mut cube = [0.0; 6];
        for (k, c) in cube.iter_mut().enumerate() {
            *c = get_f64(buf, o + 8 * k)?;
        }
        Ok(UPointsRecord {
            interval: TimeInterval::read(buf)?,
            sub: SubArrayRef::read(&buf[TimeInterval::SIZE..])?,
            cube,
        })
    }
}

/// A stored `moving(points)`: the units array plus one shared subarray
/// (Fig 7: "a `mapping` data structure containing three units, for a
/// unit type with one subarray, such as `upoints`").
#[derive(Clone, Debug, PartialEq)]
pub struct StoredMPoints {
    /// Number of units.
    pub num_units: u32,
    /// The ordered units array.
    pub units: SavedArray,
    /// The shared motions array.
    pub motions: SavedArray,
}

/// Save `moving(points)`.
pub fn save_mpoints(m: &MovingPoints, store: &mut PageStore) -> StoredMPoints {
    let mut motions: Vec<PointMotion> = Vec::new();
    let mut records: Vec<UPointsRecord> = Vec::with_capacity(m.num_units());
    for u in m.units() {
        let start = count_u32(motions.len());
        motions.extend_from_slice(u.motions());
        let cube = u.bounding_cube();
        records.push(UPointsRecord {
            interval: *u.interval(),
            sub: SubArrayRef {
                start,
                end: count_u32(motions.len()),
            },
            cube: [
                cube.rect.min_x().get(),
                cube.rect.min_y().get(),
                cube.rect.max_x().get(),
                cube.rect.max_y().get(),
                cube.t_min.as_f64(),
                cube.t_max.as_f64(),
            ],
        });
    }
    StoredMPoints {
        num_units: count_u32(records.len()),
        units: save_array(&records, store),
        motions: save_array(&motions, store),
    }
}

// ---------------------------------------------------------------------
// Variable-size units: uline (one msegments subarray, Sec 4.2)
// ---------------------------------------------------------------------

/// `uline` unit record: interval, subarray reference into the shared
/// moving-segment array, bounding cube.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ULineRecord {
    /// Unit interval.
    pub interval: TimeInterval,
    /// Subrange of the shared msegments array.
    pub sub: SubArrayRef,
    /// Bounding cube `(min_x, min_y, max_x, max_y, t_min, t_max)`.
    pub cube: [f64; 6],
}

impl FixedRecord for ULineRecord {
    const SIZE: usize = TimeInterval::SIZE + SubArrayRef::SIZE + 48;
    const WHAT: &'static str = "uline record";
    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        self.interval.write(out);
        self.sub.write(out);
        for v in self.cube {
            put_f64(out, v);
        }
    }
    #[inline]
    fn read(buf: &[u8]) -> DecodeResult<Self> {
        crate::record::need_bytes(buf, Self::SIZE, Self::WHAT)?;
        let o = TimeInterval::SIZE + SubArrayRef::SIZE;
        let mut cube = [0.0; 6];
        for (k, c) in cube.iter_mut().enumerate() {
            *c = get_f64(buf, o + 8 * k)?;
        }
        Ok(ULineRecord {
            interval: TimeInterval::read(buf)?,
            sub: SubArrayRef::read(&buf[TimeInterval::SIZE..])?,
            cube,
        })
    }
}

/// A stored `moving(line)`: units array plus one shared msegments array.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredMLine {
    /// Number of units.
    pub num_units: u32,
    /// The ordered units array.
    pub units: SavedArray,
    /// The shared moving-segment array.
    pub msegments: SavedArray,
}

/// Save `moving(line)`.
pub fn save_mline(m: &MovingLine, store: &mut PageStore) -> StoredMLine {
    let mut msegments: Vec<MSegRecord> = Vec::new();
    let mut records: Vec<ULineRecord> = Vec::with_capacity(m.num_units());
    for u in m.units() {
        let start = count_u32(msegments.len());
        for ms in u.msegs() {
            msegments.push(MSegRecord {
                s: *ms.start_motion(),
                e: *ms.end_motion(),
            });
        }
        let cube = u.bounding_cube();
        records.push(ULineRecord {
            interval: *u.interval(),
            sub: SubArrayRef {
                start,
                end: count_u32(msegments.len()),
            },
            cube: [
                cube.rect.min_x().get(),
                cube.rect.min_y().get(),
                cube.rect.max_x().get(),
                cube.rect.max_y().get(),
                cube.t_min.as_f64(),
                cube.t_max.as_f64(),
            ],
        });
    }
    StoredMLine {
        num_units: count_u32(records.len()),
        units: save_array(&records, store),
        msegments: save_array(&msegments, store),
    }
}

// ---------------------------------------------------------------------
// Variable-size units: uregion (three subarrays, Sec 4.2)
// ---------------------------------------------------------------------

/// Moving-segment record: the two motions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MSegRecord {
    /// Start-vertex motion.
    pub s: PointMotion,
    /// End-vertex motion.
    pub e: PointMotion,
}

impl FixedRecord for MSegRecord {
    const SIZE: usize = 2 * PointMotion::SIZE;
    const WHAT: &'static str = "mseg record";
    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        self.s.write(out);
        self.e.write(out);
    }
    #[inline]
    fn read(buf: &[u8]) -> DecodeResult<Self> {
        crate::record::need_bytes(buf, Self::SIZE, Self::WHAT)?;
        Ok(MSegRecord {
            s: PointMotion::read(buf)?,
            e: PointMotion::read(&buf[PointMotion::SIZE..])?,
        })
    }
}

/// Moving-cycle record: subrange of the `msegments` array.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MCycleRecord {
    /// Moving segments of this cycle.
    pub msegs: SubArrayRef,
    /// `true` for hole cycles.
    pub is_hole: bool,
}

impl FixedRecord for MCycleRecord {
    const SIZE: usize = SubArrayRef::SIZE + 1;
    const WHAT: &'static str = "mcycle record";
    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        self.msegs.write(out);
        out.push(u8::from(self.is_hole));
    }
    #[inline]
    fn read(buf: &[u8]) -> DecodeResult<Self> {
        Ok(MCycleRecord {
            msegs: SubArrayRef::read(buf)?,
            is_hole: get_bool(buf, SubArrayRef::SIZE)?,
        })
    }
}

/// Moving-face record: subrange of the `mcycles` array (first cycle is
/// the outer one).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MFaceRecord {
    /// Cycles of this face.
    pub cycles: SubArrayRef,
}

impl FixedRecord for MFaceRecord {
    const SIZE: usize = SubArrayRef::SIZE;
    const WHAT: &'static str = "mface record";
    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        self.cycles.write(out);
    }
    #[inline]
    fn read(buf: &[u8]) -> DecodeResult<Self> {
        Ok(MFaceRecord {
            cycles: SubArrayRef::read(buf)?,
        })
    }
}

/// `uregion` unit record: interval, subarray reference, bounding cube,
/// plus the Sec 4.2 summary quadruple for the time-dependent *size*
/// ("one might add further summary information ... such as the
/// (a, b, c, r) quadruples for ... perimeter and size").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct URegionRecord {
    /// Unit interval.
    pub interval: TimeInterval,
    /// Faces of this unit (subrange of `mfaces`).
    pub faces: SubArrayRef,
    /// Bounding cube.
    pub cube: [f64; 6],
    /// Area summary: coefficients of the exact quadratic `a·t² + b·t + c`.
    pub area: [f64; 3],
}

impl FixedRecord for URegionRecord {
    const SIZE: usize = TimeInterval::SIZE + SubArrayRef::SIZE + 48 + 24;
    const WHAT: &'static str = "uregion record";
    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        self.interval.write(out);
        self.faces.write(out);
        for v in self.cube {
            put_f64(out, v);
        }
        for v in self.area {
            put_f64(out, v);
        }
    }
    #[inline]
    fn read(buf: &[u8]) -> DecodeResult<Self> {
        crate::record::need_bytes(buf, Self::SIZE, Self::WHAT)?;
        let o = TimeInterval::SIZE + SubArrayRef::SIZE;
        let mut cube = [0.0; 6];
        for (k, c) in cube.iter_mut().enumerate() {
            *c = get_f64(buf, o + 8 * k)?;
        }
        let mut area = [0.0; 3];
        for (k, c) in area.iter_mut().enumerate() {
            *c = get_f64(buf, o + 48 + 8 * k)?;
        }
        Ok(URegionRecord {
            interval: TimeInterval::read(buf)?,
            faces: SubArrayRef::read(&buf[TimeInterval::SIZE..])?,
            cube,
            area,
        })
    }
}

/// A stored `moving(region)`: the units array plus three shared
/// subarrays (`msegments`, `mcycles`, `mfaces` — Sec 4.2).
#[derive(Clone, Debug, PartialEq)]
pub struct StoredMRegion {
    /// Number of units.
    pub num_units: u32,
    /// The ordered units array.
    pub units: SavedArray,
    /// Shared moving-segment array.
    pub msegments: SavedArray,
    /// Shared moving-cycle array.
    pub mcycles: SavedArray,
    /// Shared moving-face array.
    pub mfaces: SavedArray,
}

/// Save `moving(region)`.
pub fn save_mregion(m: &MovingRegion, store: &mut PageStore) -> StoredMRegion {
    let mut msegments: Vec<MSegRecord> = Vec::new();
    let mut mcycles: Vec<MCycleRecord> = Vec::new();
    let mut mfaces: Vec<MFaceRecord> = Vec::new();
    let mut records: Vec<URegionRecord> = Vec::with_capacity(m.num_units());
    for u in m.units() {
        let face_start = count_u32(mfaces.len());
        for f in u.faces() {
            let cycle_start = count_u32(mcycles.len());
            let mut push_cycle = |cyc: &MCycle, is_hole: bool, mcycles: &mut Vec<MCycleRecord>| {
                let seg_start = count_u32(msegments.len());
                for ms in cyc.msegs() {
                    msegments.push(MSegRecord {
                        s: *ms.start_motion(),
                        e: *ms.end_motion(),
                    });
                }
                mcycles.push(MCycleRecord {
                    msegs: SubArrayRef {
                        start: seg_start,
                        end: count_u32(msegments.len()),
                    },
                    is_hole,
                });
            };
            push_cycle(&f.outer, false, &mut mcycles);
            for h in &f.holes {
                push_cycle(h, true, &mut mcycles);
            }
            mfaces.push(MFaceRecord {
                cycles: SubArrayRef {
                    start: cycle_start,
                    end: count_u32(mcycles.len()),
                },
            });
        }
        let cube = u.bounding_cube();
        let (aa, ab, ac, _) = u.area_ureal().coeffs();
        records.push(URegionRecord {
            interval: *u.interval(),
            faces: SubArrayRef {
                start: face_start,
                end: count_u32(mfaces.len()),
            },
            cube: [
                cube.rect.min_x().get(),
                cube.rect.min_y().get(),
                cube.rect.max_x().get(),
                cube.rect.max_y().get(),
                cube.t_min.as_f64(),
                cube.t_max.as_f64(),
            ],
            area: [aa.get(), ab.get(), ac.get()],
        });
    }
    StoredMRegion {
        num_units: count_u32(records.len()),
        units: save_array(&records, store),
        msegments: save_array(&msegments, store),
        mcycles: save_array(&mcycles, store),
        mfaces: save_array(&mfaces, store),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbarray::load_array;
    use crate::view::{
        open_mbool, open_mline, open_mpoint, open_mpoints, open_mreal, open_mregion, Verify,
    };
    use mob_base::{r, t, Interval, Val};
    use mob_core::{ConstUnit, MFace, MSeg, Mapping, ULine, UPoints, UReal, URegion};
    use mob_spatial::{pt, rect_ring};

    fn iv(s: f64, e: f64) -> TimeInterval {
        Interval::closed(t(s), t(e))
    }

    #[test]
    fn mbool_roundtrip() {
        let m = Mapping::try_new(vec![
            ConstUnit::new(Interval::closed_open(t(0.0), t(1.0)), true),
            ConstUnit::new(Interval::closed_open(t(1.0), t(2.0)), false),
        ])
        .unwrap();
        let mut store = PageStore::new();
        let stored = save_mbool(&m, &mut store);
        assert_eq!(stored.num_units, 2);
        let view = open_mbool(&stored, &store, Verify::Full).unwrap();
        assert_eq!(view.materialize_validated().unwrap(), m);
    }

    #[test]
    fn mreal_roundtrip() {
        let m = Mapping::try_new(vec![
            UReal::quadratic(
                Interval::closed_open(t(0.0), t(1.0)),
                r(1.0),
                r(2.0),
                r(3.0),
            ),
            UReal::try_new(iv(1.0, 2.0), r(0.0), r(0.0), r(4.0), true).unwrap(),
        ])
        .unwrap();
        let mut store = PageStore::new();
        let stored = save_mreal(&m, &mut store);
        let back = open_mreal(&stored, &store, Verify::Full)
            .unwrap()
            .materialize_validated()
            .unwrap();
        assert_eq!(back, m);
        assert_eq!(back.at_instant(t(1.5)), Val::Def(r(2.0)));
    }

    #[test]
    fn mpoint_roundtrip() {
        let m = MovingPoint::from_samples(&[
            (t(0.0), pt(0.0, 0.0)),
            (t(1.0), pt(2.0, 1.0)),
            (t(2.0), pt(0.0, 3.0)),
        ]);
        let mut store = PageStore::new();
        let stored = save_mpoint(&m, &mut store);
        let back = open_mpoint(&stored, &store, Verify::Full)
            .unwrap()
            .materialize_validated()
            .unwrap();
        assert_eq!(back, m);
        assert_eq!(back.at_instant(t(0.5)), Val::Def(pt(1.0, 0.5)));
    }

    #[test]
    fn mpoints_roundtrip_with_shared_subarray() {
        let u1 = UPoints::try_new(
            Interval::closed_open(t(0.0), t(1.0)),
            vec![
                PointMotion::stationary(pt(0.0, 0.0)),
                PointMotion::stationary(pt(1.0, 0.0)),
            ],
        )
        .unwrap();
        let u2 = UPoints::try_new(
            iv(1.0, 2.0),
            vec![
                PointMotion::stationary(pt(0.0, 0.0)),
                PointMotion::stationary(pt(1.0, 0.0)),
                PointMotion::stationary(pt(2.0, 0.0)),
            ],
        )
        .unwrap();
        let m = Mapping::try_new(vec![u1, u2]).unwrap();
        let mut store = PageStore::new();
        let stored = save_mpoints(&m, &mut store);
        assert_eq!(stored.num_units, 2);
        // One shared motions array holding 5 records.
        let motions: Vec<PointMotion> = load_array(&stored.motions, &store).unwrap();
        assert_eq!(motions.len(), 5);
        let back = open_mpoints(&stored, &store, Verify::Full)
            .unwrap()
            .materialize_validated()
            .unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn mregion_roundtrip() {
        let u1 = URegion::interpolate(
            Interval::closed_open(t(0.0), t(1.0)),
            &rect_ring(0.0, 0.0, 1.0, 1.0),
            &rect_ring(1.0, 0.0, 2.0, 1.0),
        )
        .unwrap();
        let u2 = URegion::interpolate(
            iv(1.0, 2.0),
            &rect_ring(1.0, 0.0, 2.0, 1.0),
            &rect_ring(1.0, 1.0, 2.0, 2.0),
        )
        .unwrap();
        let m: MovingRegion = Mapping::try_new(vec![u1, u2]).unwrap();
        let mut store = PageStore::new();
        let stored = save_mregion(&m, &mut store);
        assert_eq!(stored.num_units, 2);
        let back = open_mregion(&stored, &store, Verify::Full)
            .unwrap()
            .materialize_validated()
            .unwrap();
        // Compare semantically: same region at probe instants.
        for k in [0.0, 0.5, 1.0, 1.5, 2.0] {
            let a = m.at_instant(t(k)).unwrap();
            let b = back.at_instant(t(k)).unwrap();
            assert_eq!(a.area(), b.area(), "at t={k}");
            assert_eq!(a.num_faces(), b.num_faces());
        }
    }

    #[test]
    fn mregion_area_summary_matches() {
        // The stored summary quadruple evaluates to the live area.
        let u = URegion::interpolate(
            iv(0.0, 1.0),
            &rect_ring(0.0, 0.0, 2.0, 2.0),
            &rect_ring(0.0, 0.0, 4.0, 4.0),
        )
        .unwrap();
        let m: MovingRegion = Mapping::single(u.clone());
        let mut store = PageStore::new();
        let stored = save_mregion(&m, &mut store);
        let rec: Vec<URegionRecord> = crate::dbarray::load_array(&stored.units, &store).unwrap();
        let [a, b, c] = rec[0].area;
        for k in [0.0f64, 0.5, 1.0] {
            let summary = a * k * k + b * k + c;
            let live = u.area_ureal().value_at(t(k)).get();
            assert!((summary - live).abs() < 1e-9, "{summary} vs {live}");
        }
    }

    #[test]
    fn mregion_with_hole_roundtrip() {
        let outer = MCycle::interpolate(
            t(0.0),
            &rect_ring(0.0, 0.0, 4.0, 4.0),
            t(1.0),
            &rect_ring(0.0, 0.0, 4.0, 4.0),
        )
        .unwrap();
        let hole = MCycle::interpolate(
            t(0.0),
            &rect_ring(1.0, 1.0, 2.0, 2.0),
            t(1.0),
            &rect_ring(2.0, 2.0, 3.0, 3.0),
        )
        .unwrap();
        let m: MovingRegion = Mapping::single(
            URegion::try_new(iv(0.0, 1.0), vec![MFace::new(outer, vec![hole])]).unwrap(),
        );
        let mut store = PageStore::new();
        let stored = save_mregion(&m, &mut store);
        let back = open_mregion(&stored, &store, Verify::Full)
            .unwrap()
            .materialize_validated()
            .unwrap();
        let reg = back.at_instant(t(0.5)).unwrap();
        assert_eq!(reg.num_cycles(), 2);
        assert_eq!(reg.area(), r(15.0));
    }

    #[test]
    fn mline_roundtrip() {
        let m1 = MSeg::between(
            t(0.0),
            mob_spatial::pt(0.0, 0.0),
            mob_spatial::pt(1.0, 0.0),
            t(1.0),
            mob_spatial::pt(0.0, 1.0),
            mob_spatial::pt(1.0, 1.0),
        )
        .unwrap();
        let m2 = MSeg::between(
            t(1.0),
            mob_spatial::pt(0.0, 1.0),
            mob_spatial::pt(1.0, 1.0),
            t(2.0),
            mob_spatial::pt(0.0, 3.0),
            mob_spatial::pt(1.0, 3.0),
        )
        .unwrap();
        let ml: MovingLine = Mapping::try_new(vec![
            ULine::try_new(Interval::closed_open(t(0.0), t(1.0)), vec![m1]).unwrap(),
            ULine::try_new(iv(1.0, 2.0), vec![m2]).unwrap(),
        ])
        .unwrap();
        let mut store = PageStore::new();
        let stored = save_mline(&ml, &mut store);
        assert_eq!(stored.num_units, 2);
        let back = open_mline(&stored, &store, Verify::Full)
            .unwrap()
            .materialize_validated()
            .unwrap();
        assert_eq!(back, ml);
        for k in [0.0, 0.5, 1.5, 2.0] {
            assert_eq!(back.at_instant(t(k)).unwrap(), ml.at_instant(t(k)).unwrap());
        }
    }

    #[test]
    fn empty_mappings() {
        let mut store = PageStore::new();
        let stored = save_mpoint(&MovingPoint::empty(), &mut store);
        assert_eq!(stored.num_units, 0);
        let view = open_mpoint(&stored, &store, Verify::Full).unwrap();
        assert!(view.materialize_validated().unwrap().is_empty());
    }
}
