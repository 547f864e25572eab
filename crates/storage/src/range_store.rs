//! Storage layout for `range(instant)` (periods) and `intime` values —
//! the remaining non-temporal constructed types of Sec 4.1: "a value of
//! type `range(α)` is represented as an array of interval records
//! ordered by value".

use crate::checked::count_u32;
use crate::dbarray::{load_array, save_array, SavedArray};
use crate::page::PageStore;
use crate::record::FixedRecord;
use mob_base::{DecodeResult, Instant, Intime, Periods, TimeInterval};
use mob_spatial::Point;

/// A stored `range(instant)` value.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredPeriods {
    /// Number of component intervals.
    pub count: u32,
    /// The ordered interval records.
    pub intervals: SavedArray,
}

/// Save a periods value.
pub fn save_periods(p: &Periods, store: &mut PageStore) -> StoredPeriods {
    let records: Vec<TimeInterval> = p.iter().copied().collect();
    StoredPeriods {
        count: count_u32(records.len()),
        intervals: save_array(&records, store),
    }
}

/// Load a periods value back.
pub fn load_periods(stored: &StoredPeriods, store: &PageStore) -> DecodeResult<Periods> {
    let records: Vec<TimeInterval> = load_array(&stored.intervals, store)?;
    Ok(Periods::try_new(records)?)
}

/// An `intime(point)` record: instant plus position (Sec 4.1: "a value
/// of type `intime(α)` is represented by a corresponding record").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IPointRecord {
    /// The instant.
    pub instant: Instant,
    /// The position.
    pub value: Point,
}

impl FixedRecord for IPointRecord {
    const SIZE: usize = Instant::SIZE + Point::SIZE;
    const WHAT: &'static str = "intime(point) record";
    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        self.instant.write(out);
        self.value.write(out);
    }
    #[inline]
    fn read(buf: &[u8]) -> DecodeResult<Self> {
        crate::record::need_bytes(buf, Self::SIZE, Self::WHAT)?;
        Ok(IPointRecord {
            instant: Instant::read(buf)?,
            value: Point::read(&buf[Instant::SIZE..])?,
        })
    }
}

impl From<Intime<Point>> for IPointRecord {
    fn from(it: Intime<Point>) -> Self {
        IPointRecord {
            instant: it.instant,
            value: it.value,
        }
    }
}

impl From<IPointRecord> for Intime<Point> {
    fn from(r: IPointRecord) -> Self {
        Intime::new(r.instant, r.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mob_base::{t, Interval};
    use mob_spatial::pt;

    #[test]
    fn periods_roundtrip() {
        let p = Periods::from_unmerged(vec![
            Interval::closed(t(0.0), t(1.0)),
            Interval::open(t(3.0), t(4.0)),
            TimeInterval::point(t(7.0)),
        ]);
        let mut store = PageStore::new();
        let stored = save_periods(&p, &mut store);
        assert_eq!(stored.count, 3);
        assert_eq!(load_periods(&stored, &store).unwrap(), p);
    }

    #[test]
    fn empty_periods() {
        let mut store = PageStore::new();
        let stored = save_periods(&Periods::empty(), &mut store);
        assert_eq!(stored.count, 0);
        assert!(load_periods(&stored, &store).unwrap().is_empty());
    }

    #[test]
    fn large_periods_external() {
        let p = Periods::from_unmerged(
            (0..200)
                .map(|k| Interval::closed(t(k as f64 * 2.0), t(k as f64 * 2.0 + 1.0)))
                .collect(),
        );
        let mut store = PageStore::new();
        let stored = save_periods(&p, &mut store);
        assert!(!stored.intervals.is_inline());
        assert_eq!(load_periods(&stored, &store).unwrap(), p);
    }

    #[test]
    fn intime_record_roundtrip() {
        let it = Intime::new(t(2.5), pt(1.0, -3.0));
        let rec: IPointRecord = it.into();
        let mut buf = Vec::new();
        rec.write(&mut buf);
        assert_eq!(buf.len(), IPointRecord::SIZE);
        let back: Intime<Point> = IPointRecord::read(&buf).unwrap().into();
        assert_eq!(back, it);
    }
}
