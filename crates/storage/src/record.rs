//! Fixed-size records.
//!
//! Section 4's ground rules: attribute data structures use "no pointers"
//! — all references are array indices — and consist of records and
//! arrays. [`FixedRecord`] is the contract for anything stored in a
//! database array: a fixed byte size and pointer-free (de)serialization.
//!
//! Decode paths treat bytes as **untrusted**: [`FixedRecord::read`]
//! returns a [`DecodeError`] on truncated buffers or values that violate
//! their carrier-set invariants (NaN coordinates, inverted intervals),
//! so corrupted storage surfaces as an `Err` instead of a panic.

use mob_base::{DecodeError, DecodeResult, Instant, Interval, Real, TimeInterval};
use mob_spatial::Point;

/// A pointer-free record of statically known size.
pub trait FixedRecord: Sized {
    /// Serialized size in bytes.
    const SIZE: usize;

    /// Short name used in [`DecodeError`] messages.
    const WHAT: &'static str = "record";

    /// Write exactly [`Self::SIZE`] bytes into `out`.
    fn write(&self, out: &mut Vec<u8>);

    /// Read back from a buffer holding at least [`Self::SIZE`] bytes.
    ///
    /// The input is untrusted: implementations must reject short buffers
    /// and values that violate type invariants with a [`DecodeError`]
    /// rather than panicking.
    fn read(buf: &[u8]) -> DecodeResult<Self>;
}

/// Require `buf` to hold at least `need` bytes for `what`.
#[inline]
pub fn need_bytes(buf: &[u8], need: usize, what: &'static str) -> DecodeResult<()> {
    if buf.len() < need {
        Err(DecodeError::Truncated {
            what,
            need,
            have: buf.len(),
        })
    } else {
        Ok(())
    }
}

/// Little-endian f64 helpers for record implementations.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Read an f64 at `off` (bounds-checked).
pub fn get_f64(buf: &[u8], off: usize) -> DecodeResult<f64> {
    match buf.get(off..off + 8) {
        Some(b) => {
            let mut arr = [0u8; 8];
            for (d, s) in arr.iter_mut().zip(b) {
                *d = *s;
            }
            Ok(f64::from_le_bytes(arr))
        }
        None => Err(DecodeError::Truncated {
            what: "f64 field",
            need: off + 8,
            have: buf.len(),
        }),
    }
}

/// Write a u32.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Read a u32 at `off` (bounds-checked).
pub fn get_u32(buf: &[u8], off: usize) -> DecodeResult<u32> {
    match buf.get(off..off + 4) {
        Some(b) => {
            let mut arr = [0u8; 4];
            for (d, s) in arr.iter_mut().zip(b) {
                *d = *s;
            }
            Ok(u32::from_le_bytes(arr))
        }
        None => Err(DecodeError::Truncated {
            what: "u32 field",
            need: off + 4,
            have: buf.len(),
        }),
    }
}

/// Little-endian u16 helpers for record implementations.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Read a byte at `off` as bool (bounds-checked; any nonzero is `true`).
pub fn get_bool(buf: &[u8], off: usize) -> DecodeResult<bool> {
    match buf.get(off) {
        Some(b) => Ok(*b != 0),
        None => Err(DecodeError::Truncated {
            what: "bool field",
            need: off + 1,
            have: buf.len(),
        }),
    }
}

impl FixedRecord for f64 {
    const SIZE: usize = 8;
    const WHAT: &'static str = "f64";
    fn write(&self, out: &mut Vec<u8>) {
        put_f64(out, *self);
    }
    fn read(buf: &[u8]) -> DecodeResult<f64> {
        get_f64(buf, 0)
    }
}

impl FixedRecord for i64 {
    const SIZE: usize = 8;
    const WHAT: &'static str = "i64";
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read(buf: &[u8]) -> DecodeResult<i64> {
        need_bytes(buf, 8, "i64")?;
        let mut arr = [0u8; 8];
        for (d, s) in arr.iter_mut().zip(buf) {
            *d = *s;
        }
        Ok(i64::from_le_bytes(arr))
    }
}

impl FixedRecord for u32 {
    const SIZE: usize = 4;
    const WHAT: &'static str = "u32";
    fn write(&self, out: &mut Vec<u8>) {
        put_u32(out, *self);
    }
    fn read(buf: &[u8]) -> DecodeResult<u32> {
        get_u32(buf, 0)
    }
}

impl FixedRecord for bool {
    const SIZE: usize = 1;
    const WHAT: &'static str = "bool";
    fn write(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn read(buf: &[u8]) -> DecodeResult<bool> {
        get_bool(buf, 0)
    }
}

impl FixedRecord for Real {
    const SIZE: usize = 8;
    const WHAT: &'static str = "real";
    fn write(&self, out: &mut Vec<u8>) {
        put_f64(out, self.get());
    }
    fn read(buf: &[u8]) -> DecodeResult<Real> {
        Ok(Real::try_new(get_f64(buf, 0)?)?)
    }
}

impl FixedRecord for Instant {
    const SIZE: usize = 8;
    const WHAT: &'static str = "instant";
    fn write(&self, out: &mut Vec<u8>) {
        put_f64(out, self.as_f64());
    }
    fn read(buf: &[u8]) -> DecodeResult<Instant> {
        Ok(Instant::try_from_f64(get_f64(buf, 0)?)?)
    }
}

impl FixedRecord for Point {
    const SIZE: usize = 16;
    const WHAT: &'static str = "point";
    fn write(&self, out: &mut Vec<u8>) {
        put_f64(out, self.x.get());
        put_f64(out, self.y.get());
    }
    fn read(buf: &[u8]) -> DecodeResult<Point> {
        let x = Real::try_new(get_f64(buf, 0)?)?;
        let y = Real::try_new(get_f64(buf, 8)?)?;
        Ok(Point::new(x, y))
    }
}

/// Time-interval record: `(s, e, lc, rc)` in 18 bytes.
impl FixedRecord for TimeInterval {
    const SIZE: usize = 18;
    const WHAT: &'static str = "time interval";
    fn write(&self, out: &mut Vec<u8>) {
        put_f64(out, self.start().as_f64());
        put_f64(out, self.end().as_f64());
        out.push(u8::from(self.left_closed()));
        out.push(u8::from(self.right_closed()));
    }
    fn read(buf: &[u8]) -> DecodeResult<TimeInterval> {
        let s = Instant::try_from_f64(get_f64(buf, 0)?)?;
        let e = Instant::try_from_f64(get_f64(buf, 8)?)?;
        let lc = get_bool(buf, 16)?;
        let rc = get_bool(buf, 17)?;
        Ok(Interval::try_new(s, e, lc, rc)?)
    }
}

/// Serialize a slice of records into a contiguous byte buffer.
pub fn write_all<T: FixedRecord>(items: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(items.len() * T::SIZE);
    for it in items {
        it.write(&mut out);
    }
    out
}

/// Deserialize a contiguous byte buffer into records.
///
/// Ragged buffers (length not a multiple of the record size) are a
/// layout-level decode error.
pub fn read_all<T: FixedRecord>(buf: &[u8]) -> DecodeResult<Vec<T>> {
    if !buf.len().is_multiple_of(T::SIZE) {
        return Err(DecodeError::Ragged {
            what: T::WHAT,
            len: buf.len(),
            record_size: T::SIZE,
        });
    }
    let mut out = Vec::with_capacity(buf.len() / T::SIZE);
    for chunk in buf.chunks(T::SIZE) {
        out.push(T::read(chunk)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mob_base::{r, t};
    use mob_spatial::pt;

    fn roundtrip<T: FixedRecord + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.write(&mut buf);
        assert_eq!(buf.len(), T::SIZE);
        assert_eq!(T::read(&buf).unwrap(), v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(1.5f64);
        roundtrip(-42i64);
        roundtrip(7u32);
        roundtrip(true);
        roundtrip(false);
        roundtrip(r(2.5));
        roundtrip(t(3.5));
        roundtrip(pt(1.0, -2.0));
        roundtrip(Interval::new(t(0.0), t(1.0), true, false));
        roundtrip(TimeInterval::point(t(5.0)));
    }

    #[test]
    fn bulk_roundtrip() {
        let pts = vec![pt(0.0, 0.0), pt(1.0, 2.0), pt(-3.0, 4.0)];
        let buf = write_all(&pts);
        assert_eq!(buf.len(), 3 * Point::SIZE);
        assert_eq!(read_all::<Point>(&buf).unwrap(), pts);
    }

    #[test]
    fn read_all_rejects_ragged_buffers() {
        assert!(matches!(
            read_all::<Point>(&[0u8; 17]),
            Err(DecodeError::Ragged { .. })
        ));
    }

    #[test]
    fn truncated_reads_are_errors() {
        assert!(matches!(
            <f64 as FixedRecord>::read(&[0u8; 4]),
            Err(DecodeError::Truncated { .. })
        ));
        assert!(matches!(
            TimeInterval::read(&[0u8; 17]),
            Err(DecodeError::Truncated { .. })
        ));
        assert!(bool::read(&[]).is_err());
    }

    #[test]
    fn nan_and_inverted_intervals_are_rejected() {
        let mut buf = Vec::new();
        put_f64(&mut buf, f64::NAN);
        assert!(matches!(Real::read(&buf), Err(DecodeError::Invariant(_))));
        assert!(Instant::read(&buf).is_err());
        // Interval with e < s.
        let mut buf = Vec::new();
        put_f64(&mut buf, 2.0);
        put_f64(&mut buf, 1.0);
        buf.push(1);
        buf.push(1);
        assert!(matches!(
            TimeInterval::read(&buf),
            Err(DecodeError::Invariant(_))
        ));
        // Degenerate interval must be closed on both sides.
        let mut buf = Vec::new();
        put_f64(&mut buf, 1.0);
        put_f64(&mut buf, 1.0);
        buf.push(1);
        buf.push(0);
        assert!(TimeInterval::read(&buf).is_err());
    }
}
