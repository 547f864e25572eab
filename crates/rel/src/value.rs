//! Attribute values: the discrete data types embedded "as attribute
//! types into object-relational or other data models" (Sec 1–2).

use mob_base::DecodeResult;
use mob_base::{Instant, Real, Text, TimeInterval, Val};
use mob_core::{MovingBool, MovingPoint, MovingReal, MovingRegion, UPoint, UnitSeq};
use mob_spatial::{Line, Point, Points, Region};
use mob_storage::mapping_store::{StoredMapping, UPointRecord};
use mob_storage::{open_mpoint, CheckedMPoint, MappingView, PageStore, Verify};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

pub use mob_storage::AttrType;

/// A **storage-backed** `moving(point)` attribute: the root record
/// ([`StoredMapping`]) of a serialized flight plus a shared handle to
/// the page store holding its unit array. Queries access it through
/// [`MPointSeq`] — unit records are decoded lazily, so `atinstant` costs
/// `O(log n)` record reads instead of materializing all `n` units.
///
/// The store handle is an [`Arc`] and [`PageStore`] counters are
/// atomic, so tuples holding `MPointRef`s are `Send + Sync`: the
/// parallel relation scans ([`crate::Relation::snapshot_at`],
/// [`crate::Relation::filter_inside`]) fan tuples out across `mob-par`
/// workers, each opening its own short-lived view over the shared,
/// immutable store.
#[derive(Clone)]
pub struct MPointRef {
    store: Arc<PageStore>,
    stored: StoredMapping,
}

impl MPointRef {
    /// Wrap a stored mapping living in `store`, **verifying its
    /// structure once** (record layouts, bounds, interval order — the
    /// same pass `open_mpoint(.., Verify::Full)` runs). A reference is
    /// only handed out for a well-formed stored value, so the probing
    /// accessors below are infallible.
    pub fn new(store: Arc<PageStore>, stored: StoredMapping) -> DecodeResult<MPointRef> {
        open_mpoint(&stored, &store, Verify::Full)?;
        Ok(MPointRef { store, stored })
    }

    /// Wrap a root its generation vouches for ([`CheckedMPoint`]: the
    /// generation wrote it from units this process had checked), running
    /// the `O(1)` layout checks only.
    pub fn checked(root: CheckedMPoint<'_>) -> DecodeResult<MPointRef> {
        root.open()?;
        Ok(MPointRef {
            store: Arc::clone(root.store()),
            stored: root.stored().clone(),
        })
    }

    /// A lazy [`UnitSeq`] view over the stored units.
    ///
    /// Opens through the [`Verify::Preverified`] fast path: the full
    /// `O(n)` structural scan already ran once in [`MPointRef::new`] (or
    /// when the generation behind [`MPointRef::checked`] wrote the
    /// units), and page store blobs are append-only and immutable, so
    /// per-query view opens pay only the `O(1)` layout checks.
    pub fn view(&self) -> MappingView<'_, UPointRecord> {
        open_mpoint(&self.stored, &self.store, Verify::Preverified)
            .expect("stored mapping verified at MPointRef construction")
    }

    /// Materialize the full in-memory [`MovingPoint`] (reads the whole
    /// unit array — the eager path the lazy view exists to avoid).
    pub fn materialize(&self) -> MovingPoint {
        self.view()
            .materialize_validated()
            .expect("stored mapping verified at MPointRef construction")
    }

    /// Number of stored units.
    pub fn num_units(&self) -> usize {
        self.stored.units.count
    }

    /// The page store this reference reads from.
    pub fn store(&self) -> &Arc<PageStore> {
        &self.store
    }

    /// The root record of the stored mapping.
    pub fn stored(&self) -> &StoredMapping {
        &self.stored
    }
}

impl PartialEq for MPointRef {
    fn eq(&self, other: &MPointRef) -> bool {
        Arc::ptr_eq(&self.store, &other.store) && self.stored == other.stored
    }
}

impl fmt::Debug for MPointRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mpoint_ref({} units)", self.num_units())
    }
}

/// A backend-polymorphic `moving(point)` access path: either a borrowed
/// in-memory [`MovingPoint`] or a lazy [`MappingView`] over serialized
/// records. Implements [`UnitSeq`], so every Section-5 algorithm (and
/// the Section-2 queries built on them) runs identically on both.
pub enum MPointSeq<'a> {
    /// Borrowed in-memory mapping.
    Mem(&'a MovingPoint),
    /// Lazy view over stored unit records.
    Stored(MappingView<'a, UPointRecord>),
}

// The accessors are one-match dispatches called at every step of the
// Section-5 walks (a binary search calls `interval` per probe), so they
// are `#[inline]`: the generic walks instantiated for `MPointSeq` then
// inline them however the crate is split into codegen units. Left to
// the split, `interval` can end up out of line in the binary search,
// which measured about 40 % slower on `snapshot_at` over 4,096-unit
// stored tracks.
impl UnitSeq for MPointSeq<'_> {
    type Unit = UPoint;

    #[inline]
    fn len(&self) -> usize {
        match self {
            MPointSeq::Mem(m) => UnitSeq::len(*m),
            MPointSeq::Stored(v) => v.len(),
        }
    }

    #[inline]
    fn interval(&self, i: usize) -> TimeInterval {
        match self {
            MPointSeq::Mem(m) => UnitSeq::interval(*m, i),
            MPointSeq::Stored(v) => v.interval(i),
        }
    }

    #[inline]
    fn unit(&self, i: usize) -> Cow<'_, UPoint> {
        match self {
            MPointSeq::Mem(m) => UnitSeq::unit(*m, i),
            MPointSeq::Stored(v) => v.unit(i),
        }
    }
}

/// A value of one of the attribute types.
#[derive(Clone, PartialEq)]
pub enum AttrValue {
    /// `int` value (possibly ⊥).
    Int(Val<i64>),
    /// `real` value.
    Real(Val<Real>),
    /// `string` value.
    Str(Val<Text>),
    /// `bool` value.
    Bool(Val<bool>),
    /// `instant` value.
    Instant(Val<Instant>),
    /// `point` value.
    Point(Val<Point>),
    /// `points` value.
    Points(Points),
    /// `line` value.
    Line(Line),
    /// `region` value.
    Region(Region),
    /// `moving(point)` value, materialized in memory.
    MPoint(MovingPoint),
    /// `moving(point)` value, resident in a page store and queried in
    /// place (same schema type as [`AttrValue::MPoint`]).
    MPointRef(MPointRef),
    /// `moving(real)` value.
    MReal(MovingReal),
    /// `moving(bool)` value.
    MBool(MovingBool),
    /// `moving(region)` value.
    MRegion(MovingRegion),
    /// A value whose stored bytes failed their integrity checks during a
    /// **degraded** open ([`crate::Relation::open`]): the
    /// page-store blob behind it is quarantined, so the value cannot be
    /// decoded. The variant keeps the tuple structurally intact — it
    /// remembers the schema type the value would have had plus the first
    /// detected damage — so relation scans can apply their
    /// [`crate::scan::OnError`] policy per tuple instead of refusing to
    /// open the whole relation.
    Quarantined {
        /// The schema type of the unavailable value.
        ty: AttrType,
        /// Why the value is unavailable (the quarantine diagnostic).
        detail: String,
    },
}

impl AttrValue {
    /// The type of this value.
    pub fn attr_type(&self) -> AttrType {
        match self {
            AttrValue::Int(_) => AttrType::Int,
            AttrValue::Real(_) => AttrType::Real,
            AttrValue::Str(_) => AttrType::Str,
            AttrValue::Bool(_) => AttrType::Bool,
            AttrValue::Instant(_) => AttrType::Instant,
            AttrValue::Point(_) => AttrType::Point,
            AttrValue::Points(_) => AttrType::Points,
            AttrValue::Line(_) => AttrType::Line,
            AttrValue::Region(_) => AttrType::Region,
            AttrValue::MPoint(_) => AttrType::MPoint,
            AttrValue::MPointRef(_) => AttrType::MPoint,
            AttrValue::MReal(_) => AttrType::MReal,
            AttrValue::MBool(_) => AttrType::MBool,
            AttrValue::MRegion(_) => AttrType::MRegion,
            AttrValue::Quarantined { ty, .. } => *ty,
        }
    }

    /// `true` when this value was quarantined by a degraded open and
    /// carries no data ([`AttrValue::Quarantined`]).
    pub fn is_quarantined(&self) -> bool {
        matches!(self, AttrValue::Quarantined { .. })
    }

    /// The quarantine diagnostic, if this value is quarantined.
    pub fn quarantine_detail(&self) -> Option<&str> {
        match self {
            AttrValue::Quarantined { detail, .. } => Some(detail),
            _ => None,
        }
    }

    /// Convenience constructor for defined strings.
    pub fn str(s: &str) -> AttrValue {
        AttrValue::Str(Val::Def(Text::new(s)))
    }

    /// Convenience constructor for defined reals.
    pub fn real(v: f64) -> AttrValue {
        AttrValue::Real(Val::Def(Real::new(v)))
    }

    /// Convenience constructor for defined ints.
    pub fn int(v: i64) -> AttrValue {
        AttrValue::Int(Val::Def(v))
    }

    /// The string content, if this is a defined string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(Val::Def(t)) => Some(t.as_str()),
            _ => None,
        }
    }

    /// The real content, if defined.
    pub fn as_real(&self) -> Option<Real> {
        match self {
            AttrValue::Real(Val::Def(r)) => Some(*r),
            _ => None,
        }
    }

    /// The int content, if defined.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AttrValue::Int(Val::Def(i)) => Some(*i),
            _ => None,
        }
    }

    /// The bool content, if defined.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AttrValue::Bool(Val::Def(b)) => Some(*b),
            _ => None,
        }
    }

    /// The moving point, if that is the variant.
    pub fn as_mpoint(&self) -> Option<&MovingPoint> {
        match self {
            AttrValue::MPoint(m) => Some(m),
            _ => None,
        }
    }

    /// A backend-agnostic [`UnitSeq`] over a `moving(point)` attribute —
    /// borrowed from memory for [`AttrValue::MPoint`], a lazy storage
    /// view for [`AttrValue::MPointRef`]. The uniform access path the
    /// Section-2 queries use.
    pub fn as_mpoint_seq(&self) -> Option<MPointSeq<'_>> {
        match self {
            AttrValue::MPoint(m) => Some(MPointSeq::Mem(m)),
            AttrValue::MPointRef(r) => Some(MPointSeq::Stored(r.view())),
            _ => None,
        }
    }

    /// The storage-backed moving point, if that is the variant.
    pub fn as_mpoint_ref(&self) -> Option<&MPointRef> {
        match self {
            AttrValue::MPointRef(r) => Some(r),
            _ => None,
        }
    }

    /// The moving real, if that is the variant.
    pub fn as_mreal(&self) -> Option<&MovingReal> {
        match self {
            AttrValue::MReal(m) => Some(m),
            _ => None,
        }
    }

    /// The moving region, if that is the variant.
    pub fn as_mregion(&self) -> Option<&MovingRegion> {
        match self {
            AttrValue::MRegion(m) => Some(m),
            _ => None,
        }
    }

    /// The region, if that is the variant.
    pub fn as_region(&self) -> Option<&Region> {
        match self {
            AttrValue::Region(r) => Some(r),
            _ => None,
        }
    }

    /// The line, if that is the variant.
    pub fn as_line(&self) -> Option<&Line> {
        match self {
            AttrValue::Line(l) => Some(l),
            _ => None,
        }
    }
}

impl fmt::Debug for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v:?}"),
            AttrValue::Real(v) => write!(f, "{v:?}"),
            AttrValue::Str(v) => write!(f, "{v:?}"),
            AttrValue::Bool(v) => write!(f, "{v:?}"),
            AttrValue::Instant(v) => write!(f, "{v:?}"),
            AttrValue::Point(v) => write!(f, "{v:?}"),
            AttrValue::Points(v) => write!(f, "{v:?}"),
            AttrValue::Line(v) => write!(f, "line({} segs)", v.num_segments()),
            AttrValue::Region(v) => write!(f, "region({} faces)", v.num_faces()),
            AttrValue::MPoint(v) => write!(f, "mpoint({} units)", v.num_units()),
            AttrValue::MPointRef(v) => write!(f, "{v:?}"),
            AttrValue::MReal(v) => write!(f, "mreal({} units)", v.num_units()),
            AttrValue::MBool(v) => write!(f, "mbool({} units)", v.num_units()),
            AttrValue::MRegion(v) => write!(f, "mregion({} units)", v.num_units()),
            AttrValue::Quarantined { ty, detail } => {
                write!(f, "quarantined({ty:?}: {detail})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn types_and_accessors() {
        assert_eq!(AttrValue::int(3).attr_type(), AttrType::Int);
        assert_eq!(AttrValue::str("LH").as_str(), Some("LH"));
        assert_eq!(AttrValue::real(1.5).as_real(), Some(Real::new(1.5)));
        assert_eq!(AttrValue::int(3).as_int(), Some(3));
        assert_eq!(AttrValue::int(3).as_real(), None);
        assert!(AttrValue::MPoint(MovingPoint::empty())
            .as_mpoint()
            .is_some());
        assert_eq!(
            AttrValue::MPoint(MovingPoint::empty()).attr_type(),
            AttrType::MPoint
        );
    }

    #[test]
    fn quarantined_values() {
        let q = AttrValue::Quarantined {
            ty: AttrType::MPoint,
            detail: "blob 3 quarantined".into(),
        };
        assert!(q.is_quarantined());
        assert_eq!(q.attr_type(), AttrType::MPoint);
        assert_eq!(q.quarantine_detail(), Some("blob 3 quarantined"));
        assert!(q.as_mpoint_seq().is_none(), "no data behind a quarantine");
        assert_eq!(format!("{q:?}"), "quarantined(MPoint: blob 3 quarantined)");
        assert!(!AttrValue::int(1).is_quarantined());
    }

    #[test]
    fn undefined_values() {
        let u = AttrValue::Real(Val::Undef);
        assert_eq!(u.as_real(), None);
        assert_eq!(u.attr_type(), AttrType::Real);
    }
}
