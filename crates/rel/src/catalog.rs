//! Relation persistence: tuples as fixed root records plus database
//! arrays, exactly the shape Sec 4 prescribes for attribute data types
//! ("values are placed under control of the DBMS into memory", each
//! value a root record inside the tuple plus arrays inline or in page
//! chains).

use crate::relation::{Relation, Tuple};
use crate::scan::OnError;
use crate::schema::Schema;
use crate::value::{AttrType, AttrValue, MPointRef};
use mob_base::error::{DecodeError, DecodeResult, InvariantViolation, Result};
use mob_base::{Real, Text, Val};
use mob_core::IndexEntry;
use mob_storage::line_store::{
    load_line, load_points, save_line, save_points, StoredLine, StoredPoints,
};
use mob_storage::mapping_store::{
    save_mbool, save_mpoint, save_mreal, save_mregion, StoredMRegion, StoredMapping,
};
use mob_storage::region_store::{load_region, save_region, StoredRegion};
use mob_storage::{
    open_mbool, open_mpoint, open_mreal, open_mregion, Generation, PageStore, RootRecord,
    TupleLayout, Verify,
};
use std::sync::Arc;

/// One stored attribute value: the persistent form of [`AttrValue`].
///
/// Scalar variants live entirely in the (conceptual) root record; the
/// constructed types carry their root metadata plus database arrays.
#[derive(Clone, Debug, PartialEq)]
pub enum StoredAttr {
    /// `int` (⊥ as `None`).
    Int(Option<i64>),
    /// `real`.
    Real(Option<f64>),
    /// `string`.
    Str(Option<String>),
    /// `bool`.
    Bool(Option<bool>),
    /// `instant`.
    Instant(Option<f64>),
    /// `point`.
    Point(Option<(f64, f64)>),
    /// `points` value.
    Points(StoredPoints),
    /// `line` value.
    Line(StoredLine),
    /// `region` value.
    Region(StoredRegion),
    /// `moving(point)`.
    MPoint(StoredMapping),
    /// `moving(real)`.
    MReal(StoredMapping),
    /// `moving(bool)`.
    MBool(StoredMapping),
    /// `moving(region)`.
    MRegion(StoredMRegion),
}

/// A stored tuple: one stored attribute per schema column.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredTuple {
    /// The stored attributes in schema order.
    pub attrs: Vec<StoredAttr>,
}

/// A stored relation: schema (by name/type) plus stored tuples.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredRelation {
    /// Attribute names and types.
    pub schema: Vec<(String, AttrType)>,
    /// The stored tuples.
    pub tuples: Vec<StoredTuple>,
}

fn save_attr(v: &AttrValue, store: &mut PageStore) -> Result<StoredAttr> {
    Ok(match v {
        AttrValue::Int(x) => StoredAttr::Int(x.as_ref().into_option().copied()),
        AttrValue::Real(x) => StoredAttr::Real(x.as_ref().into_option().map(|r| r.get())),
        AttrValue::Str(x) => {
            StoredAttr::Str(x.as_ref().into_option().map(|t| t.as_str().to_string()))
        }
        AttrValue::Bool(x) => StoredAttr::Bool(x.as_ref().into_option().copied()),
        AttrValue::Instant(x) => StoredAttr::Instant(x.as_ref().into_option().map(|i| i.as_f64())),
        AttrValue::Point(x) => {
            StoredAttr::Point(x.as_ref().into_option().map(|p| (p.x.get(), p.y.get())))
        }
        AttrValue::Points(ps) => StoredAttr::Points(save_points(ps, store)),
        AttrValue::Line(l) => StoredAttr::Line(save_line(l, store)),
        AttrValue::Region(r) => StoredAttr::Region(save_region(r, store)),
        AttrValue::MPoint(m) => StoredAttr::MPoint(save_mpoint(m, store)),
        // Re-saving a storage-backed reference copies its root record;
        // the unit bytes are rewritten into the target store.
        AttrValue::MPointRef(r) => StoredAttr::MPoint(save_mpoint(&r.materialize(), store)),
        AttrValue::MReal(m) => StoredAttr::MReal(save_mreal(m, store)),
        AttrValue::MBool(m) => StoredAttr::MBool(save_mbool(m, store)),
        AttrValue::MRegion(m) => StoredAttr::MRegion(save_mregion(m, store)),
        // A quarantined value has no bytes to save: persisting it would
        // silently launder damage into a "clean" store.
        AttrValue::Quarantined { ty, detail } => {
            return Err(InvariantViolation::with_detail(
                "save: attribute value is quarantined",
                format!("{ty:?}: {detail}"),
            ))
        }
    })
}

/// The schema type a stored attribute decodes to (used to type the
/// [`AttrValue::Quarantined`] placeholder when decoding is impossible).
fn stored_attr_type(a: &StoredAttr) -> AttrType {
    match a {
        StoredAttr::Int(_) => AttrType::Int,
        StoredAttr::Real(_) => AttrType::Real,
        StoredAttr::Str(_) => AttrType::Str,
        StoredAttr::Bool(_) => AttrType::Bool,
        StoredAttr::Instant(_) => AttrType::Instant,
        StoredAttr::Point(_) => AttrType::Point,
        StoredAttr::Points(_) => AttrType::Points,
        StoredAttr::Line(_) => AttrType::Line,
        StoredAttr::Region(_) => AttrType::Region,
        StoredAttr::MPoint(_) => AttrType::MPoint,
        StoredAttr::MReal(_) => AttrType::MReal,
        StoredAttr::MBool(_) => AttrType::MBool,
        StoredAttr::MRegion(_) => AttrType::MRegion,
    }
}

fn load_attr(a: &StoredAttr, store: &PageStore) -> DecodeResult<AttrValue> {
    Ok(match a {
        StoredAttr::Int(x) => AttrValue::Int(x.map(Val::Def).unwrap_or(Val::Undef)),
        StoredAttr::Real(x) => {
            AttrValue::Real(x.map(|v| Val::Def(Real::new(v))).unwrap_or(Val::Undef))
        }
        StoredAttr::Str(x) => AttrValue::Str(match x {
            Some(s) => Val::Def(Text::try_new(s)?),
            None => Val::Undef,
        }),
        StoredAttr::Bool(x) => AttrValue::Bool(x.map(Val::Def).unwrap_or(Val::Undef)),
        StoredAttr::Instant(x) => AttrValue::Instant(
            x.map(|v| Val::Def(mob_base::Instant::from_f64(v)))
                .unwrap_or(Val::Undef),
        ),
        StoredAttr::Point(x) => AttrValue::Point(
            x.map(|(px, py)| Val::Def(mob_spatial::Point::from_f64(px, py)))
                .unwrap_or(Val::Undef),
        ),
        StoredAttr::Points(ps) => AttrValue::Points(load_points(ps, store)?),
        StoredAttr::Line(l) => AttrValue::Line(load_line(l, store)?),
        StoredAttr::Region(r) => AttrValue::Region(load_region(r, store)?),
        StoredAttr::MPoint(m) => {
            AttrValue::MPoint(open_mpoint(m, store, Verify::Full)?.materialize_validated()?)
        }
        StoredAttr::MReal(m) => {
            AttrValue::MReal(open_mreal(m, store, Verify::Full)?.materialize_validated()?)
        }
        StoredAttr::MBool(m) => {
            AttrValue::MBool(open_mbool(m, store, Verify::Full)?.materialize_validated()?)
        }
        StoredAttr::MRegion(m) => {
            AttrValue::MRegion(open_mregion(m, store, Verify::Full)?.materialize_validated()?)
        }
    })
}

/// Persist a relation into the page store.
pub fn save_relation(rel: &Relation, store: &mut PageStore) -> Result<StoredRelation> {
    let mut tuples = Vec::with_capacity(rel.len());
    for t in rel.tuples() {
        let attrs = t
            .values()
            .iter()
            .map(|v| save_attr(v, store))
            .collect::<Result<_>>()?;
        tuples.push(StoredTuple { attrs });
    }
    Ok(StoredRelation {
        schema: rel.schema().attrs().to_vec(),
        tuples,
    })
}

/// Load a relation back from the page store.
///
/// Decoding is fully untrusted: any structural damage in the stored
/// records surfaces as a [`mob_base::DecodeError`], never a panic.
pub fn load_relation(stored: &StoredRelation, store: &PageStore) -> DecodeResult<Relation> {
    let attrs: Vec<(&str, AttrType)> = stored
        .schema
        .iter()
        .map(|(n, t)| (n.as_str(), *t))
        .collect();
    let mut rel = Relation::new(Schema::new(&attrs)?);
    for t in &stored.tuples {
        let values = t
            .attrs
            .iter()
            .map(|a| load_attr(a, store))
            .collect::<DecodeResult<_>>()?;
        rel.insert(Tuple::new(values))?;
    }
    Ok(rel)
}

/// Options for [`Relation::open`] — how a [`Generation`]'s catalog of
/// `moving(point)` roots becomes a queryable relation.
///
/// ```
/// use mob_rel::{OnError, OpenRelOpts};
///
/// let opts = OpenRelOpts::new()
///     .name_attr("flight")
///     .mpoint_attr("trip")
///     .on_error(OnError::SkipAndRecord)
///     .index("fleet/index");
/// assert_eq!(opts.index_root(), Some("fleet/index"));
/// ```
#[derive(Clone, Debug)]
pub struct OpenRelOpts {
    name_attr: String,
    mpoint_attr: String,
    on_error: OnError,
    index: Option<String>,
}

impl Default for OpenRelOpts {
    fn default() -> Self {
        OpenRelOpts::new()
    }
}

impl OpenRelOpts {
    /// Defaults: schema `(name: string, trip: mpoint)`, [`OnError::Fail`],
    /// no index attach.
    #[must_use]
    pub fn new() -> OpenRelOpts {
        OpenRelOpts {
            name_attr: "name".to_string(),
            mpoint_attr: "trip".to_string(),
            on_error: OnError::Fail,
            index: None,
        }
    }

    /// Name of the string attribute carrying the root names.
    #[must_use]
    pub fn name_attr(mut self, name: &str) -> OpenRelOpts {
        self.name_attr = name.to_string();
        self
    }

    /// Name of the `moving(point)` attribute.
    #[must_use]
    pub fn mpoint_attr(mut self, name: &str) -> OpenRelOpts {
        self.mpoint_attr = name.to_string();
        self
    }

    /// Damage policy for quarantined roots (see [`Relation::from_stored`]).
    #[must_use]
    pub fn on_error(mut self, policy: OnError) -> OpenRelOpts {
        self.on_error = policy;
        self
    }

    /// Attach the stored index committed under this root name (a
    /// [`RootRecord::Index`] entry of either leaf layout). A missing, damaged, or unusable
    /// index marks the relation *index-damaged* — scans fall back to
    /// full, recording `index.fallbacks` — and never fails the open.
    #[must_use]
    pub fn index(mut self, root_name: &str) -> OpenRelOpts {
        self.index = Some(root_name.to_string());
        self
    }

    /// The configured index root name, if any.
    #[must_use]
    pub fn index_root(&self) -> Option<&str> {
        self.index.as_deref()
    }
}

impl Relation {
    /// Open a pinned [`Generation`] as a relation: one tuple per
    /// `moving(point)` root, `(name, mpoint-ref)` in catalog order, the
    /// unit arrays decoded lazily from the generation's page store.
    /// Entries of other kinds (indexes, scalars) are skipped — they are
    /// catalog metadata, not fleet members.
    ///
    /// Because a [`Generation`] is immutable, the relation keeps
    /// answering queries bit-for-bit identically while a writer ingests
    /// deltas and compacts newer generations of the same store.
    ///
    /// What the generation already checked is not checked again: a root
    /// it vouches for ([`Generation::checked_mpoint`], written by this
    /// process from checked records) opens with the `O(1)` layout checks
    /// only, every other root with the full structural scan, and the
    /// index tree comes from [`Generation::index_tree`], which decodes
    /// each index root once per lineage of delta commits.
    ///
    /// Damage policy ([`OpenRelOpts::on_error`]): quarantined roots
    /// (recovered degraded) abort under [`OnError::Fail`] or become
    /// [`AttrValue::Quarantined`] placeholders under
    /// [`OnError::SkipAndRecord`], exactly like [`Relation::from_stored`].
    ///
    /// Index attach ([`OpenRelOpts::index`]): the stored tree was built
    /// at the last full snapshot and may be *stale* — later deltas
    /// appended units or created objects. Every root in the
    /// generation's [tail](Generation::tail) contributes its tuple id and
    /// tail cube to one small in-memory tree that scans probe next to
    /// the stored one, so appended units are pruned like indexed ones.
    /// Only quarantined tuples bypass pruning, via the index's `always`
    /// list. A stored tree that does not cover exactly the snapshot's
    /// roots, or fails to load, marks the relation index-damaged (next
    /// scan records `index.fallbacks`).
    ///
    /// # Errors
    ///
    /// Structural damage in the root records, or quarantine under
    /// [`OnError::Fail`].
    pub fn open(generation: &Generation, opts: &OpenRelOpts) -> DecodeResult<Relation> {
        let schema = Schema::new(&[
            (opts.name_attr.as_str(), AttrType::Str),
            (opts.mpoint_attr.as_str(), AttrType::MPoint),
        ])
        .map_err(|e| DecodeError::BadStructure {
            what: "relation open",
            detail: e.to_string(),
        })?;
        let store = generation.store_arc();
        let mut rel = Relation::new(schema);
        let mut tail: Vec<IndexEntry> = Vec::new();
        // Tuples of roots the last full snapshot held: the ones its
        // index can cover.
        let mut base_tuples = 0usize;
        let mut tuple_id = 0u32;
        for (pos, (name, root)) in generation.entries().iter().enumerate() {
            let RootRecord::MPoint(m) = root else {
                continue;
            };
            let opened = match generation.checked_mpoint(pos) {
                Some(checked) => MPointRef::checked(checked),
                None => MPointRef::new(store.clone(), m.clone()),
            };
            let value = match opened {
                Ok(r) => AttrValue::MPointRef(r),
                Err(e @ DecodeError::Quarantined { .. })
                    if opts.on_error == OnError::SkipAndRecord =>
                {
                    mob_obs::metric!("rel.attrs_quarantined").add(1);
                    AttrValue::Quarantined {
                        ty: AttrType::MPoint,
                        detail: e.to_string(),
                    }
                }
                Err(e) => return Err(e),
            };
            if let Some(cube) = generation.tail_cube(name) {
                tail.push(IndexEntry {
                    tuple: tuple_id,
                    unit: 0,
                    cube: *cube,
                });
            }
            let name_val = AttrValue::Str(mob_base::Val::Def(mob_base::Text::try_new(name)?));
            rel.insert(Tuple::new(vec![name_val, value])).map_err(|e| {
                DecodeError::BadStructure {
                    what: "relation open",
                    detail: e.to_string(),
                }
            })?;
            tuple_id = tuple_id.saturating_add(1);
            if pos < generation.snapshot_roots() {
                base_tuples = tuple_id as usize;
            }
        }
        if let Some(index_root) = opts.index.as_deref() {
            let attached = match generation.index_tree(index_root) {
                Ok(tree) => rel
                    .attach_tree(&opts.mpoint_attr, tree, tail, base_tuples)
                    .map_err(|e| DecodeError::BadStructure {
                        what: "relation open",
                        detail: e.to_string(),
                    })?,
                Err(_) => false,
            };
            if !attached {
                // Missing or unusable: fall back loudly, never fail the
                // open because of an access path.
                rel.mark_index_damaged();
                mob_obs::metric!("rel.index_unusable").add(1);
            }
        }
        Ok(rel)
    }

    /// Open a [`StoredRelation`] with an explicit damage policy — the
    /// open path for hand-assembled catalogs and stores recovered
    /// **degraded** (bit rot quarantined some page-store blobs).
    ///
    /// The relation is opened for **query-in-place**: scalar attributes
    /// are loaded eagerly, but every `moving(point)` attribute becomes
    /// an [`AttrValue::MPointRef`] that decodes unit records lazily from
    /// the shared page store, so a single-instant query costs `O(log n)`
    /// record reads instead of materializing all `n` units.
    ///
    /// Under [`OnError::Fail`] any quarantined attribute aborts the
    /// open. Under [`OnError::SkipAndRecord`] a quarantined attribute
    /// becomes an [`AttrValue::Quarantined`] placeholder — the relation
    /// opens with every tuple present, healthy values fully queryable,
    /// and the scans ([`Relation::snapshot_at`],
    /// [`Relation::filter_inside`]) apply their own `on_error` policy to
    /// the damaged tuples. Each placeholder advances the
    /// `rel.attrs_quarantined` registry counter.
    ///
    /// # Errors
    ///
    /// Structural damage (anything other than
    /// [`DecodeError::Quarantined`]) always fails: degradation covers
    /// values whose bytes are *known missing*, not records that decode
    /// to nonsense.
    pub fn from_stored(
        stored: &StoredRelation,
        store: Arc<PageStore>,
        on_error: OnError,
    ) -> DecodeResult<Relation> {
        let attrs: Vec<(&str, AttrType)> = stored
            .schema
            .iter()
            .map(|(n, t)| (n.as_str(), *t))
            .collect();
        let mut rel = Relation::new(Schema::new(&attrs)?);
        for t in &stored.tuples {
            let mut values = Vec::with_capacity(t.attrs.len());
            for a in &t.attrs {
                let loaded = match a {
                    StoredAttr::MPoint(m) => {
                        MPointRef::new(store.clone(), m.clone()).map(AttrValue::MPointRef)
                    }
                    other => load_attr(other, &store),
                };
                values.push(match loaded {
                    Ok(v) => v,
                    Err(e @ DecodeError::Quarantined { .. })
                        if on_error == OnError::SkipAndRecord =>
                    {
                        mob_obs::metric!("rel.attrs_quarantined").add(1);
                        AttrValue::Quarantined {
                            ty: stored_attr_type(a),
                            detail: e.to_string(),
                        }
                    }
                    Err(e) => return Err(e),
                });
            }
            rel.insert(Tuple::new(values))?;
        }
        Ok(rel)
    }
}

/// Account the physical layout of a stored tuple (how many bytes sit in
/// the tuple itself vs. in external page chains).
pub fn tuple_layout(t: &StoredTuple, store: &PageStore) -> TupleLayout {
    // Scalar root fields: conservatively 16 bytes each (value + defined
    // flag + padding), plus per-constructed-value root metadata.
    let mut layout = TupleLayout::with_root(16 * t.attrs.len());
    let mut add = |a: &mob_storage::SavedArray| {
        layout.add_array(a, store);
    };
    for a in &t.attrs {
        match a {
            StoredAttr::Int(_)
            | StoredAttr::Real(_)
            | StoredAttr::Str(_)
            | StoredAttr::Bool(_)
            | StoredAttr::Instant(_)
            | StoredAttr::Point(_) => {}
            StoredAttr::Points(ps) => add(&ps.points),
            StoredAttr::Line(l) => add(&l.halfsegs),
            StoredAttr::Region(r) => {
                add(&r.halfsegments);
                add(&r.cycles);
                add(&r.faces);
            }
            StoredAttr::MPoint(m) | StoredAttr::MReal(m) | StoredAttr::MBool(m) => add(&m.units),
            StoredAttr::MRegion(m) => {
                add(&m.units);
                add(&m.msegments);
                add(&m.mcycles);
                add(&m.mfaces);
            }
        }
    }
    layout
}

/// Rebuild the R-tree index of a pinned [`Generation`] from scratch:
/// open the generation as a relation (no index attached), bulk-load
/// a fresh tree over every `moving(point)` root, and return a new
/// [`StoreFile`] carrying the same data plus the tree committed under
/// `index_root` (a [`RootRecord::Index`] entry with compact 16-bit
/// leaves, tag 12). An entry of
/// that name already in the generation is replaced, not duplicated.
///
/// Returns `Ok(None)` when the generation holds no `moving(point)`
/// roots — there is nothing to index, so the caller (typically the
/// maintenance supervisor) skips the commit.
///
/// # Errors
///
/// Structural damage opening the generation. Quarantined roots do *not*
/// fail the rebuild: they open under [`OnError::SkipAndRecord`] and the
/// tree's `always` list keeps them visible to pruned scans.
///
/// [`StoreFile`]: mob_storage::StoreFile
pub fn rebuild_index_root(
    generation: &Generation,
    opts: &OpenRelOpts,
    index_root: &str,
) -> DecodeResult<Option<mob_storage::StoreFile>> {
    let open = OpenRelOpts::new()
        .name_attr(&opts.name_attr)
        .mpoint_attr(&opts.mpoint_attr)
        .on_error(OnError::SkipAndRecord);
    let mut rel = Relation::open(generation, &open)?;
    if rel.is_empty() {
        return Ok(None);
    }
    rel.build_index(&opts.mpoint_attr)
        .map_err(|e| DecodeError::BadStructure {
            what: "index rebuild",
            detail: e.to_string(),
        })?;
    let tree = rel.index_tree().ok_or_else(|| DecodeError::BadStructure {
        what: "index rebuild",
        detail: "build_index left no tree attached".to_string(),
    })?;
    let mut file = generation.to_store_file();
    let stored = mob_storage::save_index(tree, file.store_mut());
    file.set(index_root, RootRecord::Index(stored));
    mob_obs::metric!("rel.index_rebuilt").add(1);
    Ok(Some(file))
}

/// Package [`rebuild_index_root`] as a maintenance-supervisor
/// [`Rebuilder`]: the closure the supervisor runs (under its retry
/// policy) after every compaction, so scans over the next generation
/// prune through one stored tree that covers every unit again instead
/// of a stale tree plus a tail tree that grows with every delta.
///
/// [`Rebuilder`]: mob_storage::Rebuilder
pub fn index_rebuilder(opts: OpenRelOpts, index_root: String) -> mob_storage::Rebuilder {
    Arc::new(move |generation: &Generation| rebuild_index_root(generation, &opts, &index_root))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::{close_encounters, long_flights, planes_relation};
    use mob_base::t;
    use mob_core::MovingPoint;
    use mob_spatial::pt;

    fn fleet() -> Relation {
        planes_relation(vec![
            (
                "Lufthansa".into(),
                "LH1".into(),
                MovingPoint::from_samples(&[(t(0.0), pt(0.0, 0.0)), (t(4.0), pt(8.0, 0.0))]),
            ),
            (
                "KLM".into(),
                "KL1".into(),
                MovingPoint::from_samples(&[(t(0.0), pt(4.0, -4.0)), (t(4.0), pt(4.0, 4.0))]),
            ),
        ])
    }

    #[test]
    fn relation_roundtrip() {
        let rel = fleet();
        let mut store = PageStore::new();
        let stored = save_relation(&rel, &mut store).unwrap();
        assert_eq!(stored.tuples.len(), 2);
        let back = load_relation(&stored, &store).unwrap();
        assert_eq!(back, rel);
        // Queries agree on original and reloaded data.
        assert_eq!(
            long_flights(&rel, "Lufthansa", 5.0),
            long_flights(&back, "Lufthansa", 5.0)
        );
        assert_eq!(close_encounters(&rel, 1.0), close_encounters(&back, 1.0));
    }

    #[test]
    fn mixed_attribute_relation_roundtrip() {
        use mob_spatial::{rect_ring, Region};
        let schema = Schema::new(&[
            ("name", AttrType::Str),
            ("count", AttrType::Int),
            ("zone", AttrType::Region),
        ])
        .unwrap();
        let mut rel = Relation::new(schema);
        rel.insert(Tuple::new(vec![
            AttrValue::str("alpha"),
            AttrValue::int(7),
            AttrValue::Region(Region::from_ring(rect_ring(0.0, 0.0, 3.0, 3.0))),
        ]))
        .unwrap();
        rel.insert(Tuple::new(vec![
            AttrValue::Str(Val::Undef),
            AttrValue::Int(Val::Undef),
            AttrValue::Region(Region::empty()),
        ]))
        .unwrap();
        let mut store = PageStore::new();
        let stored = save_relation(&rel, &mut store).unwrap();
        let back = load_relation(&stored, &store).unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn layout_accounting() {
        let rel = fleet();
        let mut store = PageStore::new();
        let stored = save_relation(&rel, &mut store).unwrap();
        let layout = tuple_layout(&stored.tuples[0], &store);
        assert!(layout.tuple_bytes() > 0);
        // Small flights fit inline entirely.
        assert!(layout.fully_inline());
    }

    #[test]
    fn every_attribute_type_roundtrips() {
        use mob_core::{MovingBool, MovingReal, MovingRegion};
        use mob_spatial::{rect_ring, Line, Points, Region};
        let schema = Schema::new(&[
            ("p", AttrType::Point),
            ("ps", AttrType::Points),
            ("ti", AttrType::Instant),
            ("l", AttrType::Line),
            ("mr", AttrType::MReal),
            ("mb", AttrType::MBool),
            ("mrg", AttrType::MRegion),
            ("z", AttrType::Region),
        ])
        .unwrap();
        let mp = MovingPoint::from_samples(&[(t(0.0), pt(0.0, 0.0)), (t(2.0), pt(2.0, 2.0))]);
        let region = Region::from_ring(rect_ring(0.0, 0.0, 4.0, 4.0));
        let mregion: MovingRegion = mob_core::Mapping::single(
            mob_core::URegion::stationary(mob_base::Interval::closed(t(0.0), t(2.0)), &region)
                .unwrap(),
        );
        let mreal: MovingReal = mp.speed();
        let mbool: MovingBool = mp.inside_region(&region);
        let mut rel = Relation::new(schema);
        rel.insert(Tuple::new(vec![
            AttrValue::Point(Val::Def(pt(1.0, 1.0))),
            AttrValue::Points(Points::from_points(vec![pt(0.0, 0.0), pt(1.0, 2.0)])),
            AttrValue::Instant(Val::Def(t(3.5))),
            AttrValue::Line(Line::single(mob_spatial::seg(0.0, 0.0, 1.0, 1.0))),
            AttrValue::MReal(mreal),
            AttrValue::MBool(mbool),
            AttrValue::MRegion(mregion),
            AttrValue::Region(region),
        ]))
        .unwrap();
        let mut store = PageStore::new();
        let stored = save_relation(&rel, &mut store).unwrap();
        let back = load_relation(&stored, &store).unwrap();
        // MRegion compares by unit structure; the rest must be identical.
        assert_eq!(back.schema(), rel.schema());
        assert_eq!(back.len(), rel.len());
        for (a, b) in back.tuples()[0]
            .values()
            .iter()
            .zip(rel.tuples()[0].values())
        {
            match (a, b) {
                (AttrValue::MRegion(x), AttrValue::MRegion(y)) => {
                    assert_eq!(x.num_units(), y.num_units());
                    assert_eq!(
                        x.at_instant(t(1.0)).unwrap().area(),
                        y.at_instant(t(1.0)).unwrap().area()
                    );
                }
                _ => assert_eq!(a, b),
            }
        }
        let layout = tuple_layout(&stored.tuples[0], &store);
        assert!(layout.tuple_bytes() > 0);
    }
}
