//! Relation persistence: a stored relation is one catalog root
//! ([`RootRecord::Relation`]: the schema, the scalar cells and the names
//! of the value roots) plus one ordinary root record per constructed
//! value, exactly the shape Sec 4 prescribes for attribute data types
//! ("values are placed under control of the DBMS into memory", each
//! value a root record plus database arrays inline or in external blobs).
//! [`Relation::open`] is the one way back.

use crate::relation::{Relation, Tuple};
use crate::scan::OnError;
use crate::schema::Schema;
use crate::value::{AttrType, AttrValue, MPointRef};
use mob_base::error::{DecodeError, DecodeResult, InvariantViolation, Result};
use mob_base::{Text, Val};
use mob_core::IndexEntry;
use mob_storage::line_store::{load_line, load_points, save_line, save_points};
use mob_storage::mapping_store::{save_mbool, save_mpoint, save_mreal, save_mregion};
use mob_storage::region_store::{load_region, save_region};
use mob_storage::{
    open_mbool, open_mreal, open_mregion, Cell, Generation, PageStore, RootRecord, StoreFile,
    StoredRelation, TupleLayout, Verify,
};
use std::sync::Arc;

/// Persist `rel` into `file` as the relation root `name`
/// ([`RootRecord::Relation`]). Scalar values sit in the root's rows.
/// Every constructed value becomes a root record of its own, named
/// `"{name}/{column}/{row}"` with rows counted from 0, and its cell
/// holds that name. The names are deterministic and distinct: the part
/// after the last `/` is the row number.
///
/// # Errors
///
/// `name`, or a name starting with `"{name}/"`, is already in `file`;
/// or a value is [`AttrValue::Quarantined`].
pub fn save_relation(rel: &Relation, file: &mut StoreFile, name: &str) -> Result<()> {
    let prefix = format!("{name}/");
    if file
        .entries()
        .iter()
        .any(|(n, _)| n == name || n.starts_with(&prefix))
    {
        return Err(InvariantViolation::with_detail(
            "save: relation name already in use",
            name.to_string(),
        ));
    }
    let mut stored = StoredRelation::new(rel.schema().attrs().to_vec());
    for (row, tuple) in rel.tuples().iter().enumerate() {
        let cells = rel
            .schema()
            .attrs()
            .iter()
            .zip(tuple.values())
            .map(|((column, _), v)| save_value(v, file, || format!("{prefix}{column}/{row}")))
            .collect::<Result<_>>()?;
        stored.push_row(cells)?;
    }
    file.put(name, RootRecord::Relation(stored));
    Ok(())
}

/// Save one value: a scalar as its cell, a constructed value as a root
/// named `root_name()` and a cell naming it.
fn save_value(
    v: &AttrValue,
    file: &mut StoreFile,
    root_name: impl FnOnce() -> String,
) -> Result<Cell> {
    let store = file.store_mut();
    let root = match v {
        AttrValue::Int(x) => return Ok(Cell::Int(*x)),
        AttrValue::Real(x) => return Ok(Cell::Real(*x)),
        AttrValue::Str(x) => return Ok(Cell::Str(*x)),
        AttrValue::Bool(x) => return Ok(Cell::Bool(*x)),
        AttrValue::Instant(x) => return Ok(Cell::Instant(*x)),
        AttrValue::Point(x) => return Ok(Cell::Point(*x)),
        AttrValue::Points(ps) => RootRecord::Points(save_points(ps, store)),
        AttrValue::Line(l) => RootRecord::Line(save_line(l, store)),
        AttrValue::Region(r) => RootRecord::Region(save_region(r, store)),
        AttrValue::MPoint(m) => RootRecord::MPoint(save_mpoint(m, store)),
        // Re-saving a storage-backed reference rewrites its units into
        // the target store.
        AttrValue::MPointRef(r) => RootRecord::MPoint(save_mpoint(&r.materialize(), store)),
        AttrValue::MReal(m) => RootRecord::MReal(save_mreal(m, store)),
        AttrValue::MBool(m) => RootRecord::MBool(save_mbool(m, store)),
        AttrValue::MRegion(m) => RootRecord::MRegion(save_mregion(m, store)),
        // A quarantined value has no bytes to save: persisting it would
        // silently launder damage into a "clean" store.
        AttrValue::Quarantined { ty, detail } => {
            return Err(InvariantViolation::with_detail(
                "save: attribute value is quarantined",
                format!("{ty:?}: {detail}"),
            ))
        }
    };
    let name = root_name();
    file.put(name.clone(), root);
    Ok(Cell::Root(name))
}

/// Options for [`Relation::open`]: which relation of a [`Generation`]
/// to open, and how.
///
/// ```
/// use mob_rel::{OnError, OpenRelOpts};
///
/// let opts = OpenRelOpts::new()
///     .relation("planes")
///     .on_error(OnError::SkipAndRecord)
///     .index("planes/index");
/// assert_eq!(opts.index_root(), Some("planes/index"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct OpenRelOpts {
    relation: Option<String>,
    on_error: OnError,
    index: Option<String>,
}

impl OpenRelOpts {
    /// Defaults: the implicit `(name: string, trip: mpoint)` view,
    /// [`OnError::Fail`], no index attach.
    #[must_use]
    pub fn new() -> OpenRelOpts {
        OpenRelOpts::default()
    }

    /// Open the relation root `name` ([`save_relation`]) instead of the
    /// implicit view.
    #[must_use]
    pub fn relation(mut self, name: &str) -> OpenRelOpts {
        self.relation = Some(name.to_string());
        self
    }

    /// Damage policy for quarantined roots (see [`Relation::open`]).
    #[must_use]
    pub fn on_error(mut self, policy: OnError) -> OpenRelOpts {
        self.on_error = policy;
        self
    }

    /// Attach the stored index committed under this root name (a
    /// [`RootRecord::Index`] entry of either leaf layout) to the
    /// relation's first `moving(point)` attribute. A missing, damaged,
    /// or unusable index marks the relation *index-damaged* — scans
    /// fall back to full, recording `index.fallbacks` — and never fails
    /// the open.
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
    /// Open a relation of a pinned [`Generation`]: the relation root
    /// [`OpenRelOpts::relation`] names ([`save_relation`]), its schema
    /// and rows in order; or, without one, the implicit view `(name:
    /// string, trip: mpoint)` with one tuple per `moving(point)` root in
    /// catalog order. Both go through one row builder, and every value
    /// root through one path: a `moving(point)` root becomes an
    /// [`AttrValue::MPointRef`] decoded lazily from the generation's page
    /// store, any other constructed value is loaded and validated; a
    /// scalar comes from its row.
    /// A generation is immutable, so the relation keeps answering
    /// bit-for-bit identically while a writer commits newer generations.
    ///
    /// What the generation already checked is not checked again: a root
    /// it vouches for ([`Generation::checked_mpoint`]) opens with the
    /// `O(1)` layout checks only, every other `moving(point)` root with
    /// the full structural scan, and the index tree comes from
    /// [`Generation::index_tree`], decoded once per lineage of commits.
    ///
    /// Damage policy ([`OpenRelOpts::on_error`]): a quarantined value
    /// (recovered degraded) aborts the open under [`OnError::Fail`]; under
    /// [`OnError::SkipAndRecord`] it becomes an [`AttrValue::Quarantined`]
    /// placeholder, counted in `rel.attrs_quarantined`, and the scans
    /// apply their own `on_error` policy to it.
    ///
    /// Index attach ([`OpenRelOpts::index`]): the stored tree, built at
    /// the last full snapshot, may be *stale*. Each tuple whose indexed
    /// root is in the generation's [tail](Generation::tail) adds its tail
    /// cube to a small in-memory tree probed next to the stored one, and
    /// quarantined tuples bypass pruning via the `always` list. A tree
    /// that does not cover exactly the snapshot's tuples, or fails to
    /// load, marks the relation index-damaged (`index.fallbacks`).
    ///
    /// # Errors
    ///
    /// No relation root of that name; structural damage (a dangling
    /// value-root name, a root of the wrong kind, records that decode to
    /// nonsense); or quarantine under [`OnError::Fail`].
    pub fn open(generation: &Generation, opts: &OpenRelOpts) -> DecodeResult<Relation> {
        let stored = match opts.relation.as_deref() {
            Some(name) => Some(stored_relation(generation, name)?),
            None => None,
        };
        let schema = match stored {
            Some(r) => {
                let attrs: Vec<(&str, AttrType)> =
                    r.columns().iter().map(|(n, t)| (n.as_str(), *t)).collect();
                Schema::new(&attrs)?
            }
            None => Schema::new(&[("name", AttrType::Str), ("trip", AttrType::MPoint)])?,
        };
        let indexed = indexed_column(&schema);
        let mut rel = Relation::new(schema);
        // One entry per tuple whose indexed value root is in the tail.
        let mut tail = Vec::new();
        // Tuples whose roots the last full snapshot held: the ones its
        // index can cover.
        let mut base_tuples = 0;
        // The row builder: `values` become the next tuple; `root` names
        // its indexed value root.
        let mut push = |values, root: Option<&str>, in_snapshot| -> DecodeResult<()> {
            if let Some(cube) = root.and_then(|name| generation.tail_cube(name)) {
                let tuple = u32::try_from(rel.len()).unwrap_or(u32::MAX);
                let cube = *cube;
                tail.push(IndexEntry {
                    tuple,
                    unit: 0,
                    cube,
                });
            }
            rel.insert(Tuple::new(values))?;
            if in_snapshot {
                base_tuples = rel.len();
            }
            Ok(())
        };
        match stored {
            Some(r) => {
                for cells in r.rows() {
                    let root = match indexed.and_then(|col| cells.get(col)) {
                        Some(Cell::Root(name)) => Some(name.as_str()),
                        _ => None,
                    };
                    let values = (cells.iter().zip(r.columns()))
                        .map(|(cell, (_, ty))| open_cell(generation, opts.on_error, *ty, cell))
                        .collect::<DecodeResult<_>>()?;
                    push(values, root, true)?;
                }
            }
            None => {
                for (slot, (name, root)) in generation.entries().iter().enumerate() {
                    if let RootRecord::MPoint(_) = root {
                        let trip = open_root(
                            generation,
                            opts.on_error,
                            AttrType::MPoint,
                            Some(slot),
                            name,
                        )?;
                        let name_value = AttrValue::Str(Val::Def(Text::try_new(name)?));
                        push(
                            vec![name_value, trip],
                            Some(name),
                            slot < generation.snapshot_roots(),
                        )?;
                    }
                }
            }
        }
        let Some(index_root) = opts.index.as_deref() else {
            return Ok(rel);
        };
        let attr = indexed.and_then(|col| rel.schema().attrs().get(col));
        let attr = attr.map(|(name, _)| name.clone());
        let attached = match (generation.index_tree(index_root), attr) {
            (Ok(tree), Some(attr)) => rel.attach_tree(&attr, tree, tail, base_tuples)?,
            _ => false,
        };
        if !attached {
            // Missing or unusable: fall back loudly, never fail the
            // open because of an access path.
            rel.mark_index_damaged();
            mob_obs::metric!("rel.index_unusable").add(1);
        }
        Ok(rel)
    }
}

/// The relation root `name` of `generation`.
fn stored_relation<'g>(generation: &'g Generation, name: &str) -> DecodeResult<&'g StoredRelation> {
    match generation.get(name) {
        Some(RootRecord::Relation(r)) => Ok(r),
        found => Err(DecodeError::BadStructure {
            what: "relation open",
            detail: format!(
                "entry {name:?} is {}, not a relation",
                found.map_or("missing", RootRecord::kind_name)
            ),
        }),
    }
}

/// The attribute an index covers: the first `moving(point)` one.
fn indexed_column(schema: &Schema) -> Option<usize> {
    schema
        .attrs()
        .iter()
        .position(|(_, ty)| *ty == AttrType::MPoint)
}

/// A cell of a relation root as a value: a scalar from the row, a
/// constructed value through [`open_root`].
fn open_cell(
    g: &Generation,
    on_error: OnError,
    ty: AttrType,
    cell: &Cell,
) -> DecodeResult<AttrValue> {
    Ok(match cell {
        Cell::Int(v) => AttrValue::Int(*v),
        Cell::Real(v) => AttrValue::Real(*v),
        Cell::Str(v) => AttrValue::Str(*v),
        Cell::Bool(v) => AttrValue::Bool(*v),
        Cell::Instant(v) => AttrValue::Instant(*v),
        Cell::Point(v) => AttrValue::Point(*v),
        Cell::Root(name) => return open_root(g, on_error, ty, g.catalog().slot(name), name),
    })
}

/// The one path from a value root to a value, for relation roots and
/// the implicit view alike: the root named `name`, at catalog `slot`
/// when it exists, holding a value of type `ty`. A `moving(point)` root
/// becomes a lazy [`MPointRef`] (layout checks only when the generation
/// marked it, else [`Verify::Full`]); any other constructed value is
/// loaded and validated ([`load_value`]). Quarantined bytes follow the
/// [`OnError`] policy.
fn open_root(
    g: &Generation,
    on_error: OnError,
    ty: AttrType,
    slot: Option<usize>,
    name: &str,
) -> DecodeResult<AttrValue> {
    let opened = match (ty, slot.and_then(|s| g.catalog().root_at(s))) {
        (AttrType::MPoint, Some(RootRecord::MPoint(m))) => {
            match slot.and_then(|s| g.checked_mpoint(s)) {
                Some(checked) => MPointRef::checked(checked),
                None => MPointRef::new(g.store_arc(), m.clone()),
            }
            .map(AttrValue::MPointRef)
        }
        (_, root) => load_value(g.store(), ty, name, root),
    };
    opened.or_else(|e| match e {
        DecodeError::Quarantined { .. } if on_error == OnError::SkipAndRecord => {
            mob_obs::metric!("rel.attrs_quarantined").add(1);
            Ok(AttrValue::Quarantined {
                ty,
                detail: e.to_string(),
            })
        }
        e => Err(e),
    })
}

/// Load and validate the constructed value of type `ty` in `root`, the
/// root named `name`: every type but `moving(point)`, which opens lazily.
fn load_value(
    store: &PageStore,
    ty: AttrType,
    name: &str,
    root: Option<&RootRecord>,
) -> DecodeResult<AttrValue> {
    match (ty, root) {
        (AttrType::MReal, Some(RootRecord::MReal(m))) => open_mreal(m, store, Verify::Full)
            .and_then(|v| v.materialize_validated())
            .map(AttrValue::MReal),
        (AttrType::MBool, Some(RootRecord::MBool(m))) => open_mbool(m, store, Verify::Full)
            .and_then(|v| v.materialize_validated())
            .map(AttrValue::MBool),
        (AttrType::MRegion, Some(RootRecord::MRegion(m))) => open_mregion(m, store, Verify::Full)
            .and_then(|v| v.materialize_validated())
            .map(AttrValue::MRegion),
        (AttrType::Points, Some(RootRecord::Points(p))) => {
            load_points(p, store).map(AttrValue::Points)
        }
        (AttrType::Line, Some(RootRecord::Line(l))) => load_line(l, store).map(AttrValue::Line),
        (AttrType::Region, Some(RootRecord::Region(r))) => {
            load_region(r, store).map(AttrValue::Region)
        }
        (_, found) => Err(DecodeError::BadStructure {
            what: "relation open",
            detail: format!(
                "value root {name:?} is {}, not a {}",
                found.map_or("missing", RootRecord::kind_name),
                ty.name()
            ),
        }),
    }
}

/// Account the physical layout of row `row` of the relation root
/// `relation`: how many bytes sit in the tuple itself vs. in external
/// blobs, and how many pages those occupy (Sec 4).
///
/// # Errors
///
/// No such relation root or row, a value root the row names is
/// missing, or an array of it names a dangling blob.
pub fn tuple_layout(
    generation: &Generation,
    relation: &str,
    row: usize,
) -> DecodeResult<TupleLayout> {
    let missing = |detail: String| DecodeError::BadStructure {
        what: "tuple layout",
        detail,
    };
    let cells = stored_relation(generation, relation)?
        .rows()
        .nth(row)
        .ok_or_else(|| missing(format!("relation {relation:?} has no row {row}")))?;
    // Scalar root fields: conservatively 16 bytes each (value + defined
    // flag + padding), plus per-constructed-value root metadata.
    let mut layout = TupleLayout::with_root(16 * cells.len());
    for cell in cells {
        if let Cell::Root(name) = cell {
            // `arrays_mut` is the record's one list of its arrays: read
            // it on a copy.
            let mut root = (generation.get(name).cloned())
                .ok_or_else(|| missing(format!("no value root named {name:?}")))?;
            for array in root.arrays_mut() {
                layout.add_array(array, generation.store())?;
            }
        }
    }
    Ok(layout)
}

/// Rebuild the R-tree index of a pinned [`Generation`] from scratch:
/// open the relation `opts` selects (no index attached), bulk-load a
/// fresh tree over its first `moving(point)` attribute, and return a
/// new [`StoreFile`] carrying the same data plus the tree committed
/// under `index_root` (a [`RootRecord::Index`] entry with compact
/// 16-bit leaves, tag 12). An entry of that name already in the
/// generation is replaced, not duplicated.
///
/// Returns `Ok(None)` when the relation is empty or has no
/// `moving(point)` attribute — there is nothing to index, so the caller
/// (typically the maintenance supervisor) skips the commit.
///
/// # Errors
///
/// Structural damage opening the generation. Quarantined roots do *not*
/// fail the rebuild: they open under [`OnError::SkipAndRecord`] and the
/// tree's `always` list keeps them visible to pruned scans.
pub fn rebuild_index_root(
    generation: &Generation,
    opts: &OpenRelOpts,
    index_root: &str,
) -> DecodeResult<Option<StoreFile>> {
    let open = OpenRelOpts {
        relation: opts.relation.clone(),
        on_error: OnError::SkipAndRecord,
        index: None,
    };
    let mut rel = Relation::open(generation, &open)?;
    let attr = match indexed_column(rel.schema()).and_then(|col| rel.schema().attrs().get(col)) {
        Some((attr, _)) if !rel.is_empty() => attr.clone(),
        _ => return Ok(None),
    };
    rel.build_index(&attr)
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
    use mob_storage::{DurableStore, MemIo};

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

    /// Save `rel` as the relation root `"rel"`, commit it to an
    /// in-memory durable store, reopen the store and return its head.
    fn committed(rel: &Relation) -> Arc<Generation> {
        let mut file = StoreFile::new();
        save_relation(rel, &mut file, "rel").unwrap();
        let dir = MemIo::new();
        let mut durable = DurableStore::options().open(dir.clone()).unwrap();
        let mut txn = durable.begin();
        txn.put_store_file(&file).unwrap();
        txn.commit().unwrap();
        let reopened = DurableStore::options().open(dir).unwrap();
        reopened.snapshot().unwrap()
    }

    /// `rel` saved, committed, reopened and opened again.
    fn roundtrip(rel: &Relation) -> Relation {
        Relation::open(&committed(rel), &OpenRelOpts::new().relation("rel")).unwrap()
    }

    /// Equal values, a stored `moving(point)` compared by its units.
    fn assert_same(a: &Relation, b: &Relation) {
        assert_eq!(a.schema(), b.schema());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.tuples().iter().zip(b.tuples()) {
            for (u, v) in x.values().iter().zip(y.values()) {
                match (u, v) {
                    (AttrValue::MPointRef(r), AttrValue::MPoint(m))
                    | (AttrValue::MPoint(m), AttrValue::MPointRef(r)) => {
                        assert_eq!(&r.materialize(), m);
                    }
                    _ => assert_eq!(u, v),
                }
            }
        }
    }

    #[test]
    fn relation_roundtrip() {
        let rel = fleet();
        let back = roundtrip(&rel);
        assert_same(&back, &rel);
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
        assert_eq!(roundtrip(&rel), rel);
    }

    #[test]
    fn value_roots_are_named_by_relation_column_and_row() {
        let mut file = StoreFile::new();
        save_relation(&fleet(), &mut file, "planes").unwrap();
        let names: Vec<&str> = file.entries().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["planes/flight/0", "planes/flight/1", "planes"]);
        // The name and every name under it are taken now.
        assert!(save_relation(&fleet(), &mut file, "planes").is_err());
        assert!(save_relation(&fleet(), &mut file, "planes/flight").is_err());
        // A relation root opens only by its own name and kind.
        let gen = Generation::from_store_file(1, file, Vec::new());
        for name in ["missing", "planes/flight/0"] {
            assert!(Relation::open(&gen, &OpenRelOpts::new().relation(name)).is_err());
        }
    }

    #[test]
    fn layout_accounting() {
        let gen = committed(&fleet());
        let layout = tuple_layout(&gen, "rel", 0).unwrap();
        assert!(layout.tuple_bytes() > 0);
        // Small flights fit inline entirely.
        assert!(layout.fully_inline());
        assert!(tuple_layout(&gen, "rel", 2).is_err());
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
            ("mp", AttrType::MPoint),
            ("r", AttrType::Real),
            ("b", AttrType::Bool),
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
            AttrValue::MPoint(mp),
            AttrValue::Real(Val::Def(mob_base::r(2.5))),
            AttrValue::Bool(Val::Undef),
        ]))
        .unwrap();
        let gen = committed(&rel);
        let back = Relation::open(&gen, &OpenRelOpts::new().relation("rel")).unwrap();
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
                (AttrValue::MPointRef(x), AttrValue::MPoint(y)) => assert_eq!(&x.materialize(), y),
                _ => assert_eq!(a, b),
            }
        }
        let layout = tuple_layout(&gen, "rel", 0).unwrap();
        assert!(layout.tuple_bytes() > 0);
    }
}
