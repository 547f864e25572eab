//! Relations and the operators needed to run the paper's queries:
//! selection, projection, extension (computed attributes) and the
//! nested-loop join used by the spatio-temporal join of Sec 2 — plus
//! the optional per-relation R-tree index consulted by the scan
//! planner ([`crate::plan`]).

use crate::schema::Schema;
use crate::value::{AttrType, AttrValue};
use mob_base::error::{InvariantViolation, Result};
use mob_core::{run_cubes, IndexEntry, RTree};
use mob_storage::index_store::{load_index, StoredIndex};
use mob_storage::PageStore;
use std::sync::Arc;

/// A tuple: attribute values matching a schema.
#[derive(Clone, PartialEq, Debug)]
pub struct Tuple {
    values: Vec<AttrValue>,
}

impl Tuple {
    /// Build from values (validated against the schema on insert).
    pub fn new(values: Vec<AttrValue>) -> Tuple {
        Tuple { values }
    }

    /// The values.
    pub fn values(&self) -> &[AttrValue] {
        &self.values
    }

    /// Value by position.
    pub fn at(&self, idx: usize) -> &AttrValue {
        &self.values[idx]
    }
}

/// A spatio-temporal index over one `moving(point)` attribute of a
/// relation: a packed base [`RTree`] whose entries each cover a run of
/// consecutive units of one tuple ([`mob_core::run_cubes`]; a tree
/// written with one entry per unit is the special case of one-unit
/// runs), a small *tail* tree over the units appended since the base
/// was built, and the tuples that must bypass pruning entirely.
///
/// `tail` holds one entry per tuple that gained units after the base
/// tree was built: a cube covering every unit it gained, and every unit
/// it has when the base tree never saw it. It is built over the
/// relation's cardinality at attach, so its `num_tuples` records the
/// coverage the planner checks.
///
/// `always` lists the tuple ids neither tree can speak for — tuples
/// carrying a quarantined attribute (their outcome is an *error*, which
/// pruning must not hide), whose indexed attribute yields no unit
/// sequence, or that the base tree does not cover and the tail does not
/// list. They join every candidate set, so the pruned path reports
/// quarantine damage byte-identically to a full scan.
#[derive(Debug)]
pub struct RelIndex {
    pub(crate) attr: usize,
    pub(crate) tree: Arc<RTree>,
    pub(crate) tail: RTree,
    pub(crate) always: Vec<u32>,
}

/// A materialized relation.
///
/// Equality and hashing consider only schema and tuples; the optional
/// index is an access path, never part of the value.
#[derive(Clone, Debug)]
pub struct Relation {
    schema: Schema,
    tuples: Vec<Tuple>,
    index: Option<Arc<RelIndex>>,
    index_damaged: bool,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.schema == other.schema && self.tuples == other.tuples
    }
}

impl Relation {
    /// An empty relation over a schema.
    pub fn new(schema: Schema) -> Relation {
        Relation::from_parts(schema, Vec::new())
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Assemble a relation from parts already known to match (used by
    /// the operators in [`crate::scan`], whose output tuples are
    /// constructed column-by-column from a validated input relation).
    pub(crate) fn from_parts(schema: Schema, tuples: Vec<Tuple>) -> Relation {
        Relation {
            schema,
            tuples,
            index: None,
            index_damaged: false,
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuples.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Insert a tuple, checking arity and types.
    pub fn insert(&mut self, tuple: Tuple) -> Result<()> {
        if tuple.values.len() != self.schema.arity() {
            return Err(InvariantViolation::new("relation: tuple arity mismatch"));
        }
        for (v, (name, ty)) in tuple.values.iter().zip(self.schema.attrs()) {
            if v.attr_type() != *ty {
                return Err(InvariantViolation::with_detail(
                    "relation: attribute type mismatch",
                    format!("{name}: expected {ty:?}, got {:?}", v.attr_type()),
                ));
            }
        }
        self.tuples.push(tuple);
        // The tree no longer covers the relation; drop it rather than
        // serve stale candidate sets.
        self.index = None;
        Ok(())
    }

    /// Build (or rebuild) the R-tree index over the `moving(point)`
    /// attribute `attr` from the relation's own unit summaries: one
    /// [`run_cubes`] entry per run of consecutive units (a run spans at
    /// most an eighth of its tuple's bounding cube on each axis, and a
    /// unit wider than that is a run of its own), bulk-loaded via
    /// [`RTree::bulk`].
    ///
    /// Tuples whose indexed attribute cannot be opened (quarantined, or
    /// any attribute quarantined) go to the index's `always` list so
    /// pruned scans still see them.
    ///
    /// # Errors
    ///
    /// Fails when `attr` is unknown or not of type `mpoint`.
    pub fn build_index(&mut self, attr: &str) -> Result<()> {
        let idx = self.index_attr_checked(attr)?;
        let mut entries = Vec::new();
        let mut always = Vec::new();
        for (i, tup) in self.tuples.iter().enumerate() {
            let i = u32::try_from(i).expect("tuple count fits u32");
            if tup.values().iter().any(AttrValue::is_quarantined) {
                always.push(i);
                continue;
            }
            match tup.at(idx as usize).as_mpoint_seq() {
                Some(seq) => entries.extend(run_cubes(i, &seq)),
                None => always.push(i),
            }
        }
        let tree = Arc::new(RTree::bulk(self.tuples.len(), entries));
        self.index = Some(Arc::new(RelIndex {
            attr: idx as usize,
            tree,
            tail: RTree::bulk(self.tuples.len(), Vec::new()),
            always,
        }));
        self.index_damaged = false;
        Ok(())
    }

    /// Attach a deserialized index ([`StoredIndex`], the index root
    /// record of either leaf layout) to this relation.
    ///
    /// Returns `Ok(true)` when the index loaded, re-validated and
    /// matched the relation's cardinality. `Ok(false)` means the stored
    /// index was unusable — damaged, forged, or built for a different
    /// cardinality; the relation is marked *index-damaged* so the next
    /// scan records a planner fallback (`index.fallbacks`) and runs
    /// full. Results are never wrong either way.
    ///
    /// # Errors
    ///
    /// Fails only on caller misuse: `attr` unknown or not `mpoint`.
    pub fn attach_stored_index(
        &mut self,
        attr: &str,
        stored: &StoredIndex,
        store: &PageStore,
    ) -> Result<bool> {
        match load_index(stored, store) {
            Ok(tree) => {
                let n = self.len();
                self.attach_tree(attr, Arc::new(tree), Vec::new(), n)
            }
            Err(_) => {
                self.index_attr_checked(attr)?;
                self.mark_index_damaged();
                Ok(false)
            }
        }
    }

    /// Attach a loaded base tree that may be *stale* — the attach path
    /// of [`Relation::open`], for relations opened from a [generation]
    /// whose delta chain grew past the committed index; the tree is the
    /// generation's, decoded once per index root.
    ///
    /// The tree must cover exactly tuples `0..base_tuples`, the tuples
    /// that existed when it was built; otherwise it is unusable, the
    /// relation is marked index-damaged and `Ok(false)` is returned as
    /// for a damaged index. `tail` lists what happened since, one entry
    /// per tuple that gained units (the entry's `unit` is ignored): its
    /// cube must cover every unit the tuple gained, and every unit it
    /// has when its id is at or past `base_tuples`. One small in-memory
    /// tree is bulk-loaded over the tail and probed next to the base
    /// one, so appended units are pruned like indexed ones. Tuples at
    /// or past `base_tuples` with no tail entry join the `always` list:
    /// staleness never costs correctness.
    ///
    /// # Errors
    ///
    /// Fails only on caller misuse: `attr` unknown or not `mpoint`.
    ///
    /// [`Relation::open`]: crate::Relation::open
    /// [generation]: mob_storage::Generation
    pub(crate) fn attach_tree(
        &mut self,
        attr: &str,
        tree: Arc<RTree>,
        mut tail: Vec<IndexEntry>,
        base_tuples: usize,
    ) -> Result<bool> {
        let idx = self.index_attr_checked(attr)?;
        let len = self.len();
        if tree.num_tuples() != base_tuples || base_tuples > len {
            self.mark_index_damaged();
            return Ok(false);
        }
        tail.retain(|e| (e.tuple as usize) < len);
        let mut listed: Vec<u32> = tail.iter().map(|e| e.tuple).collect();
        listed.sort_unstable();
        let always: Vec<u32> = (0..len)
            .map(|i| u32::try_from(i).expect("tuple count fits u32"))
            .filter(|&i| {
                let tup = &self.tuples[i as usize];
                tup.values().iter().any(AttrValue::is_quarantined)
                    || tup.at(idx as usize).as_mpoint_seq().is_none()
                    || (i as usize >= base_tuples && listed.binary_search(&i).is_err())
            })
            .collect();
        self.index = Some(Arc::new(RelIndex {
            attr: idx as usize,
            tree,
            tail: RTree::bulk(len, tail),
            always,
        }));
        self.index_damaged = false;
        Ok(true)
    }

    /// Resolve `attr` and require it to be a `moving(point)` column.
    fn index_attr_checked(&self, attr: &str) -> Result<u32> {
        let idx = self.try_attr(attr)?;
        if self.schema.attrs()[idx].1 != AttrType::MPoint {
            return Err(InvariantViolation::with_detail(
                "relation: index attribute is not a moving point",
                attr.to_string(),
            ));
        }
        Ok(u32::try_from(idx).expect("arity fits u32"))
    }

    /// Record that a requested access path could not be attached (used
    /// by [`Relation::open`] so the next scan logs a planner fallback).
    ///
    /// [`Relation::open`]: crate::Relation::open
    pub(crate) fn mark_index_damaged(&mut self) {
        self.index = None;
        self.index_damaged = true;
    }

    /// The attached index, if any (consulted by the scan planner).
    pub(crate) fn index(&self) -> Option<&RelIndex> {
        self.index.as_deref()
    }

    /// The attached index's base R-tree, e.g. for persisting via
    /// [`mob_storage::index_store::save_index`]. After
    /// [`Relation::build_index`] it covers every unit.
    pub fn index_tree(&self) -> Option<&RTree> {
        self.index.as_ref().map(|ix| &*ix.tree)
    }

    /// `true` when an index is attached.
    pub fn has_index(&self) -> bool {
        self.index.is_some()
    }

    /// `true` when the last [`Relation::attach_stored_index`] found the
    /// stored index unusable — the planner will record a fallback.
    pub fn index_damaged(&self) -> bool {
        self.index_damaged
    }

    /// Resolve an attribute name to its index, fallibly — the
    /// resolution path every name-taking operator goes through
    /// ([`Relation::project`], the scans in [`crate::scan`]).
    pub fn try_attr(&self, name: &str) -> Result<usize> {
        self.schema.index_of(name).ok_or_else(|| {
            InvariantViolation::with_detail("relation: unknown attribute", name.to_string())
        })
    }

    /// A named accessor closure factory: `rel.attr("flight")` returns the
    /// attribute index for use in predicates.
    ///
    /// Panics on an unknown name — use [`Relation::try_attr`] when the
    /// name is not statically known to be in the schema.
    pub fn attr(&self, name: &str) -> usize {
        self.try_attr(name)
            .unwrap_or_else(|e| panic!("{}", e.to_string()))
    }

    /// Selection: keep the tuples satisfying the predicate.
    pub fn select(&self, pred: impl Fn(&Tuple) -> bool) -> Relation {
        Relation::from_parts(
            self.schema.clone(),
            self.tuples.iter().filter(|t| pred(t)).cloned().collect(),
        )
    }

    /// Projection onto named attributes.
    pub fn project(&self, names: &[&str]) -> Result<Relation> {
        let schema = self.schema.project(names)?;
        let idx: Vec<usize> = names
            .iter()
            .map(|n| self.try_attr(n))
            .collect::<Result<_>>()?;
        let tuples = self
            .tuples
            .iter()
            .map(|t| Tuple::new(idx.iter().map(|&i| t.values[i].clone()).collect()))
            .collect();
        Ok(Relation::from_parts(schema, tuples))
    }

    /// Extension: add a computed attribute (the algebra's `extend`, used
    /// for terms like `length(trajectory(flight))`).
    pub fn extend(
        &self,
        name: &str,
        ty: AttrType,
        f: impl Fn(&Tuple) -> AttrValue,
    ) -> Result<Relation> {
        let schema = self.schema.extend(name, ty)?;
        let mut tuples = Vec::with_capacity(self.tuples.len());
        for t in &self.tuples {
            let v = f(t);
            if v.attr_type() != ty {
                return Err(InvariantViolation::new(
                    "relation: extend closure returned wrong type",
                ));
            }
            let mut values = t.values.clone();
            values.push(v);
            tuples.push(Tuple::new(values));
        }
        Ok(Relation::from_parts(schema, tuples))
    }

    /// Sort by a key extracted from each tuple (the algebra's `sortby`).
    pub fn order_by<K: Ord>(&self, key: impl Fn(&Tuple) -> K) -> Relation {
        let mut tuples = self.tuples.clone();
        tuples.sort_by_key(|t| key(t));
        Relation::from_parts(self.schema.clone(), tuples)
    }

    /// Remove exact duplicate tuples (the algebra's `rdup`).
    pub fn distinct(&self) -> Relation {
        let mut tuples: Vec<Tuple> = Vec::with_capacity(self.tuples.len());
        for t in &self.tuples {
            if !tuples.contains(t) {
                tuples.push(t.clone());
            }
        }
        Relation::from_parts(self.schema.clone(), tuples)
    }

    /// Aggregate a real-valued expression over all tuples (`sum`).
    pub fn sum_real(&self, f: impl Fn(&Tuple) -> f64) -> f64 {
        self.tuples.iter().map(f).sum()
    }

    /// Maximum of a real-valued expression (`max`), `None` when empty.
    pub fn max_real(&self, f: impl Fn(&Tuple) -> f64) -> Option<f64> {
        self.tuples
            .iter()
            .map(f)
            .max_by(|a, b| a.partial_cmp(b).expect("no NaN aggregates"))
    }

    /// Nested-loop join: concatenate all pairs satisfying the predicate.
    /// The predicate sees the two source tuples.
    pub fn join(&self, other: &Relation, pred: impl Fn(&Tuple, &Tuple) -> bool) -> Relation {
        let schema = self.schema.concat(other.schema());
        let mut tuples = Vec::new();
        for a in &self.tuples {
            for b in &other.tuples {
                if pred(a, b) {
                    let mut values = a.values.clone();
                    values.extend(b.values.iter().cloned());
                    tuples.push(Tuple::new(values));
                }
            }
        }
        Relation::from_parts(schema, tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        let schema = Schema::new(&[("name", AttrType::Str), ("n", AttrType::Int)]).unwrap();
        let mut rel = Relation::new(schema);
        rel.insert(Tuple::new(vec![AttrValue::str("a"), AttrValue::int(1)]))
            .unwrap();
        rel.insert(Tuple::new(vec![AttrValue::str("b"), AttrValue::int(2)]))
            .unwrap();
        rel.insert(Tuple::new(vec![AttrValue::str("c"), AttrValue::int(3)]))
            .unwrap();
        rel
    }

    #[test]
    fn insert_validates() {
        let mut rel = sample();
        assert!(rel.insert(Tuple::new(vec![AttrValue::int(1)])).is_err()); // arity
        assert!(rel
            .insert(Tuple::new(vec![AttrValue::int(1), AttrValue::int(2)]))
            .is_err()); // type
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn select_project_extend() {
        let rel = sample();
        let n = rel.attr("n");
        let big = rel.select(|t| t.at(n).as_int().unwrap() >= 2);
        assert_eq!(big.len(), 2);
        let names = big.project(&["name"]).unwrap();
        assert_eq!(names.schema().arity(), 1);
        assert_eq!(names.tuples()[0].at(0).as_str(), Some("b"));
        let doubled = rel
            .extend("twice", AttrType::Int, |t| {
                AttrValue::int(t.at(n).as_int().unwrap() * 2)
            })
            .unwrap();
        assert_eq!(doubled.tuples()[2].at(2).as_int(), Some(6));
        // Wrong type from closure.
        assert!(rel
            .extend("bad", AttrType::Real, |_| AttrValue::int(1))
            .is_err());
    }

    #[test]
    fn join_pairs() {
        let rel = sample();
        let n = rel.attr("n");
        // Pairs with strictly increasing n: 3 pairs.
        let pairs = rel.join(&rel, |a, b| {
            a.at(n).as_int().unwrap() < b.at(n).as_int().unwrap()
        });
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs.schema().arity(), 4);
        assert!(pairs.schema().index_of("left.name").is_some());
    }

    #[test]
    fn order_distinct_aggregate() {
        let rel = sample();
        let n = rel.attr("n");
        let ordered = rel.order_by(|t| std::cmp::Reverse(t.at(n).as_int().unwrap()));
        assert_eq!(ordered.tuples()[0].at(n).as_int(), Some(3));
        let doubled = {
            let mut r2 = rel.clone();
            for t in rel.tuples() {
                r2.insert(t.clone()).unwrap();
            }
            r2
        };
        assert_eq!(doubled.len(), 6);
        assert_eq!(doubled.distinct().len(), 3);
        assert_eq!(rel.sum_real(|t| t.at(n).as_int().unwrap() as f64), 6.0);
        assert_eq!(
            rel.max_real(|t| t.at(n).as_int().unwrap() as f64),
            Some(3.0)
        );
        assert_eq!(Relation::new(rel.schema().clone()).max_real(|_| 0.0), None);
    }

    #[test]
    fn empty_relation() {
        let rel = Relation::new(Schema::new(&[("x", AttrType::Int)]).unwrap());
        assert!(rel.is_empty());
        assert!(rel.select(|_| true).is_empty());
    }
}
