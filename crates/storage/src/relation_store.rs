//! Storage layout for relations (Sec 2 over Sec 4): one root record per
//! relation holding the schema and the rows. A scalar sits in its row
//! with its ⊥ flag; a constructed value is an ordinary root record of
//! its own in the same catalog, and the row holds its name, so deltas,
//! replay and the tail index keep addressing moving values by name.

use crate::catalog::Catalog;
use mob_base::error::{InvariantViolation, Result};
use mob_base::{DecodeError, DecodeResult, Instant, Real, Text, Val};
use mob_spatial::Point;

/// The attribute types available to relation schemas.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum AttrType {
    /// `int`
    Int,
    /// `real`
    Real,
    /// `string`
    Str,
    /// `bool`
    Bool,
    /// `instant`
    Instant,
    /// `point`
    Point,
    /// `points`
    Points,
    /// `line`
    Line,
    /// `region`
    Region,
    /// `moving(point)` — `mpoint` in the paper's schema notation.
    MPoint,
    /// `moving(real)`
    MReal,
    /// `moving(bool)`
    MBool,
    /// `moving(region)`
    MRegion,
}

impl AttrType {
    /// The scalar types, held in their rows, with their names in schema
    /// notation as a relation root stores them.
    const SCALARS: [(AttrType, &'static str); 6] = [
        (AttrType::Int, "int"),
        (AttrType::Real, "real"),
        (AttrType::Str, "string"),
        (AttrType::Bool, "bool"),
        (AttrType::Instant, "instant"),
        (AttrType::Point, "point"),
    ];

    /// The constructed types, each value a root record of its own, with
    /// their names: the [kind names] of those root records.
    ///
    /// [kind names]: crate::store_file::RootRecord::kind_name
    const CONSTRUCTED: [(AttrType, &'static str); 7] = [
        (AttrType::Points, "points"),
        (AttrType::Line, "line"),
        (AttrType::Region, "region"),
        (AttrType::MPoint, "mpoint"),
        (AttrType::MReal, "mreal"),
        (AttrType::MBool, "mbool"),
        (AttrType::MRegion, "mregion"),
    ];

    /// The type's name in schema notation (`int`, `string`, `mpoint`, …).
    #[must_use]
    pub fn name(self) -> &'static str {
        let mut all = AttrType::SCALARS.iter().chain(&AttrType::CONSTRUCTED);
        let named = all.find(|(ty, _)| *ty == self);
        named.map_or("?", |(_, name)| name)
    }

    /// The type named `name` ([`AttrType::name`]).
    pub(crate) fn from_name(name: &str) -> DecodeResult<AttrType> {
        let mut all = AttrType::SCALARS.iter().chain(&AttrType::CONSTRUCTED);
        let named = all.find(|(_, n)| *n == name);
        named
            .map(|(ty, _)| *ty)
            .ok_or_else(|| DecodeError::BadStructure {
                what: "relation column type",
                detail: format!("unknown attribute type {name:?}"),
            })
    }
}

/// One cell of a stored relation: a scalar (⊥ as [`Val::Undef`]), or
/// the catalog name of a constructed value's root record.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// `int`
    Int(Val<i64>),
    /// `real`
    Real(Val<Real>),
    /// `string`
    Str(Val<Text>),
    /// `bool`
    Bool(Val<bool>),
    /// `instant`
    Instant(Val<Instant>),
    /// `point`
    Point(Val<Point>),
    /// A constructed value: the name of its root record.
    Root(String),
}

impl Cell {
    /// Whether this cell can hold a value of type `ty`.
    fn fits(&self, ty: AttrType) -> bool {
        ty == match self {
            Cell::Int(_) => AttrType::Int,
            Cell::Real(_) => AttrType::Real,
            Cell::Str(_) => AttrType::Str,
            Cell::Bool(_) => AttrType::Bool,
            Cell::Instant(_) => AttrType::Instant,
            Cell::Point(_) => AttrType::Point,
            Cell::Root(_) => return AttrType::CONSTRUCTED.iter().any(|(t, _)| *t == ty),
        }
    }
}

/// A stored relation: its schema and its rows, each row one [`Cell`]
/// per column, of the column's type.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredRelation {
    pub(crate) columns: Vec<(String, AttrType)>,
    pub(crate) rows: usize,
    /// Row after row, `rows × columns.len()` cells.
    pub(crate) cells: Vec<Cell>,
}

impl StoredRelation {
    /// A relation with these columns and no rows.
    #[must_use]
    pub fn new(columns: Vec<(String, AttrType)>) -> StoredRelation {
        StoredRelation {
            columns,
            rows: 0,
            cells: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Errors
    ///
    /// A cell count other than the column count, or a cell that cannot
    /// hold its column's type.
    pub fn push_row(&mut self, row: Vec<Cell>) -> Result<()> {
        let fits = row.len() == self.columns.len()
            && row
                .iter()
                .zip(&self.columns)
                .all(|(c, (_, ty))| c.fits(*ty));
        if !fits {
            return Err(InvariantViolation::with_detail(
                "relation root: row does not match the columns",
                format!("{row:?}"),
            ));
        }
        self.cells.extend(row);
        self.rows += 1;
        Ok(())
    }

    /// Column names and types, in schema order.
    #[must_use]
    pub fn columns(&self) -> &[(String, AttrType)] {
        &self.columns
    }

    /// The rows in order, each one cell per column.
    pub fn rows(&self) -> impl Iterator<Item = &[Cell]> {
        let n = self.columns.len();
        (0..self.rows).map(move |i| self.cells.get(i * n..i * n + n).unwrap_or_default())
    }

    /// Check every value root the rows name: it is in `catalog`, and
    /// its kind is its column's type.
    ///
    /// # Errors
    ///
    /// The first row cell naming a missing root or one of another kind.
    pub fn check_roots(&self, catalog: &Catalog) -> DecodeResult<()> {
        for row in self.rows() {
            for ((column, ty), cell) in self.columns.iter().zip(row) {
                let Cell::Root(name) = cell else { continue };
                let detail = match catalog.get(name) {
                    Some(root) if root.kind_name() == ty.name() => continue,
                    Some(root) => format!("a {}, not a {}", root.kind_name(), ty.name()),
                    None => "missing from the catalog".to_string(),
                };
                return Err(DecodeError::BadStructure {
                    what: "relation root",
                    detail: format!("column {column:?} names {name:?}: {detail}"),
                });
            }
        }
        Ok(())
    }
}
