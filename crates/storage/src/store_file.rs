//! A serialized store file: page store + named root records.
//!
//! Section 4 values are pairs of a *root record* and the database arrays
//! it references. A [`StoreFile`] bundles a whole [`PageStore`] together
//! with a catalog of named, typed root records into one byte buffer —
//! the artifact the `mob-check` auditor and the corruption tests operate
//! on. Decoding is fully untrusted: every length, tag, blob index and
//! array reference is checked, and damage surfaces as a
//! [`DecodeError`], never a panic.
//!
//! ## Layout
//!
//! ```text
//! magic    "MOBSTOR1"                      8 bytes
//! page_sz  u32
//! n_blobs  u32
//! blobs    n_blobs × (len u32, bytes)      in BlobId index order
//! n_entry  u32
//! entries  n_entry × (name_len u32, name utf-8, kind u8, root record)
//! ```
//!
//! Blobs are written in [`BlobId::index`] order, so registering them in
//! file order on load reproduces the same blob ids and every decoded
//! [`SavedArray`] reference stays valid. A decoded blob is a range of
//! the decoded buffer itself: decoding copies no blob byte.

use crate::catalog::Catalog;
use crate::dbarray::{Placement, SavedArray};
use crate::index_store::{self, StoredIndex};
use crate::line_store::{StoredLine, StoredPoints};
use crate::mapping_store::{StoredMLine, StoredMPoints, StoredMRegion, StoredMapping};
use crate::page::{BlobId, PageStore};
use crate::range_store::StoredPeriods;
use crate::record::{get_f64, get_u32, put_f64, put_u32, FixedRecord};
use crate::region_store::StoredRegion;
use crate::relation_store::{AttrType, Cell, StoredRelation};
use mob_base::{DecodeError, DecodeResult, Text, Val};
use std::ops::Range;
use std::sync::Arc;

/// File magic: identifies a serialized store file (version 1).
pub const MAGIC: &[u8; 8] = b"MOBSTOR1";

/// A typed root record held in a store file's catalog.
#[derive(Clone, Debug, PartialEq)]
pub enum RootRecord {
    /// `moving(bool)` (fixed-size units).
    MBool(StoredMapping),
    /// `moving(real)` (fixed-size units).
    MReal(StoredMapping),
    /// `moving(point)` (fixed-size units).
    MPoint(StoredMapping),
    /// `moving(points)` (units + shared motion array).
    MPoints(StoredMPoints),
    /// `moving(line)` (units + shared moving-segment array).
    MLine(StoredMLine),
    /// `moving(region)` (units + msegment/mcycle/mface arrays).
    MRegion(StoredMRegion),
    /// Static `line` (halfsegment array).
    Line(StoredLine),
    /// Static `points`.
    Points(StoredPoints),
    /// Static `region` (halfsegment + cycle + face arrays).
    Region(StoredRegion),
    /// `range(instant)` value.
    Periods(StoredPeriods),
    /// Packed R-tree over unit-run bounding cubes (the query planner's
    /// pruning structure): tag 12 with 16-bit leaf codes in a stored
    /// frame, or tag 11 with `f64` leaf cubes (read only).
    Index(StoredIndex),
    /// A relation: schema, scalar cells and the names of its value
    /// roots (tag 13, written in full images only).
    Relation(StoredRelation),
}

impl RootRecord {
    /// The on-file kind tag.
    fn tag(&self) -> u8 {
        match self {
            RootRecord::MBool(_) => 1,
            RootRecord::MReal(_) => 2,
            RootRecord::MPoint(_) => 3,
            RootRecord::MPoints(_) => 4,
            RootRecord::MLine(_) => 5,
            RootRecord::MRegion(_) => 6,
            RootRecord::Line(_) => 7,
            RootRecord::Points(_) => 8,
            RootRecord::Region(_) => 9,
            RootRecord::Periods(_) => 10,
            RootRecord::Index(ix) => {
                if ix.frame.is_some() {
                    12
                } else {
                    11
                }
            }
            RootRecord::Relation(_) => 13,
        }
    }

    /// Human-readable kind name (used by the auditor's report).
    pub fn kind_name(&self) -> &'static str {
        match self {
            RootRecord::MBool(_) => "mbool",
            RootRecord::MReal(_) => "mreal",
            RootRecord::MPoint(_) => "mpoint",
            RootRecord::MPoints(_) => "mpoints",
            RootRecord::MLine(_) => "mline",
            RootRecord::MRegion(_) => "mregion",
            RootRecord::Line(_) => "line",
            RootRecord::Points(_) => "points",
            RootRecord::Region(_) => "region",
            RootRecord::Periods(_) => "periods",
            RootRecord::Index(_) => "index",
            RootRecord::Relation(_) => "relation",
        }
    }

    /// The database arrays the record references, in record order.
    pub fn arrays_mut(&mut self) -> Vec<&mut SavedArray> {
        match self {
            RootRecord::MBool(m) | RootRecord::MReal(m) | RootRecord::MPoint(m) => {
                vec![&mut m.units]
            }
            RootRecord::MPoints(m) => vec![&mut m.units, &mut m.motions],
            RootRecord::MLine(m) => vec![&mut m.units, &mut m.msegments],
            RootRecord::MRegion(m) => {
                vec![
                    &mut m.units,
                    &mut m.msegments,
                    &mut m.mcycles,
                    &mut m.mfaces,
                ]
            }
            RootRecord::Line(l) => vec![&mut l.halfsegs],
            RootRecord::Points(p) => vec![&mut p.points],
            RootRecord::Region(r) => vec![&mut r.halfsegments, &mut r.cycles, &mut r.faces],
            RootRecord::Periods(p) => vec![&mut p.intervals],
            RootRecord::Index(ix) => vec![&mut ix.entries, &mut ix.nodes],
            RootRecord::Relation(_) => Vec::new(),
        }
    }
}

/// A page store plus a catalog of named root records, serializable to a
/// single byte buffer.
pub struct StoreFile {
    store: PageStore,
    catalog: Catalog,
}

impl StoreFile {
    /// Create an empty store file with the default page size.
    pub fn new() -> StoreFile {
        StoreFile {
            store: PageStore::new(),
            catalog: Catalog::new(),
        }
    }

    /// Create an empty store file with a custom page size.
    ///
    /// Zero and absurd page sizes are a [`DecodeError`] (see
    /// [`crate::page::validate_page_size`]), never a panic — the same
    /// chokepoint a decoded superblock page size goes through.
    pub fn with_page_size(page_size: usize) -> DecodeResult<StoreFile> {
        Ok(StoreFile {
            store: PageStore::with_page_size(page_size)?,
            catalog: Catalog::new(),
        })
    }

    /// The underlying page store (for reads and view construction).
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// Mutable page store access, for `save_*` calls that write blobs.
    pub fn store_mut(&mut self) -> &mut PageStore {
        &mut self.store
    }

    /// Register a named root record in the catalog. A name that is
    /// already present keeps resolving to its first entry.
    pub fn put(&mut self, name: impl Into<String>, root: RootRecord) {
        self.catalog.push(name, root);
    }

    /// Register `root` under `name`, replacing the record of the first
    /// entry of that name in its slot when there is one, so the name
    /// keeps a single entry. One O(n) scan of the entries: a file built
    /// for a single write does not need the name index built for it.
    pub fn set(&mut self, name: &str, root: RootRecord) {
        match self.entries().iter().position(|(n, _)| n == name) {
            Some(slot) => {
                self.catalog.replace_root(slot, root);
            }
            None => self.catalog.push(name, root),
        }
    }

    /// The catalog, in insertion order.
    pub fn entries(&self) -> &[(String, RootRecord)] {
        self.catalog.entries()
    }

    /// The catalog with its name index.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Look up a root record by name (the first entry of that name).
    /// O(log n) through the catalog's name index.
    pub fn get(&self, name: &str) -> Option<&RootRecord> {
        self.catalog.get(name)
    }

    /// Decompose into the page store and the catalog — for layers that
    /// need an **owning** store handle (e.g. wrapping it in an
    /// `Arc<PageStore>` shared across relation-scan workers).
    pub fn into_parts(self) -> (PageStore, Catalog) {
        (self.store, self.catalog)
    }

    /// Reassemble a store file from an owning page store and a catalog —
    /// the inverse of [`StoreFile::into_parts`]. Used by generation
    /// compaction, which rewrites every root into a fresh store and
    /// needs the result serializable as one full snapshot.
    ///
    /// The caller is responsible for the catalog's blob references being
    /// valid in `store`; dangling references surface as [`DecodeError`]s
    /// at serialization or read time, exactly as for a decoded file.
    pub fn from_parts(store: PageStore, catalog: Catalog) -> StoreFile {
        StoreFile { store, catalog }
    }

    /// Serialize the whole store file (blobs + catalog) to bytes. Each
    /// blob is read whole (counting its pages) and copied once, into an
    /// output buffer allocated at its final size.
    pub fn to_bytes(&self) -> DecodeResult<Vec<u8>> {
        let blobs = (0..self.store.num_blobs())
            .map(|i| {
                let id = BlobId::from_index(i);
                self.store.read_blob_range(id, 0, self.store.blob_len(id)?)
            })
            .collect::<DecodeResult<Vec<&[u8]>>>()?;
        let mut catalog = Vec::new();
        put_u32(&mut catalog, crate::checked::count_u32(self.catalog.len()));
        for (name, root) in self.catalog.entries() {
            put_str(&mut catalog, name);
            catalog.push(root.tag());
            write_root(&mut catalog, root);
        }
        let size = blobs.iter().map(|b| 4 + b.len()).sum::<usize>() + 16 + catalog.len();
        let mut out = Vec::with_capacity(size);
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, crate::checked::count_u32(self.store.page_size()));
        put_u32(&mut out, crate::checked::count_u32(blobs.len()));
        for bytes in blobs {
            put_u32(&mut out, crate::checked::count_u32(bytes.len()));
            out.extend_from_slice(bytes);
        }
        out.extend_from_slice(&catalog);
        Ok(out)
    }

    /// Decode a store file from untrusted bytes.
    ///
    /// All structural damage (bad magic, truncations, dangling blob
    /// indices, unknown kind tags, non-UTF-8 names, trailing garbage)
    /// surfaces as a [`DecodeError`]. Value-level damage inside the
    /// blobs is *not* checked here — that is the auditor's job (open
    /// views / load values and validate them).
    ///
    /// The input is copied once, whole; the blobs are ranges of that copy.
    pub fn from_bytes(bytes: &[u8]) -> DecodeResult<StoreFile> {
        Ok(StoreFile::decode(bytes.to_vec())?.0)
    }

    /// Decode a store file from bytes with known-damaged byte ranges,
    /// quarantining blobs instead of trusting their contents.
    ///
    /// `damaged` lists half-open byte ranges `(start, end)` of `bytes`
    /// that failed an integrity check upstream (a durable-file page
    /// frame whose checksum did not match). The decode proceeds as long
    /// as the damage is confined to **blob data bytes**: each affected
    /// blob is [quarantined](PageStore::mark_quarantined) so later reads
    /// surface [`DecodeError::Quarantined`] rather than corrupt data,
    /// while every healthy blob and the whole catalog stay readable.
    ///
    /// Damage touching *structural* bytes (magic, counts, lengths,
    /// catalog entries, root records) means the file's shape itself is
    /// untrusted, so the whole decode fails with
    /// [`DecodeError::Quarantined`] naming the offending range.
    ///
    /// The buffer is taken by value and every blob is a range of it, so
    /// no blob byte is copied. Returns the store file plus the sorted
    /// indices of the blobs that were quarantined.
    pub fn from_bytes_with_damage(
        bytes: Vec<u8>,
        damaged: &[(usize, usize)],
    ) -> DecodeResult<(StoreFile, Vec<usize>)> {
        let (mut file, blob_ranges) = StoreFile::decode(bytes)?;
        for &(dmg_start, dmg_end) in damaged {
            // Every damaged byte must fall inside some blob's data
            // bytes; walk the damage left to right across blob ranges.
            let mut pos = dmg_start;
            while pos < dmg_end {
                let Some((idx, blob)) = blob_ranges
                    .iter()
                    .enumerate()
                    .find(|(_, r)| r.contains(&pos))
                else {
                    return Err(DecodeError::Quarantined {
                        what: "store file structure",
                        detail: format!(
                            "damaged bytes {dmg_start}..{dmg_end} touch structural \
                             byte {pos} outside all blob data"
                        ),
                    });
                };
                file.store.mark_quarantined(BlobId::from_index(idx))?;
                pos = blob.end;
            }
        }
        let quarantined = (0..blob_ranges.len())
            .filter(|&i| file.store.is_quarantined(BlobId::from_index(i)))
            .collect();
        Ok((file, quarantined))
    }

    /// Shared decode path: returns the store file, whose blobs are
    /// ranges of `bytes`, plus, for each blob in [`BlobId::index`] order,
    /// the byte range its **data bytes** (not its length prefix) occupy
    /// inside `bytes`.
    fn decode(bytes: Vec<u8>) -> DecodeResult<(StoreFile, Vec<Range<usize>>)> {
        let buf = Arc::new(bytes);
        let mut cur = Cursor::new(&buf);
        let magic = cur.take(MAGIC.len(), "store file magic")?;
        if magic != MAGIC {
            return Err(DecodeError::BadStructure {
                what: "store file magic",
                detail: format!("expected {MAGIC:?}, found {magic:?}"),
            });
        }
        let page_size = cur.take_u32("store file page size")?;
        let mut store = PageStore::with_page_size(crate::checked::idx_usize(page_size))?;
        let n_blobs = cur.take_u32("store file blob count")?;
        let mut blob_ranges = Vec::new();
        for _ in 0..n_blobs {
            let len = cur.take_u32("store file blob length")?;
            let start = cur.pos;
            cur.take(crate::checked::idx_usize(len), "store file blob bytes")?;
            store.push(Arc::clone(&buf), start..cur.pos);
            blob_ranges.push(start..cur.pos);
        }
        let n_entries = cur.take_u32("store file entry count")?;
        let mut entries = Vec::new();
        for _ in 0..n_entries {
            let name = cur.take_str("store file entry name")?.to_string();
            let tag = cur.take_u8("store file entry kind")?;
            let root = read_root(&mut cur, tag, store.num_blobs())?;
            entries.push((name, root));
        }
        if !cur.at_end() {
            return Err(DecodeError::BadStructure {
                what: "store file",
                detail: format!("{} trailing bytes after catalog", cur.remaining()),
            });
        }
        let catalog = Catalog::from_entries(entries);
        Ok((StoreFile { store, catalog }, blob_ranges))
    }
}

impl Default for StoreFile {
    fn default() -> Self {
        StoreFile::new()
    }
}

/// A bounds-checked byte cursor over untrusted input.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> DecodeResult<&'a [u8]> {
        let end = self.pos.saturating_add(n);
        let s = self.buf.get(self.pos..end).ok_or(DecodeError::Truncated {
            what,
            need: end,
            have: self.buf.len(),
        })?;
        self.pos = end;
        Ok(s)
    }

    fn take_u32(&mut self, what: &'static str) -> DecodeResult<u32> {
        let s = self.take(4, what)?;
        get_u32(s, 0)
    }

    fn take_u8(&mut self, what: &'static str) -> DecodeResult<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn take_f64(&mut self, what: &'static str) -> DecodeResult<f64> {
        let s = self.take(8, what)?;
        get_f64(s, 0)
    }

    /// A `u32` byte length, then that many bytes of UTF-8.
    fn take_str(&mut self, what: &'static str) -> DecodeResult<&'a str> {
        let len = crate::checked::idx_usize(self.take_u32(what)?);
        std::str::from_utf8(self.take(len, what)?).map_err(|_| DecodeError::BadStructure {
            what,
            detail: "not valid UTF-8".to_string(),
        })
    }

    /// A defined flag (0 for ⊥, 1 for a value), then the value.
    fn take_val<T>(
        &mut self,
        take: impl FnOnce(&mut Self) -> DecodeResult<T>,
    ) -> DecodeResult<Val<T>> {
        match self.take_u8("relation cell defined flag")? {
            0 => Ok(Val::Undef),
            1 => take(self).map(Val::Def),
            tag => Err(DecodeError::BadTag {
                what: "relation cell defined flag",
                tag: u32::from(tag),
            }),
        }
    }

    fn take_record<T: FixedRecord>(&mut self) -> DecodeResult<T> {
        T::read(self.take(T::SIZE, T::WHAT)?)
    }

    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

// ---- SavedArray (de)serialization -----------------------------------

const PLACEMENT_INLINE: u8 = 0;
const PLACEMENT_EXTERNAL: u8 = 1;

fn write_saved(out: &mut Vec<u8>, a: &SavedArray) {
    put_u32(out, crate::checked::count_u32(a.count));
    match &a.placement {
        Placement::Inline(b) => {
            out.push(PLACEMENT_INLINE);
            put_u32(out, crate::checked::count_u32(b.len()));
            out.extend_from_slice(b);
        }
        Placement::External(id) => {
            out.push(PLACEMENT_EXTERNAL);
            put_u32(out, crate::checked::count_u32(id.index()));
        }
    }
}

fn read_saved(cur: &mut Cursor<'_>, n_blobs: usize) -> DecodeResult<SavedArray> {
    let count = crate::checked::idx_usize(cur.take_u32("saved array count")?);
    let placement = match cur.take_u8("saved array placement tag")? {
        PLACEMENT_INLINE => {
            let len = crate::checked::idx_usize(cur.take_u32("saved array inline length")?);
            Placement::Inline(cur.take(len, "saved array inline bytes")?.to_vec())
        }
        PLACEMENT_EXTERNAL => {
            let idx = crate::checked::idx_usize(cur.take_u32("saved array blob index")?);
            if idx >= n_blobs {
                return Err(DecodeError::OutOfBounds {
                    what: "saved array blob index",
                    index: idx,
                    bound: n_blobs,
                });
            }
            Placement::External(BlobId::from_index(idx))
        }
        tag => {
            return Err(DecodeError::BadTag {
                what: "saved array placement",
                tag: u32::from(tag),
            })
        }
    };
    Ok(SavedArray { count, placement })
}

// ---- Root record (de)serialization ----------------------------------

fn write_root(out: &mut Vec<u8>, root: &RootRecord) {
    match root {
        RootRecord::MBool(m) | RootRecord::MReal(m) | RootRecord::MPoint(m) => {
            put_u32(out, m.num_units);
            write_saved(out, &m.units);
        }
        RootRecord::MPoints(m) => {
            put_u32(out, m.num_units);
            write_saved(out, &m.units);
            write_saved(out, &m.motions);
        }
        RootRecord::MLine(m) => {
            put_u32(out, m.num_units);
            write_saved(out, &m.units);
            write_saved(out, &m.msegments);
        }
        RootRecord::MRegion(m) => {
            put_u32(out, m.num_units);
            write_saved(out, &m.units);
            write_saved(out, &m.msegments);
            write_saved(out, &m.mcycles);
            write_saved(out, &m.mfaces);
        }
        RootRecord::Line(l) => {
            put_u32(out, l.num_segments);
            put_f64(out, l.length);
            for v in l.bbox {
                put_f64(out, v);
            }
            write_saved(out, &l.halfsegs);
        }
        RootRecord::Points(p) => {
            put_u32(out, p.count);
            write_saved(out, &p.points);
        }
        RootRecord::Region(r) => {
            put_u32(out, r.num_faces);
            put_u32(out, r.num_cycles);
            put_u32(out, r.num_segments);
            put_f64(out, r.area);
            put_f64(out, r.perimeter);
            for v in r.bbox {
                put_f64(out, v);
            }
            write_saved(out, &r.halfsegments);
            write_saved(out, &r.cycles);
            write_saved(out, &r.faces);
        }
        RootRecord::Periods(p) => {
            put_u32(out, p.count);
            write_saved(out, &p.intervals);
        }
        RootRecord::Index(ix) => {
            put_u32(out, ix.num_tuples);
            put_u32(out, ix.fanout);
            if let Some(frame) = &ix.frame {
                index_store::put_cube(out, frame);
            }
            write_saved(out, &ix.entries);
            write_saved(out, &ix.nodes);
        }
        RootRecord::Relation(r) => {
            put_u32(out, crate::checked::count_u32(r.columns.len()));
            for (name, ty) in &r.columns {
                put_str(out, name);
                put_str(out, ty.name());
            }
            put_u32(out, crate::checked::count_u32(r.rows));
            for cell in &r.cells {
                write_cell(out, cell);
            }
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, crate::checked::count_u32(s.len()));
    out.extend_from_slice(s.as_bytes());
}

fn put_val<T>(out: &mut Vec<u8>, v: &Val<T>, put: impl FnOnce(&mut Vec<u8>, &T)) {
    match v {
        Val::Undef => out.push(0),
        Val::Def(x) => {
            out.push(1);
            put(out, x);
        }
    }
}

fn write_cell(out: &mut Vec<u8>, cell: &Cell) {
    match cell {
        Cell::Int(v) => put_val(out, v, |out, x| x.write(out)),
        Cell::Real(v) => put_val(out, v, |out, x| x.write(out)),
        Cell::Str(v) => put_val(out, v, |out, x| put_str(out, x.as_str())),
        Cell::Bool(v) => put_val(out, v, |out, x| x.write(out)),
        Cell::Instant(v) => put_val(out, v, |out, x| x.write(out)),
        Cell::Point(v) => put_val(out, v, |out, x| x.write(out)),
        Cell::Root(name) => put_str(out, name),
    }
}

/// Read one cell of a column of type `ty`.
fn read_cell(cur: &mut Cursor<'_>, ty: AttrType) -> DecodeResult<Cell> {
    Ok(match ty {
        AttrType::Int => Cell::Int(cur.take_val(Cursor::take_record)?),
        AttrType::Real => Cell::Real(cur.take_val(Cursor::take_record)?),
        AttrType::Str => Cell::Str(
            cur.take_val(|cur| Ok(Text::try_new(cur.take_str("relation string cell")?)?))?,
        ),
        AttrType::Bool => Cell::Bool(cur.take_val(Cursor::take_record)?),
        AttrType::Instant => Cell::Instant(cur.take_val(Cursor::take_record)?),
        AttrType::Point => Cell::Point(cur.take_val(Cursor::take_record)?),
        _ => Cell::Root(cur.take_str("relation value root name")?.to_string()),
    })
}

/// Read a relation root: the columns, the row count, then row after row
/// one cell per column. Every cell takes at least one byte, so a forged
/// row count runs out of input instead of allocating.
fn read_relation(cur: &mut Cursor<'_>) -> DecodeResult<StoredRelation> {
    let mut columns = Vec::new();
    for _ in 0..cur.take_u32("relation column count")? {
        let name = cur.take_str("relation column name")?.to_string();
        columns.push((
            name,
            AttrType::from_name(cur.take_str("relation column type")?)?,
        ));
    }
    let rows = crate::checked::idx_usize(cur.take_u32("relation row count")?);
    let n_cells = rows
        .checked_mul(columns.len())
        .ok_or_else(|| DecodeError::BadStructure {
            what: "relation row count",
            detail: format!("{rows} rows of {} columns overflow", columns.len()),
        })?;
    let cells = columns
        .iter()
        .cycle()
        .take(n_cells)
        .map(|(_, ty)| read_cell(cur, *ty))
        .collect::<DecodeResult<Vec<Cell>>>()?;
    Ok(StoredRelation {
        columns,
        rows,
        cells,
    })
}

fn read_root(cur: &mut Cursor<'_>, tag: u8, n_blobs: usize) -> DecodeResult<RootRecord> {
    let root = match tag {
        1..=3 => {
            let m = StoredMapping {
                num_units: cur.take_u32("mapping root units count")?,
                units: read_saved(cur, n_blobs)?,
            };
            match tag {
                1 => RootRecord::MBool(m),
                2 => RootRecord::MReal(m),
                _ => RootRecord::MPoint(m),
            }
        }
        4 => RootRecord::MPoints(StoredMPoints {
            num_units: cur.take_u32("mpoints root units count")?,
            units: read_saved(cur, n_blobs)?,
            motions: read_saved(cur, n_blobs)?,
        }),
        5 => RootRecord::MLine(StoredMLine {
            num_units: cur.take_u32("mline root units count")?,
            units: read_saved(cur, n_blobs)?,
            msegments: read_saved(cur, n_blobs)?,
        }),
        6 => RootRecord::MRegion(StoredMRegion {
            num_units: cur.take_u32("mregion root units count")?,
            units: read_saved(cur, n_blobs)?,
            msegments: read_saved(cur, n_blobs)?,
            mcycles: read_saved(cur, n_blobs)?,
            mfaces: read_saved(cur, n_blobs)?,
        }),
        7 => RootRecord::Line(StoredLine {
            num_segments: cur.take_u32("line root segment count")?,
            length: cur.take_f64("line root length")?,
            bbox: [
                cur.take_f64("line root bbox")?,
                cur.take_f64("line root bbox")?,
                cur.take_f64("line root bbox")?,
                cur.take_f64("line root bbox")?,
            ],
            halfsegs: read_saved(cur, n_blobs)?,
        }),
        8 => RootRecord::Points(StoredPoints {
            count: cur.take_u32("points root count")?,
            points: read_saved(cur, n_blobs)?,
        }),
        9 => RootRecord::Region(StoredRegion {
            num_faces: cur.take_u32("region root face count")?,
            num_cycles: cur.take_u32("region root cycle count")?,
            num_segments: cur.take_u32("region root segment count")?,
            area: cur.take_f64("region root area")?,
            perimeter: cur.take_f64("region root perimeter")?,
            bbox: [
                cur.take_f64("region root bbox")?,
                cur.take_f64("region root bbox")?,
                cur.take_f64("region root bbox")?,
                cur.take_f64("region root bbox")?,
            ],
            halfsegments: read_saved(cur, n_blobs)?,
            cycles: read_saved(cur, n_blobs)?,
            faces: read_saved(cur, n_blobs)?,
        }),
        10 => RootRecord::Periods(StoredPeriods {
            count: cur.take_u32("periods root count")?,
            intervals: read_saved(cur, n_blobs)?,
        }),
        11 | 12 => RootRecord::Index(StoredIndex {
            num_tuples: cur.take_u32("index root tuple count")?,
            fanout: cur.take_u32("index root fanout")?,
            frame: if tag == 12 {
                let mut b = [0.0; 6];
                for v in &mut b {
                    *v = cur.take_f64("index root frame")?;
                }
                Some(index_store::cube_from_bounds(b)?)
            } else {
                None
            },
            entries: read_saved(cur, n_blobs)?,
            nodes: read_saved(cur, n_blobs)?,
        }),
        13 => RootRecord::Relation(read_relation(cur)?),
        t => {
            return Err(DecodeError::BadTag {
                what: "root record kind",
                tag: u32::from(t),
            })
        }
    };
    Ok(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping_store::{save_mbool, save_mpoint};
    use crate::view::{self, Verify};
    use mob_base::{t, Periods, TimeInterval};
    use mob_core::{MovingBool, MovingPoint, UnitSeq};
    use mob_spatial::pt;

    fn sample_mpoint() -> MovingPoint {
        let samples: Vec<_> = (0..40)
            .map(|i| {
                let k = f64::from(i);
                (t(k), pt(k * 0.5, f64::from(i % 7)))
            })
            .collect();
        MovingPoint::from_samples(&samples)
    }

    fn sample_mbool() -> MovingBool {
        let periods = Periods::try_new(vec![TimeInterval::closed(t(0.0), t(1.0))]).unwrap();
        MovingBool::from_periods(&periods, true)
    }

    fn sample_file() -> StoreFile {
        let mut file = StoreFile::with_page_size(256).unwrap();
        let mp = sample_mpoint();
        let stored = save_mpoint(&mp, file.store_mut());
        file.put("trip", RootRecord::MPoint(stored));
        let stored_b = save_mbool(&sample_mbool(), file.store_mut());
        file.put("flag", RootRecord::MBool(stored_b));
        file
    }

    #[test]
    fn roundtrip_preserves_entries_and_values() {
        let file = sample_file();
        let bytes = file.to_bytes().unwrap();
        let back = StoreFile::from_bytes(&bytes).unwrap();
        assert_eq!(back.entries().len(), 2);
        assert_eq!(back.entries()[0].0, "trip");
        assert_eq!(back.entries()[1].0, "flag");
        // The decoded root records open as valid views.
        let Some(RootRecord::MPoint(trip)) = back.get("trip") else {
            panic!("trip is an mpoint root");
        };
        let view = view::open_mpoint(trip, back.store(), Verify::Full).unwrap();
        view.validate().unwrap();
        let orig = sample_mpoint();
        assert_eq!(view.len(), orig.len());
        let loaded = view.materialize_validated().unwrap();
        assert_eq!(loaded.len(), orig.len());
        let Some(RootRecord::MBool(flag)) = back.get("flag") else {
            panic!("flag is an mbool root");
        };
        view::open_mbool(flag, back.store(), Verify::Full)
            .unwrap()
            .validate()
            .unwrap();
    }

    #[test]
    fn open_rejects_missing_names_and_kind_mismatches() {
        let file = crate::Generation::from_store_file(1, sample_file(), Vec::new());
        // Missing name.
        let Err(err) = file.open_mpoint("nope", Verify::Full) else {
            panic!("missing name must fail");
        };
        assert!(matches!(err, DecodeError::BadStructure { .. }), "{err}");
        // Kind mismatch: "flag" is an mbool, not an mpoint.
        let Err(err) = file.open_mpoint("flag", Verify::Full) else {
            panic!("kind mismatch must fail");
        };
        assert!(
            err.to_string().contains("mbool"),
            "mismatch error names the found kind: {err}"
        );
        // Preverified skips the O(n) scan but still resolves the entry.
        assert!(file.open_mpoint("trip", Verify::Preverified).is_ok());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_file().to_bytes().unwrap();
        bytes[0] ^= 0xff;
        assert!(matches!(
            StoreFile::from_bytes(&bytes),
            Err(DecodeError::BadStructure { .. })
        ));
    }

    #[test]
    fn truncations_are_rejected_not_panics() {
        let bytes = sample_file().to_bytes().unwrap();
        for len in 0..bytes.len() {
            assert!(
                StoreFile::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes must fail"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample_file().to_bytes().unwrap();
        bytes.push(0);
        assert!(matches!(
            StoreFile::from_bytes(&bytes),
            Err(DecodeError::BadStructure { .. })
        ));
    }

    #[test]
    fn unknown_kind_tag_is_rejected() {
        let mut file = StoreFile::new();
        let stored = save_mbool(&sample_mbool(), file.store_mut());
        file.put("x", RootRecord::MBool(stored));
        let bytes = file.to_bytes().unwrap();
        // The kind tag byte follows magic(8)+page(4)+nblobs(4)+blobs+
        // nentries(4)+namelen(4)+name(1); with no external blobs the blob
        // section is empty.
        let tag_pos = 8 + 4 + 4 + 4 + 4 + 1;
        let mut bad = bytes.clone();
        assert_eq!(bad[tag_pos], 1, "expected the mbool kind tag");
        bad[tag_pos] = 99;
        assert!(matches!(
            StoreFile::from_bytes(&bad),
            Err(DecodeError::BadTag { .. })
        ));
    }

    #[test]
    fn dangling_blob_index_is_rejected() {
        // A root record whose units array points at blob 7 of an empty
        // blob table: to_bytes succeeds (it only walks real blobs) but
        // from_bytes must reject the dangling reference.
        let mut forged = StoreFile::with_page_size(64).unwrap();
        forged.put(
            "trip",
            RootRecord::MPoint(StoredMapping {
                num_units: 3,
                units: SavedArray {
                    count: 3,
                    placement: Placement::External(BlobId::from_index(7)),
                },
            }),
        );
        let forged_bytes = forged.to_bytes().unwrap();
        assert!(matches!(
            StoreFile::from_bytes(&forged_bytes),
            Err(DecodeError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn zero_and_absurd_page_sizes_are_errors_not_panics() {
        assert!(StoreFile::with_page_size(0).is_err());
        assert!(StoreFile::with_page_size(usize::MAX).is_err());
        // The same damage arriving through serialized bytes: patch the
        // page-size field (bytes 8..12) of a valid file.
        let bytes = sample_file().to_bytes().unwrap();
        for forged_size in [0u32, u32::MAX] {
            let mut bad = bytes.clone();
            bad[8..12].copy_from_slice(&forged_size.to_le_bytes());
            assert!(
                matches!(
                    StoreFile::from_bytes(&bad),
                    Err(DecodeError::BadStructure {
                        what: "page size",
                        ..
                    })
                ),
                "page size {forged_size} must be structural damage"
            );
        }
    }

    #[test]
    fn damage_in_blob_data_quarantines_only_that_blob() {
        let file = sample_file();
        let bytes = file.to_bytes().unwrap();
        let (clean, q) = StoreFile::from_bytes_with_damage(bytes.clone(), &[]).unwrap();
        assert!(q.is_empty());
        assert_eq!(clean.store().num_quarantined(), 0);

        // Locate blob 0's data bytes: magic(8) page(4) nblobs(4) len(4).
        let n_blobs = file.store().num_blobs();
        assert!(n_blobs >= 1, "sample file must have external blobs");
        let blob0_start = 8 + 4 + 4 + 4;
        let blob0_len = file.store().blob_len(BlobId::from_index(0)).unwrap();
        let dmg = (blob0_start + 1, blob0_start + 2);
        let (tolerant, q) = StoreFile::from_bytes_with_damage(bytes.clone(), &[dmg]).unwrap();
        assert_eq!(q, vec![0]);
        assert!(tolerant.store().is_quarantined(BlobId::from_index(0)));
        assert!(matches!(
            tolerant.store().try_read_blob(BlobId::from_index(0)),
            Err(DecodeError::Quarantined { .. })
        ));
        // Whole-blob damage is equivalent.
        let (_, q) = StoreFile::from_bytes_with_damage(
            bytes.clone(),
            &[(blob0_start, blob0_start + blob0_len)],
        )
        .unwrap();
        assert_eq!(q, vec![0]);
        // Empty ranges are ignored.
        let (_, q) =
            StoreFile::from_bytes_with_damage(bytes.clone(), &[(blob0_start, blob0_start)])
                .unwrap();
        assert!(q.is_empty());
    }

    #[test]
    fn damage_in_structural_bytes_fails_the_decode() {
        let bytes = sample_file().to_bytes().unwrap();
        let expect_structural = |damaged: &[(usize, usize)]| match StoreFile::from_bytes_with_damage(
            bytes.clone(),
            damaged,
        ) {
            Err(DecodeError::Quarantined { .. }) => {}
            Err(other) => panic!("expected structural quarantine error, got {other}"),
            Ok(_) => panic!("structural damage {damaged:?} must fail the decode"),
        };
        // The magic is structural.
        expect_structural(&[(0, 4)]);
        // A blob length prefix is structural too: bytes 16..20 hold
        // blob 0's length.
        expect_structural(&[(16, 18)]);
    }

    /// Three mpoints whose unit arrays span many 64-byte pages each,
    /// and the file's bytes.
    fn multi_page_file() -> (StoreFile, Vec<u8>) {
        let mut file = StoreFile::with_page_size(64).unwrap();
        for k in 0..3 {
            let samples: Vec<_> = (0..30 + 10 * k)
                .map(|i| {
                    (
                        t(f64::from(i)),
                        pt(f64::from(i), f64::from(i * i * (k + 1))),
                    )
                })
                .collect();
            let stored = save_mpoint(&MovingPoint::from_samples(&samples), file.store_mut());
            file.put(format!("trip{k}"), RootRecord::MPoint(stored));
        }
        let bytes = file.to_bytes().unwrap();
        (file, bytes)
    }

    /// The offsets of blobs `ids` of `file` inside the buffer `at` spans,
    /// asserting that each is a range of it.
    fn blob_offsets(
        file: &StoreFile,
        at: &std::ops::Range<*const u8>,
        ids: impl IntoIterator<Item = usize>,
    ) -> Vec<usize> {
        ids.into_iter()
            .map(|i| {
                let id = BlobId::from_index(i);
                let len = file.store().blob_len(id).unwrap_or_default();
                let bytes = file.store().read_blob_range(id, 0, len).unwrap_or_default();
                assert!(
                    at.contains(&bytes.as_ptr()),
                    "blob {i} is a range of the input"
                );
                bytes.as_ptr() as usize - at.start as usize
            })
            .collect()
    }

    #[test]
    fn decoding_shares_multi_page_blobs_and_reencodes_byte_identically() {
        let (orig, bytes) = multi_page_file();
        let n_blobs = orig.store().num_blobs();
        assert_eq!(n_blobs, 3);
        let input = bytes.clone();
        let at = input.as_ptr_range();
        let (file, q) = StoreFile::from_bytes_with_damage(input, &[]).unwrap();
        assert!(q.is_empty());
        assert_eq!(file.store().pages_written(), 0, "decoding writes no page");
        for i in 0..n_blobs {
            let id = BlobId::from_index(i);
            assert!(
                orig.store().blob_pages(id).unwrap_or_default() > 10,
                "blob {i}"
            );
            assert_eq!(
                file.store().try_read_blob(id).ok(),
                orig.store().try_read_blob(id).ok()
            );
        }
        // The blobs are ranges of the one input buffer, in file order.
        let offsets = blob_offsets(&file, &at, 0..n_blobs);
        assert!(offsets.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(file.to_bytes().ok(), Some(bytes.clone()));
        assert_eq!(
            StoreFile::from_bytes(&bytes).unwrap().to_bytes().ok(),
            Some(bytes)
        );
    }

    #[test]
    fn damage_to_one_shared_blob_quarantines_only_that_blob() {
        let (orig, bytes) = multi_page_file();
        let input = bytes.clone();
        let at = input.as_ptr_range();
        let (clean, _) = StoreFile::from_bytes_with_damage(input, &[]).unwrap();
        let middle = blob_offsets(&clean, &at, [1])[0];
        let input = bytes.clone();
        let at = input.as_ptr_range();
        let (file, q) =
            StoreFile::from_bytes_with_damage(input, &[(middle + 70, middle + 71)]).unwrap();
        assert_eq!(q, vec![1]);
        // The healthy blobs on both sides are still ranges of the one
        // damaged buffer.
        blob_offsets(&file, &at, [0, 2]);
        let store = file.store();
        assert!(matches!(
            store.try_read_blob(BlobId::from_index(1)),
            Err(DecodeError::Quarantined { .. })
        ));
        for i in [0, 2] {
            let id = BlobId::from_index(i);
            assert!(!store.is_quarantined(id));
            assert_eq!(
                store.try_read_blob(id).ok(),
                orig.store().try_read_blob(id).ok()
            );
        }
        let Some(RootRecord::MPoint(trip2)) = file.get("trip2") else {
            panic!("trip2 is an mpoint root");
        };
        view::open_mpoint(trip2, store, Verify::Full).unwrap();
    }

    #[test]
    fn kind_names_cover_all_variants() {
        let mb = StoredMapping {
            num_units: 0,
            units: SavedArray {
                count: 0,
                placement: Placement::Inline(Vec::new()),
            },
        };
        assert_eq!(RootRecord::MBool(mb.clone()).kind_name(), "mbool");
        assert_eq!(RootRecord::MReal(mb.clone()).kind_name(), "mreal");
        assert_eq!(RootRecord::MPoint(mb).kind_name(), "mpoint");
        let rel = RootRecord::Relation(StoredRelation::new(Vec::new()));
        assert_eq!((rel.kind_name(), rel.tag()), ("relation", 13));
    }
}
