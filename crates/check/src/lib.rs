//! # `mob-check` — deep auditing of serialized moving-object values
//!
//! The storage layer already verifies structure when a value is opened
//! (`open_*` constructors) and decoded (`load_array`); this crate drives
//! those checks over a whole [`StoreFile`] and reports per-entry
//! results, so a store produced by one process can be audited by
//! another without trusting a single byte of it:
//!
//! 1. **decode** the store file itself (magic, blob table, catalog);
//! 2. **open** each moving entry as a storage-backed `MappingView`
//!    (structural verification: layouts, record bounds, interval order);
//! 3. **deep-validate** the view (value well-formedness + canonicity,
//!    Sec 3.2.4) without materializing it;
//! 4. **load** the value into memory and re-validate with the in-memory
//!    [`Validate`] impls — the two paths must agree.
//!
//! Every failure is a reported [`String`]; no input, however corrupt,
//! may panic the auditor (the corruption property tests in
//! `mob-storage` enforce this for the decode layer).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mob_base::Validate;
use mob_storage::store_file::RootRecord;
use mob_storage::{
    generation_from_image, index_store, line_store, mapping_store, parse_delta_name,
    parse_snapshot_name, range_store, region_store, view, AttrType, Catalog, Cell, Discard, Fate,
    PageStore, RecoveredFile, StoreFile, StoredRelation,
};

/// Audit outcome for one catalog entry.
#[derive(Debug)]
pub struct EntryReport {
    /// Entry name (catalog key).
    pub name: String,
    /// Value kind (`mpoint`, `region`, …).
    pub kind: &'static str,
    /// Number of units (moving kinds), components (static kinds) or
    /// rows (relations) found, when decodable.
    pub count: Option<usize>,
    /// `Ok(())` or the first failure, phase-tagged (`open:`, `validate:`,
    /// `load:`).
    pub result: Result<(), String>,
    /// What else the audit learned, printed after the count: for an
    /// index, its leaf record layout and bytes per entry; for a relation,
    /// its column count.
    pub note: Option<String>,
}

impl EntryReport {
    fn ok(name: &str, kind: &'static str, count: usize) -> EntryReport {
        EntryReport {
            name: name.to_string(),
            kind,
            count: Some(count),
            result: Ok(()),
            note: None,
        }
    }

    /// The entry's report line after `tag`: kind, name, then the
    /// failure, or `N units` (`N rows` for a relation) and the note.
    fn line(&self, tag: &str) -> String {
        let (kind, name) = (self.kind, &self.name);
        let noun = if kind == "relation" { "rows" } else { "units" };
        match (&self.result, self.count, &self.note) {
            (Err(err), ..) => format!("{tag} {kind:<10} {name:<20} {err}\n"),
            (Ok(()), Some(n), Some(note)) => {
                format!("{tag} {kind:<10} {name:<20} {n} {noun}, {note}\n")
            }
            (Ok(()), Some(n), None) => format!("{tag} {kind:<10} {name:<20} {n} {noun}\n"),
            (Ok(()), None, _) => format!("{tag} {kind:<10} {name}\n"),
        }
    }

    fn fail(
        name: &str,
        kind: &'static str,
        phase: &str,
        err: impl std::fmt::Display,
    ) -> EntryReport {
        EntryReport {
            name: name.to_string(),
            kind,
            count: None,
            result: Err(format!("{phase}: {err}")),
            note: None,
        }
    }
}

/// Audit outcome for a whole store file.
#[derive(Debug)]
pub struct AuditReport {
    /// Per-entry outcomes, in catalog order.
    pub entries: Vec<EntryReport>,
    /// Pages read while auditing (I/O cost of the audit itself).
    pub pages_read: u64,
    /// Number of blobs in the page store.
    pub num_blobs: usize,
}

impl AuditReport {
    /// `true` if every entry passed.
    pub fn all_ok(&self) -> bool {
        self.entries.iter().all(|e| e.result.is_ok())
    }

    /// Number of failed entries.
    pub fn num_failed(&self) -> usize {
        self.entries.iter().filter(|e| e.result.is_err()).count()
    }

    /// Render the report as the CLI's text output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&e.line(if e.result.is_ok() { "ok  " } else { "FAIL" }));
        }
        out.push_str(&format!(
            "{} entries, {} failed, {} blobs, {} pages read\n",
            self.entries.len(),
            self.num_failed(),
            self.num_blobs,
            self.pages_read
        ));
        out
    }
}

/// Decode and audit a serialized store file.
///
/// A file that fails to decode at all is reported as a single failed
/// pseudo-entry named `<store file>`.
pub fn audit_bytes(bytes: &[u8]) -> AuditReport {
    match StoreFile::from_bytes(bytes) {
        Ok(file) => audit_store_file(&file),
        Err(e) => AuditReport {
            entries: vec![EntryReport::fail("<store file>", "store", "decode", e)],
            pages_read: 0,
            num_blobs: 0,
        },
    }
}

/// Audit every catalog entry of a decoded store file.
pub fn audit_store_file(file: &StoreFile) -> AuditReport {
    let store = file.store();
    store.reset_counters();
    let entries = file
        .entries()
        .iter()
        .map(|(name, root)| audit_entry(name, root, file.catalog(), store))
        .collect();
    AuditReport {
        entries,
        pages_read: store.pages_read(),
        num_blobs: store.num_blobs(),
    }
}

/// Open → deep-validate → load → re-validate one entry of `catalog`. A
/// relation root passes when every value root it names is in `catalog`,
/// of its column's type; the value roots are audited as entries of
/// their own.
pub fn audit_entry(
    name: &str,
    root: &RootRecord,
    catalog: &Catalog,
    store: &PageStore,
) -> EntryReport {
    let kind = root.kind_name();
    macro_rules! moving {
        ($stored:expr, $open:path) => {{
            let view = match $open($stored, store, view::Verify::Full) {
                Ok(v) => v,
                Err(e) => return EntryReport::fail(name, kind, "open", e),
            };
            if let Err(e) = view.validate() {
                return EntryReport::fail(name, kind, "validate", e);
            }
            let loaded = match view.materialize_validated() {
                Ok(v) => v,
                Err(e) => return EntryReport::fail(name, kind, "load", e),
            };
            if let Err(e) = loaded.validate() {
                return EntryReport::fail(name, kind, "revalidate", e);
            }
            EntryReport::ok(name, kind, loaded.num_units())
        }};
    }
    match root {
        RootRecord::MBool(s) => moving!(s, view::open_mbool),
        RootRecord::MReal(s) => moving!(s, view::open_mreal),
        RootRecord::MPoint(s) => moving!(s, view::open_mpoint),
        RootRecord::MPoints(s) => moving!(s, view::open_mpoints),
        RootRecord::MLine(s) => moving!(s, view::open_mline),
        RootRecord::MRegion(s) => moving!(s, view::open_mregion),
        RootRecord::Line(s) => match line_store::load_line(s, store) {
            Ok(l) => EntryReport::ok(name, kind, l.num_segments()),
            Err(e) => EntryReport::fail(name, kind, "load", e),
        },
        RootRecord::Points(s) => match line_store::load_points(s, store) {
            Ok(p) => EntryReport::ok(name, kind, p.len()),
            Err(e) => EntryReport::fail(name, kind, "load", e),
        },
        RootRecord::Region(s) => match region_store::load_region(s, store) {
            Ok(r) => EntryReport::ok(name, kind, r.faces().len()),
            Err(e) => EntryReport::fail(name, kind, "load", e),
        },
        RootRecord::Periods(s) => match range_store::load_periods(s, store) {
            Ok(p) => match p.validate() {
                Ok(()) => EntryReport::ok(name, kind, p.num_intervals()),
                Err(e) => EntryReport::fail(name, kind, "revalidate", e),
            },
            Err(e) => EntryReport::fail(name, kind, "load", e),
        },
        // `load_index` re-runs the full structural validation: the
        // frame equal to the root cube, every child cube contained in
        // its parent, every level tiling the one below, every leaf
        // tuple id in range.
        RootRecord::Index(s) => match index_store::load_index(s, store) {
            Ok(tree) => EntryReport {
                note: Some(format!(
                    "{} leaves, {} B/entry",
                    s.layout(),
                    s.entry_bytes()
                )),
                ..EntryReport::ok(name, kind, tree.num_entries())
            },
            Err(e) => EntryReport::fail(name, kind, "load", e),
        },
        RootRecord::Relation(r) => match r.check_roots(catalog) {
            Ok(()) => EntryReport {
                note: Some(format!("{} columns", r.columns().len())),
                ..EntryReport::ok(name, kind, r.rows().count())
            },
            Err(e) => EntryReport::fail(name, kind, "roots", e),
        },
    }
}

/// Per-entry recoverability verdict of a deep verify
/// ([`deep_verify_image`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Decodes, deep-validates and re-validates cleanly.
    Intact,
    /// The entry's bytes were damaged at rest: the backing blob is
    /// quarantined, the value is unavailable, and the damage is
    /// **isolated** — every other entry still serves.
    Quarantined,
    /// The entry fails structural or semantic checks for a reason other
    /// than quarantine (a decoder-level inconsistency).
    Corrupt,
}

/// Deep-verification report over a **durable snapshot image** (the
/// framed superblock + chunk format `DurableStore` commits).
#[derive(Debug)]
pub struct DeepReport {
    /// Generation number from the superblock, when it verifies.
    pub generation: Option<u64>,
    /// Total payload chunks in the image.
    pub chunks_total: usize,
    /// Chunks whose frame checksum failed (zero-filled for recovery).
    pub chunks_corrupt: usize,
    /// Whole-file structural health: `Err` when the superblock or the
    /// store file's structural bytes are damaged — nothing is
    /// recoverable then.
    pub structural: Result<(), String>,
    /// Per-entry audit outcome and recoverability verdict, in catalog
    /// order (empty when `structural` is `Err`).
    pub entries: Vec<(EntryReport, Verdict)>,
}

impl DeepReport {
    /// `true` when the image opens at all (possibly with quarantined
    /// entries).
    pub fn recoverable(&self) -> bool {
        self.structural.is_ok()
    }

    /// `true` when every entry is [`Verdict::Intact`].
    pub fn all_intact(&self) -> bool {
        self.structural.is_ok() && self.entries.iter().all(|(_, v)| *v == Verdict::Intact)
    }

    /// Number of entries with the given verdict.
    pub fn count(&self, v: Verdict) -> usize {
        self.entries.iter().filter(|(_, got)| *got == v).count()
    }

    /// Render the report as the CLI's text output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        match self.generation {
            Some(generation) => out.push_str(&format!(
                "image: generation {generation}, {} chunks ({} corrupt, zero-filled)\n",
                self.chunks_total, self.chunks_corrupt
            )),
            None => out.push_str("image: superblock unreadable\n"),
        }
        if let Err(e) = &self.structural {
            out.push_str(&format!("verdict: UNRECOVERABLE — {e}\n"));
            return out;
        }
        for (e, v) in &self.entries {
            let tag = match v {
                Verdict::Intact => "intact    ",
                Verdict::Quarantined => "QUARANTINE",
                Verdict::Corrupt => "CORRUPT   ",
            };
            out.push_str(&e.line(tag));
        }
        out.push_str(&format!(
            "verdict: recoverable — {} intact, {} quarantined, {} corrupt\n",
            self.count(Verdict::Intact),
            self.count(Verdict::Quarantined),
            self.count(Verdict::Corrupt),
        ));
        out
    }
}

/// Deep-verify a durable snapshot image: verify the superblock, checksum
/// every chunk frame, open the store file **degraded** (damaged blobs
/// quarantined, structural damage fatal) and give each catalog entry a
/// recoverability [`Verdict`].
///
/// Never panics, whatever the bytes — damage shows up in the report.
pub fn deep_verify_image(bytes: &[u8]) -> DeepReport {
    let img = match mob_storage::decode_image_degraded(bytes) {
        Ok(img) => img,
        Err(e) => {
            return DeepReport {
                generation: None,
                chunks_total: 0,
                chunks_corrupt: 0,
                structural: Err(format!("image: {e}")),
                entries: Vec::new(),
            }
        }
    };
    let (generation, chunks_total, chunks_corrupt) =
        (img.generation, img.chunks_total, img.chunks_corrupt);
    let gen = match generation_from_image(img) {
        Ok(gen) => gen,
        Err(e) => {
            return DeepReport {
                generation: Some(generation),
                chunks_total,
                chunks_corrupt,
                structural: Err(format!("store file: {e}")),
                entries: Vec::new(),
            }
        }
    };
    let store = gen.store();
    let entries = gen
        .entries()
        .iter()
        .map(|(name, root)| {
            let rep = audit_entry(name, root, gen.catalog(), store);
            let verdict = match &rep.result {
                Ok(()) => Verdict::Intact,
                Err(msg) if msg.contains("quarantined") => Verdict::Quarantined,
                Err(_) => Verdict::Corrupt,
            };
            (rep, verdict)
        })
        .collect();
    DeepReport {
        generation: Some(generation),
        chunks_total,
        chunks_corrupt,
        structural: Ok(()),
        entries,
    }
}

/// Probe a durable image's `planes/index` entry: decode degraded, load
/// (and so fully re-validate) the index, and return its candidate tuple
/// set at `at`. `None` when the image is refused or the index is
/// unavailable — the outcomes a query planner degrades through.
fn image_index_candidates(bytes: &[u8], at: mob_base::Instant) -> Option<Vec<u32>> {
    let img = mob_storage::decode_image_degraded(bytes).ok()?;
    let gen = generation_from_image(img).ok()?;
    let RootRecord::Index(stored) = gen.get("planes/index")? else {
        return None;
    };
    let tree = index_store::load_index(stored, gen.store()).ok()?;
    Some(tree.query_instant(at).tuples)
}

/// Hermetic fault-injection self-test (the CLI's `--self-test`): commit
/// the demo store durably in memory, then deep-verify the pristine image
/// plus one single-byte-flipped image per 13-byte stride. Proves, on
/// this very build:
///
/// * the pristine image verifies fully intact;
/// * no damaged image panics the verifier;
/// * every flip is *seen* — either the image is refused (superblock /
///   structural damage) or at least one chunk reports corrupt;
/// * both refusal and per-entry quarantine actually occur across the
///   campaign (the harness is not vacuous);
/// * the index entry never lies: on every damaged image it is either
///   unavailable (refused or quarantined — the planner's fallback) or
///   answers a fixed probe with exactly the pristine candidate set.
///
/// Returns a human-readable summary, or the first violated expectation.
pub fn self_test(seed: u64) -> Result<String, String> {
    use mob_storage::{DurableStore, MemIo, StoreIo};

    let file = demo_store_file(seed);

    // The fixed index probe: the middle of the fleet's lifetime, and
    // the candidate set the pristine tree answers for it.
    let (probe_at, pristine_cands) = {
        let Some(RootRecord::Index(stored)) = file.get("planes/index") else {
            return Err("demo store lost its planes/index entry".to_string());
        };
        let tree = index_store::load_index(stored, file.store())
            .map_err(|e| format!("pristine index: {e}"))?;
        let root = tree.nodes().last().ok_or("pristine index is empty")?;
        let at = mob_base::t((root.cube.t_min.as_f64() + root.cube.t_max.as_f64()) / 2.0);
        (at, tree.query_instant(at).tuples)
    };
    if pristine_cands.is_empty() {
        return Err("pristine index probe matched nothing — probe too weak".to_string());
    }
    let dir = MemIo::new();
    let mut store = DurableStore::options()
        .chunk_size(256)
        .open(dir.clone())
        .map_err(|e| format!("open: {e}"))?;
    let mut txn = store.begin();
    txn.put_store_file(&file)
        .map_err(|e| format!("stage: {e}"))?;
    txn.commit().map_err(|e| format!("commit: {e}"))?;
    let snaps: Vec<String> = dir
        .list()
        .map_err(|e| format!("list: {e}"))?
        .into_iter()
        .filter(|n| n.starts_with("snap-"))
        .collect();
    let [snap] = snaps.as_slice() else {
        return Err(format!("expected exactly one snapshot, found {snaps:?}"));
    };
    let image = dir
        .read_file(snap)
        .map_err(|e| format!("read {snap}: {e}"))?;

    // A relation naming a value root the catalog lacks fails its audit.
    let mut dangling = file;
    let mut rel = StoredRelation::new(vec![("flight".to_string(), AttrType::MPoint)]);
    rel.push_row(vec![Cell::Root("plane/missing".to_string())])
        .map_err(|e| format!("dangling relation: {e}"))?;
    dangling.set("planes", RootRecord::Relation(rel));
    let flagged = audit_store_file(&dangling)
        .entries
        .iter()
        .any(|e| e.name == "planes" && e.result.is_err());
    if !flagged {
        return Err("a relation naming a missing value root audited clean".to_string());
    }

    let pristine = deep_verify_image(&image);
    if !pristine.all_intact() {
        return Err(format!(
            "pristine image must verify intact:\n{}",
            pristine.render()
        ));
    }

    let (mut refused, mut with_quarantine, mut with_corrupt, mut fully_intact) =
        (0u32, 0u32, 0u32, 0u32);
    let (mut index_served, mut index_fallback) = (0u32, 0u32);
    let mut cases = 0u32;
    for pos in (0..image.len()).step_by(13) {
        let mut bad = image.clone();
        bad[pos] ^= 0x40;

        // The index contract: whatever the flip hit, the index is
        // either unavailable (a planner fallback) or exactly right.
        match image_index_candidates(&bad, probe_at) {
            Some(cands) if cands != pristine_cands => {
                return Err(format!(
                    "flip at byte {pos}: index served a WRONG candidate set \
                     ({cands:?} instead of {pristine_cands:?})"
                ));
            }
            Some(_) => index_served += 1,
            None => index_fallback += 1,
        }

        let rep = deep_verify_image(&bad);
        cases += 1;
        if rep.structural.is_err() {
            refused += 1;
            continue;
        }
        if rep.chunks_corrupt == 0 {
            return Err(format!(
                "flip at byte {pos} went unnoticed: image recovered with zero corrupt chunks"
            ));
        }
        if rep.count(Verdict::Corrupt) > 0 {
            with_corrupt += 1;
        } else if rep.count(Verdict::Quarantined) > 0 {
            with_quarantine += 1;
        } else {
            fully_intact += 1;
        }
    }
    if refused == 0 {
        return Err(
            "no flip ever made the verifier refuse the image — superblock damage untested"
                .to_string(),
        );
    }
    if with_quarantine == 0 {
        return Err("no flip ever quarantined an entry — degradation path untested".to_string());
    }
    if index_fallback == 0 {
        return Err("no flip ever made the index unavailable — index frames untested".to_string());
    }
    Ok(format!(
        "self-test ok: {cases} damaged images — {refused} refused, \
         {with_quarantine} with quarantined entries, {with_corrupt} with corrupt entries, \
         {fully_intact} recovered fully intact (damage in unreferenced bytes); \
         index probe: {index_served} served (all byte-exact), {index_fallback} fell back; \
         pristine image intact ({} entries)",
        pristine.entries.len()
    ))
}

/// Build the deterministic demo store file the CLI's `--demo` mode
/// writes: one entry per root-record kind, generated from the seeded
/// workload generators, and the relation `planes(airline, id, flight)`
/// over the flights.
pub fn demo_store_file(seed: u64) -> StoreFile {
    use mob_gen::{moving_front, plane_fleet, storm, FrontConfig, GridNetwork, StormConfig};

    let mut file = StoreFile::new();

    let planes = plane_fleet(seed, 2, 12);
    let text = |s: &str| {
        Cell::Str(mob_base::Text::try_new(s).map_or(mob_base::Val::Undef, mob_base::Val::Def))
    };
    let mut relation = StoredRelation::new(vec![
        ("airline".to_string(), AttrType::Str),
        ("id".to_string(), AttrType::Str),
        ("flight".to_string(), AttrType::MPoint),
    ]);
    for plane in &planes {
        let stored = mapping_store::save_mpoint(&plane.flight, file.store_mut());
        let root = format!("plane/{}", plane.id);
        file.put(root.clone(), RootRecord::MPoint(stored));
        relation
            .push_row(vec![
                text(&plane.airline),
                text(&plane.id),
                Cell::Root(root),
            ])
            .expect("the cells match the columns");
    }
    file.put("planes", RootRecord::Relation(relation));

    let net = GridNetwork::new(4, 100.0);
    let taxi = net.random_drive(seed ^ 1, 30, 5.0);
    let stored = mapping_store::save_mpoint(&taxi, file.store_mut());
    file.put("taxi/0", RootRecord::MPoint(stored));
    let stored = line_store::save_line(&net.as_line(), file.store_mut());
    file.put("network", RootRecord::Line(stored));

    let storm_region = storm(seed ^ 2, 6, 8);
    let stored = mapping_store::save_mregion(&storm_region, file.store_mut());
    file.put("storm", RootRecord::MRegion(stored));
    let eye = mob_gen::storm_with_eye(seed ^ 3, &StormConfig::default());
    let stored = mapping_store::save_mregion(&eye, file.store_mut());
    file.put("storm/eye", RootRecord::MRegion(stored));

    let front = moving_front(seed ^ 4, &FrontConfig::default());
    let stored = mapping_store::save_mline(&front, file.store_mut());
    file.put("front", RootRecord::MLine(stored));

    // The planner's pruning structure: an R-tree over the fleet's
    // per-unit bounding cubes, one leaf entry per flight unit.
    let mut cubes = Vec::new();
    for (i, plane) in planes.iter().enumerate() {
        cubes.extend(mob_core::unit_cubes(i as u32, &plane.flight));
    }
    let tree = mob_core::RTree::bulk(planes.len(), cubes);
    let stored = index_store::save_index(&tree, file.store_mut());
    file.put("planes/index", RootRecord::Index(stored));

    // Derived values exercise the remaining kinds.
    let deftime = taxi.deftime();
    let stored = range_store::save_periods(&deftime, file.store_mut());
    file.put("taxi/0/deftime", RootRecord::Periods(stored));
    let speed = distance_pair(&planes);
    let stored = mapping_store::save_mreal(&speed, file.store_mut());
    file.put("planes/distance", RootRecord::MReal(stored));

    file
}

fn distance_pair(planes: &[mob_gen::Plane]) -> mob_core::MovingReal {
    match planes {
        [a, b, ..] => mob_core::distance_seq(&a.flight, &b.flight),
        _ => mob_core::Mapping::empty(),
    }
}

/// Outcome of auditing a durable directory's snapshot + delta chain:
/// the record of the recovery [`mob_storage::StoreOptions::open`]
/// performs, computed by the same routine ([`mob_storage::recover`]).
#[derive(Debug)]
pub struct ChainReport {
    /// Every file with the fate recovery gives it, sorted by name.
    pub files: Vec<RecoveredFile>,
    /// Generation of the newest intact snapshot (recovery's base), if
    /// any snapshot decodes.
    pub base: Option<u64>,
    /// Generation recovery reaches after replaying the contiguous delta
    /// chain above `base`; `None` when neither a snapshot nor a delta
    /// recovers.
    pub head: Option<u64>,
}

impl ChainReport {
    /// `true` when recovery discards no file — the directory recovers
    /// to `head` with nothing lost or shadowed.
    pub fn all_ok(&self) -> bool {
        self.files
            .iter()
            .all(|f| !matches!(f.fate, Fate::Discarded(_)))
    }

    /// Render the report as the CLI's text output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.files {
            let role = match (parse_snapshot_name(&f.name), parse_delta_name(&f.name)) {
                (Some(g), _) => format!("snapshot g={g}"),
                (_, Some(g)) => format!("delta    g={g}"),
                _ if f.name.starts_with("tmp-") => "tmp".to_string(),
                _ => "other".to_string(),
            };
            let verdict = match &f.fate {
                Fate::Base => Ok("recovery base".to_string()),
                Fate::Fallback => Ok("previous snapshot (recovery fallback)".to_string()),
                Fate::Replayed { batches, bytes } => Ok(format!(
                    "replayed: {batches} object batch(es), {bytes} bytes"
                )),
                Fate::Ignored => Ok("ignored by recovery".to_string()),
                Fate::Discarded(why) => Err(match why {
                    Discard::TornSnapshot(e) => format!("torn or forged snapshot: {e}"),
                    Discard::Superseded => "stale: older than the recovery fallback".to_string(),
                    Discard::Shadowed => "shadowed: generation at or below the base".to_string(),
                    Discard::ChainGap => {
                        "chain gap: a generation below it is missing or discarded".to_string()
                    }
                    Discard::Undecodable(e) => format!("undecodable: {e}"),
                    Discard::Inapplicable(e) => format!("inapplicable: {e}"),
                    Discard::TmpLeftover => {
                        "leftover shadow file from a crashed commit".to_string()
                    }
                }),
            };
            match verdict {
                Ok(note) => out.push_str(&format!("ok   {:<28} {role}  {note}\n", f.name)),
                Err(err) => out.push_str(&format!("FAIL {:<28} {role}  {err}\n", f.name)),
            }
        }
        match (self.base, self.head) {
            (Some(b), Some(h)) => out.push_str(&format!(
                "chain: base snapshot g={b}, replays to g={h} ({} files)\n",
                self.files.len()
            )),
            (None, Some(h)) => out.push_str(&format!(
                "chain: genesis delta chain, replays to g={h} ({} files)\n",
                self.files.len()
            )),
            _ => out.push_str(&format!(
                "chain: no intact snapshot ({} files)\n",
                self.files.len()
            )),
        }
        out
    }
}

/// Audit a durable directory's snapshot/delta chain without changing
/// it: run recovery's own read-only routine ([`mob_storage::recover`],
/// strict, as a default open) and report its record. Every file the
/// open would remove — torn or superseded snapshots, shadowed,
/// unreachable, undecodable or inapplicable deltas, leftover shadow
/// files — fails the audit; the previous snapshot that full commits
/// keep as the fallback is healthy.
///
/// A directory that recovery refuses (unlistable, or a base snapshot
/// whose store file does not decode) is an `Err`, as the open is.
pub fn audit_chain<I: mob_storage::StoreIo>(io: &I) -> Result<ChainReport, String> {
    let (head, recovery) =
        mob_storage::recover(io, false).map_err(|e| format!("recovery refuses: {e}"))?;
    let replayed = recovery.replayed().0 > 0;
    Ok(ChainReport {
        head: (recovery.base.is_some() || replayed).then(|| head.number()),
        base: recovery.base,
        files: recovery.files,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_store_audits_clean() {
        let file = demo_store_file(42);
        let report = audit_store_file(&file);
        assert!(report.all_ok(), "demo audit failed:\n{}", report.render());
        assert!(report.entries.len() >= 7);
        assert!(
            report.render().contains("2 rows, 3 columns"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn demo_roundtrip_audits_clean() {
        let bytes = demo_store_file(7).to_bytes().unwrap();
        let report = audit_bytes(&bytes);
        assert!(
            report.all_ok(),
            "roundtrip audit failed:\n{}",
            report.render()
        );
    }

    #[test]
    fn audit_reports_the_index_leaf_layout() {
        let report = audit_store_file(&demo_store_file(42));
        assert!(report.all_ok(), "{}", report.render());
        assert!(
            report.render().contains("u16 leaves, 20 B/entry"),
            "{}",
            report.render()
        );
        // A store written before compact leaves: f64 cubes, audited clean.
        let old = audit_bytes(include_bytes!(
            "../../storage/tests/fixtures/index_tag11.mob"
        ));
        assert!(old.all_ok(), "{}", old.render());
        assert_eq!(old.entries.len(), 7, "six tracks and their index");
        assert!(
            old.render().contains("f64 leaves, 56 B/entry"),
            "{}",
            old.render()
        );
    }

    #[test]
    fn corrupt_bytes_fail_without_panic() {
        let bytes = demo_store_file(3).to_bytes().unwrap();
        // Flip one byte in each 97-byte stride across the whole file; the
        // audit must never panic, and flips in structural fields must be
        // reported as failures (value-field flips may legitimately decode
        // to different-but-valid values).
        for pos in (0..bytes.len()).step_by(97) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0xff;
            let _ = audit_bytes(&bad); // must not panic
        }
        // Truncations must always fail.
        let report = audit_bytes(&bytes[..bytes.len() / 2]);
        assert!(!report.all_ok());
    }

    #[test]
    fn deep_verify_accepts_a_pristine_image_and_survives_damage() {
        use mob_storage::{DurableStore, MemIo, StoreIo};

        let dir = MemIo::new();
        let mut store = DurableStore::options()
            .chunk_size(256)
            .open(dir.clone())
            .unwrap();
        let mut txn = store.begin();
        txn.put_store_file(&demo_store_file(11)).unwrap();
        txn.commit().unwrap();
        let snap = dir
            .list()
            .unwrap()
            .into_iter()
            .find(|n| n.starts_with("snap-"))
            .unwrap();
        let image = dir.read_file(&snap).unwrap();

        let report = deep_verify_image(&image);
        assert!(report.all_intact(), "pristine:\n{}", report.render());
        assert!(report.recoverable());
        assert!(report.render().contains("verdict: recoverable"));

        // Damage never panics the verifier; whatever survives renders.
        for pos in (0..image.len()).step_by(131) {
            let mut bad = image.clone();
            bad[pos] ^= 0x08;
            let rep = deep_verify_image(&bad);
            let _ = rep.render();
            assert!(
                rep.structural.is_err() || rep.chunks_corrupt >= 1,
                "flip at {pos} invisible to the deep verifier"
            );
        }

        // Garbage is refused, not panicked on.
        assert!(!deep_verify_image(b"not an image").recoverable());
    }

    #[test]
    fn self_test_passes() {
        let summary = self_test(42).expect("self-test must pass on a healthy build");
        assert!(summary.contains("self-test ok"), "{summary}");
    }

    /// A directory with a snapshot plus a contiguous delta chain audits
    /// clean, and the report names the right base and head.
    #[test]
    fn chain_audit_accepts_a_healthy_directory() {
        use mob_base::t;
        use mob_spatial::pt;
        use mob_storage::{DurableStore, Ingestor, MemIo};

        let dir = MemIo::new();
        let mut store = DurableStore::options().open(dir.clone()).unwrap();
        let mut txn = store.begin();
        txn.put_store_file(&demo_store_file(5)).unwrap();
        txn.commit().unwrap();
        let mut ingest = Ingestor::new();
        for k in 0..3u32 {
            ingest
                .append("chase/0", t(f64::from(k)), pt(f64::from(k), 0.0))
                .unwrap();
            ingest
                .append("chase/1", t(f64::from(k)), pt(0.0, f64::from(k)))
                .unwrap();
        }
        let mut txn = store.begin();
        ingest.seal_into(&mut txn);
        txn.commit().unwrap();

        let report = audit_chain(&dir).unwrap();
        assert!(report.all_ok(), "healthy chain:\n{}", report.render());
        assert_eq!(report.base, Some(1));
        assert_eq!(report.head, Some(2));
        assert!(report.render().contains("replays to g=2"));
    }

    /// Two full commits leave the base snapshot plus exactly one older
    /// snapshot — the recovery fallback `commit_full` keeps on purpose.
    /// The audit must report that directory clean, not "stale".
    #[test]
    fn chain_audit_accepts_the_previous_snapshot_fallback() {
        use mob_storage::{DurableStore, MemIo, StoreIo};

        let dir = MemIo::new();
        let mut store = DurableStore::options().open(dir.clone()).unwrap();
        let mut txn = store.begin();
        txn.put_store_file(&demo_store_file(5)).unwrap();
        txn.commit().unwrap();
        let mut txn = store.begin();
        txn.put_store_file(&demo_store_file(6)).unwrap();
        txn.commit().unwrap();

        let names = dir.list().unwrap();
        assert!(
            names.iter().any(|n| n.contains("snap-0000000000000001")),
            "premise: the previous snapshot survives the prune ({names:?})"
        );
        let report = audit_chain(&dir).unwrap();
        assert!(
            report.all_ok(),
            "fallback snapshot must audit clean:\n{}",
            report.render()
        );
        assert_eq!(report.base, Some(2));
        assert!(report.render().contains("recovery fallback"));
    }

    /// A store that has only ever committed deltas (never compacted)
    /// has no snapshot: recovery replays the chain from generation 1
    /// over the empty store, and the audit must agree.
    #[test]
    fn chain_audit_accepts_a_genesis_delta_chain() {
        use mob_base::t;
        use mob_core::MovingPoint;
        use mob_spatial::pt;
        use mob_storage::{DurableStore, MemIo};

        let dir = MemIo::new();
        let mut store = DurableStore::options().open(dir.clone()).unwrap();
        for k in 0..3u64 {
            let k = k as f64;
            let units = MovingPoint::from_samples(&[
                (t(k * 2.0), pt(k, 0.0)),
                (t(k * 2.0 + 1.0), pt(k + 1.0, 1.0)),
            ])
            .units()
            .to_vec();
            let mut txn = store.begin();
            txn.append_units(&format!("obj{k}"), &units);
            txn.commit().unwrap();
        }

        let report = audit_chain(&dir).unwrap();
        assert!(
            report.all_ok(),
            "genesis chain must audit clean:\n{}",
            report.render()
        );
        assert_eq!((report.base, report.head), (None, Some(3)));
        assert!(report.render().contains("genesis delta chain"));
    }

    /// Gaps, torn deltas, and leftover tmp files are all called out.
    #[test]
    fn chain_audit_flags_gaps_and_torn_files() {
        use mob_storage::{delta_name, DurableStore, MemIo, StoreIo};

        let dir = MemIo::new();
        let mut store = DurableStore::options().open(dir.clone()).unwrap();
        let mut txn = store.begin();
        txn.put_store_file(&StoreFile::new()).unwrap();
        txn.commit().unwrap();

        // A gap: delta for generation 3 with no generation-2 link.
        dir.write_file(&delta_name(3), b"MOBDELT1 torn nonsense")
            .unwrap();
        // A crashed commit's shadow file.
        dir.write_file("tmp-0000000000000009.mob", b"partial")
            .unwrap();

        let report = audit_chain(&dir).unwrap();
        assert!(!report.all_ok());
        assert_eq!(report.base, Some(1));
        assert_eq!(report.head, Some(1), "gap must stop the replay walk");
        let rendered = report.render();
        assert!(rendered.contains("chain gap"), "{rendered}");
        assert!(rendered.contains("leftover shadow"), "{rendered}");
    }

    /// A store file whose only root is the `moving(point)` `r`, sampled
    /// at `(t, x)` pairs.
    fn file_with_r(samples: &[(f64, f64)]) -> StoreFile {
        use mob_core::MovingPoint;
        let s: Vec<_> = samples
            .iter()
            .map(|&(at, x)| (mob_base::t(at), mob_spatial::pt(x, 0.0)))
            .collect();
        let mut file = StoreFile::new();
        let stored = mapping_store::save_mpoint(&MovingPoint::from_samples(&s), file.store_mut());
        file.put("r", RootRecord::MPoint(stored));
        file
    }

    /// A delta that decodes and links to its base but overlaps the
    /// stored tail cannot be applied: the audit must report the recovery
    /// `open` performs (discard it, stay at g=1), not a healthy g=2.
    #[test]
    fn chain_audit_matches_open_on_an_inapplicable_delta() {
        use mob_base::t;
        use mob_core::MovingPoint;
        use mob_spatial::pt;
        use mob_storage::{delta_name, DurableStore, MemIo, StoreIo};

        // Directory X: base snapshot g=1 whose `r` ends at t=10.
        let x = MemIo::new();
        let mut store = DurableStore::options().open(x.clone()).unwrap();
        let mut txn = store.begin();
        txn.put_store_file(&file_with_r(&[(0.0, 0.0), (10.0, 10.0)]))
            .unwrap();
        txn.commit().unwrap();
        drop(store);

        // A sibling whose `r` ends at t=3 commits delta-2 from t=5.
        let sibling = MemIo::new();
        let mut other = DurableStore::options().open(sibling.clone()).unwrap();
        let mut txn = other.begin();
        txn.put_store_file(&file_with_r(&[(0.0, 0.0), (3.0, 3.0)]))
            .unwrap();
        txn.commit().unwrap();
        let units = MovingPoint::from_samples(&[(t(5.0), pt(5.0, 0.0)), (t(8.0), pt(8.0, 0.0))])
            .units()
            .to_vec();
        let mut txn = other.begin();
        txn.append_units("r", &units);
        assert_eq!(txn.commit().unwrap(), 2);
        let delta = sibling.read_file(&delta_name(2)).unwrap();
        x.write_file(&delta_name(2), &delta).unwrap();

        let report = audit_chain(&x).unwrap();
        let fate = report
            .files
            .iter()
            .find(|f| f.name == delta_name(2))
            .map(|f| &f.fate);
        assert!(
            matches!(fate, Some(Fate::Discarded(Discard::Inapplicable(_)))),
            "delta-2 must be discarded as inapplicable:\n{}",
            report.render()
        );
        assert!(!report.all_ok());
        assert_eq!(report.head, Some(1), "{}", report.render());

        let kept: Vec<String> = report
            .files
            .iter()
            .filter(|f| !matches!(f.fate, Fate::Discarded(_)))
            .map(|f| f.name.clone())
            .collect();
        let reopened = DurableStore::options().open(x.clone()).unwrap();
        assert_eq!(reopened.generation(), 1);
        assert_eq!(x.list().unwrap(), kept, "open keeps what the audit kept");
    }
}
