//! Corruption resistance of the serialized store format.
//!
//! The contract under test (DESIGN.md §"verify, then trust"): **no byte
//! pattern, however damaged, may panic the decoder**. Structural damage
//! must surface as a `DecodeError`; a mutation that happens to decode
//! (e.g. a flipped bit inside a coordinate) must still yield a value
//! that passes deep validation or be rejected by it.
//!
//! For every root-record kind we build a single-entry [`StoreFile`],
//! then drive two mutation campaigns over its byte image:
//!
//! * an exhaustive sweep — every byte position × a battery of XOR masks
//!   (all eight single-bit flips plus `0xFF`/`0x55`/`0xAA`), well over
//!   1000 mutants per kind, each fully decoded, opened, deep-validated
//!   and loaded;
//! * every proper prefix truncation, all of which must be rejected.
//!
//! A final randomized proptest sprays multi-byte corruption across a
//! combined file holding every kind at once.

use mob_base::{r, t, Interval, Periods, Text, TimeInterval, Val, Validate};
use mob_core::{
    unit_cubes, ConstUnit, MSeg, Mapping, MovingPoint, PointMotion, RTree, ULine, UPoints, UReal,
    URegion,
};
use mob_spatial::{pt, rect_ring, seg, Face, Line, Points, Region};
use mob_storage::store_file::RootRecord;
use mob_storage::{
    index_store, line_store, mapping_store, range_store, region_store, view, AttrType, Cell,
    StoreFile, StoredRelation,
};
use proptest::prelude::*;

const MASKS: [u8; 11] = [
    0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF, 0x55, 0xAA,
];

// ---------------------------------------------------------------------
// Exercising a byte image: decode + open + deep-validate + load.
// ---------------------------------------------------------------------

/// Decode `bytes` and fully exercise every entry. Any corruption must
/// come back as `Err`, never a panic; an `Ok` means every entry opened,
/// deep-validated, loaded and re-validated.
fn exercise(bytes: &[u8]) -> Result<(), String> {
    let file = StoreFile::from_bytes(bytes).map_err(|e| e.to_string())?;
    let store = file.store();
    for (_, root) in file.entries() {
        macro_rules! moving {
            ($stored:expr, $open:path) => {{
                let view = $open($stored, store, view::Verify::Full).map_err(|e| e.to_string())?;
                view.validate().map_err(|e| e.to_string())?;
                let loaded = view.materialize_validated().map_err(|e| e.to_string())?;
                loaded.validate().map_err(|e| e.to_string())?;
            }};
        }
        match root {
            RootRecord::MBool(s) => moving!(s, view::open_mbool),
            RootRecord::MReal(s) => moving!(s, view::open_mreal),
            RootRecord::MPoint(s) => moving!(s, view::open_mpoint),
            RootRecord::MPoints(s) => moving!(s, view::open_mpoints),
            RootRecord::MLine(s) => moving!(s, view::open_mline),
            RootRecord::MRegion(s) => moving!(s, view::open_mregion),
            RootRecord::Line(s) => {
                line_store::load_line(s, store).map_err(|e| e.to_string())?;
            }
            RootRecord::Points(s) => {
                line_store::load_points(s, store).map_err(|e| e.to_string())?;
            }
            RootRecord::Region(s) => {
                region_store::load_region(s, store).map_err(|e| e.to_string())?;
            }
            RootRecord::Periods(s) => {
                let p = range_store::load_periods(s, store).map_err(|e| e.to_string())?;
                p.validate().map_err(|e| e.to_string())?;
            }
            RootRecord::Index(s) => {
                index_store::load_index(s, store).map_err(|e| e.to_string())?;
            }
            RootRecord::Relation(r) => {
                r.check_roots(file.catalog()).map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(())
}

/// Run the full mutation campaign on one store file and return the
/// number of mutants exercised.
fn sweep(file: &StoreFile, kind: &str) -> usize {
    let bytes = file.to_bytes().expect("sample serializes");
    assert!(
        exercise(&bytes).is_ok(),
        "intact {kind} file must audit clean"
    );
    let mut mutants = 0usize;
    for pos in 0..bytes.len() {
        for mask in MASKS {
            let mut bad = bytes.clone();
            bad[pos] ^= mask;
            // Must not panic; Ok is fine when the flip lands in a value
            // field and yields a different-but-valid value.
            let _ = exercise(&bad);
            mutants += 1;
        }
    }
    // Every proper prefix must be rejected outright.
    for cut in 0..bytes.len() {
        assert!(
            exercise(&bytes[..cut]).is_err(),
            "{kind}: truncation to {cut}/{} bytes decoded",
            bytes.len()
        );
        mutants += 1;
    }
    assert!(
        mutants >= 1000,
        "{kind}: only {mutants} mutants — grow the sample value"
    );
    mutants
}

// ---------------------------------------------------------------------
// Sample values, one builder per root-record kind. Each appends its
// entry to `file`, so the same builders serve the per-kind sweeps and
// the combined fuzz target.
// ---------------------------------------------------------------------

fn iv(s: f64, e: f64) -> TimeInterval {
    Interval::closed_open(t(s), t(e))
}

fn put_mbool(file: &mut StoreFile) {
    let units: Vec<ConstUnit<bool>> = (0..10)
        .map(|k| ConstUnit::new(iv(f64::from(k), f64::from(k) + 1.0), k % 2 == 0))
        .collect();
    let m = Mapping::try_new(units).expect("alternating mbool");
    let stored = mapping_store::save_mbool(&m, file.store_mut());
    file.put("mbool", RootRecord::MBool(stored));
}

fn put_mreal(file: &mut StoreFile) {
    let units: Vec<UReal> = (0..8)
        .map(|k| {
            let k = f64::from(k);
            UReal::quadratic(
                iv(k, k + 1.0),
                mob_base::r(k + 1.0),
                mob_base::r(2.0),
                mob_base::r(3.0),
            )
        })
        .collect();
    let m = Mapping::try_new(units).expect("quadratic pieces");
    let stored = mapping_store::save_mreal(&m, file.store_mut());
    file.put("mreal", RootRecord::MReal(stored));
}

fn put_mpoint(file: &mut StoreFile) {
    let samples: Vec<_> = (0..12)
        .map(|k| (t(f64::from(k)), pt(f64::from(k) * 0.5, f64::from(k % 5))))
        .collect();
    let m = MovingPoint::from_samples(&samples);
    let stored = mapping_store::save_mpoint(&m, file.store_mut());
    file.put("mpoint", RootRecord::MPoint(stored));
}

fn put_mpoints(file: &mut StoreFile) {
    let units: Vec<UPoints> = (0..4)
        .map(|k| {
            let k = f64::from(k);
            UPoints::try_new(
                iv(k, k + 1.0),
                vec![
                    PointMotion::stationary(pt(k, 0.0)),
                    PointMotion::stationary(pt(k + 0.25, 1.0)),
                    PointMotion::stationary(pt(k + 0.5, 2.0)),
                ],
            )
            .expect("distinct stationary motions")
        })
        .collect();
    let m = Mapping::try_new(units).expect("mpoints units");
    let stored = mapping_store::save_mpoints(&m, file.store_mut());
    file.put("mpoints", RootRecord::MPoints(stored));
}

fn put_mline(file: &mut StoreFile) {
    let units: Vec<ULine> = (0..3)
        .map(|k| {
            // Alternate the sweep direction so adjacent units cannot be
            // merged (canonicity).
            let dir = if k % 2 == 0 { 1.0 } else { -1.0 };
            let k = f64::from(k);
            let m1 = MSeg::between(
                t(k),
                pt(0.0, k),
                pt(1.0, k),
                t(k + 1.0),
                pt(0.0, k + dir),
                pt(1.0, k + dir),
            )
            .expect("parallel sweep");
            ULine::try_new(iv(k, k + 1.0), vec![m1]).expect("one mseg")
        })
        .collect();
    let m = Mapping::try_new(units).expect("mline units");
    let stored = mapping_store::save_mline(&m, file.store_mut());
    file.put("mline", RootRecord::MLine(stored));
}

fn put_mregion(file: &mut StoreFile) {
    let u1 = URegion::interpolate(
        iv(0.0, 1.0),
        &rect_ring(0.0, 0.0, 1.0, 1.0),
        &rect_ring(1.0, 0.0, 2.0, 1.0),
    )
    .expect("translating square");
    let u2 = URegion::interpolate(
        iv(1.0, 2.0),
        &rect_ring(1.0, 0.0, 2.0, 1.0),
        &rect_ring(1.0, 1.0, 2.0, 2.0),
    )
    .expect("translating square");
    let m: Mapping<URegion> = Mapping::try_new(vec![u1, u2]).expect("mregion units");
    let stored = mapping_store::save_mregion(&m, file.store_mut());
    file.put("mregion", RootRecord::MRegion(stored));
}

fn put_line(file: &mut StoreFile) {
    let segs: Vec<_> = (0..12)
        .map(|i| {
            let i = f64::from(i);
            seg(i * 2.0, 0.0, i * 2.0 + 1.0, 1.0)
        })
        .collect();
    let line = Line::normalize(segs);
    let stored = line_store::save_line(&line, file.store_mut());
    file.put("line", RootRecord::Line(stored));
}

fn put_points(file: &mut StoreFile) {
    let points = Points::from_points(
        (0..16)
            .map(|k| pt(f64::from(k), f64::from(k % 3)))
            .collect(),
    );
    let stored = line_store::save_points(&points, file.store_mut());
    file.put("points", RootRecord::Points(stored));
}

fn put_region(file: &mut StoreFile) {
    let region = Region::try_new(vec![
        Face::try_new(
            rect_ring(0.0, 0.0, 10.0, 10.0),
            vec![rect_ring(2.0, 2.0, 8.0, 8.0)],
        )
        .expect("face with hole"),
        Face::simple(rect_ring(4.0, 4.0, 6.0, 6.0)),
    ])
    .expect("figure-3 region");
    let stored = region_store::save_region(&region, file.store_mut());
    file.put("region", RootRecord::Region(stored));
}

fn put_periods(file: &mut StoreFile) {
    let p = Periods::from_unmerged(
        (0..10)
            .map(|k| Interval::closed(t(f64::from(k) * 2.0), t(f64::from(k) * 2.0 + 1.0)))
            .collect(),
    );
    let stored = range_store::save_periods(&p, file.store_mut());
    file.put("periods", RootRecord::Periods(stored));
}

fn put_index(file: &mut StoreFile) {
    let mut entries = Vec::new();
    for k in 0..6u32 {
        let samples: Vec<_> = (0..8)
            .map(|i| {
                (
                    t(f64::from(i)),
                    pt(f64::from(k) + f64::from(i % 2), f64::from(i)),
                )
            })
            .collect();
        entries.extend(unit_cubes(k, &MovingPoint::from_samples(&samples)));
    }
    let tree = RTree::bulk(6, entries);
    let stored = index_store::save_index(&tree, file.store_mut());
    file.put("index", RootRecord::Index(stored));
}

/// A relation of two rows over every scalar type, half the scalars ⊥,
/// both rows naming one value root.
fn put_relation(file: &mut StoreFile) {
    let trip = MovingPoint::from_samples(&[
        (t(0.0), pt(0.0, 0.0)),
        (t(1.0), pt(1.0, 1.0)),
        (t(2.0), pt(2.0, 0.0)),
    ]);
    let stored = mapping_store::save_mpoint(&trip, file.store_mut());
    file.put("rel/trip/0", RootRecord::MPoint(stored));
    let mut rel = StoredRelation::new(
        [
            ("name", AttrType::Str),
            ("n", AttrType::Int),
            ("x", AttrType::Real),
            ("ok", AttrType::Bool),
            ("at", AttrType::Instant),
            ("p", AttrType::Point),
            ("trip", AttrType::MPoint),
        ]
        .map(|(n, ty)| (n.to_string(), ty))
        .to_vec(),
    );
    let trip = || Cell::Root("rel/trip/0".to_string());
    rel.push_row(vec![
        Cell::Str(Val::Def(Text::try_new("LH1").unwrap())),
        Cell::Int(Val::Def(-7)),
        Cell::Real(Val::Undef),
        Cell::Bool(Val::Def(true)),
        Cell::Instant(Val::Undef),
        Cell::Point(Val::Def(pt(1.0, 2.0))),
        trip(),
    ])
    .unwrap();
    rel.push_row(vec![
        Cell::Str(Val::Undef),
        Cell::Int(Val::Undef),
        Cell::Real(Val::Def(r(2.5))),
        Cell::Bool(Val::Undef),
        Cell::Instant(Val::Def(t(3.0))),
        Cell::Point(Val::Undef),
        trip(),
    ])
    .unwrap();
    file.put("rel", RootRecord::Relation(rel));
}

fn single(put: fn(&mut StoreFile)) -> StoreFile {
    let mut file = StoreFile::new();
    put(&mut file);
    file
}

/// Every kind in one file (the randomized fuzz target).
fn all_kinds() -> StoreFile {
    let mut file = StoreFile::new();
    for put in [
        put_mbool,
        put_mreal,
        put_mpoint,
        put_mpoints,
        put_mline,
        put_mregion,
        put_line,
        put_points,
        put_region,
        put_periods,
        put_index,
        put_relation,
    ] {
        put(&mut file);
    }
    file
}

fn all_kinds_bytes() -> Vec<u8> {
    all_kinds().to_bytes().expect("combined file serializes")
}

// ---------------------------------------------------------------------
// The exhaustive sweeps (≥1000 mutants per store type).
// ---------------------------------------------------------------------

#[test]
fn sweep_mbool() {
    sweep(&single(put_mbool), "mbool");
}

#[test]
fn sweep_mreal() {
    sweep(&single(put_mreal), "mreal");
}

#[test]
fn sweep_mpoint() {
    sweep(&single(put_mpoint), "mpoint");
}

#[test]
fn sweep_mpoints() {
    sweep(&single(put_mpoints), "mpoints");
}

#[test]
fn sweep_mline() {
    sweep(&single(put_mline), "mline");
}

#[test]
fn sweep_mregion() {
    sweep(&single(put_mregion), "mregion");
}

#[test]
fn sweep_line() {
    sweep(&single(put_line), "line");
}

#[test]
fn sweep_points() {
    sweep(&single(put_points), "points");
}

#[test]
fn sweep_region() {
    sweep(&single(put_region), "region");
}

#[test]
fn sweep_periods() {
    sweep(&single(put_periods), "periods");
}

#[test]
fn sweep_relation() {
    let file = single(put_relation);
    assert!(matches!(file.get("rel"), Some(RootRecord::Relation(r)) if r.rows().count() == 2));
    sweep(&file, "relation");
}

/// A store file written before compact index leaves: six taxi tracks
/// plus their tree with `f64` leaf cubes (root tag 11).
const INDEX_TAG11: &[u8] = include_bytes!("fixtures/index_tag11.mob");

#[test]
fn sweep_index() {
    // The compact record (tag 12: frame plus 16-bit leaf codes).
    let file = single(put_index);
    assert!(
        matches!(file.get("index"), Some(RootRecord::Index(ix)) if ix.layout() == "u16"),
        "save_index writes compact leaves"
    );
    sweep(&file, "index");
}

/// The tag-11 reader, over real old bytes that re-encode unchanged.
#[test]
fn sweep_index_tag11() {
    let old = StoreFile::from_bytes(INDEX_TAG11).expect("the fixture decodes");
    assert!(
        matches!(old.get("fleet/index"), Some(RootRecord::Index(ix)) if ix.layout() == "f64"),
        "the fixture holds f64 leaves"
    );
    assert_eq!(old.to_bytes().expect("serializes"), INDEX_TAG11);
    sweep(&old, "index tag 11");
}

#[test]
fn combined_file_audits_clean() {
    assert_eq!(exercise(&all_kinds_bytes()), Ok(()));
}

// ---------------------------------------------------------------------
// Randomized multi-byte corruption.
// ---------------------------------------------------------------------

proptest! {
    /// Spray 1–8 random XOR masks across the byte image: the decoder
    /// must never panic, whatever the combination.
    #[test]
    fn random_multibyte_corruption_never_panics(
        flips in proptest::collection::vec((0usize..1 << 20, 1u32..256), 1..8),
    ) {
        let bytes = all_kinds_bytes();
        let mut bad = bytes.clone();
        for (pos, mask) in flips {
            let pos = pos % bad.len();
            bad[pos] ^= mask as u8;
        }
        let _ = exercise(&bad); // must not panic
    }

    /// Random truncation points are always rejected.
    #[test]
    fn random_truncation_always_rejected(cut in 0usize..1 << 20) {
        let bytes = all_kinds_bytes();
        let cut = cut % bytes.len();
        prop_assert!(exercise(&bytes[..cut]).is_err());
    }
}

// ---------------------------------------------------------------------
// Durable snapshot images: checksums stand in front of the decoder.
// ---------------------------------------------------------------------

/// Every single-bit flip in a committed durable file must be detected at
/// the *frame* level (checksum or frame-bounds check) before any byte
/// reaches the structural store-file decoder. The campaign tallies how
/// each flip was caught and asserts the structural decoder count is
/// exactly zero.
#[test]
fn durable_bit_flips_are_caught_by_checksums_not_the_decoder() {
    use mob_storage::{decode_image_strict, DurableStore, MemIo, StoreIo};

    let file = all_kinds();
    let payload = file.to_bytes().expect("combined file serializes");
    let dir = MemIo::new();
    let mut store = DurableStore::options()
        .chunk_size(128)
        .open(dir.clone())
        .expect("open");
    let mut txn = store.begin();
    txn.put_store_file(&file).expect("stage");
    txn.commit().expect("commit");
    let snap_name = dir
        .list()
        .expect("list")
        .into_iter()
        .find(|n| n.starts_with("snap-"))
        .expect("one snapshot");
    let image = dir.read_file(&snap_name).expect("read snapshot");

    // The intact image decodes to the exact payload.
    let clean = decode_image_strict(image.clone()).expect("clean image verifies");
    assert_eq!(clean.payload, payload);

    let mut by_checksum = 0usize;
    let mut by_frame_bounds = 0usize;
    let mut by_superblock = 0usize;
    let mut reached_decoder = 0usize;
    for pos in 0..image.len() {
        for bit in 0..8u8 {
            let mut bad = image.clone();
            bad[pos] ^= 1 << bit;
            match decode_image_strict(bad) {
                Err(mob_base::DecodeError::ChecksumMismatch { .. }) => by_checksum += 1,
                Err(mob_base::DecodeError::Truncated { .. })
                | Err(mob_base::DecodeError::CountMismatch { .. }) => by_frame_bounds += 1,
                Err(_) => by_superblock += 1,
                Ok(img) => {
                    // The frames verified — only possible if the flip is
                    // not actually covered, which the design forbids.
                    if img.payload != payload {
                        reached_decoder += 1;
                    } else {
                        panic!("flip at byte {pos} bit {bit} was a checksum fixed point");
                    }
                }
            }
        }
    }
    assert_eq!(
        reached_decoder, 0,
        "no damaged payload may ever reach the structural decoder"
    );
    assert!(by_checksum > 0 && by_frame_bounds + by_superblock < by_checksum);
    let total = image.len() * 8;
    assert_eq!(by_checksum + by_frame_bounds + by_superblock, total);
    println!(
        "durable flip campaign: {total} flips = {by_checksum} by checksum + \
         {by_frame_bounds} by frame bounds + {by_superblock} by superblock parse, \
         0 reached the decoder"
    );
}

/// A corrupt superblock advertising a zero or absurd chunk size must be
/// a `DecodeError`, never a panic or an absurd allocation — and the same
/// for a store-file header page size.
#[test]
fn absurd_sizes_in_headers_are_rejected() {
    use mob_storage::{decode_image_strict, seal_frame, DurableStore, MemIo, StoreIo};

    // Durable superblock: re-seal with a forged chunk_size field so the
    // checksum passes and only validation can save us.
    let dir = MemIo::new();
    let mut store = DurableStore::options()
        .chunk_size(128)
        .open(dir.clone())
        .expect("open");
    let mut txn = store.begin();
    txn.put_store_file(&StoreFile::new()).expect("stage");
    txn.commit().expect("commit");
    let snap_name = dir
        .list()
        .expect("list")
        .into_iter()
        .find(|n| n.starts_with("snap-"))
        .expect("one snapshot");
    let image = dir.read_file(&snap_name).expect("read snapshot");
    for forged in [0u32, u32::MAX] {
        let mut sb = image[12..12 + 32].to_vec();
        sb[20..24].copy_from_slice(&forged.to_le_bytes());
        let mut bad = Vec::new();
        seal_frame(&mut bad, &sb);
        bad.extend_from_slice(&image[12 + 32..]);
        assert!(
            matches!(
                decode_image_strict(bad),
                Err(mob_base::DecodeError::BadStructure { .. })
            ),
            "chunk size {forged} must be rejected as structural damage"
        );
    }

    // Store-file header: page-size field lives at bytes 8..12.
    let bytes = all_kinds_bytes();
    for forged in [0u32, u32::MAX] {
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&forged.to_le_bytes());
        assert!(
            exercise(&bad).is_err(),
            "store-file page size {forged} must be rejected"
        );
    }
}
