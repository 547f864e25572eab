//! Crash-consistent durable store files with generational MVCC.
//!
//! A [`DurableStore`] keeps a chain of *immutable, generation-numbered
//! files* inside one [`StoreIo`] directory: full snapshots plus the WAL
//! deltas committed on top of the newest snapshot:
//!
//! ```text
//! snap-0000000000000007.mob      ← previous committed full snapshot
//! snap-0000000000000008.mob      ← newest committed full snapshot
//! delta-0000000000000009.mob     ← appends producing generation 9
//! delta-000000000000000a.mob     ← appends producing generation 10
//! tmp-000000000000000b.mob       ← a full commit in flight (ignored)
//! ```
//!
//! One read-only routine, [`recover`], decides what a directory holds:
//! the newest valid snapshot is the base, and the contiguous delta chain
//! above it replays in generation order; the first torn, forged,
//! out-of-sequence or inapplicable delta ends the chain. It returns the
//! recovered [`Generation`] and a [`Recovery`] record giving every
//! file's [`Fate`]. Opening ([`StoreOptions::open`]) runs it and removes
//! exactly the files the record discards; `mob-check chain` renders the
//! same record. [`DurableStore::compact`] folds the chain back into a
//! fresh full snapshot; [`DurableStore::compact_with`] commits that
//! snapshot with a rebuilt index in the same single commit.
//!
//! # Commit protocols
//!
//! All commits go through a [`Txn`] handle ([`DurableStore::begin`]).
//!
//! **Full image** (shadow write → fsync → atomic rename):
//!
//! ```text
//!   txn.put_store_file(f); txn.commit():
//!     1. encode payload into a checksummed image  (pure, in memory)
//!     2. write_file("tmp-<g>")                    ── crash here: old state
//!     3. sync("tmp-<g>")                          ── crash here: old state
//!     4. rename("tmp-<g>", "snap-<g>") + dir sync ── crash here: old OR new
//!     5. prune older snapshots + superseded deltas── crash here: new state
//! ```
//!
//! **Delta** (append → fsync; cost is O(appended units), not O(store)):
//!
//! ```text
//!   txn.append_units(name, units); txn.commit():
//!     1. apply the appends to the current generation in memory
//!        (pure validation: a bad batch fails before any I/O)
//!     2. encode the delta payload into a checksummed image
//!     3. append_file("delta-<g>")                 ── crash here: old state
//!     4. sync("delta-<g>")                        ── crash here: old OR new
//! ```
//!
//! A snapshot or delta file is **never modified after its generation is
//! durable**, so every committed generation stays byte-identical on disk
//! while its successor is written. Recovery therefore always yields a
//! prefix of the committed chain — the *old* or the *new* state, never a
//! hybrid: a torn delta fails its checksums and is discarded together
//! with everything above it.
//!
//! # MVCC reads
//!
//! [`DurableStore::snapshot`] returns the current [`Generation`] behind
//! an `Arc`: an immutable view of the store that reader threads keep
//! querying — bit-for-bit unchanged — while the writer commits deltas
//! and compactions. Commits build *new* generations (sharing untouched
//! pages with the old one) and swap the store's current pointer; pinned
//! readers are unaffected.
//!
//! # Image framing
//!
//! Every byte of a snapshot or delta file is covered by a checksum
//! *before* any structural decoder touches it:
//!
//! ```text
//! frame 0:   [crc u64 | len u32 | superblock (32 bytes)]
//! frame 1…n: [crc u64 | len u32 | payload chunk (≤ chunk_size bytes)]
//! ```
//!
//! The superblock records magic, format version, generation, chunk size
//! and exact payload length, so every chunk frame's position and size is
//! *computable* — a damaged chunk cannot desynchronize the reader. The
//! strict decoder rejects a file on the first bad frame; the degraded
//! decoder ([`StoreOptions::degraded`]) requires only the superblock to
//! be intact and reports the byte ranges of damaged chunks
//! (`store.pages_corrupt`), letting the open quarantine exactly the
//! affected blobs via
//! [`StoreFile::from_bytes_with_damage`](crate::store_file::StoreFile::from_bytes_with_damage)
//! while healthy data keeps serving. Delta files are always decoded
//! strictly: a damaged delta is discarded, not partially applied.

use crate::delta::{
    decode_delta_payload, delta_name, encode_delta_payload, parse_delta_name, DeltaPayload,
};
use crate::generation::{Generation, Replay};
use crate::io::StoreIo;
use crate::mapping_store::UPointRecord;
use crate::page::{
    get_u32_at, get_u64_at, open_frame, seal_frame, validate_page_size, FRAME_OVERHEAD,
};
use crate::store_file::StoreFile;
use mob_base::{DecodeError, DecodeResult};
use mob_core::{UPoint, Unit};
use std::sync::Arc;

/// Magic bytes identifying a durable snapshot image (version 1).
pub const DURABLE_MAGIC: &[u8; 8] = b"MOBDUR01";

/// Durable image format version written into every superblock.
pub const DURABLE_VERSION: u32 = 1;

/// Default chunk size for payload framing (one checksum per this many
/// payload bytes).
pub const DEFAULT_CHUNK_SIZE: usize = 4096;

/// Serialized superblock length: magic(8) + version(4) + generation(8) +
/// chunk_size(4) + payload_len(8).
const SUPERBLOCK_LEN: usize = 32;

/// Final name of a committed snapshot: zero-padded hex keeps
/// lexicographic and numeric order identical.
#[must_use]
pub fn snapshot_name(generation: u64) -> String {
    format!("snap-{generation:016x}.mob")
}

/// Shadow-write name for a commit in flight.
fn tmp_name(generation: u64) -> String {
    format!("tmp-{generation:016x}.mob")
}

/// Parse a snapshot file name back to its generation (`None` for
/// anything that is not exactly a snapshot name).
#[must_use]
pub fn parse_snapshot_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snap-")?.strip_suffix(".mob")?;
    if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// A decoded snapshot image, possibly with damaged (zero-filled) chunk
/// ranges when decoded in degraded mode.
#[derive(Debug, Clone)]
pub struct DecodedImage {
    /// Generation recorded in the (checksum-verified) superblock.
    pub generation: u64,
    /// Chunk size the payload was framed with.
    pub chunk_size: usize,
    /// The payload bytes. Damaged chunks are zero-filled; their ranges
    /// are listed in `damaged`.
    pub payload: Vec<u8>,
    /// Half-open byte ranges of `payload` whose chunk frames failed
    /// verification (empty after a strict decode).
    pub damaged: Vec<(usize, usize)>,
    /// Number of chunk frames that failed verification.
    pub chunks_corrupt: usize,
    /// Total number of chunk frames in the image.
    pub chunks_total: usize,
}

struct Superblock {
    generation: u64,
    chunk_size: usize,
    payload_len: usize,
}

fn parse_superblock(sb: &[u8]) -> DecodeResult<Superblock> {
    if sb.len() != SUPERBLOCK_LEN {
        return Err(DecodeError::CountMismatch {
            what: "durable superblock",
            expected: SUPERBLOCK_LEN,
            found: sb.len(),
        });
    }
    let magic = sb.get(..8).unwrap_or_default();
    if magic != DURABLE_MAGIC {
        return Err(DecodeError::BadStructure {
            what: "durable magic",
            detail: format!("expected {DURABLE_MAGIC:?}, found {magic:?}"),
        });
    }
    let version = get_u32_at(sb, 8);
    if version != DURABLE_VERSION {
        return Err(DecodeError::BadTag {
            what: "durable format version",
            tag: version,
        });
    }
    let generation = get_u64_at(sb, 12);
    let chunk_size = validate_page_size(crate::checked::idx_usize(get_u32_at(sb, 20)))?;
    let payload_len =
        usize::try_from(get_u64_at(sb, 24)).map_err(|_| DecodeError::BadStructure {
            what: "durable payload length",
            detail: "payload length exceeds the address space".to_string(),
        })?;
    Ok(Superblock {
        generation,
        chunk_size,
        payload_len,
    })
}

/// Encode a payload into a snapshot image (superblock frame + chunk
/// frames, every byte checksummed).
fn encode_image(generation: u64, chunk_size: usize, payload: &[u8]) -> Vec<u8> {
    let chunk_size = chunk_size.max(1);
    let mut sb = Vec::with_capacity(SUPERBLOCK_LEN);
    sb.extend_from_slice(DURABLE_MAGIC);
    sb.extend_from_slice(&DURABLE_VERSION.to_le_bytes());
    sb.extend_from_slice(&generation.to_le_bytes());
    sb.extend_from_slice(&crate::checked::count_u32(chunk_size).to_le_bytes());
    sb.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let n_chunks = payload.len().div_ceil(chunk_size);
    let mut out = Vec::with_capacity(
        FRAME_OVERHEAD + SUPERBLOCK_LEN + payload.len() + n_chunks * FRAME_OVERHEAD,
    );
    seal_frame(&mut out, &sb);
    for chunk in payload.chunks(chunk_size) {
        seal_frame(&mut out, chunk);
    }
    out
}

/// Decode a snapshot image. In strict mode (`tolerate_chunk_damage =
/// false`) any damage anywhere fails the decode; in degraded mode the
/// superblock must verify but damaged chunk frames are zero-filled and
/// reported in [`DecodedImage::damaged`].
fn decode_image(bytes: &[u8], tolerate_chunk_damage: bool) -> DecodeResult<DecodedImage> {
    let (sb_payload, mut rest) = open_frame(bytes)?;
    let sb = parse_superblock(sb_payload)?;
    let n_chunks = sb.payload_len.div_ceil(sb.chunk_size);
    let mut payload = vec![0u8; sb.payload_len];
    let mut damaged = Vec::new();
    let mut off = 0usize;
    for _ in 0..n_chunks {
        let clen = sb.chunk_size.min(sb.payload_len - off);
        let flen = FRAME_OVERHEAD + clen;
        let mut ok = false;
        if let Some(frame) = rest.get(..flen) {
            match open_frame(frame) {
                Ok((chunk, _)) if chunk.len() == clen => {
                    // `off + clen <= payload_len`, so the range is in
                    // bounds; zipping two exact slices compiles to a
                    // block copy.
                    if let Some(dst) = payload.get_mut(off..off + clen) {
                        for (d, s) in dst.iter_mut().zip(chunk) {
                            *d = *s;
                        }
                        ok = true;
                    }
                }
                Ok((chunk, _)) => {
                    if !tolerate_chunk_damage {
                        return Err(DecodeError::CountMismatch {
                            what: "durable chunk frame",
                            expected: clen,
                            found: chunk.len(),
                        });
                    }
                }
                Err(e) => {
                    if !tolerate_chunk_damage {
                        return Err(e);
                    }
                }
            }
        } else if !tolerate_chunk_damage {
            return Err(DecodeError::Truncated {
                what: "durable chunk frame",
                need: flen,
                have: rest.len(),
            });
        }
        if !ok {
            damaged.push((off, off + clen));
        }
        rest = rest.get(flen..).unwrap_or_default();
        off += clen;
    }
    if !rest.is_empty() && !tolerate_chunk_damage {
        return Err(DecodeError::BadStructure {
            what: "durable image",
            detail: format!("{} trailing bytes after the last chunk frame", rest.len()),
        });
    }
    let chunks_corrupt = damaged.len();
    Ok(DecodedImage {
        generation: sb.generation,
        chunk_size: sb.chunk_size,
        payload,
        damaged,
        chunks_corrupt,
        chunks_total: n_chunks,
    })
}

/// Strictly verify and decode a snapshot image: any damaged byte
/// anywhere (superblock or chunk frames) fails with a frame-level error
/// ([`DecodeError::ChecksumMismatch`] / [`DecodeError::Truncated`] /
/// [`DecodeError::BadStructure`]) — the structural payload decoder is
/// never reached with damaged bytes.
pub fn decode_image_strict(bytes: &[u8]) -> DecodeResult<DecodedImage> {
    decode_image(bytes, false)
}

/// Decode a snapshot image in degraded mode: the superblock must verify,
/// damaged chunk frames are zero-filled and reported in
/// [`DecodedImage::damaged`]. Used by `mob-check verify --deep` to
/// report per-chunk verdicts on a damaged file.
pub fn decode_image_degraded(bytes: &[u8]) -> DecodeResult<DecodedImage> {
    decode_image(bytes, true)
}

/// Decode a snapshot image's payload as the store file of generation
/// `img.generation`: the one image → generation step, shared by
/// recovery and `mob-check verify --deep`. Blobs overlapping the
/// image's damaged chunk ranges (a degraded decode) are quarantined
/// ([`Generation::quarantined`]); damage to structural bytes fails the
/// decode. The image is taken by value: the generation's blobs are
/// ranges of its payload buffer.
pub fn generation_from_image(img: DecodedImage) -> DecodeResult<Generation> {
    let (file, quarantined) = StoreFile::from_bytes_with_damage(img.payload, &img.damaged)?;
    Ok(Generation::from_store_file(
        img.generation,
        file,
        quarantined,
    ))
}

/// What [`recover`] decided about one file of a durable directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fate {
    /// The snapshot recovery starts from: the newest one that decodes
    /// under its own generation.
    Base,
    /// The snapshot one generation below the base, which full commits
    /// keep as the fallback. Kept, not read.
    Fallback,
    /// A delta replayed on top of the base.
    Replayed {
        /// Object batches the delta appended.
        batches: usize,
        /// Size of the delta file in bytes.
        bytes: u64,
    },
    /// A file whose name is not part of the store's layout. Kept.
    Ignored,
    /// A file recovery does not use; [`StoreOptions::open`] removes it.
    Discarded(Discard),
}

/// Why [`recover`] discards a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Discard {
    /// A snapshot newer than the base that fails to read or decode, or
    /// whose superblock names another generation.
    TornSnapshot(String),
    /// A snapshot older than the fallback.
    Superseded,
    /// A delta at or below the base's generation: folded into the base.
    Shadowed,
    /// A delta that does not continue the replayed chain: a generation
    /// below it is missing or was discarded.
    ChainGap,
    /// A delta in chain position that fails to read or decode strictly,
    /// or does not link to its predecessor.
    Undecodable(String),
    /// A delta that decodes and links, but whose appends the recovered
    /// generation rejects.
    Inapplicable(String),
    /// The shadow file of a full commit that never renamed.
    TmpLeftover,
}

impl Discard {
    /// Whether the discard drops a file that might have been a
    /// committed generation (counted in `durable.recoveries`), rather
    /// than routine garbage: superseded, shadowed and tmp files are not.
    fn is_recovery(&self) -> bool {
        !matches!(
            self,
            Discard::Superseded | Discard::Shadowed | Discard::TmpLeftover
        )
    }
}

/// One file of a durable directory and its [`Fate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredFile {
    /// File name inside the directory.
    pub name: String,
    /// What recovery does with it.
    pub fate: Fate,
}

/// Recovery's record of a durable directory (see [`recover`]).
#[derive(Debug, Clone)]
pub struct Recovery {
    /// Every file in the directory with its fate, sorted by name.
    pub files: Vec<RecoveredFile>,
    /// Generation of the base snapshot; `None` when no snapshot decodes
    /// and replay starts from the empty generation 0.
    pub base: Option<u64>,
    /// Chunk frames of the base that failed verification (degraded
    /// recovery only).
    pub chunks_corrupt: usize,
}

impl Recovery {
    /// Names of the files recovery discards — exactly the files
    /// [`StoreOptions::open`] removes.
    pub fn discarded(&self) -> impl Iterator<Item = &str> {
        self.files
            .iter()
            .filter(|f| matches!(f.fate, Fate::Discarded(_)))
            .map(|f| f.name.as_str())
    }

    /// Number of replayed deltas and their total size in bytes.
    #[must_use]
    pub fn replayed(&self) -> (u64, u64) {
        self.files
            .iter()
            .fold((0, 0), |(n, total), f| match f.fate {
                Fate::Replayed { bytes, .. } => (n + 1, total + bytes),
                _ => (n, total),
            })
    }

    fn recoveries(&self) -> u64 {
        let n = self
            .files
            .iter()
            .filter(|f| matches!(&f.fate, Fate::Discarded(d) if d.is_recovery()))
            .count();
        n as u64
    }
}

/// Recover a durable directory without changing it: the one decision
/// behind both [`StoreOptions::open`] and `mob-check chain`.
///
/// Lists the directory once. The base is the newest snapshot that
/// decodes under its own generation (`degraded` tolerates damaged chunk
/// frames, as [`StoreOptions::degraded`] does); every newer snapshot is
/// torn. The deltas above the base then replay in generation order,
/// each decoded strictly and applied to one replay session over the
/// recovered generation, which writes every touched root once at the
/// end. The first delta that is missing, undecodable or inapplicable
/// ends the chain; every delta above it is a chain gap. Returns the
/// recovered generation and the fate of every file. Reads files; writes
/// and removes none.
///
/// Errors only when the directory cannot be listed or the base
/// snapshot's store file does not decode — a directory
/// [`StoreOptions::open`] refuses. Damaged or forged files are fates,
/// never panics.
pub fn recover<I: StoreIo>(io: &I, degraded: bool) -> DecodeResult<(Generation, Recovery)> {
    let mut files = Vec::new();
    let mut snaps = Vec::new();
    let mut deltas = Vec::new();
    for name in io.list()? {
        if let Some(g) = parse_snapshot_name(&name) {
            snaps.push((g, name));
        } else if let Some(g) = parse_delta_name(&name) {
            deltas.push((g, name));
        } else {
            let fate = if name.starts_with("tmp-") {
                Fate::Discarded(Discard::TmpLeftover)
            } else {
                Fate::Ignored
            };
            files.push(RecoveredFile { name, fate });
        }
    }
    snaps.sort_by_key(|&(g, _)| std::cmp::Reverse(g));
    let mut base: Option<DecodedImage> = None;
    for (g, name) in snaps {
        let fate = match base.as_ref().map(|img| img.generation) {
            Some(b) if g.checked_add(1) == Some(b) => Fate::Fallback,
            Some(_) => Fate::Discarded(Discard::Superseded),
            None => match io
                .read_file(&name)
                .and_then(|bytes| decode_image(&bytes, degraded))
            {
                Ok(img) if img.generation == g => {
                    base = Some(img);
                    Fate::Base
                }
                Ok(img) => Fate::Discarded(Discard::TornSnapshot(format!(
                    "superblock says generation {}",
                    img.generation
                ))),
                Err(e) => Fate::Discarded(Discard::TornSnapshot(e.to_string())),
            },
        };
        files.push(RecoveredFile { name, fate });
    }
    // The base image's payload becomes the head's blobs.
    let (base_generation, chunks_corrupt) = base
        .as_ref()
        .map_or((None, 0), |img| (Some(img.generation), img.chunks_corrupt));
    let mut head = base.map_or(Ok(Generation::empty(0)), generation_from_image)?;
    deltas.sort_by_key(|&(g, _)| g);
    let floor = base_generation.unwrap_or(0);
    // The generation the next delta must produce; `None` once the chain
    // has ended.
    let mut expect = floor.checked_add(1);
    let mut replay = head.replay();
    for (g, name) in deltas {
        let fate = if g <= floor {
            Fate::Discarded(Discard::Shadowed)
        } else if Some(g) == expect {
            replay_delta(io, g, &name, &mut replay)
        } else {
            Fate::Discarded(Discard::ChainGap)
        };
        if g > floor {
            expect = match fate {
                Fate::Replayed { .. } => g.checked_add(1),
                _ => None,
            };
        }
        files.push(RecoveredFile { name, fate });
    }
    replay.finish()?;
    files.sort_by(|a, b| a.name.cmp(&b.name));
    let recovery = Recovery {
        files,
        base: base_generation,
        chunks_corrupt,
    };
    Ok((head, recovery))
}

/// Decode delta file `name` strictly and apply it to the chain being
/// replayed as generation `g`. A failed apply leaves the replay as the
/// previous delta left it.
fn replay_delta<I: StoreIo>(io: &I, g: u64, name: &str, replay: &mut Replay<'_>) -> Fate {
    let (payload, bytes) = match decode_delta(io, g, name) {
        Ok(decoded) => decoded,
        Err(e) => return Fate::Discarded(Discard::Undecodable(e.to_string())),
    };
    match replay.apply_delta(g, &payload.appends) {
        Ok(()) => Fate::Replayed {
            batches: payload.appends.len(),
            bytes,
        },
        Err(e) => Fate::Discarded(Discard::Inapplicable(e.to_string())),
    }
}

/// Read and strictly decode delta file `name` for generation `g`: its
/// payload and its size in bytes. Deltas are never decoded degraded: a
/// damaged delta is discarded, never partially applied.
fn decode_delta<I: StoreIo>(io: &I, g: u64, name: &str) -> DecodeResult<(DeltaPayload, u64)> {
    let bytes = io.read_file(name)?;
    let img = decode_image_strict(&bytes)?;
    if img.generation != g {
        return Err(DecodeError::BadStructure {
            what: "delta file",
            detail: format!("file {name:?} claims generation {}", img.generation),
        });
    }
    let payload = decode_delta_payload(&img.payload)?;
    if payload.base_generation.checked_add(1) != Some(g) {
        return Err(DecodeError::BadStructure {
            what: "delta file",
            detail: format!(
                "delta for generation {g} applies on top of {}",
                payload.base_generation
            ),
        });
    }
    Ok((payload, bytes.len() as u64))
}

/// Builder for opening a [`DurableStore`] — the single entry point for
/// fresh, strict and degraded opens:
///
/// ```
/// use mob_storage::{DurableStore, MemIo};
///
/// let store = DurableStore::options()
///     .chunk_size(4096)
///     .degraded(false)
///     .open(MemIo::new())
///     .unwrap();
/// assert_eq!(store.generation(), 0); // fresh directory
/// ```
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    chunk_size: usize,
    degraded: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions::new()
    }
}

impl StoreOptions {
    /// Default options: [`DEFAULT_CHUNK_SIZE`], strict decoding.
    #[must_use]
    pub fn new() -> StoreOptions {
        StoreOptions {
            chunk_size: DEFAULT_CHUNK_SIZE,
            degraded: false,
        }
    }

    /// Chunk size for payload framing (validated at open).
    #[must_use]
    pub fn chunk_size(mut self, chunk_size: usize) -> StoreOptions {
        self.chunk_size = chunk_size;
        self
    }

    /// Tolerate at-rest damage in the newest snapshot: a snapshot whose
    /// superblock verifies is recovered even if chunk frames are
    /// damaged, with the affected blobs quarantined
    /// ([`Generation::quarantined`]). Off (strict) by default.
    #[must_use]
    pub fn degraded(mut self, degraded: bool) -> StoreOptions {
        self.degraded = degraded;
        self
    }

    /// Open (or create) the durable store in `io`'s directory.
    ///
    /// Runs [`recover`], then removes every file its record discards
    /// (best effort: a file that survives is discarded again by the
    /// next open). Torn snapshots and discarded deltas above the base
    /// are counted in `durable.recoveries`, damaged chunks of a degraded
    /// base in `store.pages_corrupt`. A fresh directory opens at the
    /// empty generation 0; the first commit writes generation 1.
    ///
    /// All inputs are untrusted: damaged or forged files surface as
    /// recoveries or [`DecodeError`]s, never as panics.
    pub fn open<I: StoreIo>(self, io: I) -> DecodeResult<DurableStore<I>> {
        let chunk_size = validate_page_size(self.chunk_size)?;
        let (head, recovery) = recover(&io, self.degraded)?;
        for name in recovery.discarded() {
            let _ = io.remove(name);
        }
        let recoveries = recovery.recoveries();
        if recoveries > 0 {
            mob_obs::metric!("durable.recoveries").add(recoveries);
        }
        if recovery.chunks_corrupt > 0 {
            mob_obs::metric!("store.pages_corrupt").add(recovery.chunks_corrupt as u64);
        }
        let (deltas, delta_bytes) = recovery.replayed();
        if deltas > 0 {
            mob_obs::metric!("durable.delta_replays").add(deltas);
        }
        Ok(DurableStore {
            io,
            chunk_size,
            head: Arc::new(head),
            deltas_since_snapshot: deltas,
            delta_bytes_since_snapshot: delta_bytes,
        })
    }
}

/// A crash-consistent store of committed generations over a [`StoreIo`]
/// directory (see the module docs for the protocols and the recovery
/// invariant). Open with [`DurableStore::options`]; commit through
/// [`DurableStore::begin`]; read through [`DurableStore::snapshot`].
pub struct DurableStore<I: StoreIo> {
    io: I,
    chunk_size: usize,
    /// The last committed generation (the empty generation 0 in a fresh
    /// directory).
    head: Arc<Generation>,
    /// Delta commits applied (or replayed) on top of the newest full
    /// snapshot — the maintenance supervisor's compaction trigger.
    deltas_since_snapshot: u64,
    /// Encoded bytes of those deltas.
    delta_bytes_since_snapshot: u64,
}

/// An explicit transaction handle: the single commit entry point for
/// both full-image and delta commits (see [`DurableStore::begin`]).
///
/// Stage either a full image ([`Txn::put_store_file`]) or appended
/// units ([`Txn::append_units`]), then [`Txn::commit`]. Mixing both in
/// one transaction is an error, as is committing an empty transaction.
/// Dropping the handle without committing abandons the staged work (no
/// I/O has happened).
pub struct Txn<'a, I: StoreIo> {
    store: &'a mut DurableStore<I>,
    /// A staged full image: the serialized store file plus an owned copy
    /// that becomes the new head.
    image: Option<(Vec<u8>, StoreFile)>,
    appends: Vec<(String, Vec<UPointRecord>)>,
}

impl<I: StoreIo> Txn<'_, I> {
    /// Stage a [`StoreFile`] as a full-image commit (replacing any
    /// previously staged image). The file is serialized now — encoding
    /// errors surface here, before any I/O.
    pub fn put_store_file(&mut self, file: &StoreFile) -> DecodeResult<()> {
        let bytes = file.to_bytes()?;
        let copy = StoreFile::from_parts(file.store().fork(), file.catalog().clone());
        self.image = Some((bytes, copy));
        Ok(())
    }

    /// Stage units appended to the `moving(point)` root `name` (the
    /// delta commit path). Batches accumulate in call order; the same
    /// root may appear multiple times.
    pub fn append_units(&mut self, name: &str, units: &[UPoint]) {
        let records: Vec<UPointRecord> = units
            .iter()
            .map(|u| UPointRecord {
                interval: *u.interval(),
                motion: *u.motion(),
            })
            .collect();
        self.appends.push((name.to_string(), records));
    }

    /// Number of staged appended units across all batches.
    #[must_use]
    pub fn staged_units(&self) -> usize {
        self.appends.iter().map(|(_, r)| r.len()).sum()
    }

    /// Commit the staged work as the next generation and return its
    /// number. Consumes the transaction.
    ///
    /// On an error return the commit may or may not have become durable
    /// (exactly like a real crashed process); reopening the directory
    /// yields either the previous or the new state, never a mix.
    pub fn commit(self) -> DecodeResult<u64> {
        match (self.image, self.appends.is_empty()) {
            (Some(_), false) => Err(DecodeError::BadStructure {
                what: "durable transaction",
                detail: "a transaction stages either a full image or appends, not both".into(),
            }),
            (None, true) => Err(DecodeError::BadStructure {
                what: "durable transaction",
                detail: "empty transaction (stage an image or appends before commit)".into(),
            }),
            (Some((bytes, file)), true) => self.store.commit_full(&bytes, file),
            (None, false) => self.store.commit_delta(&self.appends),
        }
    }
}

impl DurableStore<crate::io::MemIo> {
    /// Options builder — the one open/create entry point (see
    /// [`StoreOptions`]). Anchored on one concrete `I` so that
    /// `DurableStore::options()` needs no turbofish; the builder itself
    /// is I/O-agnostic and [`StoreOptions::open`] accepts any
    /// [`StoreIo`].
    #[must_use]
    pub fn options() -> StoreOptions {
        StoreOptions::new()
    }
}

/// Pluggable index rebuild: given the compacted generation a
/// maintenance commit is about to write (frozen in memory, not yet
/// committed), return a full [`StoreFile`] with a fresh index attached
/// (or `None` when there is nothing to rebuild); that file is committed
/// in place of the compacted one.
/// Supplied by `mob-rel` (`rebuild_index_root`), which can see the
/// relation schema this crate cannot.
pub type Rebuilder = Arc<dyn Fn(&Generation) -> DecodeResult<Option<StoreFile>> + Send + Sync>;

impl<I: StoreIo> DurableStore<I> {
    /// Begin a transaction (see [`Txn`]).
    pub fn begin(&mut self) -> Txn<'_, I> {
        Txn {
            store: self,
            image: None,
            appends: Vec::new(),
        }
    }

    /// Full-image commit of the serialized `payload` of `file`: shadow
    /// write → fsync → atomic rename, then prune snapshots older than
    /// the previous generation and every delta the new snapshot
    /// supersedes.
    fn commit_full(&mut self, payload: &[u8], file: StoreFile) -> DecodeResult<u64> {
        let generation = self.generation() + 1;
        let image = encode_image(generation, self.chunk_size, payload);
        let tmp = tmp_name(generation);
        let fin = snapshot_name(generation);
        self.io.write_file(&tmp, &image)?;
        self.io.sync(&tmp)?;
        self.io.rename(&tmp, &fin)?;
        self.head = Arc::new(Generation::from_store_file(generation, file, Vec::new()));
        self.deltas_since_snapshot = 0;
        self.delta_bytes_since_snapshot = 0;
        mob_obs::metric!("durable.commits").add(1);
        mob_obs::metric!("durable.bytes_committed").add(image.len() as u64);
        // Keep the current and the previous generation; everything older
        // is garbage, as is every delta folded into this snapshot (and
        // every prune happens *after* the new snapshot is durable).
        // Pruning is best-effort: the commit above already landed, so a
        // failed remove must not turn a durable success into an error —
        // the shadowed file is swept by the next open or the next
        // commit's prune, and the failure is counted.
        let mut prune_failures = 0u64;
        let names = match self.io.list() {
            Ok(names) => names,
            Err(_) => {
                prune_failures += 1;
                Vec::new()
            }
        };
        for name in names {
            let dead = match (parse_snapshot_name(&name), parse_delta_name(&name)) {
                (Some(g), _) => g + 1 < generation,
                (_, Some(g)) => g <= generation,
                _ => false,
            };
            if dead && self.io.remove(&name).is_err() {
                prune_failures += 1;
            }
        }
        if prune_failures > 0 {
            mob_obs::metric!("durable.prune_failures").add(prune_failures);
        }
        Ok(generation)
    }

    /// Delta commit: validate the appends against the current generation
    /// in memory, then append + fsync one `delta-<g>.mob` file. I/O cost
    /// is proportional to the appended units, not the store.
    fn commit_delta(&mut self, appends: &[(String, Vec<UPointRecord>)]) -> DecodeResult<u64> {
        let base = self.generation();
        let generation = base + 1;
        // Apply in memory first: a bad batch fails before any I/O.
        let next = Arc::new(self.head.apply_appends(generation, appends)?);
        let payload = encode_delta_payload(base, appends)?;
        let image = encode_image(generation, self.chunk_size, &payload);
        let name = delta_name(generation);
        if self.io.exists(&name) {
            // Garbage from a previous writer that died before this
            // generation became durable.
            self.io.remove(&name)?;
        }
        self.io.append_file(&name, &image)?;
        self.io.sync(&name)?;
        self.head = next;
        self.deltas_since_snapshot += 1;
        self.delta_bytes_since_snapshot += image.len() as u64;
        mob_obs::metric!("durable.commits").add(1);
        mob_obs::metric!("durable.delta_commits").add(1);
        mob_obs::metric!("durable.bytes_committed").add(image.len() as u64);
        Ok(generation)
    }

    /// Fold the delta chain into a fresh full snapshot with no index
    /// rebuild: [`DurableStore::compact_with`] without a rebuilder.
    pub fn compact(&mut self) -> DecodeResult<u64> {
        self.compact_with(None).map(|(committed, _)| committed)
    }

    /// One maintenance commit. Rewrite every live root of the current
    /// generation into a fresh page store that shares the live blobs'
    /// buffers ([`Generation::rebuild_store_file`]), freeze it as the
    /// in-memory generation it will become, run `rebuilder` on that, and
    /// commit the rebuilder's file — or the compacted one, when there is
    /// no rebuilder or it returns `None` — through the full-image
    /// protocol, once. Superseded blobs and delta files are dropped; the
    /// new generation has an empty tail. Returns the committed
    /// generation and whether it holds the rebuilder's file.
    ///
    /// Commit-or-nothing: a failed rewrite, rebuild or write leaves the
    /// committed chain as it was.
    pub fn compact_with(&mut self, rebuilder: Option<&Rebuilder>) -> DecodeResult<(u64, bool)> {
        let mut file = self.head.rebuild_store_file()?;
        let mut rebuilt = false;
        if let Some(rebuild) = rebuilder {
            let frozen = Generation::from_store_file(self.generation() + 1, file, Vec::new());
            file = match rebuild(&frozen)? {
                Some(indexed) => {
                    rebuilt = true;
                    indexed
                }
                None => frozen.to_store_file(),
            };
        }
        let bytes = file.to_bytes()?;
        let committed = self.commit_full(&bytes, file)?;
        mob_obs::metric!("durable.compactions").add(1);
        Ok((committed, rebuilt))
    }

    /// Pin the current committed generation for reading. The returned
    /// [`Generation`] is immutable: it keeps serving byte-identical
    /// results while later commits and compactions advance the store.
    /// A fresh store pins the empty generation 0.
    pub fn snapshot(&self) -> DecodeResult<Arc<Generation>> {
        Ok(Arc::clone(&self.head))
    }

    /// The last committed generation (0 if none).
    pub fn generation(&self) -> u64 {
        self.head.number()
    }

    /// Delta commits sitting on top of the newest full snapshot (both
    /// freshly committed and replayed on open). Compaction resets this
    /// to zero — it is the supervisor's primary trigger.
    pub fn pending_deltas(&self) -> u64 {
        self.deltas_since_snapshot
    }

    /// Encoded bytes of the pending delta chain (the supervisor's
    /// secondary, size-based trigger).
    pub fn pending_delta_bytes(&self) -> u64 {
        self.delta_bytes_since_snapshot
    }

    /// The chunk size used for payload framing on future commits.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Borrow the underlying I/O layer.
    pub fn io(&self) -> &I {
        &self.io
    }

    /// Consume the store, returning the I/O layer (used by the fault
    /// campaign to extract a crashed [`crate::io::FaultyIo`] and build
    /// its survivor state).
    pub fn into_io(self) -> I {
        self.io
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemIo;
    use crate::store_file::RootRecord;
    use mob_base::t;
    use mob_core::MovingPoint;
    use mob_spatial::pt;

    fn open_mem(dir: &MemIo) -> DurableStore<MemIo> {
        DurableStore::options()
            .chunk_size(32)
            .open(dir.clone())
            .unwrap()
    }

    #[test]
    fn snapshot_names_roundtrip_and_reject_noise() {
        assert_eq!(parse_snapshot_name(&snapshot_name(0)), Some(0));
        assert_eq!(
            parse_snapshot_name(&snapshot_name(0xdead_beef)),
            Some(0xdead_beef)
        );
        assert_eq!(
            parse_snapshot_name(&snapshot_name(u64::MAX)),
            Some(u64::MAX)
        );
        for bad in [
            "snap-.mob",
            "snap-123.mob",
            "snap-00000000000000zz.mob",
            "tmp-0000000000000001.mob",
            "snap-0000000000000001.tmp",
            "delta-0000000000000001.mob",
            "other",
        ] {
            assert_eq!(parse_snapshot_name(bad), None, "{bad}");
        }
    }

    #[test]
    fn image_roundtrip_across_chunk_boundaries() {
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 100] {
            let payload: Vec<u8> = (0..len)
                .map(|i| u8::try_from(i % 251).unwrap_or(0))
                .collect();
            let image = encode_image(7, 16, &payload);
            let img = decode_image(&image, false).unwrap();
            assert_eq!(img.generation, 7);
            assert_eq!(img.chunk_size, 16);
            assert_eq!(img.payload, payload);
            assert!(img.damaged.is_empty());
            assert_eq!(img.chunks_total, len.div_ceil(16));
        }
    }

    #[test]
    fn strict_decode_rejects_any_bit_flip() {
        let payload: Vec<u8> = (0..100u8).collect();
        let image = encode_image(3, 16, &payload);
        for pos in 0..image.len() {
            let mut bad = image.clone();
            bad[pos] ^= 1;
            assert!(
                decode_image(&bad, false).is_err(),
                "flip at byte {pos} escaped the strict decoder"
            );
        }
    }

    #[test]
    fn degraded_decode_zero_fills_and_reports_damaged_chunks() {
        let payload: Vec<u8> = (0..100u8).collect();
        let image = encode_image(3, 16, &payload);
        // Flip one byte inside chunk 2's frame. Frames: superblock at
        // 0..12+32, then chunks of 12+16 bytes each.
        let chunk2_frame = (12 + 32) + 2 * (12 + 16);
        let mut bad = image.clone();
        bad[chunk2_frame + 12 + 3] ^= 0x40;
        let img = decode_image(&bad, true).unwrap();
        assert_eq!(img.chunks_corrupt, 1);
        assert_eq!(img.damaged, vec![(32, 48)]);
        // Healthy bytes intact, damaged chunk zero-filled.
        assert_eq!(&img.payload[..32], &payload[..32]);
        assert_eq!(&img.payload[32..48], &[0u8; 16]);
        assert_eq!(&img.payload[48..], &payload[48..]);
        // Superblock damage is fatal even in degraded mode.
        let mut sbbad = image.clone();
        sbbad[12 + 3] ^= 1;
        assert!(decode_image(&sbbad, true).is_err());
    }

    /// A store file holding one `moving(point)` root `name` sampled at
    /// `(t, x)` pairs.
    fn file_with(name: &str, samples: &[(f64, f64)]) -> StoreFile {
        let s: Vec<_> = samples.iter().map(|&(ti, x)| (t(ti), pt(x, 0.0))).collect();
        let mut file = StoreFile::new();
        let stored =
            crate::mapping_store::save_mpoint(&MovingPoint::from_samples(&s), file.store_mut());
        file.put(name, RootRecord::MPoint(stored));
        file
    }

    fn commit_file(store: &mut DurableStore<MemIo>, file: &StoreFile) -> u64 {
        let mut txn = store.begin();
        txn.put_store_file(file).unwrap();
        txn.commit().unwrap()
    }

    #[test]
    fn commit_open_roundtrip_and_generation_sequence() {
        let dir = MemIo::new();
        let mut store = open_mem(&dir);
        assert_eq!(store.generation(), 0);
        let files: Vec<StoreFile> = [1.0, 2.0, 3.0]
            .iter()
            .map(|&x| file_with("car", &[(0.0, 0.0), (1.0, x)]))
            .collect();
        for (i, file) in files.iter().enumerate() {
            assert_eq!(commit_file(&mut store, file), i as u64 + 1);
        }
        // Prune keeps exactly the current and previous generation.
        let names = dir.list().unwrap();
        assert_eq!(
            names,
            vec![snapshot_name(2), snapshot_name(3)],
            "prune keeps current + previous"
        );
        let reopened = open_mem(&dir);
        assert_eq!(reopened.generation(), 3);
        assert_eq!(reopened.snapshot().unwrap().entries(), files[2].entries());
    }

    #[test]
    fn open_fresh_directory_yields_empty_generation() {
        let store = DurableStore::options().open(MemIo::new()).unwrap();
        assert_eq!(store.generation(), 0);
        let snap = store.snapshot().unwrap();
        assert_eq!(snap.number(), 0);
        assert!(snap.entries().is_empty());
    }

    #[test]
    fn open_skips_a_torn_newest_snapshot() {
        let dir = MemIo::new();
        let mut store = open_mem(&dir);
        let old = file_with("car", &[(0.0, 0.0), (1.0, 1.0)]);
        commit_file(&mut store, &old);
        // Forge a torn generation-2 snapshot: valid name, damaged bytes.
        let new = file_with("car", &[(0.0, 0.0), (2.0, 5.0)]);
        let mut image = encode_image(2, 32, &new.to_bytes().unwrap());
        let mid = image.len() / 2;
        image.truncate(mid);
        dir.write_file(&snapshot_name(2), &image).unwrap();
        // And a stale shadow file.
        dir.write_file(&tmp_name(3), b"junk").unwrap();
        let reopened = open_mem(&dir);
        assert_eq!(reopened.snapshot().unwrap().entries(), old.entries());
        assert_eq!(reopened.generation(), 1);
        // The torn snapshot and the shadow file were cleaned up.
        assert_eq!(dir.list().unwrap(), vec![snapshot_name(1)]);
    }

    #[test]
    fn open_rejects_a_snapshot_whose_name_lies_about_its_generation() {
        let dir = MemIo::new();
        // A fully valid generation-1 image filed under the name of
        // generation 5: the mismatch must not be trusted.
        let image = encode_image(1, 32, b"impostor");
        dir.write_file(&snapshot_name(5), &image).unwrap();
        let store = open_mem(&dir);
        assert_eq!(store.generation(), 0);
        assert!(store.snapshot().unwrap().entries().is_empty());
    }

    #[test]
    fn zero_or_absurd_chunk_sizes_are_errors() {
        assert!(DurableStore::options()
            .chunk_size(0)
            .open(MemIo::new())
            .is_err());
        assert!(DurableStore::options()
            .chunk_size(usize::MAX)
            .open(MemIo::new())
            .is_err());
        // And arriving from a corrupt superblock: patch chunk_size to 0
        // and re-seal the superblock frame so only the field is wrong.
        let image = encode_image(1, 32, b"payload");
        let mut sb = image[12..12 + 32].to_vec();
        sb[20..24].copy_from_slice(&0u32.to_le_bytes());
        let mut forged = Vec::new();
        seal_frame(&mut forged, &sb);
        forged.extend_from_slice(&image[12 + 32..]);
        assert!(matches!(
            decode_image(&forged, false),
            Err(DecodeError::BadStructure { .. })
        ));
    }

    fn units_for(samples: &[(f64, f64)]) -> Vec<UPoint> {
        let s: Vec<_> = samples.iter().map(|&(ti, x)| (t(ti), pt(x, 0.0))).collect();
        MovingPoint::from_samples(&s).units().to_vec()
    }

    #[test]
    fn delta_commits_replay_on_open() {
        let dir = MemIo::new();
        let mut store = open_mem(&dir);
        let mut txn = store.begin();
        txn.append_units("car", &units_for(&[(0.0, 0.0), (1.0, 1.0)]));
        assert_eq!(txn.commit().unwrap(), 1);
        let mut txn = store.begin();
        txn.append_units("car", &units_for(&[(1.0, 1.0), (2.0, 5.0)]));
        txn.append_units("bus", &units_for(&[(0.0, 9.0), (2.0, 7.0)]));
        assert_eq!(txn.commit().unwrap(), 2);
        // On-disk layout: no snapshots yet, two delta files.
        assert_eq!(dir.list().unwrap(), vec![delta_name(1), delta_name(2)],);
        let live = store.snapshot().unwrap();
        // Reopen replays to the same state.
        let reopened = open_mem(&dir);
        assert_eq!(reopened.generation(), 2);
        let replayed = reopened.snapshot().unwrap();
        assert_eq!(replayed.number(), 2);
        assert_eq!(replayed.entries().len(), live.entries().len());
        for ((ln, lr), (rn, rr)) in live.entries().iter().zip(replayed.entries()) {
            assert_eq!(ln, rn);
            match (lr, rr) {
                (RootRecord::MPoint(a), RootRecord::MPoint(b)) => {
                    assert_eq!(
                        crate::dbarray::load_array::<UPointRecord>(&a.units, live.store()).unwrap(),
                        crate::dbarray::load_array::<UPointRecord>(&b.units, replayed.store())
                            .unwrap()
                    );
                }
                other => panic!("unexpected roots {other:?}"),
            }
        }
        assert!(replayed.tail_cube("car").is_some() && replayed.tail_cube("bus").is_some());
        assert_eq!(
            replayed.tail(),
            live.tail(),
            "replay grows the tail commit grew"
        );
    }

    #[test]
    fn torn_delta_recovers_to_the_previous_generation() {
        let dir = MemIo::new();
        let mut store = open_mem(&dir);
        let mut txn = store.begin();
        txn.append_units("car", &units_for(&[(0.0, 0.0), (1.0, 1.0)]));
        txn.commit().unwrap();
        // Tear the second delta by hand.
        let mut txn = store.begin();
        txn.append_units("car", &units_for(&[(1.0, 1.0), (2.0, 2.0)]));
        txn.commit().unwrap();
        let good = dir.read_file(&delta_name(2)).unwrap();
        dir.write_file(&delta_name(2), &good[..good.len() / 2])
            .unwrap();
        let reopened = open_mem(&dir);
        assert_eq!(reopened.generation(), 1, "torn delta rolled back");
        assert!(!dir.exists(&delta_name(2)), "torn delta removed");
        // A gap in the chain also ends replay: forge delta 5.
        dir.write_file(&delta_name(5), &good).unwrap();
        let reopened = open_mem(&dir);
        assert_eq!(reopened.generation(), 1);
        assert!(!dir.exists(&delta_name(5)));
    }

    #[test]
    fn snapshot_pins_are_immutable_across_commits() {
        let dir = MemIo::new();
        let mut store = open_mem(&dir);
        let mut txn = store.begin();
        txn.append_units("car", &units_for(&[(0.0, 0.0), (1.0, 1.0)]));
        txn.commit().unwrap();
        let pinned = store.snapshot().unwrap();
        let before = crate::dbarray::load_array::<UPointRecord>(
            match pinned.get("car").unwrap() {
                RootRecord::MPoint(m) => &m.units,
                other => panic!("{other:?}"),
            },
            pinned.store(),
        )
        .unwrap();
        // Writer keeps committing and compacting.
        let mut txn = store.begin();
        txn.append_units("car", &units_for(&[(1.0, 1.0), (5.0, 9.0)]));
        txn.commit().unwrap();
        store.compact().unwrap();
        // The pinned generation still reads the original bytes.
        assert_eq!(pinned.number(), 1);
        let after = crate::dbarray::load_array::<UPointRecord>(
            match pinned.get("car").unwrap() {
                RootRecord::MPoint(m) => &m.units,
                other => panic!("{other:?}"),
            },
            pinned.store(),
        )
        .unwrap();
        assert_eq!(before, after);
        // While the store's current state moved on.
        assert_eq!(store.snapshot().unwrap().number(), 3);
    }

    #[test]
    fn compact_folds_deltas_into_a_snapshot() {
        let dir = MemIo::new();
        let mut store = open_mem(&dir);
        for k in 0..4 {
            let t0 = f64::from(k);
            let mut txn = store.begin();
            txn.append_units("car", &units_for(&[(t0, t0), (t0 + 1.0, t0 + 1.0)]));
            txn.commit().unwrap();
        }
        assert_eq!(store.generation(), 4);
        let before = store.snapshot().unwrap();
        assert_eq!(store.compact().unwrap(), 5);
        // All deltas folded; one snapshot on disk.
        assert_eq!(dir.list().unwrap(), vec![snapshot_name(5)]);
        let after = store.snapshot().unwrap();
        assert!(after.tail().is_empty(), "compaction empties the tail");
        // Reopen agrees, without any replay.
        let reopened = open_mem(&dir);
        assert_eq!(reopened.generation(), 5);
        let m_before = match before.get("car").unwrap() {
            RootRecord::MPoint(m) => {
                crate::dbarray::load_array::<UPointRecord>(&m.units, before.store()).unwrap()
            }
            other => panic!("{other:?}"),
        };
        for g in [&after, &reopened.snapshot().unwrap()] {
            let m = match g.get("car").unwrap() {
                RootRecord::MPoint(m) => {
                    crate::dbarray::load_array::<UPointRecord>(&m.units, g.store()).unwrap()
                }
                other => panic!("{other:?}"),
            };
            assert_eq!(m, m_before);
        }
    }

    #[test]
    fn transactions_reject_empty_and_mixed_stages() {
        let mut store = DurableStore::options().open(MemIo::new()).unwrap();
        assert!(store.begin().commit().is_err(), "empty transaction");
        let mut txn = store.begin();
        txn.put_store_file(&StoreFile::new()).unwrap();
        txn.append_units("car", &units_for(&[(0.0, 0.0), (1.0, 1.0)]));
        assert!(txn.commit().is_err(), "mixed transaction");
        assert_eq!(
            store.generation(),
            0,
            "rejected transactions commit nothing"
        );
    }

    /// Run [`recover`] on `dir`, then open it, and check that the two
    /// agree: the same generation and catalog, and `open` removes
    /// exactly the files the record discards.
    fn recover_then_open(dir: &MemIo) -> (Recovery, DurableStore<MemIo>) {
        let before = dir.dump();
        let (head, recovery) = recover(dir, false).unwrap();
        assert_eq!(dir.dump(), before, "recover changed the directory");
        let store = open_mem(dir);
        assert_eq!(store.generation(), head.number());
        assert_eq!(store.snapshot().unwrap().entries(), head.entries());
        let kept: Vec<String> = recovery
            .files
            .iter()
            .filter(|f| !matches!(f.fate, Fate::Discarded(_)))
            .map(|f| f.name.clone())
            .collect();
        assert_eq!(dir.list().unwrap(), kept, "open removes the discards");
        (recovery, store)
    }

    fn fate<'a>(recovery: &'a Recovery, name: &str) -> &'a Fate {
        &recovery
            .files
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("{name} missing from {recovery:?}"))
            .fate
    }

    #[test]
    fn recover_keeps_the_base_the_fallback_and_the_replayed_chain() {
        let dir = MemIo::new();
        let mut store = open_mem(&dir);
        commit_file(&mut store, &file_with("bus", &[(0.0, 0.0), (1.0, 1.0)]));
        commit_file(&mut store, &file_with("bus", &[(0.0, 0.0), (1.0, 2.0)]));
        for k in 0..2 {
            let t0 = f64::from(k);
            let mut txn = store.begin();
            txn.append_units("car", &units_for(&[(t0, t0), (t0 + 1.0, t0 + 1.0)]));
            txn.commit().unwrap();
        }
        dir.write_file("notes.txt", b"operator notes").unwrap();
        let delta_bytes = [3, 4]
            .iter()
            .map(|&g| dir.read_file(&delta_name(g)).unwrap().len() as u64)
            .sum::<u64>();
        let (recovery, reopened) = recover_then_open(&dir);
        assert_eq!(recovery.base, Some(2));
        assert_eq!(fate(&recovery, &snapshot_name(1)), &Fate::Fallback);
        assert_eq!(fate(&recovery, &snapshot_name(2)), &Fate::Base);
        assert!(matches!(
            fate(&recovery, &delta_name(3)),
            Fate::Replayed { batches: 1, .. }
        ));
        assert_eq!(fate(&recovery, "notes.txt"), &Fate::Ignored);
        assert_eq!(recovery.discarded().count(), 0);
        assert_eq!(recovery.replayed(), (2, delta_bytes));
        assert_eq!(reopened.generation(), 4);
        assert_eq!(
            (reopened.pending_deltas(), reopened.pending_delta_bytes()),
            (2, delta_bytes)
        );
    }

    #[test]
    fn recover_discards_torn_snapshots() {
        let dir = MemIo::new();
        let mut store = open_mem(&dir);
        commit_file(&mut store, &file_with("car", &[(0.0, 0.0), (1.0, 1.0)]));
        let good = dir.read_file(&snapshot_name(1)).unwrap();
        // Generation 2 torn mid-write; generation 3's name lies.
        dir.write_file(&snapshot_name(2), &good[..good.len() / 2])
            .unwrap();
        dir.write_file(&snapshot_name(3), &good).unwrap();
        let (recovery, reopened) = recover_then_open(&dir);
        for g in [2, 3] {
            assert!(matches!(
                fate(&recovery, &snapshot_name(g)),
                Fate::Discarded(Discard::TornSnapshot(_))
            ));
        }
        assert_eq!(recovery.base, Some(1));
        assert_eq!(recovery.recoveries(), 2);
        assert_eq!(reopened.generation(), 1);
    }

    #[test]
    fn recover_discards_superseded_snapshots() {
        let dir = MemIo::new();
        let mut store = open_mem(&dir);
        for x in [1.0, 2.0, 3.0] {
            commit_file(&mut store, &file_with("car", &[(0.0, 0.0), (1.0, x)]));
        }
        // A prune that never happened; the content is never read.
        dir.write_file(&snapshot_name(1), b"old snapshot").unwrap();
        let (recovery, reopened) = recover_then_open(&dir);
        assert_eq!(
            fate(&recovery, &snapshot_name(1)),
            &Fate::Discarded(Discard::Superseded)
        );
        assert_eq!(fate(&recovery, &snapshot_name(2)), &Fate::Fallback);
        assert_eq!(recovery.recoveries(), 0, "routine garbage");
        assert_eq!(reopened.generation(), 3);
    }

    #[test]
    fn recover_discards_shadowed_deltas() {
        let dir = MemIo::new();
        let mut store = open_mem(&dir);
        commit_file(&mut store, &file_with("car", &[(0.0, 0.0), (1.0, 1.0)]));
        // A delta the snapshot already folded in.
        dir.write_file(&delta_name(1), b"folded delta").unwrap();
        let (recovery, reopened) = recover_then_open(&dir);
        assert_eq!(
            fate(&recovery, &delta_name(1)),
            &Fate::Discarded(Discard::Shadowed)
        );
        assert_eq!(recovery.recoveries(), 0, "routine garbage");
        assert_eq!(reopened.generation(), 1);
    }

    #[test]
    fn recover_discards_a_chain_gap() {
        let dir = MemIo::new();
        let mut store = open_mem(&dir);
        let mut txn = store.begin();
        txn.append_units("car", &units_for(&[(0.0, 0.0), (1.0, 1.0)]));
        txn.commit().unwrap();
        let delta = dir.read_file(&delta_name(1)).unwrap();
        dir.write_file(&delta_name(3), &delta).unwrap();
        let (recovery, reopened) = recover_then_open(&dir);
        assert_eq!(recovery.base, None, "a genesis chain");
        assert_eq!(
            fate(&recovery, &delta_name(3)),
            &Fate::Discarded(Discard::ChainGap)
        );
        assert_eq!(reopened.generation(), 1);
    }

    #[test]
    fn recover_discards_an_undecodable_delta_and_the_chain_above_it() {
        let dir = MemIo::new();
        let mut store = open_mem(&dir);
        for k in 0..3 {
            let t0 = f64::from(k);
            let mut txn = store.begin();
            txn.append_units("car", &units_for(&[(t0, t0), (t0 + 1.0, t0 + 1.0)]));
            txn.commit().unwrap();
        }
        let good = dir.read_file(&delta_name(2)).unwrap();
        dir.write_file(&delta_name(2), &good[..good.len() / 2])
            .unwrap();
        let (recovery, reopened) = recover_then_open(&dir);
        assert!(matches!(
            fate(&recovery, &delta_name(2)),
            Fate::Discarded(Discard::Undecodable(_))
        ));
        assert_eq!(
            fate(&recovery, &delta_name(3)),
            &Fate::Discarded(Discard::ChainGap)
        );
        assert_eq!(recovery.recoveries(), 2);
        assert_eq!(reopened.generation(), 1);
    }

    #[test]
    fn recover_discards_an_inapplicable_delta() {
        // Directory X stores `car` up to t = 10. A sibling directory
        // whose `car` ends at t = 3 commits delta-2 appending from t = 5;
        // copied into X, it decodes and links to X's generation 1 but
        // overlaps X's stored tail.
        let x = MemIo::new();
        let mut store = open_mem(&x);
        let mut txn = store.begin();
        txn.append_units("car", &units_for(&[(0.0, 0.0), (10.0, 10.0)]));
        txn.commit().unwrap();
        let y = MemIo::new();
        let mut sibling = open_mem(&y);
        for samples in [[(0.0, 0.0), (3.0, 3.0)], [(5.0, 5.0), (8.0, 8.0)]] {
            let mut txn = sibling.begin();
            txn.append_units("car", &units_for(&samples));
            txn.commit().unwrap();
        }
        x.write_file(&delta_name(2), &y.read_file(&delta_name(2)).unwrap())
            .unwrap();
        let (recovery, reopened) = recover_then_open(&x);
        assert!(matches!(
            fate(&recovery, &delta_name(2)),
            Fate::Discarded(Discard::Inapplicable(_))
        ));
        assert_eq!(reopened.generation(), 1);
    }

    #[test]
    fn recover_discards_tmp_leftovers() {
        let dir = MemIo::new();
        let mut store = open_mem(&dir);
        commit_file(&mut store, &file_with("car", &[(0.0, 0.0), (1.0, 1.0)]));
        dir.write_file(&tmp_name(2), b"half a snapshot").unwrap();
        let (recovery, reopened) = recover_then_open(&dir);
        assert_eq!(
            fate(&recovery, &tmp_name(2)),
            &Fate::Discarded(Discard::TmpLeftover)
        );
        assert_eq!(recovery.recoveries(), 0, "routine garbage");
        assert_eq!(reopened.generation(), 1);
    }

    #[test]
    fn recover_refuses_a_base_that_is_not_a_store_file() {
        // An intact image whose payload is not a store file: recovery
        // has no generation to offer, and open refuses without touching
        // the directory.
        let dir = MemIo::new();
        dir.write_file(&snapshot_name(1), &encode_image(1, 32, b"raw bytes"))
            .unwrap();
        dir.write_file(&tmp_name(2), b"junk").unwrap();
        assert!(recover(&dir, false).is_err());
        assert!(DurableStore::options().open(dir.clone()).is_err());
        assert_eq!(dir.list().unwrap(), vec![snapshot_name(1), tmp_name(2)]);
    }
}
