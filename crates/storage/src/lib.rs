//! # `mob-storage` — DBMS attribute data structures (Sec 4)
//!
//! The paper's Section 4 maps the discrete model onto data structures
//! usable as attribute types inside a DBMS: no pointers (array indices
//! only), a fixed *root record* per value, and *database arrays* that are
//! stored inline or outside the tuple depending on size \[DG98\].
//!
//! * [`page::PageStore`] — a simulated page store: every blob is one
//!   contiguous range of a shared buffer, read and written in counted
//!   pages; plus blob quarantine and checksummed page frames;
//! * [`io`](mod@crate::io) — the [`io::StoreIo`] gate to the outside
//!   world: in-memory, real-filesystem, and deterministic
//!   fault-injecting ([`io::FaultyIo`]) implementations;
//! * [`durable`](mod@crate::durable) — transactional, crash-consistent
//!   storage ([`durable::DurableStore`]): builder opens
//!   (`options().open(io)`), full-image commits (shadow write → fsync →
//!   atomic rename) and O(appended-units) WAL delta commits through
//!   [`durable::Txn`], generation-numbered immutable MVCC snapshots
//!   ([`durable::DurableStore::snapshot`]), compaction, and one
//!   read-only recovery routine ([`durable::recover`]) behind both
//!   strict and degraded opens and the `mob-check chain` audit;
//! * [`delta`](mod@crate::delta) — the WAL record format linking each
//!   delta to its base generation;
//! * [`catalog`](mod@crate::catalog) — the root catalog
//!   ([`catalog::Catalog`]): named root records in insertion order with
//!   a sorted name index, shared by store files and generations;
//! * [`generation`](mod@crate::generation) — immutable catalog +
//!   page-store pairs ([`generation::Generation`]) that commits fork
//!   copy-on-write, with the paper's ι endpoint cleanup at append seams;
//! * [`ingest`](mod@crate::ingest) — [`ingest::Ingestor`], per-object
//!   trajectory tails sealed into delta transactions;
//! * [`supervisor`](mod@crate::supervisor) — fault-tolerant background
//!   maintenance: a [`supervisor::Supervisor`] watches the delta chain
//!   and runs compaction + index rebuild through a
//!   [`supervisor::RetryPolicy`] (transient/permanent classification,
//!   bounded seeded-jitter backoff), degrading to manual mode instead
//!   of panicking;
//! * [`clock`](mod@crate::clock) — the injectable [`clock::Clock`]
//!   behind every maintenance sleep (virtual time in tests);
//! * [`checksum`](mod@crate::checksum) — the dependency-free 64-bit
//!   content checksum sealing every durable byte;
//! * [`record::FixedRecord`] — pointer-free fixed-size records;
//! * [`dbarray`] — database arrays with automatic inline/external
//!   placement and Fig 7's *subarrays*;
//! * [`line_store`] / [`region_store`] — halfsegment arrays, cycle/face
//!   link structure (Sec 4.1);
//! * [`mapping_store`] — the sliced-representation layouts (Sec 4.2–4.3,
//!   Fig 7) for all eight moving types' storage shapes;
//! * [`relation_store`] — relations as one root record each: the
//!   schema, scalar cells inline, and the names of the value roots;
//! * [`view`](mod@crate::view) — **query-over-storage**: lazy
//!   [`view::MappingView`]s implementing `mob-core`'s `UnitSeq`, so
//!   Section-5 algorithms run directly on serialized records with
//!   `O(log n)` unit decodes per `atinstant`;
//! * [`tuple`](mod@crate::tuple) — tuple layout accounting for the experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod checked;
pub mod checksum;
pub mod clock;
pub mod dbarray;
pub mod delta;
pub mod durable;
pub mod generation;
pub mod index_store;
pub mod ingest;
pub mod io;
pub mod line_store;
pub mod mapping_store;
pub mod page;
pub mod range_store;
pub mod record;
pub mod region_store;
pub mod relation_store;
pub mod store_file;
pub mod supervisor;
pub mod tuple;
pub mod view;

pub use catalog::{Catalog, Finger};
pub use checksum::{checksum64, checksum64_seeded, CHECKSUM_SEED};
pub use clock::{Clock, SystemClock, VirtualClock};
pub use dbarray::{
    load_array, read_array_bytes, read_subarray, save_array, Placement, SavedArray, SubArrayRef,
    INLINE_THRESHOLD,
};
pub use delta::{
    decode_delta_payload, delta_name, encode_delta_payload, parse_delta_name, DeltaPayload,
    DELTA_MAGIC,
};
pub use durable::{
    decode_image_degraded, decode_image_strict, generation_from_image, parse_snapshot_name,
    recover, snapshot_name, DecodedImage, Discard, DurableStore, Fate, Rebuilder, RecoveredFile,
    Recovery, StoreOptions, Txn, DEFAULT_CHUNK_SIZE, DURABLE_MAGIC, DURABLE_VERSION,
};
pub use generation::{splice_units, CheckedMPoint, Generation};
pub use index_store::{load_index, save_index, StoredIndex};
pub use ingest::Ingestor;
pub use io::{FaultMask, FaultyIo, FsIo, MemIo, StoreIo, FAULT_MASKS, STORAGE_FULL_MARKER};
pub use page::{
    open_frame, seal_frame, validate_page_size, BlobId, PageStore, DEFAULT_PAGE_SIZE,
    FRAME_OVERHEAD, MAX_PAGE_SIZE,
};
pub use record::FixedRecord;
pub use relation_store::{AttrType, Cell, StoredRelation};
pub use store_file::{RootRecord, StoreFile};
pub use supervisor::{
    classify, FaultClass, MaintStatus, MaintTick, RetryOutcome, RetryPolicy, Supervisor,
    SupervisorConfig, SupervisorHandle,
};
pub use tuple::TupleLayout;
pub use view::{
    open_mbool, open_mline, open_mpoint, open_mpoints, open_mreal, open_mregion, MappingView,
    UnitRecord, Verify, DEFAULT_UNIT_CACHE,
};
