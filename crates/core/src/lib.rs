//! # `mob-core` — the sliced representation of moving objects
//!
//! The primary contribution of Forlizzi, Güting, Nardelli & Schneider
//! (SIGMOD 2000): discrete representations for the temporal types of the
//! abstract model, as **units** assembled by the **mapping** constructor
//! (Sec 3.2.4–3.2.6), plus the algorithms of Sec 5.
//!
//! * [`unit::Unit`] — the generic temporal-unit concept;
//! * [`uconst::ConstUnit`], [`ureal::UReal`], [`upoint::UPoint`],
//!   [`upoints::UPoints`], [`uline::ULine`], [`uregion::URegion`] — the
//!   unit types, with their carrier-set invariants and `ι`/`ι_s`/`ι_e`
//!   evaluation;
//! * [`mapping::Mapping`] — the sliced representation with binary-search
//!   `atinstant` (Algorithm 5.1), `deftime`, `atperiods`, `initial`,
//!   `final`;
//! * [`seq::UnitSeq`] — the query-over-storage access layer: the
//!   Section-5 algorithms (`atinstant`, `deftime`, `atperiods`, the lift
//!   skeletons) written once, generic over in-memory mappings *and*
//!   storage-backed views;
//! * [`refinement`](mod@crate::refinement) — the refinement partition (Fig 8);
//! * [`lift`] — the generic skeleton of binary lifted operations
//!   (Algorithm 5.2's outer loop), generic over [`seq::UnitSeq`];
//! * [`batch`] — set-at-a-time query kernels: a monotone
//!   [`batch::UnitCursor`] with galloping seek and `batch_at_instant`
//!   over sorted probe sets;
//! * [`moving`] — the eight moving types of Table 3 with their
//!   operations (`trajectory`, `distance`, `atmin`, `inside`, `area`, …);
//! * [`ops`] — Tables 1–3 as inspectable catalogues;
//! * [`semantics`] — σ-based cross-checking helpers;
//! * [`validate`](mod@crate::validate) — deep re-checking of the
//!   carrier-set invariants over units, mappings, and any [`seq::UnitSeq`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod index;
pub mod ingest;
pub mod lift;
pub mod mapping;
pub mod moving;
pub mod mseg;
pub mod ops;
pub mod refinement;
pub mod semantics;
pub mod seq;
pub mod uconst;
pub mod uline;
pub mod unit;
pub mod upoint;
pub mod upoints;
pub mod ureal;
pub mod uregion;
pub mod validate;

pub use batch::{batch_at_instant, UnitCursor};
pub use index::{
    run_cubes, run_cubes_with, unit_cubes, Candidates, CodedEntry, IndexEntry, IndexNode, RTree,
    CODE_MAX, DEFAULT_FANOUT, DEFAULT_RUN_DIVISOR,
};
pub use ingest::TailBuilder;
pub use lift::{lift1, lift2};
pub use mapping::{Mapping, MappingBuilder};
pub use moving::mpoint::{
    distance_seq, distance_travelled_seq, ever_inside_seq, inside_region_seq, trajectory_seq,
};
pub use moving::mregion::inside;
pub use moving::{
    MovingBool, MovingInt, MovingLine, MovingPoint, MovingPoints, MovingReal, MovingRegion,
    MovingString,
};
pub use mseg::MSeg;
pub use refinement::{
    refinement, refinement_both, refinement_both_seq, walk_refinement, RefinedSlice,
};
pub use seq::UnitSeq;
pub use uconst::ConstUnit;
pub use uline::ULine;
pub use unit::Unit;
pub use upoint::{Coincidence, PointMotion, UPoint};
pub use upoints::UPoints;
pub use ureal::{UReal, ValueTimes};
pub use uregion::{MCycle, MFace, URegion};
pub use validate::check_unit_seq;
