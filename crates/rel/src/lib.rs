//! # `mob-rel` — relational embedding of the moving-objects types
//!
//! Section 2 of the paper embeds the spatio-temporal data types "as
//! attribute types into object-relational or other data models". This
//! crate provides the minimal relational engine needed to run the
//! paper's example queries end to end: typed schemas, relations with
//! selection / projection / extension / nested-loop join, and the two
//! queries of Section 2 implemented verbatim over `mpoint` attributes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod plan;
pub mod queries;
pub mod relation;
pub mod scan;
pub mod schema;
pub mod value;

pub use catalog::{index_rebuilder, rebuild_index_root, save_relation, OpenRelOpts};
pub use plan::{Plan, Probe};
pub use queries::{
    close_encounters, closest_approach, closest_approach_seq, long_flights, planes_relation,
    planes_schema, storm_exposure,
};
pub use relation::{RelIndex, Relation, Tuple};
pub use scan::{IndexPolicy, OnError, QueryStats, ScanError, ScanOpts, ScanResult};
pub use schema::Schema;
pub use value::{AttrType, AttrValue, MPointRef, MPointSeq};
