//! A miniature query executor that offloads its set-oriented work to the
//! simulated database ASIP.
//!
//! The paper motivates its instruction set with exactly this pipeline
//! (Sections 1 and 2.3): secondary indexes produce sorted RID lists;
//! complex `WHERE` clauses intersect, union, and subtract them; `ORDER
//! BY` sorts. This crate provides the executor glue so a downstream user
//! can run whole predicate trees on any [`dbx_core::ProcModel`] and get both the
//! answer and the simulated cost:
//!
//! ```
//! use dbx_query::{Predicate, QueryEngine, Table};
//! use dbx_core::ProcModel;
//!
//! let table = Table::build(
//!     "items",
//!     &[("color", vec![1, 2, 1, 3, 1, 2]), ("size", vec![9, 9, 7, 9, 9, 7])],
//! );
//! let engine = QueryEngine::new(ProcModel::Dba2LsuEis { partial: true });
//! // WHERE color = 1 AND size = 9
//! let pred = Predicate::eq("color", 1).and(Predicate::eq("size", 9));
//! let out = engine.execute(&table, &pred).unwrap();
//! assert_eq!(out.rids, vec![0, 4]);
//! assert!(out.cycles > 0);
//! ```

pub mod engine;
pub mod error;
pub mod index;
pub mod predicate;
pub mod service;

pub use engine::{QueryEngine, QueryOutput, SortedColumn};
pub use error::QueryError;
pub use index::{SecondaryIndex, Table};
pub use predicate::Predicate;
pub use service::{
    Arrival, Completion, QueryService, Reply, Request, ServiceConfig, ServiceReport,
};
