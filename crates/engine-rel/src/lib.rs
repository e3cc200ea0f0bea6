#![warn(missing_docs)]

//! # engine-rel — a shared-nothing relational DBMS with blob UDFs
//! (Myria analog)
//!
//! Runs the paper's Myria pipelines on real data (both use cases, Figure 7
//! for neuroscience). It keeps the architectural properties those
//! pipelines exercise:
//!
//! * **Relational data model with BLOBs** — relations of typed tuples;
//!   image volumes travel in a blob column holding serialized arrays
//!   ([`Value::Blob`]), so queries manipulate whole NumPy-style arrays.
//! * **Hash partitioning across workers** — relations are partitioned by a
//!   key column over `nodes × workers_per_node` workers; the
//!   workers-per-node count is the Figure 13 tuning knob.
//! * **Per-node local storage with selection pushdown** — each worker owns
//!   a local store (the PostgreSQL role); scans can push simple predicates
//!   into the store ([`Query::scan_select`]), the mechanism behind Myria's
//!   fast filter in Figure 12a.
//! * **Python UDFs and UDAs** — registered functions over blob columns
//!   ([`MyriaConnection::create_function`]), reusing the reference kernels,
//!   applied by [`Query::apply`], [`Query::flat_apply`] and
//!   [`Query::group_by`] (which re-partitions on its first key).
//! * **Broadcast join** — small relations replicate to all workers
//!   ([`Query::broadcast_join`]).
//! * **Pipelined iterator execution** — operators stream tuples without
//!   materializing. The lowering models the alternatives from
//!   [`ExecutionMode`]: `Materialized` and `MultiQuery` (Figure 15's three
//!   strategies), and the pipelined plan's hard failure on memory
//!   exhaustion.
//!
//! The eager executor really computes (UDF apply, table-UDF flat apply and
//! UDA group-by run one `parexec` pool worker per fragment);
//! [`RelEngineProfile`] exports the lowering constants for `simcluster`.
//!
//! ```
//! use engine_rel::{MyriaConnection, Query, Schema, Value, ValueType};
//!
//! let conn = MyriaConnection::connect(2, 2);
//! let schema = Schema::new(&[("id", ValueType::Int)]);
//! conn.ingest("T", schema, (0..10).map(|i| vec![Value::Int(i)]).collect(), 0);
//! let out = Query::scan_select("T", "id", |v| v.as_int() < 3).execute(&conn).unwrap();
//! assert_eq!(out.len(), 3);
//! ```

mod catalog;
mod profile;
mod query;
mod value;

pub use catalog::{MultiUda, MyriaConnection, Relation, Schema, TableUdf, Udf};
pub use profile::{ExecutionMode, RelEngineProfile};
pub use query::{Query, QueryError};
pub use value::{Tuple, Value, ValueType};
