#![warn(missing_docs)]

//! # engine-rel — a shared-nothing relational DBMS with blob UDFs
//! (Myria analog)
//!
//! Reproduces the architectural properties of Myria the paper's analysis
//! rests on:
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
//!   ([`MyriaConnection::create_function`]), reusing the reference kernels.
//! * **Pipelined iterator execution** — operators stream tuples without
//!   materializing (fast, but hard-fails on memory exhaustion); the
//!   [`ExecutionMode`] enum also offers `Materialized` and `MultiQuery`
//!   (Figure 15's three strategies).
//! * **Broadcast join** — small relations replicate to all workers.
//!
//! The eager executor really computes (UDF apply and UDA group-by run one
//! `parexec` pool worker per fragment); [`RelEngineProfile`] exports the
//! lowering constants for `simcluster`.
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
pub use value::{tuple_nbytes, Tuple, Value, ValueType};
