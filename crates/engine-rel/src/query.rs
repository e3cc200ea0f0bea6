//! MyriaL-style query plans and their pipelined executor.
//!
//! A [`Query`] is an imperative-declarative chain, mirroring the paper's
//! Figure 7: scan (with optional selection pushdown into the local store),
//! broadcast join, Python-UDF apply, table-UDF flat apply, and UDA
//! group-by. Execution is per-worker and pipelined: within a worker,
//! tuples stream through the operator chain without intermediate
//! materialization; only a group-by's re-partition exchanges tuples
//! between workers.

use crate::catalog::{partition_hash, repartition, MyriaConnection, Relation, Schema};
use crate::value::{Tuple, Value, ValueType};
use parexec::{par_chunks_mut, Parallelism};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Errors raised while planning or executing a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A scanned relation is not in the catalog.
    UnknownRelation(String),
    /// A referenced UDF/UDA is not registered.
    UnknownFunction(String),
    /// A referenced column is not in the current schema.
    UnknownColumn(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::UnknownRelation(n) => write!(f, "unknown relation {n:?}"),
            QueryError::UnknownFunction(n) => write!(f, "unknown function {n:?}"),
            QueryError::UnknownColumn(n) => write!(f, "unknown column {n:?}"),
        }
    }
}

impl std::error::Error for QueryError {}

type Pred = Arc<dyn Fn(&Value) -> bool + Send + Sync>;

enum Op {
    Scan {
        relation: String,
        pushdown: Option<(String, Pred)>,
    },
    Apply {
        udf: String,
        args: Vec<String>,
        keep: Vec<String>,
        out: (String, ValueType),
    },
    FlatApply {
        udf: String,
        args: Vec<String>,
        out: Vec<(String, ValueType)>,
    },
    BroadcastJoin {
        right: String,
        left_col: String,
        right_col: String,
    },
    GroupBy {
        keys: Vec<String>,
        uda: String,
        out: Vec<(String, ValueType)>,
    },
}

/// Run `f` on every fragment, one engine worker per fragment, as each
/// Myria worker evaluates its own fragment.
fn per_fragment(fragments: &mut [Vec<Tuple>], f: impl Fn(&mut Vec<Tuple>) + Sync) {
    let workers = Parallelism::threads(fragments.len().max(1));
    par_chunks_mut(fragments, 1, workers, |_, frag| f(&mut frag[0]));
}

/// A query plan under construction.
pub struct Query {
    ops: Vec<Op>,
}

impl Query {
    /// `T = SCAN(relation)`.
    pub fn scan(relation: &str) -> Query {
        Query {
            ops: vec![Op::Scan {
                relation: relation.to_string(),
                pushdown: None,
            }],
        }
    }

    /// Scan with a selection pushed down into the per-worker local store
    /// (the PostgreSQL role): only matching tuples leave storage.
    pub fn scan_select(
        relation: &str,
        column: &str,
        pred: impl Fn(&Value) -> bool + Send + Sync + 'static,
    ) -> Query {
        Query {
            ops: vec![Op::Scan {
                relation: relation.to_string(),
                pushdown: Some((column.to_string(), Arc::new(pred))),
            }],
        }
    }

    /// `EMIT PYUDF(udf, args...) as out, keep...` — apply a registered UDF
    /// to `args` columns, keeping `keep` columns alongside the result.
    pub fn apply(
        mut self,
        udf: &str,
        args: &[&str],
        keep: &[&str],
        out_name: &str,
        out_type: ValueType,
    ) -> Query {
        self.ops.push(Op::Apply {
            udf: udf.to_string(),
            args: args.iter().map(|s| s.to_string()).collect(),
            keep: keep.iter().map(|s| s.to_string()).collect(),
            out: (out_name.to_string(), out_type),
        });
        self
    }

    /// Flatmap a registered table-valued UDF over `args`: each input tuple
    /// yields zero or more output rows with the schema `out` (the Step 2A
    /// patch-creation shape).
    pub fn flat_apply(mut self, udf: &str, args: &[&str], out: &[(&str, ValueType)]) -> Query {
        self.ops.push(Op::FlatApply {
            udf: udf.to_string(),
            args: args.iter().map(|s| s.to_string()).collect(),
            out: out.iter().map(|(n, t)| (n.to_string(), *t)).collect(),
        });
        self
    }

    /// Broadcast join with a (small, replicated) relation on equality of
    /// `left_col = right_col`; emits left columns then right columns
    /// (minus the join column).
    pub fn broadcast_join(mut self, right: &str, left_col: &str, right_col: &str) -> Query {
        self.ops.push(Op::BroadcastJoin {
            right: right.to_string(),
            left_col: left_col.to_string(),
            right_col: right_col.to_string(),
        });
        self
    }

    /// Group by `keys`, folding each group with a registered UDA.
    /// Performs the necessary shuffle on the first key.
    pub fn group_by(self, keys: &[&str], uda: &str, out_name: &str, out_type: ValueType) -> Query {
        self.group_by_multi(keys, uda, &[(out_name, out_type)])
    }

    /// Group by `keys`, folding each group with a registered multi-output
    /// UDA ([`MyriaConnection::create_multi_aggregate`]); the group's row
    /// carries the key columns followed by every output column. Lets
    /// image-valued aggregates keep their planes in separate blob columns
    /// instead of packing them into one blob.
    pub fn group_by_multi(mut self, keys: &[&str], uda: &str, out: &[(&str, ValueType)]) -> Query {
        self.ops.push(Op::GroupBy {
            keys: keys.iter().map(|s| s.to_string()).collect(),
            uda: uda.to_string(),
            out: out.iter().map(|(n, t)| (n.to_string(), *t)).collect(),
        });
        self
    }

    /// Execute the plan on `conn`, returning the result relation.
    // scilint: allow(F001, operator invariants (schema before scan, non-empty plan) abort the simulated query like a coordinator fault)
    pub fn execute(&self, conn: &MyriaConnection) -> Result<Relation, QueryError> {
        let workers = conn.workers();
        let mut schema: Option<Schema> = None;
        let mut fragments: Vec<Vec<Tuple>> = vec![Vec::new(); workers];
        let mut partition_column: Option<usize> = None;

        let col = |schema: &Schema, name: &str| -> Result<usize, QueryError> {
            schema
                .index_of(name)
                .ok_or_else(|| QueryError::UnknownColumn(name.to_string()))
        };

        for op in &self.ops {
            match op {
                Op::Scan { relation, pushdown } => {
                    let rel = conn
                        .relation(relation)
                        .ok_or_else(|| QueryError::UnknownRelation(relation.clone()))?;
                    let s = rel.schema.clone();
                    // scilint: allow(C001, scan copies stored fragments into the pipeline; tuples hold scalar Values rather than chunk buffers)
                    let mut frags = rel.fragments.clone();
                    if let Some((column, pred)) = pushdown {
                        let ci = col(&s, column)?;
                        for f in &mut frags {
                            f.retain(|t| pred(&t[ci]));
                        }
                    }
                    partition_column = rel.partition_column;
                    schema = Some(s);
                    fragments = frags;
                }
                Op::Apply {
                    udf,
                    args,
                    keep,
                    out,
                } => {
                    let s = schema.as_ref().expect("apply before scan");
                    let f = conn
                        .udf(udf)
                        .ok_or_else(|| QueryError::UnknownFunction(udf.clone()))?;
                    let arg_ix: Vec<usize> =
                        args.iter().map(|a| col(s, a)).collect::<Result<_, _>>()?;
                    let keep_ix: Vec<usize> =
                        keep.iter().map(|k| col(s, k)).collect::<Result<_, _>>()?;
                    // Workers evaluate their fragments independently and in
                    // parallel, as the real engine's Python UDF workers do.
                    per_fragment(&mut fragments, |frag| {
                        *frag = frag
                            .iter()
                            .map(|t| {
                                let argv: Vec<Value> =
                                    // scilint: allow(C001, Value is a small scalar enum; per-cell clone)
                                    arg_ix.iter().map(|&i| t[i].clone()).collect();
                                let mut row: Tuple =
                                    // scilint: allow(C001, Value is a small scalar enum; per-cell clone)
                                    keep_ix.iter().map(|&i| t[i].clone()).collect();
                                row.push(f(&argv));
                                row
                            })
                            .collect();
                    });
                    let mut cols: Vec<(&str, ValueType)> = Vec::new();
                    for (i, k) in keep.iter().enumerate() {
                        cols.push((k.as_str(), s.columns()[keep_ix[i]].1));
                    }
                    cols.push((out.0.as_str(), out.1));
                    schema = Some(Schema::new(&cols));
                    partition_column = None;
                }
                Op::FlatApply { udf, args, out } => {
                    let s = schema.as_ref().expect("flat_apply before scan");
                    let f = conn
                        .table_udf(udf)
                        .ok_or_else(|| QueryError::UnknownFunction(udf.clone()))?;
                    let arg_ix: Vec<usize> =
                        args.iter().map(|a| col(s, a)).collect::<Result<_, _>>()?;
                    per_fragment(&mut fragments, |frag| {
                        *frag = frag
                            .iter()
                            .flat_map(|t| {
                                let argv: Vec<Value> =
                                    // scilint: allow(C001, Value is a small scalar enum; per-cell clone)
                                    arg_ix.iter().map(|&i| t[i].clone()).collect();
                                f(&argv)
                            })
                            .collect();
                    });
                    let cols: Vec<(&str, ValueType)> =
                        out.iter().map(|(n, t)| (n.as_str(), *t)).collect();
                    schema = Some(Schema::new(&cols));
                    partition_column = None;
                }
                Op::BroadcastJoin {
                    right,
                    left_col,
                    right_col,
                } => {
                    let s = schema.as_ref().expect("join before scan");
                    let rel = conn
                        .relation(right)
                        .ok_or_else(|| QueryError::UnknownRelation(right.clone()))?;
                    let li = col(s, left_col)?;
                    let ri = rel
                        .schema
                        .index_of(right_col)
                        .ok_or_else(|| QueryError::UnknownColumn(right_col.to_string()))?;
                    // Broadcast: the right side replicates on every worker.
                    let right_tuples = if rel.partition_column.is_none() {
                        rel.fragments.first().cloned().unwrap_or_default()
                    } else {
                        rel.all_tuples()
                    };
                    let mut index: BTreeMap<u64, Vec<&Tuple>> = BTreeMap::new();
                    for t in &right_tuples {
                        index.entry(partition_hash(&t[ri])).or_default().push(t);
                    }
                    for frag in &mut fragments {
                        *frag = frag
                            .iter()
                            .flat_map(|lt| {
                                index
                                    .get(&partition_hash(&lt[li]))
                                    .into_iter()
                                    .flatten()
                                    .map(move |rt| {
                                        let mut row = lt.clone();
                                        for (i, v) in rt.iter().enumerate() {
                                            if i != ri {
                                                row.push(v.clone());
                                            }
                                        }
                                        row
                                    })
                                    .collect::<Vec<_>>()
                            })
                            .collect();
                    }
                    let mut cols: Vec<(&str, ValueType)> =
                        s.columns().iter().map(|(n, t)| (n.as_str(), *t)).collect();
                    for (i, (n, t)) in rel.schema.columns().iter().enumerate() {
                        if i != ri {
                            cols.push((n.as_str(), *t));
                        }
                    }
                    schema = Some(Schema::new(&cols));
                }
                Op::GroupBy { keys, uda, out } => {
                    // scilint: allow(C001, Schema clone - column-name metadata rather than payload)
                    let s = schema.as_ref().expect("group by before scan").clone();
                    let agg = conn
                        .uda(uda)
                        .ok_or_else(|| QueryError::UnknownFunction(uda.clone()))?;
                    let key_ix: Vec<usize> =
                        keys.iter().map(|k| col(&s, k)).collect::<Result<_, _>>()?;
                    // Shuffle on the first key unless already partitioned so.
                    if partition_column != Some(key_ix[0]) {
                        fragments = repartition(std::mem::take(&mut fragments), key_ix[0], workers);
                    }
                    per_fragment(&mut fragments, |frag| {
                        // Groups in first-arrival order.
                        let mut groups: Vec<Vec<Tuple>> = Vec::new();
                        let mut lookup: BTreeMap<Vec<u64>, usize> = BTreeMap::new();
                        for t in frag.drain(..) {
                            let key: Vec<u64> =
                                key_ix.iter().map(|&i| partition_hash(&t[i])).collect();
                            match lookup.entry(key) {
                                Entry::Occupied(g) => groups[*g.get()].push(t),
                                Entry::Vacant(g) => {
                                    g.insert(groups.len());
                                    groups.push(vec![t]);
                                }
                            }
                        }
                        *frag = groups
                            .into_iter()
                            .map(|tuples| {
                                let mut row: Tuple =
                                    // scilint: allow(C001, Value is a small scalar enum; per-cell clone)
                                    key_ix.iter().map(|&i| tuples[0][i].clone()).collect();
                                row.extend(agg(&tuples));
                                row
                            })
                            .collect();
                    });
                    let mut cols: Vec<(&str, ValueType)> = key_ix
                        .iter()
                        .map(|&i| (s.columns()[i].0.as_str(), s.columns()[i].1))
                        .collect();
                    cols.extend(out.iter().map(|(n, t)| (n.as_str(), *t)));
                    schema = Some(Schema::new(&cols));
                    partition_column = Some(0);
                }
            }
        }

        Ok(Relation {
            schema: schema.expect("empty query"),
            fragments,
            partition_column,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marray::NdArray;

    fn float(v: &Value) -> f64 {
        match v {
            Value::Float(x) => *x,
            other => panic!("expected Float, got {:?}", other.value_type()),
        }
    }

    fn conn_with_images() -> MyriaConnection {
        let conn = MyriaConnection::connect(2, 2);
        let schema = Schema::new(&[
            ("subjId", ValueType::Int),
            ("imgId", ValueType::Int),
            ("img", ValueType::Blob),
        ]);
        let tuples: Vec<Tuple> = (0..12)
            .map(|i| {
                vec![
                    Value::Int((i % 3) as i64),
                    Value::Int(i as i64),
                    Value::blob(NdArray::full(&[4], i as f64)),
                ]
            })
            .collect();
        conn.ingest("Images", schema, tuples, 0);
        conn
    }

    #[test]
    fn scan_returns_everything() {
        let conn = conn_with_images();
        let r = Query::scan("Images").execute(&conn).unwrap();
        assert_eq!(r.len(), 12);
        assert_eq!(r.schema.arity(), 3);
    }

    #[test]
    fn scan_unknown_relation_errors() {
        let conn = conn_with_images();
        assert_eq!(
            Query::scan("Nope").execute(&conn).unwrap_err(),
            QueryError::UnknownRelation("Nope".into())
        );
    }

    #[test]
    fn pushdown_select_filters() {
        let conn = conn_with_images();
        let r = Query::scan_select("Images", "imgId", |v| v.as_int() < 4)
            .execute(&conn)
            .unwrap();
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn apply_udf_transforms_blobs() {
        let conn = conn_with_images();
        conn.create_function("Double", |args| {
            Value::blob(args[0].as_blob().map(|v| v * 2.0))
        });
        let r = Query::scan("Images")
            .apply(
                "Double",
                &["img"],
                &["subjId", "imgId"],
                "img2",
                ValueType::Blob,
            )
            .execute(&conn)
            .unwrap();
        assert_eq!(r.len(), 12);
        assert_eq!(r.schema.index_of("img2"), Some(2));
        for t in r.all_tuples() {
            let id = t[1].as_int() as f64;
            assert_eq!(t[2].as_blob().data()[0], id * 2.0);
        }
    }

    #[test]
    fn unknown_udf_errors() {
        let conn = conn_with_images();
        let err = Query::scan("Images")
            .apply("Nope", &["img"], &[], "x", ValueType::Blob)
            .execute(&conn)
            .unwrap_err();
        assert_eq!(err, QueryError::UnknownFunction("Nope".into()));
    }

    #[test]
    fn broadcast_join_matches_subjects() {
        let conn = conn_with_images();
        let mask_schema = Schema::new(&[("subjId", ValueType::Int), ("mask", ValueType::Blob)]);
        let masks: Vec<Tuple> = (0..3)
            .map(|s| {
                vec![
                    Value::Int(s as i64),
                    Value::blob(NdArray::full(&[4], 100.0 + s as f64)),
                ]
            })
            .collect();
        conn.ingest_broadcast("Mask", mask_schema, masks);
        let r = Query::scan("Images")
            .broadcast_join("Mask", "subjId", "subjId")
            .execute(&conn)
            .unwrap();
        assert_eq!(r.len(), 12, "every image matches exactly one mask");
        assert_eq!(r.schema.arity(), 4);
        for t in r.all_tuples() {
            let subj = t[0].as_int() as f64;
            assert_eq!(t[3].as_blob().data()[0], 100.0 + subj);
        }
    }

    #[test]
    fn group_by_uda_counts() {
        let conn = conn_with_images();
        conn.create_aggregate("CountAll", |tuples| Value::Int(tuples.len() as i64));
        let r = Query::scan("Images")
            .group_by(&["subjId"], "CountAll", "n", ValueType::Int)
            .execute(&conn)
            .unwrap();
        assert_eq!(r.len(), 3, "three subjects");
        for t in r.all_tuples() {
            assert_eq!(t[1].as_int(), 4);
        }
    }

    #[test]
    fn group_by_multi_emits_every_output_column() {
        let conn = conn_with_images();
        conn.create_multi_aggregate("CountAndSum", |tuples| {
            let sum: f64 = tuples.iter().map(|t| t[2].as_blob().sum()).sum();
            vec![Value::Int(tuples.len() as i64), Value::Float(sum)]
        });
        let r = Query::scan("Images")
            .group_by_multi(
                &["subjId"],
                "CountAndSum",
                &[("n", ValueType::Int), ("total", ValueType::Float)],
            )
            .execute(&conn)
            .unwrap();
        assert_eq!(r.len(), 3, "three subjects");
        assert_eq!(r.schema.arity(), 3);
        assert_eq!(r.schema.index_of("total"), Some(2));
        for t in r.all_tuples() {
            assert_eq!(t[1].as_int(), 4);
            // Blobs are full(&[4], imgId): sum over the subject's images.
            let subj = t[0].as_int();
            let expect: f64 = (0..12)
                .filter(|i| i % 3 == subj)
                .map(|i| 4.0 * i as f64)
                .sum();
            assert_eq!(float(&t[2]), expect);
        }
    }

    #[test]
    fn group_by_multi_unknown_uda_errors() {
        let conn = conn_with_images();
        let err = Query::scan("Images")
            .group_by_multi(&["subjId"], "Nope", &[("n", ValueType::Int)])
            .execute(&conn)
            .unwrap_err();
        assert_eq!(err, QueryError::UnknownFunction("Nope".into()));
    }

    #[test]
    fn udf_panic_reaches_the_caller_with_its_message() {
        let conn = conn_with_images();
        conn.create_function("Boom", |args| {
            let id = args[0].as_int();
            assert!(id != 5, "myria udf failed on {id}");
            Value::Int(id)
        });
        conn.create_table_function("TableBoom", |args| {
            let id = args[0].as_int();
            assert!(id != 7, "myria table udf failed on {id}");
            vec![vec![Value::Int(id)]]
        });
        let panic_message = |query: Query| -> String {
            let run = std::panic::AssertUnwindSafe(|| query.execute(&conn));
            let payload =
                std::panic::catch_unwind(run).expect_err("the udf panic reaches the caller");
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        };
        let apply = Query::scan("Images").apply("Boom", &["imgId"], &[], "id", ValueType::Int);
        assert_eq!(panic_message(apply), "myria udf failed on 5");
        let flat_apply =
            Query::scan("Images").flat_apply("TableBoom", &["imgId"], &[("id", ValueType::Int)]);
        assert_eq!(panic_message(flat_apply), "myria table udf failed on 7");
    }

    #[test]
    #[should_panic(expected = "myria uda failed on subject 1")]
    fn uda_panic_reaches_the_caller_with_its_message() {
        let conn = conn_with_images();
        conn.create_aggregate("Boom", |tuples| {
            let subj = tuples[0][0].as_int();
            assert!(subj != 1, "myria uda failed on subject {subj}");
            Value::Int(subj)
        });
        let _ = Query::scan("Images")
            .group_by(&["subjId"], "Boom", "n", ValueType::Int)
            .execute(&conn);
    }

    #[test]
    fn group_lands_on_one_worker() {
        // Ingested on `imgId`, so each subject's images are spread over
        // the workers and GroupBy must re-partition them on `subjId`.
        let conn = MyriaConnection::connect(2, 2);
        let images = conn_with_images().relation("Images").unwrap();
        conn.ingest("Images", images.schema.clone(), images.all_tuples(), 1);
        let spread = conn.relation("Images").unwrap();
        assert!(
            spread
                .fragments
                .iter()
                .any(|f| f.iter().any(|t| t[0].as_int() != f[0][0].as_int())),
            "some worker holds images of two subjects"
        );
        conn.create_aggregate("CountAll", |tuples| Value::Int(tuples.len() as i64));
        let r = Query::scan("Images")
            .group_by(&["subjId"], "CountAll", "n", ValueType::Int)
            .execute(&conn)
            .unwrap();
        // Each subject appears exactly once overall (no split groups).
        assert_eq!(r.len(), 3);
        for t in r.all_tuples() {
            assert_eq!(t[1].as_int(), 4);
        }
    }

    #[test]
    fn pipeline_chains_operators() {
        let conn = conn_with_images();
        conn.create_function("Sum", |args| Value::Float(args[0].as_blob().sum()));
        let r = Query::scan_select("Images", "subjId", |v| v.as_int() == 1)
            .apply("Sum", &["img"], &["imgId"], "total", ValueType::Float)
            .execute(&conn)
            .unwrap();
        // Subject 1 has images 1,4,7,10 with blob values = imgId·4.
        let mut totals: Vec<(i64, f64)> = r
            .all_tuples()
            .iter()
            .map(|t| (t[0].as_int(), float(&t[1])))
            .collect();
        totals.sort_by_key(|&(id, _)| id);
        assert_eq!(totals, [(1, 4.0), (4, 16.0), (7, 28.0), (10, 40.0)]);
    }
}
