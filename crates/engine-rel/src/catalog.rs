//! Relations, schemas, and the connection/catalog.

use crate::value::{Tuple, Value, ValueType};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::sync::RwLock;
use std::sync::{RwLockReadGuard, RwLockWriteGuard};

/// A relation's column names and types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<(String, ValueType)>,
}

impl Schema {
    /// Build a schema from (name, type) pairs.
    pub fn new(columns: &[(&str, ValueType)]) -> Schema {
        Schema {
            columns: columns.iter().map(|(n, t)| (n.to_string(), *t)).collect(),
        }
    }

    /// Column count.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }

    /// The columns.
    pub fn columns(&self) -> &[(String, ValueType)] {
        &self.columns
    }

    /// Validate a tuple against this schema.
    pub fn check(&self, tuple: &Tuple) -> bool {
        tuple.len() == self.columns.len()
            && tuple
                .iter()
                .zip(&self.columns)
                .all(|(v, (_, t))| v.value_type() == *t)
    }
}

/// A horizontally partitioned relation: one fragment per worker.
#[derive(Debug, Clone)]
pub struct Relation {
    /// The relation's schema.
    pub schema: Schema,
    /// One tuple fragment per worker.
    pub fragments: Vec<Vec<Tuple>>,
    /// The column the relation is hash-partitioned on (`None` = broadcast
    /// or arbitrary placement).
    pub partition_column: Option<usize>,
}

/// Hash used for partitioning.
pub(crate) fn partition_hash(value: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    match value {
        Value::Int(v) => v.hash(&mut h),
        Value::Float(v) => v.to_bits().hash(&mut h),
        Value::Str(s) => s.hash(&mut h),
        Value::Blob(b) => (b.len(), b.dims()).hash(&mut h),
    }
    h.finish()
}

/// Hash-partition every tuple on column `key` over `workers` fragments,
/// visiting the input fragments in worker order.
pub(crate) fn repartition(
    fragments: Vec<Vec<Tuple>>,
    key: usize,
    workers: usize,
) -> Vec<Vec<Tuple>> {
    let mut next: Vec<Vec<Tuple>> = vec![Vec::new(); workers];
    for t in fragments.into_iter().flatten() {
        next[(partition_hash(&t[key]) % workers as u64) as usize].push(t);
    }
    next
}

impl Relation {
    /// Hash-partition `tuples` on `partition_column` over `workers`
    /// fragments.
    pub fn partitioned(
        schema: Schema,
        tuples: Vec<Tuple>,
        partition_column: usize,
        workers: usize,
    ) -> Relation {
        assert!(
            partition_column < schema.arity(),
            "partition column out of range"
        );
        debug_assert!(
            tuples.iter().all(|t| schema.check(t)),
            "tuple does not match schema"
        );
        Relation {
            schema,
            fragments: repartition(vec![tuples], partition_column, workers.max(1)),
            partition_column: Some(partition_column),
        }
    }

    /// Replicate `tuples` to every worker (a broadcast relation).
    pub fn broadcast(schema: Schema, tuples: Vec<Tuple>, workers: usize) -> Relation {
        Relation {
            schema,
            // scilint: allow(C001, broadcast replicates per worker by design; tuples hold scalar Values)
            fragments: (0..workers.max(1)).map(|_| tuples.clone()).collect(),
            partition_column: None,
        }
    }

    /// Total tuple count across fragments.
    pub fn len(&self) -> usize {
        self.fragments.iter().map(Vec::len).sum()
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All tuples, concatenated in worker order.
    pub fn all_tuples(&self) -> Vec<Tuple> {
        self.fragments.iter().flatten().cloned().collect()
    }
}

/// Registered Python-style UDF over blob/scalar columns: takes the argument
/// values, returns one value.
pub type Udf = Arc<dyn Fn(&[Value]) -> Value + Send + Sync>;

/// Registered UDA: folds a group's tuples into its output columns, one
/// value each. Several outputs are what let image-valued aggregates return
/// their planes as separate blob columns instead of packing them into one
/// blob (the pack/unpack round trip §5.3 charges Myria for).
pub type MultiUda = Arc<dyn Fn(&[Tuple]) -> Vec<Value> + Send + Sync>;

/// Registered table-valued UDF: maps one tuple's argument values to zero
/// or more output rows (a flatmap, as Step 2A's patch creation needs).
pub type TableUdf = Arc<dyn Fn(&[Value]) -> Vec<Vec<Value>> + Send + Sync>;

/// The connection: catalog of relations plus registered functions.
///
/// Mirrors the paper's Figure 7 flow: `MyriaConnection(url=...)`, then
/// `create_function("Denoise", Denoise)`, then query submission.
pub struct MyriaConnection {
    /// Number of cluster nodes.
    pub nodes: usize,
    /// Workers per node (Figure 13's knob; the paper found 4 optimal).
    pub workers_per_node: usize,
    catalog: RwLock<BTreeMap<String, Arc<Relation>>>,
    udfs: RwLock<BTreeMap<String, Udf>>,
    udas: RwLock<BTreeMap<String, MultiUda>>,
    table_udfs: RwLock<BTreeMap<String, TableUdf>>,
}

/// Read access to one catalog map. Poisoning means a worker panicked while
/// holding the write lock; the simulated MyriaX coordinator aborts rather
/// than serve a half-written catalog — the workspace's single sanctioned
/// panic point for catalog access.
fn read_guard<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    // scilint: allow(F001, poisoned catalog lock means a worker already panicked mid-DDL; aborting here is the engine contract)
    lock.read().expect("catalog lock poisoned")
}

/// Write access to one catalog map; see [`read_guard`] for the poisoning
/// contract.
fn write_guard<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    // scilint: allow(F001, poisoned catalog lock means a worker already panicked mid-DDL; aborting here is the engine contract)
    lock.write().expect("catalog lock poisoned")
}

impl MyriaConnection {
    /// Connect to a simulated deployment.
    pub fn connect(nodes: usize, workers_per_node: usize) -> MyriaConnection {
        MyriaConnection {
            nodes: nodes.max(1),
            workers_per_node: workers_per_node.max(1),
            catalog: RwLock::new(BTreeMap::new()),
            udfs: RwLock::new(BTreeMap::new()),
            udas: RwLock::new(BTreeMap::new()),
            table_udfs: RwLock::new(BTreeMap::new()),
        }
    }

    /// Total workers.
    pub fn workers(&self) -> usize {
        self.nodes * self.workers_per_node
    }

    /// Ingest tuples as a new hash-partitioned relation.
    pub fn ingest(&self, name: &str, schema: Schema, tuples: Vec<Tuple>, partition_column: usize) {
        let rel = Relation::partitioned(schema, tuples, partition_column, self.workers());
        write_guard(&self.catalog).insert(name.to_string(), Arc::new(rel));
    }

    /// Ingest a broadcast relation (replicated everywhere).
    pub fn ingest_broadcast(&self, name: &str, schema: Schema, tuples: Vec<Tuple>) {
        let rel = Relation::broadcast(schema, tuples, self.workers());
        write_guard(&self.catalog).insert(name.to_string(), Arc::new(rel));
    }

    /// Look up a relation.
    pub fn relation(&self, name: &str) -> Option<Arc<Relation>> {
        read_guard(&self.catalog).get(name).cloned()
    }

    /// Register a Python-style UDF.
    pub fn create_function(
        &self,
        name: &str,
        f: impl Fn(&[Value]) -> Value + Send + Sync + 'static,
    ) {
        write_guard(&self.udfs).insert(name.to_string(), Arc::new(f));
    }

    /// Register a single-output UDA.
    pub fn create_aggregate(
        &self,
        name: &str,
        f: impl Fn(&[Tuple]) -> Value + Send + Sync + 'static,
    ) {
        self.create_multi_aggregate(name, move |t| vec![f(t)]);
    }

    /// Register a multi-output UDA (see [`MultiUda`]).
    pub fn create_multi_aggregate(
        &self,
        name: &str,
        f: impl Fn(&[Tuple]) -> Vec<Value> + Send + Sync + 'static,
    ) {
        write_guard(&self.udas).insert(name.to_string(), Arc::new(f));
    }

    /// Register a table-valued (flatmap) UDF.
    pub fn create_table_function(
        &self,
        name: &str,
        f: impl Fn(&[Value]) -> Vec<Vec<Value>> + Send + Sync + 'static,
    ) {
        write_guard(&self.table_udfs).insert(name.to_string(), Arc::new(f));
    }

    pub(crate) fn udf(&self, name: &str) -> Option<Udf> {
        read_guard(&self.udfs).get(name).cloned()
    }

    pub(crate) fn table_udf(&self, name: &str) -> Option<TableUdf> {
        read_guard(&self.table_udfs).get(name).cloned()
    }

    pub(crate) fn uda(&self, name: &str) -> Option<MultiUda> {
        read_guard(&self.udas).get(name).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(&[("subjId", ValueType::Int), ("imgId", ValueType::Int)])
    }

    fn tuples(n: usize) -> Vec<Tuple> {
        (0..n)
            .map(|i| vec![Value::Int((i % 5) as i64), Value::Int(i as i64)])
            .collect()
    }

    #[test]
    fn partition_is_total_and_consistent() {
        let r = Relation::partitioned(schema(), tuples(100), 0, 8);
        assert_eq!(r.len(), 100);
        // Same key always in the same fragment.
        for (w, frag) in r.fragments.iter().enumerate() {
            for t in frag {
                let expect = (partition_hash(&t[0]) % 8) as usize;
                assert_eq!(w, expect);
            }
        }
    }

    #[test]
    fn broadcast_replicates() {
        let r = Relation::broadcast(schema(), tuples(3), 4);
        assert_eq!(r.fragments.len(), 4);
        for f in &r.fragments {
            assert_eq!(f.len(), 3);
        }
    }

    #[test]
    fn connection_catalog_roundtrip() {
        let conn = MyriaConnection::connect(4, 4);
        assert_eq!(conn.workers(), 16);
        conn.ingest("Images", schema(), tuples(20), 0);
        let r = conn.relation("Images").unwrap();
        assert_eq!(r.len(), 20);
        assert_eq!(r.fragments.len(), 16);
        assert!(conn.relation("Missing").is_none());
    }

    #[test]
    fn udf_registration() {
        let conn = MyriaConnection::connect(1, 1);
        conn.create_function("AddOne", |args| Value::Int(args[0].as_int() + 1));
        let f = conn.udf("AddOne").unwrap();
        assert_eq!(f(&[Value::Int(41)]).as_int(), 42);
        assert!(conn.udf("Nope").is_none());
    }

    #[test]
    fn schema_check() {
        let s = schema();
        assert!(s.check(&vec![Value::Int(1), Value::Int(2)]));
        assert!(!s.check(&vec![Value::Int(1)]));
        assert!(!s.check(&vec![Value::Float(1.0), Value::Int(2)]));
        assert_eq!(s.index_of("imgId"), Some(1));
    }
}
