//! Behavioural tests of the relational engine: flat_apply pipelines,
//! blob-heavy workloads, pushdown and broadcast joins.

use engine_rel::{MyriaConnection, Query, Schema, Value, ValueType};
use marray::NdArray;

fn images_schema() -> Schema {
    Schema::new(&[
        ("subjId", ValueType::Int),
        ("imgId", ValueType::Int),
        ("img", ValueType::Blob),
    ])
}

fn image_tuples(n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| {
            vec![
                Value::Int((i % 4) as i64),
                Value::Int(i as i64),
                Value::blob(NdArray::full(&[8], i as f64)),
            ]
        })
        .collect()
}

#[test]
fn flat_apply_fans_out_and_regroups() {
    // The Step 2A shape: each record fans out 1–3 ways, then groups back.
    let conn = MyriaConnection::connect(2, 3);
    conn.ingest("Images", images_schema(), image_tuples(30), 0);
    conn.create_table_function("FanOut", |args| {
        let id = args[0].as_int();
        let fan = (id % 3 + 1) as usize;
        (0..fan)
            .map(|p| vec![Value::Int(id % 5), Value::Int(id), Value::Int(p as i64)])
            .collect()
    });
    conn.create_aggregate("CountAll", |tuples| Value::Int(tuples.len() as i64));
    let out = Query::scan("Images")
        .flat_apply(
            "FanOut",
            &["imgId"],
            &[
                ("grp", ValueType::Int),
                ("imgId", ValueType::Int),
                ("piece", ValueType::Int),
            ],
        )
        .group_by(&["grp"], "CountAll", "n", ValueType::Int)
        .execute(&conn)
        .unwrap();
    let expected: i64 = (0..30).map(|i| i % 3 + 1).sum();
    let total: i64 = out.all_tuples().iter().map(|t| t[1].as_int()).sum();
    assert_eq!(total, expected, "fan-out row count");
    assert_eq!(out.len(), 5, "five groups");
}

#[test]
fn flat_apply_can_drop_rows() {
    let conn = MyriaConnection::connect(1, 2);
    conn.ingest("Images", images_schema(), image_tuples(10), 0);
    conn.create_table_function("KeepEven", |args| {
        let id = args[0].as_int();
        if id % 2 == 0 {
            vec![vec![Value::Int(id)]]
        } else {
            vec![]
        }
    });
    let out = Query::scan("Images")
        .flat_apply("KeepEven", &["imgId"], &[("imgId", ValueType::Int)])
        .execute(&conn)
        .unwrap();
    assert_eq!(out.len(), 5);
}

#[test]
fn blob_aggregation_pipeline() {
    // A mean-volume UDA over blob columns, the Step 1N core.
    let conn = MyriaConnection::connect(2, 2);
    conn.ingest("Images", images_schema(), image_tuples(20), 0);
    conn.create_aggregate("MeanVol", |tuples| {
        let first = tuples[0][2].as_blob();
        let mut acc = NdArray::<f64>::zeros(first.dims());
        for t in tuples {
            acc = acc.zip_with(t[2].as_blob(), |a, b| a + b).unwrap();
        }
        let n = tuples.len() as f64;
        acc.map_inplace(|v| v / n);
        Value::blob(acc)
    });
    let out = Query::scan("Images")
        .group_by(&["subjId"], "MeanVol", "mean", ValueType::Blob)
        .execute(&conn)
        .unwrap();
    assert_eq!(out.len(), 4);
    for t in out.all_tuples() {
        let subj = t[0].as_int();
        // Subject s owns imgIds {s, s+4, s+8, s+12, s+16}; blob value = imgId.
        let expect = (subj as f64 * 5.0 + (4.0 + 8.0 + 12.0 + 16.0)) / 5.0;
        assert!((t[1].as_blob().data()[0] - expect).abs() < 1e-12);
    }
}

#[test]
fn pushdown_keeps_exactly_the_matching_tuples() {
    let conn = MyriaConnection::connect(2, 2);
    conn.ingest("Images", images_schema(), image_tuples(24), 1);
    let pushed = Query::scan_select("Images", "imgId", |v| v.as_int() < 6)
        .execute(&conn)
        .unwrap();
    let mut ids: Vec<i64> = pushed.all_tuples().iter().map(|t| t[1].as_int()).collect();
    ids.sort_unstable();
    assert_eq!(ids, [0, 1, 2, 3, 4, 5]);
}

#[test]
fn broadcast_join_drops_unmatched_left_rows() {
    let conn = MyriaConnection::connect(1, 4);
    conn.ingest("Images", images_schema(), image_tuples(12), 0);
    let mask_schema = Schema::new(&[("subjId", ValueType::Int), ("m", ValueType::Float)]);
    // Masks for subjects 0 and 1 only.
    conn.ingest_broadcast(
        "Mask",
        mask_schema,
        vec![
            vec![Value::Int(0), Value::Float(0.5)],
            vec![Value::Int(1), Value::Float(0.7)],
        ],
    );
    let out = Query::scan("Images")
        .broadcast_join("Mask", "subjId", "subjId")
        .execute(&conn)
        .unwrap();
    assert_eq!(out.len(), 6, "subjects 2 and 3 have no mask and drop out");
}
