//! Behavioural tests of the delayed-graph engine: wide fan-in/out graphs,
//! partial barriers, large-graph stress, and the Figure-8 idiom.

use engine_taskgraph::{DaskClient, Delayed};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn figure8_idiom_download_filter_mean_mask() {
    // The paper's Figure 8 shape: per-subject chains with a barrier that
    // forces downloads, then a second graph over blocks.
    let client = DaskClient::new(4);
    let subject_ids = [0u32, 1, 2];
    let downloads: Vec<Delayed<Vec<f64>>> = subject_ids
        .iter()
        .map(|&id| client.delayed(move || (0..32).map(|i| (id * 100 + i) as f64).collect()))
        .collect();
    // Barrier: "len(data[id].vols.result())".
    let lens: Vec<usize> = downloads
        .iter()
        .map(|&d| client.result(client.delayed_map(d, |v: &Vec<f64>| v.len())))
        .collect();
    assert_eq!(lens, vec![32, 32, 32]);
    // Per-block means, reassembled, thresholded.
    for &d in &downloads {
        let blocks: Vec<Delayed<f64>> = (0..4)
            .map(|b| {
                client.delayed_map(d, move |v: &Vec<f64>| {
                    v[b * 8..(b + 1) * 8].iter().sum::<f64>() / 8.0
                })
            })
            .collect();
        let mask = client.delayed_many(&blocks, |means: &[&f64]| {
            let grand = means.iter().copied().sum::<f64>() / means.len() as f64;
            means.iter().map(|&&m| m > grand).collect::<Vec<bool>>()
        });
        let bits = client.result(mask);
        assert_eq!(bits.len(), 4);
        assert_eq!(
            bits.iter().filter(|&&b| b).count(),
            2,
            "half above the grand mean"
        );
    }
}

#[test]
fn thousand_task_graph_executes_once_each() {
    let client = DaskClient::new(8);
    let calls = Arc::new(AtomicUsize::new(0));
    let leaves: Vec<Delayed<u64>> = (0..500)
        .map(|i| {
            let c = Arc::clone(&calls);
            client.delayed(move || {
                c.fetch_add(1, Ordering::SeqCst);
                i as u64
            })
        })
        .collect();
    // Two layers of pairwise sums.
    let pairs: Vec<Delayed<u64>> = leaves
        .chunks(2)
        .map(|pair| client.delayed_zip(pair[0], pair[1], |a, b| a + b))
        .collect();
    let total = client.delayed_many(&pairs, |vs: &[&u64]| vs.iter().copied().sum::<u64>());
    assert_eq!(client.result(total), (0..500).sum::<u64>());
    assert_eq!(
        calls.load(Ordering::SeqCst),
        500,
        "each leaf ran exactly once"
    );
}

#[test]
fn partial_barriers_only_run_needed_subgraph() {
    let client = DaskClient::new(2);
    let ran_a = Arc::new(AtomicUsize::new(0));
    let ran_b = Arc::new(AtomicUsize::new(0));
    let (ca, cb) = (Arc::clone(&ran_a), Arc::clone(&ran_b));
    let a = client.delayed(move || {
        ca.fetch_add(1, Ordering::SeqCst);
        1u8
    });
    let _b = client.delayed(move || {
        cb.fetch_add(1, Ordering::SeqCst);
        2u8
    });
    client.result(a);
    assert_eq!(ran_a.load(Ordering::SeqCst), 1);
    assert_eq!(ran_b.load(Ordering::SeqCst), 0, "unneeded branch untouched");
}

#[test]
fn single_worker_still_completes_wide_graphs() {
    let client = DaskClient::new(1);
    let xs: Vec<Delayed<usize>> = (0..64).map(|i| client.delayed(move || i)).collect();
    let sum = client.delayed_many(&xs, |vs: &[&usize]| vs.iter().copied().sum::<usize>());
    assert_eq!(client.result(sum), (0..64).sum::<usize>());
}
