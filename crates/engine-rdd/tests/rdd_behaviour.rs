//! Behavioural tests of the RDD engine beyond the unit level: shuffle
//! determinism, lineage semantics, realistic image-record pipelines.

use engine_rdd::SparkContext;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn shuffle_is_deterministic_across_runs() {
    let build = || {
        let sc = SparkContext::new();
        sc.parallelize((0..200).map(|i| (i % 7, i)).collect::<Vec<_>>(), 5)
            .group_by_key(3)
            .map(|(k, vs)| (k, vs.iter().sum::<i32>()))
            .collect()
    };
    assert_eq!(build(), build());
}

#[test]
fn flat_map_can_drop_and_multiply() {
    let sc = SparkContext::new();
    let r = sc
        .parallelize((0..10).collect::<Vec<i32>>(), 3)
        .flat_map(|x| {
            if x % 2 == 0 {
                vec![]
            } else {
                vec![x; x as usize]
            }
        });
    let out = r.collect();
    let expected: usize = (0..10).filter(|x| x % 2 == 1).map(|x| x as usize).sum();
    assert_eq!(out.len(), expected);
}

#[test]
fn chained_shuffles_compose() {
    let sc = SparkContext::new();
    let out = sc
        .parallelize(
            (0..120).map(|i| ((i % 4, i % 3), 1u32)).collect::<Vec<_>>(),
            6,
        )
        .group_by_key(4) // per (i%4, i%3) pair: 10 each
        .map(|((a, _), ns)| (a, ns.iter().sum::<u32>()))
        .group_by_key(2) // per i%4: 30 each
        .map(|(a, ns)| (a, ns.iter().sum::<u32>()))
        .collect_as_map();
    assert_eq!(out.len(), 4);
    assert!(out.values().all(|&v| v == 30));
}

#[test]
fn cache_interacts_with_branches() {
    // Two downstream branches off a cached RDD compute the parent once —
    // the §5.3.3 caching scenario in miniature.
    let calls = Arc::new(AtomicUsize::new(0));
    let sc = SparkContext::new();
    let c = Arc::clone(&calls);
    let base = sc
        .parallelize((0..16).collect::<Vec<u32>>(), 4)
        .map(move |x| {
            c.fetch_add(1, Ordering::SeqCst);
            x
        })
        .cache();
    let branch_a = base.map(|x| x * 2).collect();
    let branch_b = base.filter(|&x| x > 7).collect();
    assert_eq!(branch_a.len(), 16);
    assert_eq!(branch_b.len(), 8);
    assert_eq!(
        calls.load(Ordering::SeqCst),
        16,
        "parent computed once, not twice"
    );
}

#[test]
fn uncached_branches_recompute_like_the_paper_says() {
    let calls = Arc::new(AtomicUsize::new(0));
    let sc = SparkContext::new();
    let c = Arc::clone(&calls);
    let base = sc
        .parallelize((0..16).collect::<Vec<u32>>(), 4)
        .map(move |x| {
            c.fetch_add(1, Ordering::SeqCst);
            x
        });
    base.map(|x| x * 2).collect();
    base.filter(|&x| x > 7).collect();
    assert_eq!(
        calls.load(Ordering::SeqCst),
        32,
        "branch re-executes the lineage"
    );
}

#[test]
fn broadcast_replaces_join_pattern() {
    // The paper's mask-as-broadcast idiom: key the small side by subject
    // and read it from every closure without a shuffle.
    let sc = SparkContext::new();
    let masks: HashMap<u32, f64> = (0..4).map(|s| (s, (s + 1) as f64)).collect();
    let bc = sc.broadcast(masks);
    let records: Vec<(u32, f64)> = (0..40).map(|i| (i % 4, i as f64)).collect();
    let b = bc.clone();
    let out = sc
        .parallelize(records, 8)
        .map(move |(s, v)| (s, v * b.value()[&s]))
        .collect();
    assert_eq!(out.len(), 40);
    for (s, v) in out {
        assert_eq!(v % (s + 1) as f64, 0.0);
    }
}

#[test]
fn group_by_key_handles_skewed_keys() {
    // One hot key with 90% of the records (astro patch skew in miniature).
    let sc = SparkContext::new();
    let mut records: Vec<(u8, u32)> = (0..900).map(|i| (0u8, i)).collect();
    records.extend((0..100).map(|i| ((1 + (i % 5)) as u8, i)));
    let grouped = sc.parallelize(records, 10).group_by_key(4).collect();
    let hot = grouped
        .iter()
        .find(|(k, _)| *k == 0)
        .expect("hot key present");
    assert_eq!(hot.1.len(), 900);
    let total: usize = grouped.iter().map(|(_, v)| v.len()).sum();
    assert_eq!(total, 1000);
}

#[test]
fn stages_run_on_the_jobs_task_slots() {
    // A job parallelized into two slices runs every stage on two task
    // slots: the shuffle's map side over the two slices, and the 64 tasks
    // after the shuffle, however many partitions a stage has.
    let running = Arc::new(AtomicUsize::new(0));
    let most = Arc::new(AtomicUsize::new(0));
    let task = {
        let (running, most) = (Arc::clone(&running), Arc::clone(&most));
        move |x: u32| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            most.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(1));
            running.fetch_sub(1, Ordering::SeqCst);
            x
        }
    };
    let map_side = task.clone();
    let sc = SparkContext::new();
    let groups = sc
        .parallelize((0..256u32).collect::<Vec<_>>(), 2)
        .map(move |i| (map_side(i) % 128, i))
        .group_by_key(64)
        .map(move |(k, vs)| (task(k), vs.len()))
        .collect();
    assert_eq!(groups.len(), 128);
    assert_eq!(groups.iter().map(|(_, n)| n).sum::<usize>(), 256);
    let most = most.load(Ordering::SeqCst);
    assert!(most <= 2, "{most} tasks ran at once on a two-slot job");
}
