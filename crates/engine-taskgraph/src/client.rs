//! The delayed-graph builder and its work-stealing executor.

use parexec::{MorselPool, Parallelism};
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::marker::PhantomData;
use std::sync::Arc;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

type AnyValue = Arc<dyn Any + Send + Sync>;
type NodeFn = Box<dyn FnOnce(&[AnyValue]) -> AnyValue + Send>;

struct Node {
    deps: Vec<usize>,
    func: Option<NodeFn>,
    result: Option<AnyValue>,
}

/// A handle to a lazily computed value of type `T`.
///
/// Cheap to copy; tied to the [`DaskClient`] that created it.
pub struct Delayed<T> {
    node: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for Delayed<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Delayed<T> {}

/// The distributed scheduler client.
///
/// Builds compute graphs and executes them on demand with up to `workers`
/// `parexec` pool workers draining a shared ready queue (dynamic load
/// balancing — idle workers take whatever is ready, Dask's work-stealing
/// behaviour).
pub struct DaskClient {
    workers: usize,
    graph: Mutex<Vec<Node>>,
}

/// Downcast a stored value to its static type — the simulated Dask engine's
/// dynamic-typing boundary. A mismatch means the graph was built with
/// inconsistent types, which the real engine also surfaces as a task error;
/// this helper is the single sanctioned panic point for it.
fn cast<A: 'static>(value: &AnyValue) -> &A {
    // scilint: allow(F001, delayed-graph type mismatch is a graph-construction bug; the engine aborts the computation like Dask surfaces a task exception)
    value.downcast_ref::<A>().expect("delayed type mismatch")
}

impl DaskClient {
    /// The graph under its lock. Poisoning means a worker panicked holding
    /// it; the scheduler aborts rather than schedule on a torn graph — the
    /// single sanctioned panic point for graph access.
    fn graph(&self) -> MutexGuard<'_, Vec<Node>> {
        // scilint: allow(F001, poisoned graph lock means a worker already panicked; aborting the scheduler is the engine contract)
        self.graph.lock().expect("graph lock poisoned")
    }

    /// Connect with the given worker-thread count.
    pub fn new(workers: usize) -> DaskClient {
        DaskClient {
            workers: workers.max(1),
            graph: Mutex::new(Vec::new()),
        }
    }

    fn push_node<T: Send + Sync + 'static>(
        &self,
        deps: Vec<usize>,
        func: impl FnOnce(&[AnyValue]) -> T + Send + 'static,
    ) -> Delayed<T> {
        let mut graph = self.graph();
        let id = graph.len();
        graph.push(Node {
            deps,
            func: Some(Box::new(move |args| Arc::new(func(args)) as AnyValue)),
            result: None,
        });
        Delayed {
            node: id,
            _marker: PhantomData,
        }
    }

    /// `delayed(f)()` — a leaf computation.
    pub fn delayed<T: Send + Sync + 'static>(
        &self,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> Delayed<T> {
        self.push_node(vec![], move |_| f())
    }

    /// `delayed(f)(x)` — a unary transformation of another delayed value.
    pub fn delayed_map<A, T>(
        &self,
        input: Delayed<A>,
        f: impl FnOnce(&A) -> T + Send + 'static,
    ) -> Delayed<T>
    where
        A: Send + Sync + 'static,
        T: Send + Sync + 'static,
    {
        self.push_node(vec![input.node], move |args| {
            let a = cast::<A>(&args[0]);
            f(a)
        })
    }

    /// `delayed(f)(x, y)` — a binary combination.
    pub fn delayed_zip<A, B, T>(
        &self,
        left: Delayed<A>,
        right: Delayed<B>,
        f: impl FnOnce(&A, &B) -> T + Send + 'static,
    ) -> Delayed<T>
    where
        A: Send + Sync + 'static,
        B: Send + Sync + 'static,
        T: Send + Sync + 'static,
    {
        self.push_node(vec![left.node, right.node], move |args| {
            let a = cast::<A>(&args[0]);
            let b = cast::<B>(&args[1]);
            f(a, b)
        })
    }

    /// `delayed(f)(xs)` — combine many homogeneous delayed values
    /// (e.g. `reassemble(means)` on Figure 8's line 10).
    pub fn delayed_many<A, T>(
        &self,
        inputs: &[Delayed<A>],
        f: impl FnOnce(&[&A]) -> T + Send + 'static,
    ) -> Delayed<T>
    where
        A: Send + Sync + 'static,
        T: Send + Sync + 'static,
    {
        let deps: Vec<usize> = inputs.iter().map(|d| d.node).collect();
        self.push_node(deps, move |args| {
            let refs: Vec<&A> = args.iter().map(cast::<A>).collect();
            f(&refs)
        })
    }

    /// Execute the subgraph needed for `target` and return its value —
    /// Dask's `.result()`, a barrier.
    pub fn result<T: Clone + Send + Sync + 'static>(&self, target: Delayed<T>) -> T {
        self.execute(&[target.node]);
        let graph = self.graph();
        // scilint: allow(F001, the barrier above just executed the target; a missing result is a scheduler bug worth aborting on)
        cast::<T>(graph[target.node].result.as_ref().expect("executed"))
            // scilint: allow(C001, result handoff clones the stored value; NdArray payloads are refcount bumps)
            .clone()
    }

    /// Run the pending subgraph reachable from `targets`.
    ///
    /// `min(workers, pending)` pool workers each drain one shared ready
    /// queue, so any idle worker takes any ready task (Dask's stealing). A
    /// panicking task wakes its peers, which stop, and the pool re-raises
    /// the task's own payload on the caller.
    // scilint: allow(F001, ready-queue lock poisoning and ran-twice/dep-done invariants abort the scheduler by design)
    fn execute(&self, targets: &[usize]) {
        // Collect the incomplete subgraph and its dependency counts.
        let mut needed: Vec<usize> = Vec::new();
        let mut pending: BTreeMap<usize, usize> = BTreeMap::new();
        let mut dependents: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        {
            let graph = self.graph();
            let mut stack: Vec<usize> = targets.to_vec();
            let mut seen = vec![false; graph.len()];
            while let Some(n) = stack.pop() {
                if seen[n] || graph[n].result.is_some() {
                    continue;
                }
                seen[n] = true;
                needed.push(n);
                stack.extend_from_slice(&graph[n].deps);
            }
            for &n in &needed {
                let unmet = graph[n]
                    .deps
                    .iter()
                    .filter(|&&d| graph[d].result.is_none())
                    .count();
                pending.insert(n, unmet);
                for &d in &graph[n].deps {
                    if graph[d].result.is_none() {
                        dependents.entry(d).or_default().push(n);
                    }
                }
            }
        }
        if needed.is_empty() {
            return;
        }

        /// The barrier's scheduling state, under one lock.
        struct Queue {
            ready: VecDeque<usize>,
            /// Unmet dependency count per pending task.
            pending: BTreeMap<usize, usize>,
            /// Tasks not yet finished.
            remaining: usize,
            /// A task panicked; every worker stops.
            aborted: bool,
        }
        /// Sets `aborted` and wakes every peer when its worker unwinds.
        struct AbortOnPanic<'a>(&'a Mutex<Queue>, &'a Condvar);
        impl Drop for AbortOnPanic<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .aborted = true;
                    self.1.notify_all();
                }
            }
        }
        let queue = Mutex::new(Queue {
            ready: needed.iter().copied().filter(|n| pending[n] == 0).collect(),
            pending,
            remaining: needed.len(),
            aborted: false,
        });
        let wake = Condvar::new();

        let workers = self.workers.min(needed.len());
        MorselPool::new(Parallelism::threads(workers)).map_ranges(workers, |_, _| {
            let _abort = AbortOnPanic(&queue, &wake);
            loop {
                // Steal the next ready task from the shared queue.
                let task = {
                    let mut q = queue.lock().expect("queue lock poisoned");
                    loop {
                        if q.remaining == 0 || q.aborted {
                            return;
                        }
                        if let Some(t) = q.ready.pop_front() {
                            break t;
                        }
                        q = wake.wait(q).expect("queue lock poisoned");
                    }
                };
                // Take the function + argument snapshots under the lock,
                // run outside it.
                let (func, args) = {
                    let mut graph = self.graph();
                    let func = graph[task].func.take().expect("task ran twice");
                    let args: Vec<AnyValue> = graph[task]
                        .deps
                        .iter()
                        .map(|&d| Arc::clone(graph[d].result.as_ref().expect("dep done")))
                        .collect();
                    (func, args)
                };
                let value = func(&args);
                self.graph()[task].result = Some(value);
                // Release dependents.
                let mut q = queue.lock().expect("queue lock poisoned");
                q.remaining -= 1;
                for &d in dependents.get(&task).into_iter().flatten() {
                    let c = q.pending.get_mut(&d).expect("tracked");
                    *c -= 1;
                    if *c == 0 {
                        q.ready.push_back(d);
                    }
                }
                wake.notify_all();
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn leaf_and_map() {
        let client = DaskClient::new(4);
        let x = client.delayed(|| 21u64);
        let y = client.delayed_map(x, |v| v * 2);
        assert_eq!(client.result(y), 42);
    }

    #[test]
    fn zip_combines() {
        let client = DaskClient::new(2);
        let a = client.delayed(|| 3.0f64);
        let b = client.delayed(|| 4.0f64);
        let c = client.delayed_zip(a, b, |x, y| (x * x + y * y).sqrt());
        assert_eq!(client.result(c), 5.0);
    }

    #[test]
    fn many_combines_fanin() {
        let client = DaskClient::new(4);
        let parts: Vec<Delayed<u64>> = (0..10).map(|i| client.delayed(move || i as u64)).collect();
        let total = client.delayed_many(&parts, |vs| vs.iter().copied().sum::<u64>());
        assert_eq!(client.result(total), 45);
    }

    #[test]
    fn lazy_until_barrier() {
        let calls = Arc::new(AtomicUsize::new(0));
        let client = DaskClient::new(2);
        let c = Arc::clone(&calls);
        let x = client.delayed(move || {
            c.fetch_add(1, Ordering::SeqCst);
            1u32
        });
        assert_eq!(
            calls.load(Ordering::SeqCst),
            0,
            "nothing runs before result()"
        );
        client.result(x);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn results_persist_no_recompute() {
        let calls = Arc::new(AtomicUsize::new(0));
        let client = DaskClient::new(2);
        let c = Arc::clone(&calls);
        let x = client.delayed(move || {
            c.fetch_add(1, Ordering::SeqCst);
            7u32
        });
        let y = client.delayed_map(x, |v| v + 1);
        client.result(x);
        client.result(y); // x's value is reused where it was computed
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn wide_graph_executes_in_parallel() {
        // 8 slow leaves on 8 workers should take ~1 unit, not 8.
        let client = DaskClient::new(8);
        let start = std::time::Instant::now();
        let leaves: Vec<Delayed<u32>> = (0..8)
            .map(|i| {
                client.delayed(move || {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    i as u32
                })
            })
            .collect();
        let total = client.delayed_many(&leaves, |vs| vs.iter().copied().sum::<u32>());
        assert_eq!(client.result(total), 28);
        let elapsed = start.elapsed();
        assert!(elapsed.as_millis() < 300, "no parallelism: {elapsed:?}");
    }

    #[test]
    fn diamond_dependencies() {
        let client = DaskClient::new(4);
        let a = client.delayed(|| 10i64);
        let b = client.delayed_map(a, |v| v + 1);
        let c = client.delayed_map(a, |v| v + 2);
        let d = client.delayed_zip(b, c, |x, y| x * y);
        assert_eq!(client.result(d), 11 * 12);
    }

    #[test]
    fn task_panic_stops_every_worker_and_keeps_its_message() {
        // Run each width on a helper thread so a scheduler that hangs after
        // a task panic fails this test instead of stalling the suite.
        for workers in [1usize, 2, 4] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let client = DaskClient::new(workers);
                let a = client.delayed(|| -> u32 { panic!("task a failed") });
                let b = client.delayed(|| 2u32);
                let c = client.delayed_zip(a, b, |x, y| x + y);
                let payload =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| client.result(c)))
                        .expect_err("the task panicked");
                let msg = payload.downcast_ref::<&str>().map(|m| m.to_string());
                let _ = tx.send(msg);
            });
            let msg = rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("execute hung after a task panic at {workers} workers"));
            assert_eq!(msg.as_deref(), Some("task a failed"), "workers={workers}");
        }
    }
}
