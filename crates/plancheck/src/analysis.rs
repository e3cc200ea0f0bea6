//! Shared graph analysis: ancestor bitsets and reverse adjacency. Built
//! once per [`crate::check`] call and reused by every pass.

use simcluster::{TaskGraph, TaskId, TaskSpec};

/// Precomputed reachability over a task graph.
pub(crate) struct Analysis<'g> {
    /// The tasks, by id.
    pub tasks: &'g [TaskSpec],
    /// `anc[t]` is a bitset over task ids: the strict ancestors of `t`.
    anc: Vec<Vec<u64>>,
    /// `consumers[t]`: tasks listing `t` as a dependency.
    pub consumers: Vec<Vec<TaskId>>,
    words: usize,
}

impl<'g> Analysis<'g> {
    /// Build the analysis. Task ids are a topological order (a task only
    /// depends on tasks added before it), so one pass in id order sees
    /// every dependency's ancestor set complete.
    pub fn new(graph: &'g TaskGraph) -> Analysis<'g> {
        let tasks = graph.tasks();
        let n = tasks.len();
        let words = n.div_ceil(64);

        let mut consumers: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        let mut anc = vec![vec![0u64; words]; n];
        for (t, task) in tasks.iter().enumerate() {
            // anc[t] = ∪_d (anc[d] ∪ {d}), every d < t.
            let (done, rest) = anc.split_at_mut(t);
            let dst = &mut rest[0];
            for &d in &task.deps {
                consumers[d].push(t);
                for (w, src) in dst.iter_mut().zip(&done[d]) {
                    *w |= src;
                }
                dst[d / 64] |= 1u64 << (d % 64);
            }
        }

        Analysis {
            tasks,
            anc,
            consumers,
            words,
        }
    }

    /// Is `a` a strict ancestor of `b`?
    pub fn is_ancestor(&self, a: TaskId, b: TaskId) -> bool {
        (self.anc[b][a / 64] >> (a % 64)) & 1 == 1
    }

    /// Are `a` and `b` ordered (one reaches the other)?
    pub fn comparable(&self, a: TaskId, b: TaskId) -> bool {
        a == b || self.is_ancestor(a, b) || self.is_ancestor(b, a)
    }

    /// Iterate the ancestors of `t`.
    pub fn ancestors(&self, t: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        let bits = &self.anc[t];
        (0..self.words).flat_map(move |w| {
            let mut word = bits[w];
            std::iter::from_fn(move || {
                if word == 0 {
                    None
                } else {
                    let b = word.trailing_zeros() as usize;
                    word &= word - 1;
                    Some(w * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcluster::TaskSpec;

    #[test]
    fn ancestors_cross_a_diamond() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskSpec::compute("a", 1.0));
        let b = g.add(TaskSpec::compute("b", 1.0).after(&[a]));
        let c = g.add(TaskSpec::compute("c", 1.0).after(&[a]));
        let d = g.add(TaskSpec::compute("d", 1.0).after(&[b, c]));
        let an = Analysis::new(&g);
        assert!(an.is_ancestor(a, d) && an.is_ancestor(b, d) && an.is_ancestor(c, d));
        assert!(!an.is_ancestor(d, a));
        assert!(!an.comparable(b, c));
        assert!(an.comparable(a, d) && an.comparable(d, d));
        let anc_d: Vec<_> = an.ancestors(d).collect();
        assert_eq!(anc_d, vec![a, b, c]);
        assert_eq!(an.consumers[a], vec![b, c]);
    }

    #[test]
    fn ancestors_work_past_64_tasks() {
        // Force multi-word bitsets: a chain of 200 tasks.
        let mut g = TaskGraph::new();
        let mut prev = g.add(TaskSpec::compute("t", 0.1));
        for _ in 0..200 {
            prev = g.add(TaskSpec::compute("t", 0.1).after(&[prev]));
        }
        let an = Analysis::new(&g);
        assert!(an.is_ancestor(0, 200));
        assert!(an.is_ancestor(64, 130));
        assert!(!an.is_ancestor(130, 64));
        assert_eq!(an.ancestors(200).count(), 200);
    }
}
