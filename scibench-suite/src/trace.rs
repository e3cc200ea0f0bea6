//! In-memory spans around every call the suite makes into a layer.
//!
//! Each op has a root span (`bench.op`) that carries the op's exact
//! counter deltas; its children are time-only spans named
//! `<layer>.<call>`, where the layer is the crate called into. Children
//! take no counter snapshots and no locks, so their bookkeeping stays far
//! below the cost of even a cached served request. Spans stay in memory
//! and are written as JSON lines when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use marray::{CodecCounter, CopyCounter, MemoryGovernor};
use scimemo::MemoStats;

use crate::json::escape;

/// Name of every op's root span.
pub const OP: &str = "bench.op";

/// Counter readings taken around one op: the marray copy, codec and
/// memory-governor ledgers plus, on the serve workload, the result cache's
/// statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Deep copies.
    pub copies: u64,
    /// Bytes deep-copied.
    pub copy_bytes: u64,
    /// Chunk encodes.
    pub encodes: u64,
    /// Chunk decodes.
    pub decodes: u64,
    /// Dense bytes entering the encoder.
    pub dense_bytes: u64,
    /// Encoded bytes leaving the encoder.
    pub encoded_bytes: u64,
    /// Chunks spilled to disk.
    pub spills: u64,
    /// Chunks reloaded from disk.
    pub reloads: u64,
    /// Bytes written to the spill file.
    pub spilled_bytes: u64,
    /// Result-cache hits.
    pub memo_hits: u64,
    /// Result-cache misses.
    pub memo_misses: u64,
    /// Result-cache evictions.
    pub memo_evictions: u64,
    /// Result-cache bytes evicted.
    pub memo_evicted_bytes: u64,
}

impl Counters {
    /// Read every process-wide ledger now; `memo` adds a result cache's
    /// statistics.
    pub fn now(memo: Option<MemoStats>) -> Counters {
        let copy = CopyCounter::snapshot();
        let codec = CodecCounter::snapshot();
        let gov = MemoryGovernor::snapshot();
        let memo = memo.unwrap_or_default();
        Counters {
            copies: copy.copies,
            copy_bytes: copy.bytes,
            encodes: codec.by_codec.values().map(|c| c.encodes).sum(),
            decodes: codec.by_codec.values().map(|c| c.decodes).sum(),
            dense_bytes: codec.dense_bytes(),
            encoded_bytes: codec.encoded_bytes(),
            spills: gov.spills,
            reloads: gov.reloads,
            spilled_bytes: gov.spilled_bytes,
            memo_hits: memo.hits,
            memo_misses: memo.misses,
            memo_evictions: memo.evictions,
            memo_evicted_bytes: memo.evicted_bytes,
        }
    }

    /// The traffic between `earlier` and `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            copies: self.copies.saturating_sub(earlier.copies),
            copy_bytes: self.copy_bytes.saturating_sub(earlier.copy_bytes),
            encodes: self.encodes.saturating_sub(earlier.encodes),
            decodes: self.decodes.saturating_sub(earlier.decodes),
            dense_bytes: self.dense_bytes.saturating_sub(earlier.dense_bytes),
            encoded_bytes: self.encoded_bytes.saturating_sub(earlier.encoded_bytes),
            spills: self.spills.saturating_sub(earlier.spills),
            reloads: self.reloads.saturating_sub(earlier.reloads),
            spilled_bytes: self.spilled_bytes.saturating_sub(earlier.spilled_bytes),
            memo_hits: self.memo_hits.saturating_sub(earlier.memo_hits),
            memo_misses: self.memo_misses.saturating_sub(earlier.memo_misses),
            memo_evictions: self.memo_evictions.saturating_sub(earlier.memo_evictions),
            memo_evicted_bytes: self
                .memo_evicted_bytes
                .saturating_sub(earlier.memo_evicted_bytes),
        }
    }

    /// Element-wise sum.
    pub fn add(&mut self, o: &Counters) {
        self.copies += o.copies;
        self.copy_bytes += o.copy_bytes;
        self.encodes += o.encodes;
        self.decodes += o.decodes;
        self.dense_bytes += o.dense_bytes;
        self.encoded_bytes += o.encoded_bytes;
        self.spills += o.spills;
        self.reloads += o.reloads;
        self.spilled_bytes += o.spilled_bytes;
        self.memo_hits += o.memo_hits;
        self.memo_misses += o.memo_misses;
        self.memo_evictions += o.memo_evictions;
        self.memo_evicted_bytes += o.memo_evicted_bytes;
    }
}

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// `bench.op` or `<layer>.<call>`.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Counter deltas (root op spans only).
    pub counters: Option<Counters>,
}

impl Span {
    /// The crate this span's time is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// An open op. When tracing is on it also holds the counters the op
/// started from and buffers its child spans on the op's own thread; they
/// reach the shared list only when the op closes, so a child span costs
/// two clock reads and a push.
pub struct OpenOp {
    op: usize,
    start: Instant,
    before: Option<Counters>,
    children: RefCell<Vec<Span>>,
}

/// The span recorder. When tracing is off it only times ops.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder, enabled or not.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Start op `op`. When tracing, the counters (plus `memo`, a result
    /// cache's statistics) are read before the clock starts, so the
    /// snapshot is not part of the op's time.
    pub fn open_op(&self, op: usize, memo: impl FnOnce() -> Option<MemoStats>) -> OpenOp {
        let before = self.on.then(|| Counters::now(memo()));
        OpenOp {
            op,
            before,
            children: RefCell::new(Vec::new()),
            start: Instant::now(),
        }
    }

    /// End an op and return its wall time in milliseconds. When tracing,
    /// record its root span, charged with the counters moved since it
    /// opened, followed by its children.
    pub fn close_op(&self, open: OpenOp, memo: impl FnOnce() -> Option<MemoStats>) -> f64 {
        let end = Instant::now();
        let ms = end.duration_since(open.start).as_secs_f64() * 1e3;
        if let Some(before) = open.before {
            let delta = Counters::now(memo()).since(&before);
            let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
            let id = spans.len();
            spans.push(Span {
                name: OP,
                op: open.op,
                parent: None,
                start_ns: self.ns(open.start),
                end_ns: self.ns(end),
                counters: Some(delta),
            });
            for mut child in open.children.into_inner() {
                child.parent = Some(id);
                spans.push(child);
            }
        }
        ms
    }

    /// Run `f` inside a time-only span `name` under `parent`. The span is
    /// recorded even if `f` panics.
    pub fn span<R>(&self, name: &'static str, parent: &OpenOp, f: impl FnOnce() -> R) -> R {
        if parent.before.is_none() {
            return f();
        }
        struct Close<'a> {
            tracer: &'a Tracer,
            op: &'a OpenOp,
            name: &'static str,
            start: Instant,
        }
        impl Drop for Close<'_> {
            fn drop(&mut self) {
                let end = Instant::now();
                self.op.children.borrow_mut().push(Span {
                    name: self.name,
                    op: self.op.op,
                    parent: None,
                    start_ns: self.tracer.ns(self.start),
                    end_ns: self.tracer.ns(end),
                    counters: None,
                });
            }
        }
        let start = Instant::now();
        let _close = Close {
            tracer: self,
            op: parent,
            name,
            start,
        };
        f()
    }

    /// Every span recorded.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Milliseconds of each span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Per-span self time in nanoseconds: the span's duration minus the part
/// of it that its children cover.
fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self time per layer, in milliseconds. The `bench` layer's share
/// is op time no layer span covers.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += ns as f64 / 1e6;
    }
    out
}

/// Median over ops of the share of the op's wall time that its layer
/// spans do not cover.
pub fn unattributed_frac(spans: &[Span]) -> f64 {
    let fracs: Vec<f64> = spans
        .iter()
        .zip(self_times_ns(spans))
        .filter(|(s, _)| s.parent.is_none() && s.end_ns > s.start_ns)
        .map(|(s, ns)| ns as f64 / (s.end_ns - s.start_ns) as f64)
        .collect();
    crate::util::median(&fracs)
}

/// Sum of the root spans' counter deltas: the exact traffic of the timed
/// ops, excluding the output checks between them.
pub fn op_counters(spans: &[Span]) -> (usize, Counters) {
    let mut total = Counters::default();
    let mut ops = 0;
    for c in spans.iter().filter_map(|s| s.counters.as_ref()) {
        total.add(c);
        ops += 1;
    }
    (ops, total)
}

/// Write every span as one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}",
            escape(s.name),
            s.op,
            s.start_ns,
            s.end_ns
        )?;
        if let Some(c) = &s.counters {
            write!(
                out,
                ", \"copies\": {}, \"copy_bytes\": {}, \"encodes\": {}, \"decodes\": {}, \
                 \"dense_bytes\": {}, \"encoded_bytes\": {}, \"spills\": {}, \"reloads\": {}, \
                 \"spilled_bytes\": {}, \"memo_hits\": {}, \"memo_misses\": {}, \
                 \"memo_evictions\": {}, \"memo_evicted_bytes\": {}",
                c.copies,
                c.copy_bytes,
                c.encodes,
                c.decodes,
                c.dense_bytes,
                c.encoded_bytes,
                c.spills,
                c.reloads,
                c.spilled_bytes,
                c.memo_hits,
                c.memo_misses,
                c.memo_evictions,
                c.memo_evicted_bytes
            )?;
        }
        writeln!(out, "}}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, a: u64, b: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns: a,
            end_ns: b,
            counters: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(OP, None, 0, 100),
            span("formats.ingest", Some(0), 10, 30),
            span("sciops.native", Some(0), 25, 90),
            span(OP, None, 100, 200),
            span("serve.request", Some(3), 100, 195),
        ];
        let layers = layer_self_ms(&spans);
        // Op 0: children cover 10..90, so 20 ns are unattributed.
        assert_eq!(layers["bench"], 25.0 / 1e6);
        assert_eq!(layers["formats"], 20.0 / 1e6);
        // Fractions 0.2 and 0.05: the median of two is their mean.
        assert!((unattributed_frac(&spans) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_still_runs() {
        let t = Tracer::new(false);
        let op = t.open_op(0, || None);
        assert_eq!(t.span("sciops.native", &op, || 7), 7);
        assert!(t.close_op(op, || None) >= 0.0);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn spans_close_when_the_traced_call_panics() {
        let t = Tracer::new(true);
        let op = t.open_op(3, || None);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.span("engine-rdd.spark", &op, || panic!("boom"));
        }));
        assert!(r.is_err());
        t.close_op(op, || None);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns && s.op == 3));
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].counters.is_some() && spans[1].counters.is_none());
    }
}
