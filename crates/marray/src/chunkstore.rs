//! The zero-copy data plane: shared immutable chunk buffers.
//!
//! Mehta et al. (VLDB 2017, §5.3) attribute much of the performance gap
//! between the five evaluated systems to memory management at operator
//! boundaries: engines that deep-copy or re-serialize image chunks at every
//! partition / shuffle / broadcast / cache / scan boundary pay for it in
//! both wall time and OOM-prone footprint. This module gives every engine
//! analog in the workspace one shared substrate that makes the *cheap*
//! behaviour the default:
//!
//! * [`ChunkBuf`] — a reference-counted immutable element buffer. Cloning
//!   one is a refcount bump; the bytes are shared.
//! * Copy-on-write mutation — [`ChunkBuf::make_mut`] hands out exclusive
//!   access, deep-copying only when the buffer is actually shared, and
//!   every such unshare is recorded.
//! * [`CopyCounter`] — a process-wide ledger of deep copies, each tagged
//!   with a reason (`"cow"`, `"scidb.materialize"`, ...), so pipelines can
//!   report copies-per-run and the e2e bench can gate them against the
//!   committed `BENCH_e2e.json`.
//!
//! Copies that an engine's architectural contract genuinely requires
//! (e.g. the SciDB analog's chunked rewrite) are *kept* and tagged via
//! [`CopyCounter::record`] or [`ChunkBuf::deep_copy`]: the goal is to
//! delete the accidental copies while keeping each engine's intended copy
//! behaviour faithful to the paper.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::codec::{ChunkRepr, Encoded};
use crate::element::Element;
use crate::spill::{govern_dense, GovernedCell};

/// Total deep copies recorded since process start.
static COPIES: AtomicU64 = AtomicU64::new(0);
/// Total bytes deep-copied since process start.
static COPIED_BYTES: AtomicU64 = AtomicU64::new(0);
/// Per-reason breakdown. BTreeMap so reports iterate deterministically.
static BY_REASON: Mutex<BTreeMap<String, ReasonStats>> = Mutex::new(BTreeMap::new());

/// The process-wide deep-copy ledger.
///
/// `CopyCounter` is a namespace, not an instance: the counters are global
/// because buffers flow across engine worker threads. Readers take
/// [`CopyCounter::snapshot`]s and diff them with [`CopyStats::since`] to
/// attribute copies to a pipeline run.
pub struct CopyCounter;

impl CopyCounter {
    /// Record one deep copy of `bytes` bytes under `reason`.
    pub fn record(reason: &str, bytes: usize) {
        COPIES.fetch_add(1, Ordering::Relaxed);
        COPIED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
        let mut map = BY_REASON.lock().unwrap_or_else(|e| e.into_inner());
        let slot = map.entry(reason.to_string()).or_default();
        slot.copies += 1;
        slot.bytes += bytes as u64;
    }

    /// A consistent view of the ledger as of now.
    pub fn snapshot() -> CopyStats {
        // Lock first so totals cannot advance past the per-reason map.
        let map = BY_REASON.lock().unwrap_or_else(|e| e.into_inner());
        CopyStats {
            copies: COPIES.load(Ordering::Relaxed),
            bytes: COPIED_BYTES.load(Ordering::Relaxed),
            by_reason: map.clone(),
        }
    }
}

/// Copy count and byte volume for one reason tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReasonStats {
    /// Number of deep copies.
    pub copies: u64,
    /// Bytes deep-copied.
    pub bytes: u64,
}

/// A snapshot (or delta) of the deep-copy ledger.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CopyStats {
    /// Total deep copies.
    pub copies: u64,
    /// Total bytes deep-copied.
    pub bytes: u64,
    /// Breakdown by reason tag, deterministically ordered.
    pub by_reason: BTreeMap<String, ReasonStats>,
}

impl CopyStats {
    /// The copies recorded between `earlier` and `self` (saturating, so a
    /// stale snapshot never underflows).
    pub fn since(&self, earlier: &CopyStats) -> CopyStats {
        let mut by_reason = BTreeMap::new();
        for (reason, now) in &self.by_reason {
            let base = earlier.by_reason.get(reason).copied().unwrap_or_default();
            let d = ReasonStats {
                copies: now.copies.saturating_sub(base.copies),
                bytes: now.bytes.saturating_sub(base.bytes),
            };
            if d.copies > 0 || d.bytes > 0 {
                by_reason.insert(reason.clone(), d);
            }
        }
        CopyStats {
            copies: self.copies.saturating_sub(earlier.copies),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            by_reason,
        }
    }
}

/// The storage behind a [`ChunkBuf`]: dense bytes, a compressed cell, or
/// a budget-governed cell of dense bytes that may be spilled to disk.
#[derive(Debug, Clone)]
enum Payload<T: Element> {
    /// Uncompressed shared vector.
    Dense(Arc<Vec<T>>),
    /// Compressed form plus a lazily materialized dense cache shared by
    /// every handle to the cell.
    Encoded(Arc<EncodedCell<T>>),
    /// A cell under [`crate::MemoryGovernor`] management (resident or
    /// spilled), plus this handle's pin on the dense bytes.
    Governed(Arc<GovernedCell<T>>, HandlePin<T>),
}

/// One handle's hold on a governed cell's dense bytes.
///
/// The pin fills on the handle's first [`ChunkBuf::as_slice`] and keeps
/// the bytes resident (the governor skips pinned cells) until the handle
/// drops or calls [`ChunkBuf::release`]. Cloning a handle yields an
/// *empty* pin: stored handles that were never read do not hold memory,
/// and a worker that reads through a temporary clone releases the cell
/// when the clone drops.
#[derive(Debug)]
struct HandlePin<T: Element> {
    pin: OnceLock<Arc<Vec<T>>>,
}

impl<T: Element> HandlePin<T> {
    fn new() -> HandlePin<T> {
        HandlePin {
            pin: OnceLock::new(),
        }
    }
}

impl<T: Element> Clone for HandlePin<T> {
    /// A fresh, empty pin — each handle pins independently.
    fn clone(&self) -> Self {
        HandlePin::new()
    }
}

/// Where a [`ChunkBuf`]'s bytes currently live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// In memory (every non-governed buffer, and governed cells whose
    /// bytes are currently loaded).
    Resident,
    /// On disk in the process spill file; the next read reloads it.
    Spilled,
}

/// A compressed buffer with a shared lazy dense cache: readers that need a
/// slice decode once per cell, not once per handle, and the decode never
/// disturbs other handles (COW-safe — the encoded form stays authoritative).
#[derive(Debug)]
struct EncodedCell<T: Element> {
    enc: Encoded<T>,
    dense: OnceLock<Vec<T>>,
}

impl<T: Element> EncodedCell<T> {
    /// The dense elements, decoding (counted) on first access.
    fn dense(&self) -> &Vec<T> {
        self.dense.get_or_init(|| self.enc.decode_counted())
    }
}

/// A reference-counted immutable element buffer: the storage cell behind
/// [`crate::NdArray`] and the unit shared across engine boundaries.
///
/// Cloning is a refcount bump; mutation goes through
/// [`ChunkBuf::make_mut`], which deep-copies (and records the copy) only
/// when the buffer is shared.
///
/// A buffer may hold a compressed representation ([`ChunkBuf::repr`] says
/// which; see [`crate::codec`]). Reads through [`ChunkBuf::as_slice`]
/// materialize a dense cache lazily, shared by every handle to the same
/// cell; mutation through [`ChunkBuf::make_mut`] / [`ChunkBuf::into_vec`]
/// leaves the compressed domain with a private dense buffer, so
/// copy-on-write semantics are preserved exactly.
#[derive(Debug)]
pub struct ChunkBuf<T: Element> {
    payload: Payload<T>,
}

impl<T: Element> ChunkBuf<T> {
    /// Wrap an owned vector (no copy).
    pub fn from_vec(data: Vec<T>) -> Self {
        ChunkBuf {
            payload: Payload::Dense(Arc::new(data)),
        }
    }

    /// Wrap an already-encoded buffer (no copy, no ledger traffic).
    pub fn from_encoded(enc: Encoded<T>) -> Self {
        ChunkBuf {
            payload: Payload::Encoded(Arc::new(EncodedCell {
                enc,
                dense: OnceLock::new(),
            })),
        }
    }

    /// The elements, read-only.
    ///
    /// For a compressed buffer this materializes the dense cache on first
    /// access (a counted `"codec.decode"`), shared by every handle to the
    /// same cell.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.payload {
            Payload::Dense(v) => v,
            Payload::Encoded(cell) => cell.dense(),
            Payload::Governed(cell, pin) => pin.pin.get_or_init(|| cell.acquire()),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.payload {
            Payload::Dense(v) => v.len(),
            Payload::Encoded(cell) => cell.enc.len(),
            Payload::Governed(cell, _) => cell.len(),
        }
    }

    /// True when the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical payload size in bytes (dense footprint, whatever the
    /// stored representation).
    #[inline]
    pub fn nbytes(&self) -> usize {
        self.len() * T::BYTES
    }

    /// Bytes the stored representation occupies: the dense footprint for
    /// [`ChunkRepr::Dense`] (governed buffers included), the encoded
    /// footprint otherwise. This is the volume that actually crosses an
    /// engine boundary carrying this handle, which is what the
    /// bytes-moved ledgers charge.
    pub fn stored_nbytes(&self) -> usize {
        match &self.payload {
            Payload::Dense(_) | Payload::Governed(..) => self.nbytes(),
            Payload::Encoded(cell) => cell.enc.encoded_bytes(),
        }
    }

    /// The stored representation.
    pub fn repr(&self) -> ChunkRepr {
        match &self.payload {
            Payload::Dense(_) | Payload::Governed(..) => ChunkRepr::Dense,
            Payload::Encoded(cell) => cell.enc.repr(),
        }
    }

    /// Number of handles currently sharing these bytes.
    pub fn ref_count(&self) -> usize {
        match &self.payload {
            Payload::Dense(v) => Arc::strong_count(v),
            Payload::Encoded(cell) => Arc::strong_count(cell),
            Payload::Governed(cell, _) => Arc::strong_count(cell),
        }
    }

    /// True when `self` and `other` share the same underlying allocation.
    pub fn ptr_eq(&self, other: &ChunkBuf<T>) -> bool {
        match (&self.payload, &other.payload) {
            (Payload::Dense(a), Payload::Dense(b)) => Arc::ptr_eq(a, b),
            (Payload::Encoded(a), Payload::Encoded(b)) => Arc::ptr_eq(a, b),
            (Payload::Governed(a, _), Payload::Governed(b, _)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Re-encode into the smallest compressed representation, if any codec
    /// shrinks the buffer; otherwise (or for an already-compressed buffer)
    /// a handle clone. Encodes are counted (`"codec.encode"`).
    pub fn compressed(&self) -> ChunkBuf<T> {
        match &self.payload {
            Payload::Encoded(_) | Payload::Governed(..) => self.clone(),
            Payload::Dense(v) => match Encoded::encode_counted(v) {
                Some(enc) => ChunkBuf::from_encoded(enc),
                None => self.clone(),
            },
        }
    }

    /// A handle to this buffer's dense bytes under
    /// [`crate::MemoryGovernor`] management: the governor accounts them as
    /// resident and may spill them to the process spill file under budget
    /// pressure; the next read reloads them bit-exactly. No copy: the
    /// governed cell shares the existing allocation.
    ///
    /// Governing a packed or an already-governed buffer is a handle clone:
    /// a packed cell is smaller than any record that could spill it. The
    /// returned handle starts unpinned even if `self` was pinned.
    pub fn govern(&self) -> ChunkBuf<T> {
        match &self.payload {
            Payload::Dense(v) => ChunkBuf {
                payload: Payload::Governed(govern_dense(v.clone()), HandlePin::new()),
            },
            Payload::Encoded(_) | Payload::Governed(..) => self.clone(),
        }
    }

    /// Where this buffer's bytes currently live. Non-governed buffers are
    /// always [`Residency::Resident`].
    pub fn residency(&self) -> Residency {
        match &self.payload {
            Payload::Dense(_) | Payload::Encoded(_) => Residency::Resident,
            Payload::Governed(cell, _) => {
                if cell.is_spilled() {
                    Residency::Spilled
                } else {
                    Residency::Resident
                }
            }
        }
    }

    /// Drop this handle's pin on a governed cell's dense bytes, making
    /// the cell spillable again without dropping the handle. A later
    /// [`ChunkBuf::as_slice`] re-pins (reloading if the cell spilled in
    /// the meantime). No-op for non-governed buffers.
    pub fn release(&mut self) {
        if let Payload::Governed(_, pin) = &mut self.payload {
            pin.pin.take();
        }
    }

    /// Internal: leave the compressed domain, making the payload dense.
    ///
    /// Decoding straight out of the encoded form is counted as a
    /// `"codec.decode"`; cloning an already-materialized cache is an
    /// ordinary deep copy under `reason`.
    fn ensure_dense(&mut self, reason: &str) {
        match &self.payload {
            Payload::Dense(_) => {}
            Payload::Encoded(cell) => {
                let v = match cell.dense.get() {
                    Some(cached) => {
                        CopyCounter::record(reason, cached.len() * T::BYTES);
                        cached.clone()
                    }
                    None => cell.enc.decode_counted(),
                };
                self.payload = Payload::Dense(Arc::new(v));
            }
            Payload::Governed(cell, _) => {
                // Leave the governed domain with a private dense buffer:
                // mutation must not race residency transitions.
                let v = cell.take_dense(reason);
                self.payload = Payload::Dense(Arc::new(v));
            }
        }
    }

    /// Exclusive access for mutation: copy-on-write.
    ///
    /// If this handle is the sole owner of a dense buffer the call is
    /// free; a shared buffer is deep-copied first (recorded under
    /// `reason`), and a compressed buffer is materialized to a private
    /// dense buffer (the decode is counted).
    // scilint: allow(F001, shape invariant upheld by construction; a violation is a kernel bug, not a data error)
    // scilint: allow(F003, the copy-on-write unshare: the plane's one sanctioned deep copy besides deep_copy())
    pub fn make_mut(&mut self, reason: &str) -> &mut Vec<T> {
        self.ensure_dense(reason);
        let Payload::Dense(arc) = &mut self.payload else {
            unreachable!("ensure_dense leaves a dense payload")
        };
        if Arc::get_mut(arc).is_none() {
            CopyCounter::record(reason, arc.len() * T::BYTES);
            *arc = Arc::new(arc.as_ref().clone());
        }
        Arc::get_mut(arc).expect("freshly unshared ChunkBuf has a sole owner")
    }

    /// Consume the handle, returning the owned vector.
    ///
    /// Free when this handle is the sole owner of a dense buffer;
    /// otherwise a counted deep copy under `reason` (or a counted decode
    /// for a compressed buffer).
    pub fn into_vec(mut self, reason: &str) -> Vec<T> {
        self.ensure_dense(reason);
        let Payload::Dense(arc) = self.payload else {
            unreachable!("ensure_dense leaves a dense payload")
        };
        match Arc::try_unwrap(arc) {
            Ok(v) => v,
            Err(shared) => {
                CopyCounter::record(reason, shared.len() * T::BYTES);
                shared.as_ref().clone()
            }
        }
    }

    /// An explicit, always-counted deep copy under `reason`.
    ///
    /// This is the sanctioned escape hatch for copies an engine's
    /// architectural contract requires regardless of sharing. The copy is
    /// always dense.
    pub fn deep_copy(&self, reason: &str) -> ChunkBuf<T> {
        CopyCounter::record(reason, self.nbytes());
        ChunkBuf::from_vec(self.as_slice().to_vec())
    }

    /// A zero-copy view of `len` elements starting at `start`.
    ///
    /// # Panics
    /// Panics when the range exceeds the buffer.
    pub fn view(&self, start: usize, len: usize) -> ChunkView<T> {
        assert!(
            start + len <= self.len(),
            "ChunkBuf::view: range {start}..{} exceeds buffer of {} elements",
            start + len,
            self.len()
        );
        ChunkView {
            buf: self.clone(),
            start,
            len,
        }
    }
}

impl<T: Element> Clone for ChunkBuf<T> {
    /// A handle clone: a refcount bump, never a copy of the chunk bytes.
    // scilint: allow(F003, Payload is an enum of Arcs: cloning it bumps refcounts, never copies chunk bytes)
    fn clone(&self) -> Self {
        ChunkBuf {
            payload: self.payload.clone(),
        }
    }
}

impl<T: Element> PartialEq for ChunkBuf<T> {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || self.as_slice() == other.as_slice()
    }
}

/// A zero-copy slice view into a shared [`ChunkBuf`]: the slab handle the
/// partitioners hand to workers instead of `data[lo..hi].to_vec()`.
#[derive(Debug, Clone)]
pub struct ChunkView<T: Element> {
    buf: ChunkBuf<T>,
    start: usize,
    len: usize,
}

impl<T: Element> ChunkView<T> {
    /// The viewed elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.buf.as_slice()[self.start..self.start + self.len]
    }

    /// Number of elements in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Offset of the view's first element in the backing buffer.
    #[inline]
    pub fn start(&self) -> usize {
        self.start
    }
}

impl<T: Element> PartialEq for ChunkView<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hold the budget-section lock, so no budget section runs while a
    /// test diffs the ledger.
    fn section() -> std::sync::MutexGuard<'static, ()> {
        crate::spill::MODE_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn buf(n: usize) -> ChunkBuf<f64> {
        ChunkBuf::from_vec((0..n).map(|i| i as f64).collect())
    }

    #[test]
    fn shared_clone_is_a_refcount_bump() {
        let _section = section();
        let before = CopyCounter::snapshot();
        let a = buf(16);
        let b = a.clone();
        assert!(a.ptr_eq(&b));
        assert_eq!(a.ref_count(), 2);
        let delta = CopyCounter::snapshot().since(&before);
        assert_eq!(delta.copies, 0, "shared clone must not deep-copy");
    }

    #[test]
    fn make_mut_is_free_when_unique_and_cow_when_shared() {
        let _section = section();
        let before = CopyCounter::snapshot();
        let mut a = buf(8);
        a.make_mut("cow")[0] = 99.0; // sole owner: free
        assert_eq!(CopyCounter::snapshot().since(&before).copies, 0);

        let b = a.clone();
        a.make_mut("cow")[1] = 7.0; // shared: copy-on-write
        let delta = CopyCounter::snapshot().since(&before);
        assert_eq!(delta.copies, 1);
        assert!(delta.by_reason.contains_key("cow"));
        // The writer sees its write; the other handle kept the original.
        assert_eq!(a.as_slice()[1], 7.0);
        assert_eq!(b.as_slice()[1], 1.0);
        assert!(!a.ptr_eq(&b));
    }

    #[test]
    fn into_vec_unshares_only_when_shared() {
        let _section = section();
        let before = CopyCounter::snapshot();
        let a = buf(4);
        let v = a.into_vec("unshare"); // sole owner: move
        assert_eq!(v.len(), 4);
        assert_eq!(CopyCounter::snapshot().since(&before).copies, 0);

        let a = buf(4);
        let _keep = a.clone();
        let v = a.into_vec("unshare"); // shared: counted copy
        assert_eq!(v.len(), 4);
        let delta = CopyCounter::snapshot().since(&before);
        assert_eq!(delta.copies, 1);
        assert!(delta.by_reason.contains_key("unshare"));
    }

    #[test]
    fn sanctioned_deep_copies_are_counted_and_tagged() {
        let _section = section();
        let before = CopyCounter::snapshot();
        let a = buf(32);
        let b = a.deep_copy("scidb.materialize");
        assert!(!a.ptr_eq(&b));
        CopyCounter::record("scidb.stream-tsv", 123);
        let delta = CopyCounter::snapshot().since(&before);
        assert_eq!(delta.copies, 2);
        assert_eq!(
            delta.by_reason.get("scidb.materialize"),
            Some(&ReasonStats {
                copies: 1,
                bytes: 32 * 8
            })
        );
        assert_eq!(
            delta.by_reason.get("scidb.stream-tsv"),
            Some(&ReasonStats {
                copies: 1,
                bytes: 123
            })
        );
    }

    #[test]
    fn views_share_without_copying() {
        let _section = section();
        let before = CopyCounter::snapshot();
        let a = buf(10);
        let v = a.view(3, 4);
        assert_eq!(v.as_slice(), &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(v.len(), 4);
        assert_eq!(v.start(), 3);
        assert_eq!(CopyCounter::snapshot().since(&before).copies, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds buffer")]
    fn view_out_of_range_panics() {
        let a = buf(4);
        let _ = a.view(2, 3);
    }

    #[test]
    fn compressed_buffer_decodes_lazily_and_shares_the_cache() {
        let _section = section();
        let a = ChunkBuf::from_vec(vec![2.5f64; 4096]);
        let c = a.compressed();
        assert_eq!(c.repr(), ChunkRepr::Const);
        assert_eq!(c.len(), 4096);
        assert_eq!(c.nbytes(), 4096 * 8);
        assert!(c.stored_nbytes() < 64, "const chunk stays tiny");

        let before = CopyCounter::snapshot();
        let d = c.clone(); // handle clone of the encoded cell
        assert!(c.ptr_eq(&d));
        // First read decodes (counted once); the clone reuses the cache.
        assert_eq!(c.as_slice()[7], 2.5);
        assert_eq!(d.as_slice()[7], 2.5);
        let delta = CopyCounter::snapshot().since(&before);
        assert_eq!(
            delta.by_reason.get("codec.decode").map(|r| r.copies),
            Some(1),
            "one shared decode for two handles"
        );
    }

    #[test]
    fn make_mut_on_compressed_buffer_goes_private_dense() {
        let _section = section();
        let a = ChunkBuf::from_vec(vec![1.0f64; 512]).compressed();
        let keep = a.clone();
        let mut b = a.clone();
        b.make_mut("cow")[0] = 9.0;
        assert_eq!(b.repr(), ChunkRepr::Dense);
        assert_eq!(b.as_slice()[0], 9.0);
        // The other handles still see the encoded original.
        assert_eq!(keep.repr(), ChunkRepr::Const);
        assert_eq!(keep.as_slice()[0], 1.0);
    }

    #[test]
    fn incompressible_buffer_stays_dense() {
        let a = ChunkBuf::from_vec((0..257).map(|i| (i * i) as f64).collect::<Vec<_>>());
        let c = a.compressed();
        assert_eq!(c.repr(), ChunkRepr::Dense);
        assert!(a.ptr_eq(&c));
    }

    #[test]
    fn views_over_compressed_buffers_read_through() {
        let a = ChunkBuf::from_vec(vec![3.0f64; 64]).compressed();
        let v = a.view(8, 4);
        assert_eq!(v.as_slice(), &[3.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn governed_buffer_spills_and_reloads_bit_exactly() {
        crate::with_mem_budget(Some(1024), || {
            let payload: Vec<f64> = (0..256)
                .map(|i| {
                    if i % 97 == 0 {
                        f64::from_bits(0x7ff8_dead_beef_0000 + i as u64)
                    } else {
                        i as f64 - 128.0
                    }
                })
                .collect();
            // Four 2 KiB chunks against a 1 KiB budget: nothing unpinned
            // can stay resident.
            let bufs: Vec<ChunkBuf<f64>> = (0..4)
                .map(|c| {
                    ChunkBuf::from_vec(payload.iter().map(|v| v + c as f64).collect()).govern()
                })
                .collect();
            crate::MemoryGovernor::enforce();
            let stats = crate::MemoryGovernor::snapshot();
            assert!(stats.resident_bytes <= 1024, "budget enforced at ingest");
            assert!(bufs.iter().any(|b| b.residency() == Residency::Spilled));

            // Reads through clones reload bit-exactly and release on drop.
            for (c, b) in bufs.iter().enumerate() {
                let r = b.clone();
                let got = r.as_slice();
                assert_eq!(got.len(), 256);
                for (i, (g, p)) in got.iter().zip(&payload).enumerate() {
                    assert_eq!(g.to_bits(), (p + c as f64).to_bits(), "elem {i}");
                }
            }
            let after = crate::MemoryGovernor::snapshot().since(&stats);
            assert!(after.reloads >= 4, "each chunk reloaded");
            assert!(after.spills >= 3, "re-spills under pressure");
            assert!(
                crate::MemoryGovernor::snapshot().peak_resident
                    >= crate::MemoryGovernor::snapshot().resident_bytes
            );
        });
    }

    #[test]
    fn governed_pin_blocks_spill_until_released() {
        crate::with_mem_budget(Some(4096), || {
            let mut a = ChunkBuf::from_vec(vec![1.5f64; 512]).govern(); // 4 KiB
            let _ = a.as_slice(); // pin
                                  // Ingesting another 4 KiB chunk wants the budget; `a` is
                                  // pinned, so it must stay resident.
            let b = ChunkBuf::from_vec(vec![2.5f64; 512]).govern();
            assert_eq!(a.residency(), Residency::Resident);
            a.release();
            let _ = b.as_slice(); // pressure: reload/touch b, spill a
            assert_eq!(a.residency(), Residency::Spilled);
            assert_eq!(a.as_slice()[0], 1.5, "reload after release");
        });
    }

    #[test]
    fn governing_a_packed_buffer_is_a_handle_clone() {
        crate::with_mem_budget(Some(64), || {
            let packed = ChunkBuf::from_vec(vec![-0.0f64; 4096]).compressed();
            let g = packed.govern();
            assert!(g.ptr_eq(&packed), "a packed cell stays out of the governor");
            assert_eq!(g.repr(), ChunkRepr::Const);
            let before = crate::MemoryGovernor::snapshot();
            // Four 32 B dense neighbours against a 64 B budget: they
            // spill, each as a record of exactly its elements.
            let dense: Vec<ChunkBuf<f64>> = (0..4)
                .map(|i| ChunkBuf::from_vec(vec![i as f64; 4]).govern())
                .collect();
            crate::MemoryGovernor::enforce();
            let delta = crate::MemoryGovernor::snapshot().since(&before);
            assert!(dense.iter().any(|d| d.residency() == Residency::Spilled));
            assert!(delta.spills > 0);
            assert_eq!(delta.spilled_bytes, 32 * delta.spills);
            assert_eq!(g.residency(), Residency::Resident);
            assert!(g
                .as_slice()
                .iter()
                .all(|v| v.to_bits() == (-0.0f64).to_bits()));
            for (i, d) in dense.iter().enumerate() {
                assert_eq!(d.as_slice(), &[i as f64; 4]);
            }
        });
    }

    #[test]
    fn governed_make_mut_leaves_the_governed_domain() {
        crate::with_mem_budget(None, || {
            let a = ChunkBuf::from_vec((0..64).map(|i| i as f64).collect::<Vec<_>>()).govern();
            let mut b = a.clone();
            b.make_mut("cow")[0] = 99.0;
            assert_eq!(b.residency(), Residency::Resident);
            assert_eq!(b.as_slice()[0], 99.0);
            assert_eq!(a.as_slice()[0], 0.0, "other handle unaffected");
            assert!(!a.ptr_eq(&b));
        });
    }
}
