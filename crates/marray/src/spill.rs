//! The out-of-core tier: a process-wide memory governor with LRU spill.
//!
//! Mehta et al. (VLDB 2017, Figure 15 and §5.3) found that under memory
//! pressure the evaluated systems split into two camps: engines that
//! degrade gracefully by spilling (Myria's pipelined operators) and
//! engines that crash or thrash (Spark beyond its fraction settings,
//! SciDB mis-sized chunks). The in-memory data plane of this workspace
//! used to be a third camp — plancheck statically *refuses* plans whose
//! working set exceeds RAM. This module turns that refusal into graceful
//! degradation:
//!
//! * [`MemoryGovernor`] — a namespace over process-wide state: a byte
//!   budget ([`set_mem_budget`] / [`with_mem_budget`], `0`/`None` =
//!   unbounded), a ledger of spill traffic ([`GovStats`]), and an LRU
//!   registry of every governed cell.
//! * Governed cells ([`crate::ChunkBuf::govern`]) — dense chunk buffers
//!   whose elements may be **Resident** (in memory) or **Spilled** (on
//!   disk in the process spill file). Access is transparent: the next
//!   [`crate::ChunkBuf::as_slice`] reloads the bytes bit-exactly. Packed
//!   (`Const`/`Rle`) buffers never enter the governor: a packed cell is
//!   smaller than any record that could spill it, so governing one is a
//!   handle clone.
//!
//! The governor frees memory only by spilling the cells it governs; no
//! other layer answers to its budget (sciserve's result cache holds
//! kernel outputs, which are never governed).
//!
//! ## Spill-file format
//!
//! One append-only temp file per process (unlinked at creation, so the
//! space is reclaimed on exit even on abnormal termination). Each spilled
//! cell is one record, serialized by [`spill_encode`]: the cell's
//! elements in order, each as its [`crate::Element::to_ordered_u64`] key
//! truncated to `T::BYTES` little-endian bytes, so a record is
//! `len × T::BYTES` bytes long. There is no tag and no length word: the
//! record's ticket holds its byte count. The key mapping is the same
//! order-preserving bijection the codecs use, so every bit pattern (NaN
//! payloads, `-0.0`, subnormals) reloads exactly.
//!
//! ## Residency state machine
//!
//! ```text
//!            make_room / enforce (clean + unpinned)
//!   Resident ────────────────────────────────────────▶ Spilled
//!      ▲                                                  │
//!      └──────────────── as_slice reload ─────────────────┘
//! ```
//!
//! A cell is *pinned* while any handle holds its dense bytes (a
//! [`crate::ChunkBuf`] that called `as_slice`); pinned cells are skipped
//! by the spiller, which is what bounds peak residency by
//! `budget ≥ live_pins × chunk_bytes` — the budget-derived granularity
//! formula `chunk_bytes ≤ budget / (workers × slack)` exists to keep that
//! inequality satisfiable (see `core::costmodel::choose_chunk_shape`).
//!
//! Governed cells never mutate in place (mutation leaves the governed
//! domain via copy-on-write), so a reloaded cell keeps its spill-file
//! record and a later re-spill frees memory without rewriting the bytes.
//!
//! Accounting: [`GovStats::resident_bytes`] / `peak_resident` track the
//! dense bytes of resident governed cells, and `spilled_bytes` /
//! `reloaded_bytes` the same bytes as they cross the spill file.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, TryLockError, Weak};

use crate::chunkstore::CopyCounter;
use crate::element::Element;

/// The byte budget; 0 = unbounded.
static BUDGET: AtomicU64 = AtomicU64::new(0);
/// Spill events (cells moved out of memory).
static SPILLS: AtomicU64 = AtomicU64::new(0);
/// Reload events (cells moved back in).
static RELOADS: AtomicU64 = AtomicU64::new(0);
/// Bytes written to the spill file (first spill of each cell only —
/// re-spills reuse the record).
static SPILLED_BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes read back from the spill file.
static RELOADED_BYTES: AtomicU64 = AtomicU64::new(0);
/// Dense bytes of governed cells currently resident (gauge).
static RESIDENT: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`RESIDENT`] since start / last reset (gauge).
static PEAK: AtomicU64 = AtomicU64::new(0);
/// Cell id allocator.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// The LRU registry: cell id → (last-touch tick, cell).
struct Registry {
    clock: u64,
    cells: BTreeMap<u64, (u64, Weak<dyn SpillableCell>)>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    clock: 0,
    cells: BTreeMap::new(),
});

/// The process-wide memory budget for governed chunk storage, if bounded.
pub fn mem_budget() -> Option<u64> {
    match BUDGET.load(Ordering::SeqCst) {
        0 => None,
        b => Some(b),
    }
}

/// Set the process-wide budget (`None` = unbounded) and immediately
/// enforce it (LRU spill of clean cells).
pub fn set_mem_budget(budget: Option<u64>) {
    BUDGET.store(budget.unwrap_or(0), Ordering::SeqCst);
    enforce();
}

/// Serializes budget sections ([`with_mem_budget`]) so concurrent
/// tests/benches that change the budget (or assert on counter deltas)
/// never interleave.
pub(crate) static MODE_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    /// Nesting depth of budget sections on this thread, so nested sections
    /// re-use the outer section's lock instead of deadlocking on it.
    static SECTION_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Leaves a budget section: restores the budget (even if the section
/// panicked), then the nesting depth.
struct SectionGuard {
    prev: u64,
}

impl Drop for SectionGuard {
    fn drop(&mut self) {
        BUDGET.store(self.prev, Ordering::SeqCst);
        SECTION_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Run `f` with the governor budget set to `budget` (enforced on entry),
/// then restore.
///
/// Sections are mutually exclusive across threads (the lock is held for
/// the duration of the outermost section) and re-entrant on one thread,
/// so governor-stat deltas observed inside one section are not polluted
/// by another thread's section. Threads *spawned by* `f` (engine workers)
/// see `budget`, as the budget is process-global.
pub fn with_mem_budget<R>(budget: Option<u64>, f: impl FnOnce() -> R) -> R {
    let outermost = SECTION_DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth == 0
    });
    let _section = outermost.then(|| MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner()));
    let _restore = SectionGuard {
        prev: BUDGET.swap(budget.unwrap_or(0), Ordering::SeqCst),
    };
    enforce();
    f()
}

/// A snapshot (or delta) of the governor's spill ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GovStats {
    /// Cells moved out of memory (re-spills of a reloaded cell included).
    pub spills: u64,
    /// Cells reloaded from the spill file.
    pub reloads: u64,
    /// Bytes written to the spill file (each cell's record is written
    /// once; re-spills reuse it).
    pub spilled_bytes: u64,
    /// Bytes read back from the spill file.
    pub reloaded_bytes: u64,
    /// Dense bytes of governed cells currently resident (gauge — not
    /// differenced by [`GovStats::since`]).
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes` since process start or the
    /// last [`MemoryGovernor::reset_peak`] (gauge).
    pub peak_resident: u64,
}

impl GovStats {
    /// The traffic recorded between `earlier` and `self` (saturating);
    /// the gauges carry `self`'s values unchanged.
    pub fn since(&self, earlier: &GovStats) -> GovStats {
        GovStats {
            spills: self.spills.saturating_sub(earlier.spills),
            reloads: self.reloads.saturating_sub(earlier.reloads),
            spilled_bytes: self.spilled_bytes.saturating_sub(earlier.spilled_bytes),
            reloaded_bytes: self.reloaded_bytes.saturating_sub(earlier.reloaded_bytes),
            resident_bytes: self.resident_bytes,
            peak_resident: self.peak_resident,
        }
    }
}

/// The process-wide memory governor.
///
/// Like [`CopyCounter`], a namespace over globals: governed cells flow
/// across engine worker threads, so budget, registry and ledger are
/// process-wide. Readers take [`MemoryGovernor::snapshot`]s and diff them
/// with [`GovStats::since`].
pub struct MemoryGovernor;

impl MemoryGovernor {
    /// A consistent view of the spill ledger as of now.
    pub fn snapshot() -> GovStats {
        GovStats {
            spills: SPILLS.load(Ordering::Relaxed),
            reloads: RELOADS.load(Ordering::Relaxed),
            spilled_bytes: SPILLED_BYTES.load(Ordering::Relaxed),
            reloaded_bytes: RELOADED_BYTES.load(Ordering::Relaxed),
            resident_bytes: RESIDENT.load(Ordering::Relaxed),
            peak_resident: PEAK.load(Ordering::Relaxed),
        }
    }

    /// Reset the peak-residency high-water mark to the current residency,
    /// so a bench row measures its own peak rather than the process's.
    pub fn reset_peak() {
        PEAK.store(RESIDENT.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Enforce the budget now (LRU spill of clean cells).
    ///
    /// Spilling normally rides governor events (ingest, reload, budget
    /// changes), so residency can sit over budget between events when the
    /// last event's victims were still pinned — e.g. right after an
    /// ingest loop whose source handles died after their `govern()` call.
    /// Call this at a phase boundary to settle residency before reading
    /// the gauges.
    pub fn enforce() {
        enforce();
    }
}

/// Anything the governor can ask to vacate memory.
trait SpillableCell: Send + Sync {
    /// Try to move the stored bytes to the spill tier; returns bytes
    /// released (0 when pinned, contended, or already spilled).
    fn try_spill(&self) -> u64;
}

/// Record `bytes` newly resident, updating the high-water mark.
fn add_resident(bytes: u64) {
    let now = RESIDENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

/// Make room for `incoming` bytes: spill LRU-clean cells until
/// `resident + incoming` fits the budget (or nothing more can be
/// released). Called *before* residency grows so the peak gauge never
/// overshoots the budget by a chunk the spiller could have freed.
fn make_room(incoming: u64) {
    let Some(budget) = mem_budget() else { return };
    let headroom = budget.saturating_sub(incoming);
    if RESIDENT.load(Ordering::Relaxed) <= headroom {
        return;
    }
    // Victims are snapshotted under the registry lock but spilled outside
    // it (cell → file lock order, never registry → cell while a cell
    // holds the registry).
    let victims: Vec<Arc<dyn SpillableCell>> = {
        let reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        let mut with_ticks: Vec<(u64, u64, Arc<dyn SpillableCell>)> = reg
            .cells
            .iter()
            .filter_map(|(id, (tick, weak))| weak.upgrade().map(|c| (*tick, *id, c)))
            .collect();
        with_ticks.sort_by_key(|&(tick, id, _)| (tick, id));
        with_ticks.into_iter().map(|(_, _, c)| c).collect()
    };
    for cell in victims {
        if RESIDENT.load(Ordering::Relaxed) <= headroom {
            break;
        }
        cell.try_spill();
    }
}

/// Enforce the budget on the current residency (no incoming bytes).
fn enforce() {
    make_room(0);
}

/// Mark `id` most-recently-used.
fn touch(id: u64) {
    let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    reg.clock += 1;
    let tick = reg.clock;
    if let Some(entry) = reg.cells.get_mut(&id) {
        entry.0 = tick;
    }
}

/// Where a governed cell's record lives in the spill file.
#[derive(Debug, Clone, Copy)]
struct Ticket {
    offset: u64,
    nbytes: u64,
}

/// The mutable half of a governed cell.
#[derive(Debug)]
struct CellInner<T: Element> {
    /// The elements while resident, `None` while spilled. The governor
    /// holds one handle; every further handle pins the cell.
    stored: Option<Arc<Vec<T>>>,
    /// The cell's spill-file record, once written. Cells are immutable,
    /// so a re-spill after reload reuses the record without rewriting.
    ticket: Option<Ticket>,
}

/// A budget-governed dense chunk cell: the storage behind
/// `Payload::Governed`. Immutable once created (mutation leaves the
/// governed domain via COW), resident or spilled at any moment.
#[derive(Debug)]
pub(crate) struct GovernedCell<T: Element> {
    id: u64,
    len: usize,
    inner: Mutex<CellInner<T>>,
}

impl<T: Element> GovernedCell<T> {
    /// Logical element count.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The dense bytes the cell holds while resident.
    fn nbytes(&self) -> u64 {
        (self.len * T::BYTES) as u64
    }

    /// True when the cell's bytes are currently on disk.
    pub(crate) fn is_spilled(&self) -> bool {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.stored.is_none()
    }

    /// The dense elements, reloading from the spill file first when
    /// spilled. The returned arc pins the cell resident until the caller
    /// drops it.
    // scilint: allow(F001, spill-file records are written by this process; a short read is an I/O fault, not a data error)
    pub(crate) fn acquire(&self) -> Arc<Vec<T>> {
        let arc = {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            match &inner.stored {
                Some(v) => Arc::clone(v),
                None => {
                    let ticket = inner
                        .ticket
                        .expect("spilled governed cell must hold a spill ticket");
                    // Room for the reload is made before residency grows;
                    // self is currently Spilled, so try_spill skips it.
                    make_room(self.nbytes());
                    let v = Arc::new(spill_file().read_record::<T>(ticket));
                    RELOADS.fetch_add(1, Ordering::Relaxed);
                    RELOADED_BYTES.fetch_add(ticket.nbytes, Ordering::Relaxed);
                    CopyCounter::record("governor.reload", ticket.nbytes as usize);
                    add_resident(self.nbytes());
                    inner.stored = Some(Arc::clone(&v));
                    v
                }
            }
        };
        touch(self.id);
        enforce();
        arc
    }

    /// An owned dense vector, leaving the cell untouched: a counted deep
    /// copy under `reason`, as the cell keeps its own handle while
    /// resident.
    pub(crate) fn take_dense(&self, reason: &str) -> Vec<T> {
        let shared = self.acquire();
        CopyCounter::record(reason, shared.len() * T::BYTES);
        // scilint: allow(F003, COW exit from the governed domain: the deep copy is metered under the caller's reason tag, exactly like ensure_dense's unsanctioned-share path)
        shared.as_ref().clone()
    }
}

impl<T: Element> SpillableCell for GovernedCell<T> {
    fn try_spill(&self) -> u64 {
        let mut inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return 0,
        };
        let Some(v) = &inner.stored else {
            return 0; // already spilled
        };
        if Arc::strong_count(v) > 1 {
            return 0; // pinned by a live handle
        }
        let ticket = match inner.ticket {
            Some(t) => t, // immutable cell: reuse the record
            None => {
                let t = spill_file().write_record(v.as_slice());
                SPILLED_BYTES.fetch_add(t.nbytes, Ordering::Relaxed);
                CopyCounter::record("governor.spill", t.nbytes as usize);
                t
            }
        };
        inner.ticket = Some(ticket);
        inner.stored = None;
        SPILLS.fetch_add(1, Ordering::Relaxed);
        RESIDENT.fetch_sub(self.nbytes(), Ordering::Relaxed);
        self.nbytes()
    }
}

impl<T: Element> Drop for GovernedCell<T> {
    fn drop(&mut self) {
        let resident = self.nbytes();
        let inner = self.inner.get_mut().unwrap_or_else(|e| e.into_inner());
        if inner.stored.is_some() {
            RESIDENT.fetch_sub(resident, Ordering::Relaxed);
        }
        REGISTRY
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .cells
            .remove(&self.id);
    }
}

/// Place the dense elements `v` under governor management: make room,
/// account them resident, register the cell in the LRU, and enforce the
/// budget (a working set larger than the budget spills its coldest cells
/// immediately).
pub(crate) fn govern_dense<T: Element>(v: Arc<Vec<T>>) -> Arc<GovernedCell<T>> {
    let nbytes = (v.len() * T::BYTES) as u64;
    make_room(nbytes);
    let cell = Arc::new(GovernedCell {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        len: v.len(),
        inner: Mutex::new(CellInner {
            stored: Some(v),
            ticket: None,
        }),
    });
    add_resident(nbytes);
    {
        let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        reg.clock += 1;
        let tick = reg.clock;
        let weak: Weak<dyn SpillableCell> = Arc::downgrade(&cell) as Weak<dyn SpillableCell>;
        reg.cells.insert(cell.id, (tick, weak));
    }
    enforce();
    cell
}

// ---------------------------------------------------------------------------
// The spill file: the workspace's one sanctioned data-plane I/O site
// (scilint rule C002 pins file I/O in data-plane crates to this module).
// ---------------------------------------------------------------------------

/// The process spill file: append-only records behind one lock.
struct SpillFile {
    inner: Mutex<SpillFileInner>,
}

struct SpillFileInner {
    file: File,
    end: u64,
}

/// The lazily created process-wide spill file.
// scilint: allow(F001, failing to create the spill file means the host denies temp storage; out-of-core mode cannot proceed)
fn spill_file() -> &'static SpillFile {
    static FILE: OnceLock<SpillFile> = OnceLock::new();
    FILE.get_or_init(|| {
        let path = std::env::temp_dir().join(format!("scibench-spill-{}.bin", std::process::id()));
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .expect("create process spill file in temp dir");
        // Unlink immediately: the fd keeps the storage alive, and the
        // space is reclaimed when the process exits, however it exits.
        let _ = std::fs::remove_file(&path);
        SpillFile {
            inner: Mutex::new(SpillFileInner { file, end: 0 }),
        }
    })
}

/// Serialize a governed cell's elements into one spill record: each
/// element's ordered-u64 key, truncated to `T::BYTES` little-endian
/// bytes. Named a codec so the copy-lint grammar recognizes the byte
/// traffic as sanctioned.
fn spill_encode<T: Element>(v: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * T::BYTES);
    for &x in v {
        out.extend_from_slice(&x.to_ordered_u64().to_le_bytes()[..T::BYTES]);
    }
    out
}

/// Exact inverse of [`spill_encode`]: the elements of one spill record.
fn spill_decode<T: Element>(bytes: &[u8]) -> Vec<T> {
    bytes
        .chunks_exact(T::BYTES)
        .map(|key| {
            let mut le = [0u8; 8];
            le[..T::BYTES].copy_from_slice(key);
            T::from_ordered_u64(u64::from_le_bytes(le))
        })
        .collect()
}

impl SpillFile {
    /// Append one record, returning where it landed.
    // scilint: allow(F001, a failed spill write means the host denies temp storage; out-of-core mode cannot proceed)
    fn write_record<T: Element>(&self, v: &[T]) -> Ticket {
        let bytes = spill_encode(v);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let offset = inner.end;
        inner
            .file
            .seek(SeekFrom::Start(offset))
            .expect("seek spill file to append offset");
        inner
            .file
            .write_all(&bytes)
            .expect("append record to spill file");
        inner.end += bytes.len() as u64;
        Ticket {
            offset,
            nbytes: bytes.len() as u64,
        }
    }

    /// Read the record at `ticket` back, bit-exactly.
    // scilint: allow(F001, spill-file records are written by this process; a short read is an I/O fault, not a data error)
    fn read_record<T: Element>(&self, ticket: Ticket) -> Vec<T> {
        let mut bytes = vec![0u8; ticket.nbytes as usize];
        {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner
                .file
                .seek(SeekFrom::Start(ticket.offset))
                .expect("seek spill file to record offset");
            inner
                .file
                .read_exact(&mut bytes)
                .expect("read record back from spill file");
        }
        spill_decode(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_records_roundtrip_every_representation() {
        let file = spill_file();
        // f64 with adversarial bit patterns.
        let floats = [
            0.0f64,
            -0.0,
            f64::NAN,
            f64::from_bits(0x7ff8_dead_beef_0001),
            5e-324,
            -5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let t = file.write_record(&floats);
        assert_eq!(t.nbytes, (floats.len() * f64::BYTES) as u64);
        let back = file.read_record::<f64>(t);
        assert_eq!(back.len(), floats.len());
        for (x, y) in floats.iter().zip(&back) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // u8: one byte per element, every value.
        let bytes: Vec<u8> = (0..=255).collect();
        let t = file.write_record(&bytes);
        assert_eq!(t.nbytes, bytes.len() as u64);
        assert_eq!(file.read_record::<u8>(t), bytes);
    }

    #[test]
    fn budget_section_restores_on_exit() {
        with_mem_budget(Some(1 << 20), || {
            assert_eq!(mem_budget(), Some(1 << 20));
            with_mem_budget(None, || assert_eq!(mem_budget(), None));
            assert_eq!(mem_budget(), Some(1 << 20));
        });
    }
}
