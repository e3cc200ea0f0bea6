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
//! * Governed cells ([`crate::ChunkBuf::govern`]) — chunk buffers whose
//!   payload may be **Resident** (in memory) or **Spilled** (on disk in
//!   the process spill file). Access is transparent: the next
//!   [`crate::ChunkBuf::as_slice`] reloads the bytes bit-exactly.
//! * Pressure valves ([`register_valve`]) — callbacks (e.g. the serve
//!   layer's memo-cache eviction) that run *before* kernel chunks spill,
//!   so cheap-to-recompute cache entries are dropped first.
//!
//! ## Spill-file format
//!
//! One append-only temp file per process (unlinked at creation, so the
//! space is reclaimed on exit even on abnormal termination). Each spilled
//! cell is one record, serialized by [`spill_encode`]:
//!
//! ```text
//! tag: u8      0 = dense, 1 = const, 2 = rle, 3 = for
//! len: u64 LE  element count
//! dense: len × T::BYTES bytes (ordered-u64 keys, LE-truncated)
//! const: one T::BYTES key
//! rle:   run count u64 LE, then (count u32 LE, value key) pairs
//! for:   reference u64 LE, width u8, delta byte count u64 LE, deltas
//! ```
//!
//! Values travel as [`crate::Element::to_ordered_u64`] keys truncated to
//! `T::BYTES` little-endian bytes — the same order-preserving bijection
//! the codecs use — so every bit pattern (NaN payloads, `-0.0`,
//! subnormals) reloads exactly and compressed chunks spill in their
//! *encoded* form, riding the codec savings through the I/O tier.
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
//! *stored* representation of governed cells. Transient dense
//! materializations of encoded cells are charged to the
//! [`CopyCounter`] ledger (`"codec.decode"`), like the in-memory plane.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, TryLockError, Weak};

use crate::chunkstore::{with_mode, CopyCounter};
use crate::codec::{ChunkRepr, Encoded};
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
/// Stored bytes of governed cells currently resident (gauge).
static RESIDENT: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`RESIDENT`] since start / last reset (gauge).
static PEAK: AtomicU64 = AtomicU64::new(0);
/// Cell id allocator.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);
/// Valve id allocator.
static NEXT_VALVE: AtomicU64 = AtomicU64::new(0);

/// The LRU registry: cell id → (last-touch tick, cell).
struct Registry {
    clock: u64,
    cells: BTreeMap<u64, (u64, Weak<dyn SpillableCell>)>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    clock: 0,
    cells: BTreeMap::new(),
});

/// Registered pressure valves, run before LRU spilling.
type Valve = Box<dyn Fn(u64) -> u64 + Send + Sync>;
static VALVES: Mutex<BTreeMap<u64, Valve>> = Mutex::new(BTreeMap::new());

/// The process-wide memory budget for governed chunk storage, if bounded.
pub fn mem_budget() -> Option<u64> {
    match BUDGET.load(Ordering::SeqCst) {
        0 => None,
        b => Some(b),
    }
}

/// Set the process-wide budget (`None` = unbounded) and immediately
/// enforce it (valves first, then LRU spill of clean cells).
pub fn set_mem_budget(budget: Option<u64>) {
    BUDGET.store(budget.unwrap_or(0), Ordering::SeqCst);
    enforce();
}

/// Run `f` with the governor budget set to `budget` (enforced on entry),
/// then restore.
///
/// Shares the global mode-section lock with [`crate::with_compress_mode`]
/// (mutually exclusive across threads, re-entrant on one thread), so
/// governor-stat deltas observed inside one section are not polluted by
/// another thread's section.
pub fn with_mem_budget<R>(budget: Option<u64>, f: impl FnOnce() -> R) -> R {
    with_mode(&BUDGET, budget.unwrap_or(0), || {
        enforce();
        f()
    })
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
    /// Stored bytes of governed cells currently resident (gauge — not
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

    /// Enforce the budget now (valves, then LRU spill of clean cells).
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

/// Register a pressure valve: a callback invoked with the byte excess
/// when the governor goes over budget, *before* any kernel chunk spills;
/// it returns the bytes it released (e.g. by evicting cache entries).
/// Returns a handle that unregisters the valve when dropped.
pub fn register_valve(valve: Valve) -> ValveGuard {
    let id = NEXT_VALVE.fetch_add(1, Ordering::Relaxed);
    VALVES
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(id, valve);
    ValveGuard { id }
}

/// Unregisters its pressure valve on drop (see [`register_valve`]).
#[derive(Debug)]
pub struct ValveGuard {
    id: u64,
}

impl Drop for ValveGuard {
    fn drop(&mut self) {
        VALVES
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.id);
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

/// Make room for `incoming` bytes: run valves, then spill LRU-clean
/// cells, until `resident + incoming` fits the budget (or nothing more
/// can be released). Called *before* residency grows so the peak gauge
/// never overshoots the budget by a chunk the spiller could have freed.
fn make_room(incoming: u64) {
    let Some(budget) = mem_budget() else { return };
    let headroom = budget.saturating_sub(incoming);
    if RESIDENT.load(Ordering::Relaxed) <= headroom {
        return;
    }
    // Valves first: cache entries are cheaper to drop than kernel chunks
    // are to spill and reload.
    {
        let valves = VALVES.lock().unwrap_or_else(|e| e.into_inner());
        for valve in valves.values() {
            let resident = RESIDENT.load(Ordering::Relaxed);
            if resident <= headroom {
                return;
            }
            valve(resident - headroom);
        }
    }
    // Then LRU spill. Victims are snapshotted under the registry lock but
    // spilled outside it (cell → file lock order, never registry → cell
    // while a cell holds the registry).
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

/// The stored representation of a governed cell while resident.
#[derive(Debug)]
pub(crate) enum Stored<T: Element> {
    /// Dense shared vector — the arc handles pin against spilling.
    Dense(Arc<Vec<T>>),
    /// Encoded form; dense reads decode per acquire (counted).
    Encoded(Encoded<T>),
}

impl<T: Element> Stored<T> {
    /// Bytes this representation occupies while resident.
    fn nbytes(&self) -> usize {
        match self {
            Stored::Dense(v) => v.len() * T::BYTES,
            Stored::Encoded(e) => e.encoded_bytes(),
        }
    }
}

/// Where a governed cell's record lives in the spill file.
#[derive(Debug, Clone, Copy)]
struct Ticket {
    offset: u64,
    nbytes: u64,
}

/// Residency of a governed cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellState {
    Resident,
    Spilled,
}

/// The mutable half of a governed cell.
#[derive(Debug)]
struct CellInner<T: Element> {
    /// `Some` while resident, `None` while spilled.
    stored: Option<Stored<T>>,
    /// The cell's spill-file record, once written. Cells are immutable,
    /// so a re-spill after reload reuses the record without rewriting.
    ticket: Option<Ticket>,
}

/// A budget-governed chunk cell: the storage behind
/// `Payload::Governed`. Immutable once created (mutation leaves the
/// governed domain via COW), resident or spilled at any moment.
#[derive(Debug)]
pub(crate) struct GovernedCell<T: Element> {
    id: u64,
    len: usize,
    repr: ChunkRepr,
    stored_nbytes: usize,
    inner: Mutex<CellInner<T>>,
}

impl<T: Element> GovernedCell<T> {
    /// Logical element count.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The stored representation (stable across spill/reload).
    pub(crate) fn repr(&self) -> ChunkRepr {
        self.repr
    }

    /// Bytes the stored representation occupies (resident or not).
    pub(crate) fn stored_nbytes(&self) -> usize {
        self.stored_nbytes
    }

    /// True when the cell's bytes are currently on disk.
    pub(crate) fn is_spilled(&self) -> bool {
        self.state() == CellState::Spilled
    }

    fn state(&self) -> CellState {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.stored.is_some() {
            CellState::Resident
        } else {
            CellState::Spilled
        }
    }

    /// The dense elements, reloading from the spill file first when
    /// spilled. The returned arc pins the cell resident (for dense
    /// storage) until the caller drops it.
    // scilint: allow(F001, spill-file records are written by this process; a short read is an I/O fault, not a data error)
    pub(crate) fn acquire(&self) -> Arc<Vec<T>> {
        let arc = {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            if inner.stored.is_none() {
                let ticket = inner
                    .ticket
                    .expect("spilled governed cell must hold a spill ticket");
                // Room for the reload is made before residency grows;
                // self is currently Spilled, so try_spill skips it.
                make_room(self.stored_nbytes as u64);
                let stored = spill_file().read_record::<T>(ticket);
                RELOADS.fetch_add(1, Ordering::Relaxed);
                RELOADED_BYTES.fetch_add(ticket.nbytes, Ordering::Relaxed);
                CopyCounter::record("governor.reload", ticket.nbytes as usize);
                add_resident(self.stored_nbytes as u64);
                inner.stored = Some(stored);
            }
            match inner
                .stored
                .as_ref()
                .expect("reload leaves the cell resident")
            {
                Stored::Dense(v) => v.clone(),
                Stored::Encoded(e) => Arc::new(e.decode_counted()),
            }
        };
        touch(self.id);
        enforce();
        arc
    }

    /// An owned dense vector, leaving the cell untouched. Cloning out of
    /// resident dense storage is a counted deep copy under `reason`;
    /// encoded storage decodes (counted `"codec.decode"`).
    pub(crate) fn take_dense(&self, reason: &str) -> Vec<T> {
        let arc = self.acquire();
        match Arc::try_unwrap(arc) {
            Ok(v) => v,
            Err(shared) => {
                CopyCounter::record(reason, shared.len() * T::BYTES);
                // scilint: allow(F003, COW exit from the governed domain: the deep copy is metered under the caller's reason tag, exactly like ensure_dense's unsanctioned-share path)
                shared.as_ref().clone()
            }
        }
    }
}

impl<T: Element> SpillableCell for GovernedCell<T> {
    fn try_spill(&self) -> u64 {
        let mut inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return 0,
        };
        let Some(stored) = &inner.stored else {
            return 0; // already spilled
        };
        if let Stored::Dense(v) = stored {
            if Arc::strong_count(v) > 1 {
                return 0; // pinned by a live handle
            }
        }
        let ticket = match inner.ticket {
            Some(t) => t, // immutable cell: reuse the record
            None => {
                let t = spill_file().write_record(stored);
                SPILLED_BYTES.fetch_add(t.nbytes, Ordering::Relaxed);
                CopyCounter::record("governor.spill", t.nbytes as usize);
                t
            }
        };
        inner.ticket = Some(ticket);
        inner.stored = None;
        SPILLS.fetch_add(1, Ordering::Relaxed);
        RESIDENT.fetch_sub(self.stored_nbytes as u64, Ordering::Relaxed);
        self.stored_nbytes as u64
    }
}

impl<T: Element> Drop for GovernedCell<T> {
    fn drop(&mut self) {
        let inner = self.inner.get_mut().unwrap_or_else(|e| e.into_inner());
        if inner.stored.is_some() {
            RESIDENT.fetch_sub(self.stored_nbytes as u64, Ordering::Relaxed);
        }
        REGISTRY
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .cells
            .remove(&self.id);
    }
}

/// Place `stored` under governor management: make room, account it
/// resident, register it in the LRU, and enforce the budget (a working
/// set larger than the budget spills its coldest cells immediately).
pub(crate) fn govern_stored<T: Element>(
    stored: Stored<T>,
    len: usize,
    repr: ChunkRepr,
) -> Arc<GovernedCell<T>> {
    let stored_nbytes = stored.nbytes();
    make_room(stored_nbytes as u64);
    let cell = Arc::new(GovernedCell {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        len,
        repr,
        stored_nbytes,
        inner: Mutex::new(CellInner {
            stored: Some(stored),
            ticket: None,
        }),
    });
    add_resident(stored_nbytes as u64);
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

/// Append `v`'s ordered-u64 key, truncated to `T::BYTES` LE bytes.
fn push_key<T: Element>(out: &mut Vec<u8>, v: T) {
    out.extend_from_slice(&v.to_ordered_u64().to_le_bytes()[..T::BYTES]);
}

/// Read one ordered-u64 key (`T::BYTES` LE bytes) at `*pos`, advancing it.
fn read_key<T: Element>(bytes: &[u8], pos: &mut usize) -> T {
    let mut le = [0u8; 8];
    le[..T::BYTES].copy_from_slice(&bytes[*pos..*pos + T::BYTES]);
    *pos += T::BYTES;
    T::from_ordered_u64(u64::from_le_bytes(le))
}

/// Serialize a stored representation into one spill record (see the
/// module docs for the byte layout). Named a codec so the copy-lint
/// grammar recognizes the byte traffic as sanctioned.
fn spill_encode<T: Element>(stored: &Stored<T>) -> Vec<u8> {
    let mut out = Vec::new();
    match stored {
        Stored::Dense(v) => {
            out.push(0u8);
            out.extend_from_slice(&(v.len() as u64).to_le_bytes());
            out.reserve(v.len() * T::BYTES);
            for &x in v.iter() {
                push_key(&mut out, x);
            }
        }
        Stored::Encoded(Encoded::Const { value, len }) => {
            out.push(1u8);
            out.extend_from_slice(&(*len as u64).to_le_bytes());
            push_key(&mut out, *value);
        }
        Stored::Encoded(Encoded::Rle { runs, len }) => {
            out.push(2u8);
            out.extend_from_slice(&(*len as u64).to_le_bytes());
            out.extend_from_slice(&(runs.len() as u64).to_le_bytes());
            for &(count, value) in runs {
                out.extend_from_slice(&count.to_le_bytes());
                push_key(&mut out, value);
            }
        }
        Stored::Encoded(Encoded::For {
            reference,
            width,
            deltas,
            len,
        }) => {
            out.push(3u8);
            out.extend_from_slice(&(*len as u64).to_le_bytes());
            out.extend_from_slice(&reference.to_le_bytes());
            out.push(*width as u8);
            out.extend_from_slice(&(deltas.len() as u64).to_le_bytes());
            out.extend_from_slice(deltas);
        }
    }
    out
}

/// Exact inverse of [`spill_encode`]: reconstruct the stored
/// representation from one spill record.
// scilint: allow(F001, spill records are produced by spill_encode in this process; a malformed record is an I/O fault)
fn spill_decode<T: Element>(bytes: &[u8]) -> Stored<T> {
    let tag = bytes[0];
    let mut pos = 1usize;
    let read_u64 = |pos: &mut usize| {
        let mut le = [0u8; 8];
        le.copy_from_slice(&bytes[*pos..*pos + 8]);
        *pos += 8;
        u64::from_le_bytes(le)
    };
    let len = read_u64(&mut pos) as usize;
    match tag {
        0 => {
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                v.push(read_key::<T>(bytes, &mut pos));
            }
            Stored::Dense(Arc::new(v))
        }
        1 => {
            let value = read_key::<T>(bytes, &mut pos);
            Stored::Encoded(Encoded::Const { value, len })
        }
        2 => {
            let n_runs = read_u64(&mut pos) as usize;
            let mut runs = Vec::with_capacity(n_runs);
            for _ in 0..n_runs {
                let mut le = [0u8; 4];
                le.copy_from_slice(&bytes[pos..pos + 4]);
                pos += 4;
                let count = u32::from_le_bytes(le);
                let value = read_key::<T>(bytes, &mut pos);
                runs.push((count, value));
            }
            Stored::Encoded(Encoded::Rle { runs, len })
        }
        3 => {
            let reference = read_u64(&mut pos);
            let width = bytes[pos] as usize;
            pos += 1;
            let n_deltas = read_u64(&mut pos) as usize;
            let deltas = bytes[pos..pos + n_deltas].to_vec();
            Stored::Encoded(Encoded::For {
                reference,
                width,
                deltas,
                len,
            })
        }
        other => unreachable!("unknown spill record tag {other}"),
    }
}

impl SpillFile {
    /// Append one record, returning where it landed.
    // scilint: allow(F001, a failed spill write means the host denies temp storage; out-of-core mode cannot proceed)
    fn write_record<T: Element>(&self, stored: &Stored<T>) -> Ticket {
        let bytes = spill_encode(stored);
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
    fn read_record<T: Element>(&self, ticket: Ticket) -> Stored<T> {
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
        // Dense with adversarial bit patterns.
        let dense = Stored::Dense(Arc::new(vec![
            0.0f64,
            -0.0,
            f64::NAN,
            f64::from_bits(0x7ff8_dead_beef_0001),
            5e-324,
            -5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]));
        let t = file.write_record(&dense);
        let back = file.read_record::<f64>(t);
        match (&dense, &back) {
            (Stored::Dense(a), Stored::Dense(b)) => {
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b.iter()) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            _ => panic!("dense record must reload dense"),
        }
        // Encoded forms reload as the same encoded form.
        for enc in [
            Encoded::Const {
                value: -0.0f64,
                len: 777,
            },
            Encoded::Rle {
                runs: vec![(3, 1.5f64), (5, f64::NAN), (1, -0.0)],
                len: 9,
            },
        ] {
            let t = file.write_record(&Stored::Encoded(enc.clone()));
            match file.read_record::<f64>(t) {
                Stored::Encoded(back) => {
                    assert_eq!(back.repr(), enc.repr());
                    let (a, b) = (enc.decode(), back.decode());
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(&b) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
                Stored::Dense(_) => panic!("encoded record must reload encoded"),
            }
        }
        // Frame-of-reference over a narrow-range label plane (u32).
        let labels: Vec<u32> = (0..512u32).map(|i| i % 7).collect();
        let enc = Encoded::encode(&labels).expect("narrow-range labels encode");
        assert_eq!(enc.repr(), ChunkRepr::For);
        let t = file.write_record(&Stored::Encoded(enc.clone()));
        match file.read_record::<u32>(t) {
            Stored::Encoded(back) => {
                assert_eq!(back.repr(), ChunkRepr::For);
                assert_eq!(back.decode(), labels);
            }
            Stored::Dense(_) => panic!("encoded record must reload encoded"),
        }
    }

    #[test]
    fn budget_section_restores_on_exit() {
        with_mem_budget(Some(1 << 20), || {
            assert_eq!(mem_budget(), Some(1 << 20));
            with_mem_budget(None, || assert_eq!(mem_budget(), None));
            assert_eq!(mem_budget(), Some(1 << 20));
        });
    }

    #[test]
    fn valves_run_before_spill_and_unregister_on_drop() {
        use std::sync::atomic::AtomicU64 as A;
        static CALLS: A = A::new(0);
        with_mem_budget(Some(1024), || {
            let guard = register_valve(Box::new(|excess| {
                CALLS.fetch_add(1, Ordering::Relaxed);
                assert!(excess > 0);
                0
            }));
            let cells: Vec<_> = (0..4)
                .map(|i| {
                    govern_stored(
                        Stored::Dense(Arc::new(vec![i as f64; 64])), // 512 B each
                        64,
                        ChunkRepr::Dense,
                    )
                })
                .collect();
            assert!(CALLS.load(Ordering::Relaxed) > 0, "valve saw pressure");
            drop(guard);
            let before = CALLS.load(Ordering::Relaxed);
            let _more = govern_stored(
                Stored::Dense(Arc::new(vec![9.0f64; 64])),
                64,
                ChunkRepr::Dense,
            );
            assert_eq!(
                CALLS.load(Ordering::Relaxed),
                before,
                "dropped valve must not run"
            );
            drop(cells);
        });
    }
}
