//! The annealing evaluation engine: a [`SearchState`] that owns the graph
//! and every derived structure the local search needs, keeps them all in
//! sync through a transactional apply/score/commit/rollback API, and
//! evaluates h-ASPL with a bit-parallel batched BFS over reusable scratch
//! so that steady-state annealing performs **zero heap allocation and zero
//! full rebuilds per proposal**.
//!
//! # Why
//!
//! The original annealer rebuilt a [`SwitchCsr`] and the host-count vector
//! from the graph on every proposal (`O(m + L)` of pure allocation and
//! copying before a single BFS step ran) and hand-mirrored every
//! `EdgeSet::remove`/`insert` in each of the three move kinds — a classic
//! source of drift bugs. Here the graph, the CSR, the host counts, and the
//! [`EdgeSet`] live behind one API; a move is applied exactly once and
//! every structure follows.
//!
//! # Transactions
//!
//! [`SearchState::begin`] opens a transaction; [`SearchState::apply_swap`]
//! and [`SearchState::apply_swing`] mutate all owned structures and append
//! to an undo log; [`SearchState::rollback`] replays the log backwards to
//! the matching `begin`, and [`SearchState::commit`] forgets it.
//! Transactions nest, which is exactly what the 2-neighbor swing of §5.2
//! needs: apply the first swing, score, and on rejection stack a second
//! swing on top before deciding the fate of both.
//!
//! # Evaluation
//!
//! [`SearchState::evaluate`] runs a *batched* BFS: 64 sources advance
//! together, one bit per source in a `u64` frontier mask per switch. Per
//! level every switch ORs its neighbours' frontier masks — with the tiny
//! diameters of ORP solutions (3–5) the whole sweep touches each adjacency
//! list a handful of times instead of once per source, which is roughly an
//! order of magnitude faster than source-at-a-time BFS even before
//! threading.
//!
//! # Incremental delta evaluation
//!
//! On cache-eligible instances (see [`SearchConfig`]) the engine keeps a
//! **per-source distance cache**: an `m × m` matrix of hop counts plus
//! per-source aggregates (host-weighted path sums, per-distance
//! hostful-switch histograms, eccentricities). A swap or swing perturbs at
//! most three switch links, and the *exact* set of sources whose distance
//! vector changes is computable from the cached rows alone:
//!
//! * an **added** link `{u, v}` changes the distances from `s` iff
//!   `|d(s,u) − d(s,v)| ≥ 2` (the shortcut strictly improves the farther
//!   endpoint, and only then can anything downstream improve);
//! * a **removed** link `{u, v}` with `d(s,u) + 1 = d(s,v)` changes the
//!   distances from `s` iff `v` has no *other* surviving neighbour `w`
//!   with `d(s,w) = d(s,u)` — an alternate BFS parent keeps `d(s,v)` and
//!   therefore every distance below it intact; if `d(s,u) = d(s,v)` the
//!   link lies on no shortest path at all.
//!
//! Only the affected sources are repacked into 64-wide batches and
//! re-swept; everything else is scored from the cached aggregates in
//! `O(m)`. Edge deltas accumulate *lazily* (rollback pushes the inverse
//! delta, so a rejected proposal that never re-evaluated cancels to a
//! no-op), and the full sweep remains both the fallback (large `m`, deep
//! graphs) and the correctness oracle of the equivalence suites.
//!
//! # Row storage and memory budget
//!
//! Each cache row holds one `u8` per switch: distances up to 63, with
//! `u8::MAX` marking an unreachable switch, so Graph-Golf-scale
//! instances (`n = 65536`) fit a few GiB. ORP diameters are
//! single-digit, so the cap never binds on real searches; a graph whose
//! switch eccentricity reaches it (long path-like backbones) drops the
//! cache and is scored by full sweeps from then on.
//!
//! Transactions keep a sparse **undo journal** of the cache rather than
//! row snapshots: every entry a repair rewrites pushes one
//! `(source, switch, old distance)` cell, and only rows a re-BFS
//! rewrites wholesale keep a plain row copy. Rollback replays the cells
//! in reverse and patches each row's aggregates per cell in integer
//! arithmetic, so a rejected proposal costs what its repair changed —
//! not `O(m)` per repaired row.
//!
//! # Sharded parallel repair
//!
//! Re-BFS batches **and** per-source repairs are scheduled together on
//! the persistent worker pool through per-worker Chase–Lev deques
//! ([`crate::wsdeque`]): the publisher seeds each worker with a
//! contiguous shard of the task list, workers drain their own deque and
//! steal from siblings when idle. Every repair touches only its own
//! source's row, aggregates, and flags, so workers never contend; the
//! totals are reduced sequentially afterwards, which keeps the result
//! bit-identical for every worker count.

use crate::error::GraphError;
use crate::graph::{Host, HostSwitchGraph, Switch};
use crate::metrics::{finalize_metrics, PathMetrics, SwitchCsr};
use crate::ops::{EdgeSet, Swap, Swing};
use crate::wsdeque::{Deque, Steal};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Switch count from which the auto heuristic turns on threaded
/// evaluation (when more than one CPU is available).
pub const PARALLEL_SWITCH_THRESHOLD: u32 = 256;

/// Distance cap of the cache rows (and histogram stride): a distance
/// reaching it permanently disables the cache for the instance (ORP
/// graphs have single-digit diameters, so this only triggers on
/// degenerate path-like inputs).
const MAX_DIST: usize = 64;

/// Logical marker for an unreachable switch.
const INVALID_DIST: u16 = u16::MAX;

/// Row byte marking an unreachable switch.
const INVALID_BYTE: u8 = u8::MAX;

/// `−ln` of the Metropolis acceptance probability below which guarded
/// evaluation may early-reject without running a BFS
/// (`exp(−40) ≈ 4·10⁻¹⁸`, far below one draw in a lifetime of runs).
pub const EARLY_REJECT_LOG: f64 = 40.0;

/// Default [`SearchConfig::memory_budget_bytes`]: 8 GiB — enough for
/// the cache at m = 65536 switches (~4.3 GiB), so [`CacheMode::Auto`]
/// covers the whole Graph-Golf range out of the box.
pub const DEFAULT_CACHE_BUDGET: usize = 1 << 33;

/// Minimum combined task count (sweep batches + repairs) before a
/// cached evaluation engages the worker pool; below it the condvar
/// round trip costs more than the work.
const POOL_TASK_THRESHOLD: usize = 32;

/// Resolves the effective number of evaluation worker threads from the
/// user's override (`SaConfig::parallel_eval`) and the instance size:
/// `Some(false)` forces 1, `Some(true)` forces threading, `None` picks
/// threading iff `m >=` [`PARALLEL_SWITCH_THRESHOLD`] and the machine has
/// more than one CPU. Returns at least 1.
pub fn resolve_parallel_eval(override_flag: Option<bool>, num_switches: u32) -> usize {
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let parallel = override_flag.unwrap_or(num_switches >= PARALLEL_SWITCH_THRESHOLD && cpus > 1);
    if parallel {
        cpus.max(1)
    } else {
        1
    }
}

// ---- search configuration ----------------------------------------------

/// How the distance cache is provisioned (see [`SearchConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Build the cache while it fits the memory budget.
    #[default]
    Auto,
    /// Never build a distance cache: every evaluation is a full sweep.
    Off,
    /// Alias of [`CacheMode::Auto`], kept for callers that still name
    /// it; resolves exactly like `Auto`.
    #[deprecated(note = "there is one row codec; use `CacheMode::Auto`")]
    Compressed,
}

impl FromStr for CacheMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(Self::Auto),
            "off" => Ok(Self::Off),
            other => Err(format!("unknown cache mode {other:?} (expected auto|off)")),
        }
    }
}

/// Tunables of the evaluation engine, surfaced through
/// `Solver::builder()` and `orp solve --cache-mode/--mem-budget`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchConfig {
    /// Distance-cache provisioning policy.
    pub cache_mode: CacheMode,
    /// Upper bound on the cache's bulk allocation (rows + histograms);
    /// an instance whose cache would exceed it runs without one.
    pub memory_budget_bytes: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            cache_mode: CacheMode::Auto,
            memory_budget_bytes: DEFAULT_CACHE_BUDGET,
        }
    }
}

impl SearchConfig {
    /// A config that disables the distance cache entirely.
    pub fn off() -> Self {
        Self {
            cache_mode: CacheMode::Off,
            ..Self::default()
        }
    }

    /// Bytes of bulk storage the cache needs for `m` switches.
    pub fn compressed_cache_bytes(m: usize) -> usize {
        m.saturating_mul(m)
            .saturating_add(m.saturating_mul(MAX_DIST * 4 + 15))
    }

    /// Whether this config provisions a distance cache for an
    /// `m`-switch instance: not in mode `Off`, not for degenerate `m`,
    /// and not over budget.
    pub fn provisions_cache(&self, m: usize) -> bool {
        m >= 2
            && self.cache_mode != CacheMode::Off
            && Self::compressed_cache_bytes(m) <= self.memory_budget_bytes
    }
}

/// Fixed-capacity CSR adjacency, edited in place on every link change
/// instead of rebuilt from the graph: switch `s` owns slots
/// `[s·r, s·r + deg(s))` of a flat array (`r` = radix), so adding or
/// removing a link is `O(r)` with no allocation.
#[derive(Debug, Clone)]
pub struct SlotCsr {
    radix: usize,
    deg: Vec<u32>,
    slots: Vec<u32>,
}

impl SlotCsr {
    /// Builds the slotted adjacency from a graph.
    pub fn from_graph(g: &HostSwitchGraph) -> Self {
        let m = g.num_switches() as usize;
        let radix = g.radix() as usize;
        let mut csr = Self {
            radix,
            deg: vec![0; m],
            slots: vec![u32::MAX; m * radix],
        };
        for s in 0..m as u32 {
            for &t in g.neighbors(s) {
                let d = &mut csr.deg[s as usize];
                csr.slots[s as usize * radix + *d as usize] = t;
                *d += 1;
            }
        }
        csr
    }

    /// Number of switches.
    #[inline]
    pub fn len(&self) -> usize {
        self.deg.len()
    }

    /// Whether there are no switches.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.deg.is_empty()
    }

    /// Switch neighbours of `s` (unsorted).
    #[inline]
    pub fn neighbors(&self, s: Switch) -> &[u32] {
        let base = s as usize * self.radix;
        &self.slots[base..base + self.deg[s as usize] as usize]
    }

    #[inline]
    fn push(&mut self, s: Switch, t: Switch) {
        let d = &mut self.deg[s as usize];
        debug_assert!((*d as usize) < self.radix, "slot overflow at switch {s}");
        self.slots[s as usize * self.radix + *d as usize] = t;
        *d += 1;
    }

    #[inline]
    fn pull(&mut self, s: Switch, t: Switch) {
        let base = s as usize * self.radix;
        let d = self.deg[s as usize] as usize;
        let row = &mut self.slots[base..base + d];
        let pos = row.iter().position(|&x| x == t).expect("neighbor present");
        row[pos] = row[d - 1];
        self.deg[s as usize] -= 1;
    }

    /// Records the new link `{a, b}` (`O(1)`).
    #[inline]
    pub fn add_link(&mut self, a: Switch, b: Switch) {
        self.push(a, b);
        self.push(b, a);
    }

    /// Drops the link `{a, b}` (`O(r)`).
    #[inline]
    pub fn remove_link(&mut self, a: Switch, b: Switch) {
        self.pull(a, b);
        self.pull(b, a);
    }
}

/// Reusable buffers for one evaluation worker: three `u64` frontier masks
/// per switch. Allocated once, reused by every proposal.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    cur: Vec<u64>,
    next: Vec<u64>,
    seen: Vec<u64>,
}

impl EvalScratch {
    fn reset(&mut self, m: usize) {
        self.cur.clear();
        self.cur.resize(m, 0);
        self.next.clear();
        self.next.resize(m, 0);
        self.seen.clear();
        self.seen.resize(m, 0);
    }
}

/// Partial result of sweeping one batch of sources.
#[derive(Debug, Clone, Copy, Default)]
struct BatchSums {
    /// Σ `k_a·k_b·(d+2)` over ordered hostful pairs with source in batch.
    weighted: u64,
    /// Max inter-switch distance seen from this batch's sources.
    max_d: u32,
    /// Hostful switches reached, summed over the batch's sources
    /// (each source counts itself). Detects disconnection.
    reached: u64,
}

impl BatchSums {
    #[inline]
    fn absorb(&mut self, b: BatchSums) {
        self.weighted += b.weighted;
        self.max_d = self.max_d.max(b.max_d);
        self.reached += b.reached;
    }
}

/// Sweeps sources `srcs[lo..hi]` (at most 64) in lockstep: bit `i` of a
/// mask tracks source `srcs[lo + i]`.
fn sweep_batch(
    csr: &SlotCsr,
    counts: &[u32],
    srcs: &[u32],
    scratch: &mut EvalScratch,
) -> BatchSums {
    debug_assert!(!srcs.is_empty() && srcs.len() <= 64);
    let m = csr.len();
    scratch.reset(m);
    let mut k_src = [0u64; 64];
    for (i, &s) in srcs.iter().enumerate() {
        scratch.cur[s as usize] = 1 << i;
        scratch.seen[s as usize] = 1 << i;
        k_src[i] = counts[s as usize] as u64;
    }
    let mut sums = BatchSums {
        reached: srcs.len() as u64,
        ..Default::default()
    };
    let mut depth = 0u64;
    loop {
        depth += 1;
        let mut active = false;
        for (v, &kv) in counts.iter().enumerate().take(m) {
            let mut gather = 0u64;
            for &u in csr.neighbors(v as u32) {
                gather |= scratch.cur[u as usize];
            }
            let new = gather & !scratch.seen[v];
            scratch.next[v] = new;
            if new != 0 {
                scratch.seen[v] |= new;
                active = true;
                let kv = kv as u64;
                if kv > 0 {
                    sums.max_d = sums.max_d.max(depth as u32);
                    sums.reached += new.count_ones() as u64;
                    let mut bits = new;
                    let mut batch_k = 0u64;
                    while bits != 0 {
                        batch_k += k_src[bits.trailing_zeros() as usize];
                        bits &= bits - 1;
                    }
                    sums.weighted += batch_k * kv * (depth + 2);
                }
            }
        }
        if !active {
            return sums;
        }
        std::mem::swap(&mut scratch.cur, &mut scratch.next);
    }
}

// ---- distance cache ----------------------------------------------------

/// The highest non-empty bucket of a distance histogram (0 if none),
/// given that no bucket above `bound` is occupied — the scan starts
/// there instead of at the histogram's far end.
#[inline]
fn top_bucket(hist: &[u32], bound: u16) -> u16 {
    hist[..=usize::from(bound)]
        .iter()
        .rposition(|&cnt| cnt != 0)
        .unwrap_or(0) as u16
}

/// The logical `u16` distance of a row byte.
#[inline]
fn unpack_dist(b: u8) -> u16 {
    if b == INVALID_BYTE {
        INVALID_DIST
    } else {
        u16::from(b)
    }
}

/// The row byte of a logical `u16` distance.
#[inline]
fn pack_dist(d: u16) -> u8 {
    if d == INVALID_DIST {
        INVALID_BYTE
    } else {
        debug_assert!(d < u16::from(INVALID_BYTE));
        d as u8
    }
}

/// One entry of the distance cache's transactional undo journal,
/// replayed newest-first by [`DistCache::rollback_mark`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheUndo {
    /// A repair rewrote entry `(src, sw)`, which held `old` before.
    Cell { src: u32, sw: u32, old: u16 },
    /// A re-BFS rewrote row `src` wholesale. Its pre-image is the last
    /// `m` bytes of [`DistCache::row_images`] not yet replayed, and
    /// `was_valid` its validity before the sweep.
    Row { src: u32, was_valid: bool },
}

/// Raw views into the cache arrays, so one sweep/repair implementation
/// serves both the sequential path and the worker pool (each task writes
/// only the row and aggregates of its own sources, which are disjoint).
#[derive(Debug, Clone, Copy)]
struct CachePtrs {
    rows: *mut u8,
    wsum: *mut u64,
    hist: *mut u32,
    ecc: *mut u16,
    nreach: *mut u32,
    valid: *mut bool,
    m: usize,
}

// SAFETY: a `CachePtrs` is taken from the `DistCache` that the
// evaluating thread borrows mutably for the whole job, so the arrays
// outlive every copy a worker holds (`EvalPool::run` returns only after
// all workers finished). Through it a thread writes only the rows and
// aggregate slots of the sources its task owns, and tasks own disjoint
// sources, so no two threads touch the same slot.
unsafe impl Send for CachePtrs {}
// SAFETY: as for `Send`: shared references are only used to reach the
// disjoint per-source slots of the task holding them.
unsafe impl Sync for CachePtrs {}

impl CachePtrs {
    /// Reads entry `(s, v)` as a logical `u16` distance.
    ///
    /// # Safety
    /// `s, v < m`; the caller's task owns source `s` (no other thread
    /// reads or writes row `s` meanwhile) and the cache these pointers
    /// came from is still borrowed by the evaluating thread, so the row
    /// store is live.
    #[inline]
    unsafe fn get(&self, s: usize, v: usize) -> u16 {
        unpack_dist(*self.rows.add(s * self.m + v))
    }

    /// Writes entry `(s, v)` from a logical `u16` distance.
    ///
    /// # Safety
    /// `s, v < m`; the caller's task owns source `s` (no other thread
    /// reads or writes row `s` meanwhile) and the cache these pointers
    /// came from is still borrowed by the evaluating thread, so the row
    /// store is live.
    #[inline]
    unsafe fn set(&self, s: usize, v: usize, d: u16) {
        *self.rows.add(s * self.m + v) = pack_dist(d);
    }

    /// Fills row `s` with the unreachable marker.
    ///
    /// # Safety
    /// As [`CachePtrs::set`]: `s < m`, the caller's task owns source
    /// `s`, and the row store is live.
    #[inline]
    unsafe fn fill_invalid(&self, s: usize) {
        std::ptr::write_bytes(self.rows.add(s * self.m), INVALID_BYTE, self.m);
    }
}

/// As [`sweep_batch`], but additionally fills the cache row and
/// per-source aggregates of every swept source. Returns `false` when
/// some switch lies at or beyond the cache's distance cap (the cache
/// must be disabled).
///
/// Callers pass `c` from the live cache and hand this batch the sources
/// in `srcs` exclusively (one task per batch, batches disjoint).
fn sweep_batch_cached(
    csr: &SlotCsr,
    counts: &[u32],
    srcs: &[u32],
    scratch: &mut EvalScratch,
    c: &CachePtrs,
) -> bool {
    debug_assert!(!srcs.is_empty() && srcs.len() <= 64);
    let m = csr.len();
    debug_assert_eq!(m, c.m);
    scratch.reset(m);
    // SAFETY: this batch's task owns every source in `srcs` (batches
    // are disjoint), so no other thread touches these rows; `c` comes
    // from the cache the evaluating thread holds borrowed until the job
    // ends, so the row store is live.
    unsafe {
        for &s in srcs {
            let s = s as usize;
            c.fill_invalid(s);
            c.set(s, s, 0);
        }
    }
    for (i, &s) in srcs.iter().enumerate() {
        scratch.cur[s as usize] = 1 << i;
        scratch.seen[s as usize] = 1 << i;
    }
    let mut depth = 0usize;
    loop {
        depth += 1;
        let mut active = false;
        for v in 0..m {
            let mut gather = 0u64;
            for &u in csr.neighbors(v as u32) {
                gather |= scratch.cur[u as usize];
            }
            let new = gather & !scratch.seen[v];
            scratch.next[v] = new;
            if new != 0 {
                if depth >= MAX_DIST {
                    return false;
                }
                scratch.seen[v] |= new;
                active = true;
                let mut bits = new;
                while bits != 0 {
                    let s = srcs[bits.trailing_zeros() as usize] as usize;
                    bits &= bits - 1;
                    // SAFETY: `s` is in `srcs`, which this task owns, and
                    // the store is live (see above); `v < m`.
                    unsafe {
                        c.set(s, v, depth as u16);
                    }
                }
            }
        }
        if !active {
            break;
        }
        std::mem::swap(&mut scratch.cur, &mut scratch.next);
    }
    // Aggregates come from a sequential post-pass over each finished
    // row — far cheaper than scalar updates inside the frontier bit
    // loop above, which would cost one scattered read-modify-write per
    // (source, switch) pair.
    // SAFETY: this task owns every source in `srcs` and its rows are
    // fully written; the aggregate arrays belong to the same borrowed
    // cache as the rows, so they are live.
    unsafe {
        for &s in srcs {
            recompute_aggregates_ptr(c, s as usize, counts);
            *c.valid.add(s as usize) = true;
        }
    }
    true
}

/// Rebuilds the aggregates of source `s` from its stored row: a single
/// sequential pass shared by the sweep workers and the repair path.
///
/// # Safety
/// `s < m`; the caller's task must own source `s` (no other thread may
/// touch its row or aggregate slots), the cache behind `c` must still be
/// borrowed by the evaluating thread (so every array is live), and the
/// row must be fully written.
unsafe fn recompute_aggregates_ptr(c: &CachePtrs, s: usize, counts: &[u32]) {
    let m = c.m;
    let hist = std::slice::from_raw_parts_mut(c.hist.add(s * MAX_DIST), MAX_DIST);
    hist.fill(0);
    let mut wsum = 0u64;
    let mut nreach = 0u32;
    let mut ecc = 0u16;
    for (v, &kv) in counts.iter().enumerate().take(m) {
        let d = c.get(s, v);
        if v == s || d == INVALID_DIST || kv == 0 {
            continue;
        }
        wsum += kv as u64 * (d as u64 + 2);
        hist[d as usize] += 1;
        nreach += 1;
        ecc = ecc.max(d);
    }
    *c.wsum.add(s) = wsum;
    *c.nreach.add(s) = nreach;
    *c.ecc.add(s) = ecc;
}

/// The per-source distance cache: one row per switch (hop counts to
/// every other switch, one byte each) plus the aggregates that let a
/// proposal be scored without re-visiting unaffected rows.
///
/// Invariants (for every row with `valid[s]`):
/// * row `s` holds the hop distances of the graph **minus the pending
///   [`DistCache::edge_delta`]** — rows are only refreshed inside
///   `evaluate`, edge mutations between evaluations just accumulate;
/// * `wsum[s] = Σ_{v≠s, k_v>0, reachable} k_v·(d(s,v)+2)`,
///   `hist[s][d] = #{v≠s : k_v>0, d(s,v)=d}`, `nreach[s] = Σ_d hist[s][d]`
///   and `ecc[s] = max{d : hist[s][d]>0}` — all wrt the row *as stored*
///   and the **current** host counts (host moves adjust them eagerly and
///   reversibly in `O(valid rows)`).
#[derive(Debug)]
struct DistCache {
    m: usize,
    /// `m × m` row bytes (see [`pack_dist`]).
    rows: Vec<u8>,
    valid: Vec<bool>,
    wsum: Vec<u64>,
    hist: Vec<u32>,
    ecc: Vec<u16>,
    nreach: Vec<u32>,
    /// Net link changes since the rows were last refreshed, as
    /// `(a, b, net)` with `a < b`; entries cancelling to net 0 are
    /// dropped, so a rolled-back proposal leaves no trace.
    edge_delta: Vec<(Switch, Switch, i32)>,
    /// Set when a sweep or repair overflowed the distance cap; the
    /// engine then falls back to full sweeps forever.
    disabled: bool,
    // -- transactional undo journal ---------------------------------
    /// Every cache write made inside an open transaction, oldest first:
    /// one cell per entry a repair rewrote, one row record per row a
    /// re-BFS rewrote. Replayed newest-first on rollback, so the
    /// earliest (pre-transaction) value of each entry wins.
    journal: Vec<CacheUndo>,
    /// Pre-images of the rows behind the journal's [`CacheUndo::Row`]
    /// records, `m` bytes each, in journal order.
    row_images: Vec<u8>,
    /// `journal` boundary per open transaction level.
    marks: Vec<usize>,
    /// Copy of [`Self::edge_delta`] at each `begin`, restored wholesale
    /// on rollback (the restored rows match the restored graph, so the
    /// inverse notes pushed by undo replay are discarded).
    saved_deltas: Vec<Vec<(Switch, Switch, i32)>>,
    // -- scan scratch (never journaled) -----------------------------
    /// Per-source classification bits (`ADD_AFF` / `DEL_AFF` /
    /// `NO_STRICT`).
    flags: Vec<u8>,
    /// Per-removal shortest-path-side marker (0 = not on one, 1 = far
    /// endpoint is `v`, 2 = far endpoint is `u`).
    wneed: Vec<u8>,
    /// Per-removal witness bits (bit 0: any witness, bit 1: witness not
    /// using an added link).
    wit: Vec<u8>,
    /// `max(k_far)` over witness-less removals, per source.
    strict: Vec<u32>,
    /// Rows the last repair pass actually rewrote —
    /// conservatively-routed rows a surviving witness protected are
    /// excluded, so the affected-row statistics stay meaningful.
    touched: u32,
}

/// [`DistCache::flags`] bit: some added link can shorten this source.
const ADD_AFF: u8 = 1;
/// [`DistCache::flags`] bit: some removed link lengthens this source
/// (it was on a shortest path and no alternate parent survives).
const DEL_AFF: u8 = 2;
/// [`DistCache::flags`] bit: some removal's only surviving witness goes
/// through an added link, so this row is *not* exact for the graph
/// minus that link alone and must run the decremental phase.
const NO_STRICT: u8 = 4;

/// Read-only result of classifying the pending edge delta against the
/// cached rows.
#[derive(Debug, Default)]
struct DeltaScan {
    /// Whether some hostful source has no valid row (its aggregates are
    /// unknown — early reject is then impossible).
    invalid_hostful: bool,
    /// Whether the guard's allowance bound applies: at most one
    /// net-added link (the single-add distance formula the improvement
    /// bound rests on does not compose across simultaneous adds).
    guardable: bool,
    /// Lower bound on the increase of the *ordered* weighted path sum
    /// from witness-less removals, over sources the add cannot touch.
    strict_sum: u64,
    /// Upper bound on the decrease of the ordered weighted path sum from
    /// the added link: an ordered pair `(s, x)` can only improve if `s`
    /// sits strictly behind one endpoint and `x` strictly behind the
    /// other, and then by at most `min(diff(s), diff(x)) − 1`, so the
    /// total decrease is at most `2·min(Su·Kv, Sv·Ku)` where
    /// `Su = Σ k_s·(diff(s)−1)` and `Ku = Σ k_s` over sources behind `u`
    /// (resp. `v`).
    allowance: u64,
}

impl DistCache {
    fn new(m: usize) -> Self {
        Self {
            m,
            rows: vec![INVALID_BYTE; m * m],
            valid: vec![false; m],
            wsum: vec![0; m],
            hist: vec![0; m * MAX_DIST],
            ecc: vec![0; m],
            nreach: vec![0; m],
            edge_delta: Vec::new(),
            disabled: false,
            journal: Vec::new(),
            row_images: Vec::new(),
            marks: Vec::new(),
            saved_deltas: Vec::new(),
            flags: vec![0; m],
            wneed: vec![0; m],
            wit: vec![0; m],
            strict: vec![0; m],
            touched: 0,
        }
    }

    /// Resident bytes of the bulk row store, the per-source aggregates,
    /// and the live transactional undo journal.
    fn resident_bytes(&self) -> usize {
        self.rows.len()
            + self.hist.len() * 4
            + self.wsum.len() * 8
            + self.nreach.len() * 4
            + self.ecc.len() * 2
            + self.valid.len()
            + self.journal.len() * std::mem::size_of::<CacheUndo>()
            + self.row_images.len()
    }

    /// Entry `(s, v)` as a logical `u16` distance.
    #[inline]
    fn dist(&self, s: usize, v: usize) -> u16 {
        unpack_dist(self.rows[s * self.m + v])
    }

    // -- transactional undo journal -----------------------------------

    /// Opens a journal level (called from [`SearchState::begin`]).
    fn mark(&mut self) {
        if self.disabled {
            return;
        }
        self.marks.push(self.journal.len());
        self.saved_deltas.push(self.edge_delta.clone());
    }

    /// Folds the innermost journal level into its parent (commit): the
    /// entries stay replayable by an enclosing rollback and are dropped
    /// only when the outermost transaction commits.
    fn commit_mark(&mut self) {
        if self.disabled {
            return;
        }
        self.marks.pop();
        self.saved_deltas.pop();
        if self.marks.is_empty() {
            self.journal.clear();
            self.row_images.clear();
        }
    }

    /// Undoes every cache write since the innermost `mark`, newest
    /// first, and rewinds the edge delta to its state at `begin`.
    ///
    /// The caller replays the transaction's undo log first, so `counts`
    /// are already rolled back and every valid row's aggregates match
    /// its row as stored under those counts (host moves patch them
    /// eagerly). Each undone cell then moves one entry between
    /// histogram buckets and adjusts `wsum`/`nreach` under the same
    /// counts, and `ecc` is re-read from the histogram once per run of
    /// cells of one source. All of it is integer arithmetic, so the
    /// aggregates come back bit for bit without an `O(m)` rescan. Rows
    /// restored from a wholesale copy are rescanned.
    fn rollback_mark(&mut self, counts: &[u32]) {
        if self.disabled {
            return;
        }
        let (Some(boundary), Some(saved)) = (self.marks.pop(), self.saved_deltas.pop()) else {
            return;
        };
        let m = self.m;
        // Source whose eccentricity awaits a re-read, with a bound on
        // it: the exact `ecc` before its run of cells, raised by every
        // restored distance.
        let mut ecc_due: Option<(usize, u16)> = None;
        while self.journal.len() > boundary {
            match self.journal.pop().expect("len > boundary") {
                CacheUndo::Cell { src, sw, old } => {
                    let s = src as usize;
                    let bound = match ecc_due {
                        Some((due, bound)) if due == s => bound,
                        other => {
                            if let Some((prev, bound)) = other {
                                self.reread_ecc(prev, bound);
                            }
                            self.ecc[s]
                        }
                    };
                    let restored = if old == INVALID_DIST { 0 } else { old };
                    ecc_due = Some((s, bound.max(restored)));
                    self.undo_cell(s, sw as usize, old, counts);
                }
                CacheUndo::Row { src, was_valid } => {
                    if let Some((prev, bound)) = ecc_due.take() {
                        self.reread_ecc(prev, bound);
                    }
                    let s = src as usize;
                    let start = self.row_images.len() - m;
                    self.rows[s * m..(s + 1) * m].copy_from_slice(&self.row_images[start..]);
                    self.row_images.truncate(start);
                    self.valid[s] = was_valid;
                    if was_valid {
                        // restored rows were validated when first stored
                        let ok = self.recompute_aggregates(s, counts);
                        debug_assert!(ok, "row image of source {s} holds an oversized distance");
                    }
                }
            }
        }
        if let Some((prev, bound)) = ecc_due {
            self.reread_ecc(prev, bound);
        }
        self.edge_delta = saved;
    }

    /// Restores entry `(s, v)` to `old` and moves `v`'s contribution to
    /// the aggregates of `s` from the current distance to `old` (only
    /// hostful switches contribute). Leaves `ecc` to [`Self::reread_ecc`].
    #[inline]
    fn undo_cell(&mut self, s: usize, v: usize, old: u16, counts: &[u32]) {
        debug_assert_ne!(s, v, "repairs never rewrite a row's own entry");
        let cur = self.dist(s, v);
        self.rows[s * self.m + v] = pack_dist(old);
        let k = u64::from(counts[v]);
        if k == 0 || !self.valid[s] {
            return;
        }
        let base = s * MAX_DIST;
        if cur != INVALID_DIST {
            self.wsum[s] -= k * (u64::from(cur) + 2);
            self.hist[base + cur as usize] -= 1;
            self.nreach[s] -= 1;
        }
        if old != INVALID_DIST {
            self.wsum[s] += k * (u64::from(old) + 2);
            self.hist[base + old as usize] += 1;
            self.nreach[s] += 1;
        }
    }

    /// Sets `ecc[s]` to the highest non-empty histogram bucket of `s`,
    /// given that no bucket above `bound` is occupied.
    fn reread_ecc(&mut self, s: usize, bound: u16) {
        if self.valid[s] {
            let hist = &self.hist[s * MAX_DIST..(s + 1) * MAX_DIST];
            self.ecc[s] = top_bucket(hist, bound);
        }
    }

    /// Journals row `s` (and its validity) before a re-BFS rewrites it
    /// wholesale. Only meaningful while a journal level is open.
    fn save_row(&mut self, s: u32) {
        debug_assert!(!self.marks.is_empty());
        let (m, si) = (self.m, s as usize);
        self.journal.push(CacheUndo::Row {
            src: s,
            was_valid: self.valid[si],
        });
        self.row_images
            .extend_from_slice(&self.rows[si * m..(si + 1) * m]);
    }

    /// Rebuilds `wsum`/`hist`/`ecc`/`nreach` of source `s` from its row
    /// and the given host counts — one sequential scan. Returns `false`
    /// if the row holds a finite distance beyond what the histogram can
    /// index (only reachable through formula repair).
    #[must_use]
    fn recompute_aggregates(&mut self, s: usize, counts: &[u32]) -> bool {
        let m = self.m;
        let row = &self.rows[s * m..(s + 1) * m];
        let hist = &mut self.hist[s * MAX_DIST..(s + 1) * MAX_DIST];
        hist.fill(0);
        let mut wsum = 0u64;
        let mut nreach = 0u32;
        let mut ecc = 0u16;
        for (v, (&k, &b)) in counts.iter().zip(row).enumerate() {
            let d = unpack_dist(b);
            if v == s || d == INVALID_DIST {
                continue;
            }
            // hostless switches count too: a later host move must be
            // able to index `hist[d]`
            if d >= MAX_DIST as u16 {
                return false;
            }
            if k == 0 {
                continue;
            }
            wsum += k as u64 * (d as u64 + 2);
            hist[d as usize] += 1;
            nreach += 1;
            ecc = ecc.max(d);
        }
        self.wsum[s] = wsum;
        self.nreach[s] = nreach;
        self.ecc[s] = ecc;
        true
    }

    fn ptrs(&mut self) -> CachePtrs {
        CachePtrs {
            rows: self.rows.as_mut_ptr(),
            wsum: self.wsum.as_mut_ptr(),
            hist: self.hist.as_mut_ptr(),
            ecc: self.ecc.as_mut_ptr(),
            nreach: self.nreach.as_mut_ptr(),
            valid: self.valid.as_mut_ptr(),
            m: self.m,
        }
    }

    /// Accumulates a link change (`net = ±1`); exact inverses cancel.
    fn note_edge(&mut self, a: Switch, b: Switch, net: i32) {
        if self.disabled {
            return;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if let Some(pos) = self.edge_delta.iter().position(|&(x, y, _)| (x, y) == key) {
            self.edge_delta[pos].2 += net;
            if self.edge_delta[pos].2 == 0 {
                self.edge_delta.swap_remove(pos);
            }
        } else {
            self.edge_delta.push((key.0, key.1, net));
        }
    }

    /// Eagerly re-weights every valid row for a host-count change at `v`.
    /// Self-inverse under the opposite delta, so transaction rollback
    /// (which replays the inverse host move) restores the aggregates
    /// exactly.
    fn note_host_delta(&mut self, v: Switch, old_k: u32, new_k: u32) {
        if self.disabled || old_k == new_k {
            return;
        }
        let m = self.m;
        let v = v as usize;
        let dk = new_k as i64 - old_k as i64;
        for s in 0..m {
            if !self.valid[s] || s == v {
                continue;
            }
            // All valid rows describe the same graph, so `d(s,v)` can be
            // read from `v`'s own row — a sequential scan instead of an
            // `m`-stride column walk (one cache miss per source).
            let d = if self.valid[v] {
                self.dist(v, s)
            } else {
                self.dist(s, v)
            };
            if d == INVALID_DIST {
                continue;
            }
            let du = d as usize;
            self.wsum[s] = (self.wsum[s] as i64 + dk * (du as i64 + 2)) as u64;
            if old_k == 0 {
                self.hist[s * MAX_DIST + du] += 1;
                self.nreach[s] += 1;
                if d > self.ecc[s] {
                    self.ecc[s] = d;
                }
            } else if new_k == 0 {
                let base = s * MAX_DIST;
                self.hist[base + du] -= 1;
                self.nreach[s] -= 1;
                if self.hist[base + du] == 0 && d == self.ecc[s] {
                    let mut e = du;
                    while e > 0 && self.hist[base + e] == 0 {
                        e -= 1;
                    }
                    self.ecc[s] = e as u16;
                }
            }
        }
    }

    /// Classifies every row against the pending edge delta, pushing the
    /// sources that must be re-swept (affected or invalid, hostful or
    /// not — the cache keeps every row warm so host moves onto hostless
    /// switches never cold-start) into `rebfs`. Read-only on the cache
    /// itself, so an early reject can abandon the result without repair
    /// work.
    fn scan_delta(
        &mut self,
        csr: &SlotCsr,
        counts: &[u32],
        rebfs: &mut Vec<u32>,
        repair: &mut Vec<u32>,
    ) -> DeltaScan {
        rebfs.clear();
        repair.clear();
        let mut scan = DeltaScan::default();
        let m = self.m;
        // Split the pending delta once; swings keep |adds| = |dels| = 1,
        // swaps 2 and 2.
        let mut adds: Vec<(u32, u32)> = Vec::with_capacity(4);
        let mut dels: Vec<(u32, u32)> = Vec::with_capacity(4);
        for &(a, b, net) in &self.edge_delta {
            if net > 0 {
                adds.push((a, b));
            } else if net < 0 {
                dels.push((a, b));
            }
        }
        scan.guardable = adds.len() <= 1;
        for (s, (&ok, &k)) in self.valid.iter().zip(counts).enumerate().take(m) {
            if !ok {
                if k > 0 {
                    scan.invalid_hostful = true;
                }
                rebfs.push(s as u32);
            }
        }
        if adds.is_empty() && dels.is_empty() {
            return scan;
        }
        // Every pass below reads whole rows sequentially (d(s,x) is read
        // from x's row — valid rows all describe the same graph, so the
        // symmetric entry is identical and the `m`-stride column walk of
        // a per-source formulation is avoided). That needs the rows of
        // every delta endpoint and witness candidate; if any is missing
        // (only possible before the first full sweep), classification is
        // impossible and every row is conservatively re-swept.
        let mut conservative = adds
            .iter()
            .chain(&dels)
            .any(|&(u, v)| !self.valid[u as usize] || !self.valid[v as usize]);
        for &(u, v) in &dels {
            conservative |= csr
                .neighbors(u)
                .iter()
                .chain(csr.neighbors(v))
                .any(|&w| !self.valid[w as usize]);
        }
        if conservative {
            scan.guardable = false;
            for s in 0..m {
                if self.valid[s] {
                    rebfs.push(s as u32);
                }
            }
            rebfs.sort_unstable();
            return scan;
        }
        self.flags[..m].fill(0);
        self.strict[..m].fill(0);
        // Added links: `s` can shrink iff its endpoint distances differ
        // by ≥ 2 (or one endpoint is unreachable — reachability gain).
        // Accumulates the behind-u / behind-v host masses of the
        // single-add improvement allowance (see `DeltaScan::allowance`).
        let (mut su, mut ku, mut sv, mut kv) = (0u64, 0u64, 0u64, 0u64);
        for &(u, v) in &adds {
            for (s, &ks) in counts.iter().enumerate().take(m) {
                if !self.valid[s] {
                    continue;
                }
                let du = self.dist(u as usize, s);
                let dv = self.dist(v as usize, s);
                if du == INVALID_DIST && dv == INVALID_DIST {
                    continue; // joins two components not containing s
                }
                if du == INVALID_DIST || dv == INVALID_DIST {
                    // s gains reachability: pairs only appear (weighted
                    // sum grows), so no allowance is needed — but the
                    // row must be re-derived
                    self.flags[s] |= ADD_AFF;
                    continue;
                }
                let ks = u64::from(ks);
                if du + 2 <= dv {
                    // s strictly behind u: improving pairs enter the new
                    // link at u and exit towards targets behind v
                    self.flags[s] |= ADD_AFF;
                    if scan.guardable {
                        su += ks * (dv - du - 1) as u64;
                        ku += ks;
                    }
                } else if dv + 2 <= du {
                    self.flags[s] |= ADD_AFF;
                    if scan.guardable {
                        sv += ks * (du - dv - 1) as u64;
                        kv += ks;
                    }
                }
            }
        }
        scan.allowance = 2 * (su * kv).min(sv * ku);
        // Removed links, one at a time: `s` lengthens iff the link was on
        // a shortest path from `s` (endpoint levels differ — by exactly 1,
        // since it was an edge) and the far endpoint has no alternate
        // parent. A parent in the *post-delta* adjacency keeps every
        // distance intact — inductively down the BFS levels — but a
        // parent reached through an added link only proves the combined
        // delta leaves `s` unchanged, not the removals alone, so it does
        // not count as a *strict* witness (bit 1), which is what formula
        // repair needs.
        for &(u, v) in &dels {
            for s in 0..m {
                // add-affected sources still need their removal bits:
                // they decide repair eligibility (strict increments are
                // filtered later)
                let need = if !self.valid[s] {
                    0
                } else {
                    let du = self.dist(u as usize, s);
                    let dv = self.dist(v as usize, s);
                    if du == INVALID_DIST || dv == INVALID_DIST || du == dv {
                        0
                    } else if du < dv {
                        1 // far endpoint is v
                    } else {
                        2 // far endpoint is u
                    }
                };
                self.wneed[s] = need;
            }
            if !scan.guardable {
                // No guard will read the strict increments, so the
                // witness scan (deg(far) whole-row passes) buys nothing:
                // route every on-DAG source to the decremental phase,
                // which rediscovers surviving parents at O(deg) per
                // source and leaves witness-protected rows untouched.
                for s in 0..m {
                    if self.wneed[s] != 0 {
                        self.flags[s] |= DEL_AFF;
                    }
                }
                continue;
            }
            self.wit[..m].fill(0);
            for (far, need) in [(v, 1u8), (u, 2u8)] {
                for &w in csr.neighbors(far) {
                    let key = if far < w { (far, w) } else { (w, far) };
                    let strict_bit = if adds.contains(&key) { 1 } else { 3 };
                    for s in 0..m {
                        if self.wneed[s] == need {
                            let dw = self.dist(w as usize, s);
                            if dw != INVALID_DIST && dw + 1 == self.dist(far as usize, s) {
                                self.wit[s] |= strict_bit;
                            }
                        }
                    }
                }
            }
            for s in 0..m {
                if self.wneed[s] == 0 {
                    continue;
                }
                let far = if self.wneed[s] == 1 { v } else { u };
                if self.wit[s] & 1 == 0 {
                    self.flags[s] |= DEL_AFF;
                    // the farther endpoint strictly recedes by ≥ 1
                    self.strict[s] = self.strict[s].max(counts[far as usize]);
                }
                if self.wit[s] & 2 == 0 {
                    self.flags[s] |= NO_STRICT;
                }
            }
        }
        // Every affected source — add endpoints included — is repaired
        // in place (decremental orphan re-relaxation for the removals,
        // then incremental insertion relaxation for the adds — see
        // `repair_one_source`); re-BFS is reserved for invalid rows.
        for (s, &ks) in counts.iter().enumerate().take(m) {
            if !self.valid[s] {
                continue; // already queued
            }
            let f = self.flags[s];
            let ks = u64::from(ks);
            if f & ADD_AFF == 0 {
                // strict increments only for sources the add cannot
                // rescue
                scan.strict_sum += ks * self.strict[s] as u64;
            }
            if f & (ADD_AFF | DEL_AFF) == 0 {
                continue;
            }
            repair.push(s as u32);
        }
        scan
    }

    /// Scores the graph from the aggregates alone (`O(m)`); requires
    /// every hostful source to hold a valid, refreshed row.
    fn totals(&self, counts: &[u32]) -> BatchSums {
        let mut t = BatchSums::default();
        for (s, &k) in counts.iter().enumerate().take(self.m) {
            if k == 0 {
                continue;
            }
            debug_assert!(self.valid[s], "hostful source {s} lacks a cache row");
            t.weighted += k as u64 * self.wsum[s];
            t.max_d = t.max_d.max(self.ecc[s] as u32);
            t.reached += 1 + self.nreach[s] as u64;
        }
        t
    }

    /// Lower bound on the *ordered* weighted path sum after the pending
    /// delta: stale aggregates (with current host counts), plus the
    /// strict-removal increments (those sources' distances cannot have
    /// been rescued by the add), minus the add-improvement allowance
    /// (which over-covers every pair whose distance can shrink). Valid
    /// only for guardable scans with no invalid hostful row.
    fn lower_bound_weighted(&self, counts: &[u32], scan: &DeltaScan) -> u64 {
        let mut w = scan.strict_sum;
        for (s, &k) in counts.iter().enumerate().take(self.m) {
            if k > 0 {
                w += k as u64 * self.wsum[s];
            }
        }
        w.saturating_sub(scan.allowance)
    }

    /// Drops the bulk storage once the cache is disabled.
    fn release(&mut self) {
        self.disabled = true;
        self.rows = Vec::new();
        self.hist = Vec::new();
        self.wsum = Vec::new();
        self.ecc = Vec::new();
        self.nreach = Vec::new();
        self.valid = vec![false; self.m];
        self.edge_delta = Vec::new();
        self.journal = Vec::new();
        self.row_images = Vec::new();
        self.marks = Vec::new();
        self.saved_deltas = Vec::new();
        self.flags = Vec::new();
        self.wneed = Vec::new();
        self.wit = Vec::new();
        self.strict = Vec::new();
    }
}

// ---- sharded in-place repair -------------------------------------------

/// Per-worker scratch of the sharded repair path: epoch-stamped marker
/// arrays, the bucket queue, and the worker-local undo journal (merged
/// into the cache's journal after the job, so workers never contend on
/// it).
#[derive(Debug, Default)]
struct RepairScratch {
    /// Current epoch; a stamp array entry equals it iff set this source.
    ep: u32,
    /// Stamp: vertex already examined as an orphan candidate.
    cand_ep: Vec<u32>,
    /// Stamp: vertex orphaned (all strict shortest-path parents gone).
    orphan_ep: Vec<u32>,
    /// Stamp: orphan settled by the re-relaxation.
    settled_ep: Vec<u32>,
    /// Bucket queue over hop distance, shared by orphan descent and
    /// re-relaxation (each drains the buckets it fills).
    buckets: Vec<Vec<u32>>,
    /// Orphans of the current source.
    orphans: Vec<u32>,
    /// Sources this worker journaled during the current job, as
    /// `(source, start of its cells in journal)`.
    segs: Vec<(u32, usize)>,
    /// [`CacheUndo::Cell`]s of this job's rewrites, grouped by source.
    journal: Vec<CacheUndo>,
    /// Rows this worker's repairs actually rewrote during the job.
    touched: u32,
}

impl RepairScratch {
    fn ensure(&mut self, m: usize) {
        if self.cand_ep.len() != m {
            self.ep = 0;
            self.cand_ep = vec![0; m];
            self.orphan_ep = vec![0; m];
            self.settled_ep = vec![0; m];
        }
        if self.buckets.len() != MAX_DIST + 1 {
            self.buckets = vec![Vec::new(); MAX_DIST + 1];
        }
    }

    fn reset_job(&mut self) {
        self.touched = 0;
        self.segs.clear();
        self.journal.clear();
    }

    /// Starts the journal segment of source `s` (before its first
    /// rewritten entry).
    #[inline]
    fn open_seg(&mut self, s: usize) {
        self.segs.push((s as u32, self.journal.len()));
    }

    /// Journals that entry `(s, v)` held `old` before a repair rewrote it.
    #[inline]
    fn log(&mut self, s: usize, v: usize, old: u16) {
        self.journal.push(CacheUndo::Cell {
            src: s as u32,
            sw: v as u32,
            old,
        });
    }
}

/// Everything a repair task needs, as raw views so the same packet can
/// be executed by any pool worker. All pointers stay valid until the
/// job completes (the publisher blocks).
#[derive(Debug, Clone, Copy)]
struct RepairCtx {
    cache: CachePtrs,
    /// Classification bits from the scan (read-only during repair).
    flags: *const u8,
    csr: *const SlotCsr,
    counts: *const u32,
    counts_len: usize,
    adds: *const (u32, u32, u32),
    adds_len: usize,
    dels: *const (u32, u32),
    dels_len: usize,
    /// Whether a transaction is open (every rewritten entry must be
    /// journaled).
    journal: bool,
}

// SAFETY: the evaluating thread builds a `RepairCtx` from buffers it
// owns (`csr`, `counts`, `adds_buf`, `dels_buf`, the cache) and neither
// moves nor mutates them until the job ends, so every pointer stays
// live for any worker holding a copy. A task writes only through
// `cache`, and only the row and aggregates of the one source it owns;
// `flags`, `csr`, `counts`, `adds` and `dels` are read-only.
unsafe impl Send for RepairCtx {}
// SAFETY: as for `Send`: shared access never writes outside the slots
// of the holding task's own source.
unsafe impl Sync for RepairCtx {}

/// The added-link copies incident to `x`, as `(other endpoint,
/// copies to skip)` — iterating `csr` neighbors must ignore exactly
/// that many occurrences to see the strict (minus-removals,
/// minus-adds) adjacency. Parallel pre-existing copies survive.
#[inline]
fn added_copies(adds: &[(u32, u32, u32)], x: u32) -> [(u32, u32); 4] {
    let mut skip = [(u32::MAX, 0u32); 4];
    let mut n = 0;
    for &(a, b, mult) in adds {
        let other = if a == x {
            b
        } else if b == x {
            a
        } else {
            continue;
        };
        if n < skip.len() {
            skip[n] = (other, mult);
            n += 1;
        }
    }
    skip
}

/// Consumes one skip token for neighbor `w`, returning `true` if
/// this occurrence is an added copy.
#[inline]
fn consume_added(skip: &mut [(u32, u32); 4], w: u32) -> bool {
    for e in skip.iter_mut() {
        if e.0 == w && e.1 > 0 {
            e.1 -= 1;
            return true;
        }
    }
    false
}

/// Whether `x` keeps a surviving strict shortest-path parent (level
/// exactly one below, reached neither through an added link nor an
/// already-orphaned vertex).
///
/// # Safety
/// As [`CachePtrs::get`]: the caller's task owns source `s` and the
/// cache behind `c` is live.
#[inline]
unsafe fn strict_parent_survives(
    c: &CachePtrs,
    rs: &RepairScratch,
    csr: &SlotCsr,
    adds: &[(u32, u32, u32)],
    s: usize,
    x: u32,
    lvl: u16,
) -> bool {
    let mut skip = added_copies(adds, x);
    for &w in csr.neighbors(x) {
        if consume_added(&mut skip, w) {
            continue;
        }
        let wi = w as usize;
        if u32::from(c.get(s, wi)) + 1 == u32::from(lvl) && rs.orphan_ep[wi] != rs.ep {
            return true;
        }
    }
    false
}

/// Decremental phase for one source: rewrites the stored row from the
/// pre-delta distances to `d_del` (graph minus the removals, added
/// links excluded). Orphan descent finds exactly the vertices whose
/// every strict shortest-path parent is gone, then a bucket-Dijkstra
/// re-settles them from the unorphaned boundary, patching
/// `wsum`/`hist`/`ecc`/`nreach` per rewritten entry. Journals each
/// rewritten entry when a transaction is open. Returns `None` on
/// distance overflow, otherwise whether any entry was rewritten (a
/// row whose every on-DAG removal keeps a surviving strict parent is
/// untouched, and its aggregates stay exact).
///
/// # Safety
/// `s < m`; the caller's task must own source `s` exclusively (no other
/// thread reads or writes row `s` or its aggregates meanwhile), and
/// every `RepairCtx` pointer must be live: the evaluating thread keeps
/// the cache and the shared inputs borrowed, unmoved and unmutated until
/// the job ends.
unsafe fn del_repair_source(ctx: &RepairCtx, rs: &mut RepairScratch, s: usize) -> Option<bool> {
    let c = &ctx.cache;
    let csr = &*ctx.csr;
    let counts = std::slice::from_raw_parts(ctx.counts, ctx.counts_len);
    let adds = std::slice::from_raw_parts(ctx.adds, ctx.adds_len);
    let dels = std::slice::from_raw_parts(ctx.dels, ctx.dels_len);
    if rs.ep == u32::MAX {
        rs.cand_ep.iter_mut().for_each(|e| *e = 0);
        rs.orphan_ep.iter_mut().for_each(|e| *e = 0);
        rs.settled_ep.iter_mut().for_each(|e| *e = 0);
        rs.ep = 0;
    }
    rs.ep += 1;
    let ep = rs.ep;
    rs.orphans.clear();
    // -- orphan descent ------------------------------------------
    // Seed with the far endpoint of every removal that sat on the
    // shortest-path DAG of `s` (endpoint levels differ by 1).
    let mut lo = MAX_DIST;
    let mut pending = 0usize;
    for &(a, b) in dels {
        let (da, db) = (c.get(s, a as usize), c.get(s, b as usize));
        if da == INVALID_DIST || db == INVALID_DIST || da == db {
            continue;
        }
        let (far, lvl) = if da < db { (b, db) } else { (a, da) };
        let lvl = lvl as usize;
        debug_assert!(lvl < MAX_DIST);
        rs.buckets[lvl].push(far);
        lo = lo.min(lvl);
        pending += 1;
    }
    let mut lvl = lo;
    while pending > 0 && lvl < MAX_DIST {
        while let Some(x) = rs.buckets[lvl].pop() {
            pending -= 1;
            let xi = x as usize;
            if rs.cand_ep[xi] == ep {
                continue;
            }
            rs.cand_ep[xi] = ep;
            if strict_parent_survives(c, rs, csr, adds, s, x, lvl as u16) {
                continue;
            }
            rs.orphan_ep[xi] = ep;
            rs.orphans.push(x);
            // shortest-path children may have lost their last parent
            let mut skip = added_copies(adds, x);
            for &y in csr.neighbors(x) {
                if consume_added(&mut skip, y) {
                    continue;
                }
                let yi = y as usize;
                if c.get(s, yi) == lvl as u16 + 1 && rs.cand_ep[yi] != ep {
                    rs.buckets[lvl + 1].push(y);
                    pending += 1;
                }
            }
        }
        lvl += 1;
    }
    if rs.orphans.is_empty() {
        return Some(false);
    }
    // The row is about to be rewritten: open its journal segment now,
    // so witness-protected rows never pay for one.
    if ctx.journal {
        rs.open_seg(s);
    }
    // -- re-relaxation (unit-weight Dijkstra from the boundary) ---
    let mut lo = MAX_DIST;
    for oi in 0..rs.orphans.len() {
        let x = rs.orphans[oi];
        let mut best = u32::from(INVALID_DIST);
        let mut skip = added_copies(adds, x);
        for &w in csr.neighbors(x) {
            if consume_added(&mut skip, w) {
                continue;
            }
            let wi = w as usize;
            let dw = c.get(s, wi);
            if rs.orphan_ep[wi] != ep && dw != INVALID_DIST {
                best = best.min(u32::from(dw) + 1);
            }
        }
        if best < u32::from(INVALID_DIST) {
            let key = (best as usize).min(MAX_DIST);
            rs.buckets[key].push(x);
            lo = lo.min(key);
        }
    }
    let hist = std::slice::from_raw_parts_mut(c.hist.add(s * MAX_DIST), MAX_DIST);
    let wsum = &mut *c.wsum.add(s);
    let ecc = &mut *c.ecc.add(s);
    let nreach = &mut *c.nreach.add(s);
    let mut overflow = false;
    let mut key = lo;
    while key <= MAX_DIST {
        while let Some(x) = rs.buckets[key].pop() {
            let xi = x as usize;
            if rs.settled_ep[xi] == ep {
                continue;
            }
            rs.settled_ep[xi] = ep;
            if key >= MAX_DIST {
                overflow = true;
                continue; // keep draining the buckets
            }
            // Patch the aggregates in place: orphan distances grow
            // strictly, so the eccentricity only ratchets up here.
            let d_old = c.get(s, xi);
            c.set(s, xi, key as u16);
            if ctx.journal {
                rs.log(s, xi, d_old);
            }
            debug_assert!((key as u16) > d_old);
            let kx = counts[xi];
            if kx != 0 {
                *wsum += kx as u64 * (key as u64 - d_old as u64);
                hist[d_old as usize] -= 1;
                hist[key] += 1;
                *ecc = (*ecc).max(key as u16);
            }
            let mut skip = added_copies(adds, x);
            for &w in csr.neighbors(x) {
                if consume_added(&mut skip, w) {
                    continue;
                }
                let wi = w as usize;
                if rs.orphan_ep[wi] == ep && rs.settled_ep[wi] != ep {
                    rs.buckets[(key + 1).min(MAX_DIST)].push(w);
                }
            }
        }
        key += 1;
    }
    if overflow {
        return None;
    }
    // orphans the boundary never reached are now unreachable
    let mut ecc_dirty = false;
    for oi in 0..rs.orphans.len() {
        let xi = rs.orphans[oi] as usize;
        if rs.settled_ep[xi] != ep {
            let d_old = c.get(s, xi);
            c.set(s, xi, INVALID_DIST);
            if ctx.journal {
                rs.log(s, xi, d_old);
            }
            let kx = counts[xi];
            if kx != 0 {
                *wsum -= kx as u64 * (d_old as u64 + 2);
                hist[d_old as usize] -= 1;
                *nreach -= 1;
                if d_old == *ecc {
                    ecc_dirty = true;
                }
            }
        }
    }
    if ecc_dirty {
        // the histogram is current again: its highest non-empty
        // bucket (none lies above the ratcheted `ecc`) is the surviving
        // eccentricity
        *ecc = top_bucket(hist, *ecc);
    }
    Some(true)
}

/// Insertion phase for one source: given a row holding `d_del`, seeds
/// each pending add's endpoints with the opposite endpoint's distance
/// plus one and settles the decrease wavefront in ascending key order
/// through the live adjacency (bucket Dijkstra; a popped key at or
/// above the current entry is stale and skipped). Only entries that
/// actually shrink are touched, and the aggregates are patched per
/// write — the eccentricity is re-read from the histogram when the
/// previous maximum shrank. Each rewritten entry is journaled when a
/// transaction is open, except orphans the decremental phase already
/// journaled (`del_wrote`: it rewrote this row, so its epoch stamps
/// are this source's). Returns `None` when a new finite distance
/// reaches the cap, otherwise whether anything changed.
///
/// # Safety
/// As [`del_repair_source`].
unsafe fn add_repair_source(
    ctx: &RepairCtx,
    rs: &mut RepairScratch,
    s: usize,
    del_wrote: bool,
) -> Option<bool> {
    let c = &ctx.cache;
    let csr = &*ctx.csr;
    let counts = std::slice::from_raw_parts(ctx.counts, ctx.counts_len);
    let adds = std::slice::from_raw_parts(ctx.adds, ctx.adds_len);
    let mut lo = MAX_DIST;
    let mut seeded = false;
    for &(u, v, _) in adds {
        let (du, dv) = (c.get(s, u as usize), c.get(s, v as usize));
        for (x, cand) in [(v, du.saturating_add(1)), (u, dv.saturating_add(1))] {
            if cand < c.get(s, x as usize) {
                let key = (cand as usize).min(MAX_DIST);
                rs.buckets[key].push(x);
                lo = lo.min(key);
                seeded = true;
            }
        }
    }
    if !seeded {
        return Some(false);
    }
    if !del_wrote && ctx.journal {
        rs.open_seg(s);
    }
    let hist = std::slice::from_raw_parts_mut(c.hist.add(s * MAX_DIST), MAX_DIST);
    let wsum = &mut *c.wsum.add(s);
    let ecc = &mut *c.ecc.add(s);
    let nreach = &mut *c.nreach.add(s);
    let mut overflow = false;
    let mut ecc_dirty = false;
    let mut key = lo;
    while key <= MAX_DIST {
        while let Some(x) = rs.buckets[key].pop() {
            let xi = x as usize;
            let d_old = c.get(s, xi);
            if key >= d_old as usize {
                continue; // stale: already settled at least as close
            }
            if key >= MAX_DIST {
                overflow = true; // finite but beyond histogram range
                continue; // keep draining the buckets
            }
            c.set(s, xi, key as u16);
            if ctx.journal && !(del_wrote && rs.orphan_ep[xi] == rs.ep) {
                rs.log(s, xi, d_old);
            }
            let kx = counts[xi];
            if d_old == INVALID_DIST {
                // newly reachable through an added link
                if kx != 0 {
                    *wsum += kx as u64 * (key as u64 + 2);
                    hist[key] += 1;
                    *nreach += 1;
                    *ecc = (*ecc).max(key as u16);
                }
            } else if kx != 0 {
                *wsum -= kx as u64 * (d_old as u64 - key as u64);
                hist[d_old as usize] -= 1;
                hist[key] += 1;
                if d_old == *ecc {
                    ecc_dirty = true;
                }
            }
            let cand = key + 1;
            for &w in csr.neighbors(x) {
                if cand < usize::from(c.get(s, w as usize)) {
                    rs.buckets[cand.min(MAX_DIST)].push(w);
                }
            }
        }
        key += 1;
    }
    if overflow {
        return None;
    }
    if ecc_dirty {
        // the histogram is current again: its highest non-empty
        // bucket (none lies above the ratcheted `ecc`) is the surviving
        // eccentricity
        *ecc = top_bucket(hist, *ecc);
    }
    Some(true)
}

/// Runs both repair phases for one source — the unit of work a repair
/// task executes, identical on the sequential and pool paths. Returns
/// `false` when a repaired distance overflowed the cap (the cache must
/// then be released).
fn repair_one_source(ctx: &RepairCtx, rs: &mut RepairScratch, s: usize) -> bool {
    // SAFETY: `s < m` indexes the scan's flag array, which the
    // evaluating thread keeps alive and read-only until the job ends.
    let flags_s = unsafe { *ctx.flags.add(s) };
    let mut changed = false;
    if ctx.dels_len > 0 && flags_s & (DEL_AFF | NO_STRICT) != 0 {
        // SAFETY: this task is the only one holding source `s` (each
        // repair source is one task), `rs` is this worker's own
        // scratch, and the context pointers are live until the job
        // ends (see `RepairCtx`).
        match unsafe { del_repair_source(ctx, rs, s) } {
            None => return false,
            Some(c) => changed = c,
        }
    }
    if ctx.adds_len > 0 {
        // SAFETY: as for the decremental phase above.
        match unsafe { add_repair_source(ctx, rs, s, changed) } {
            None => return false,
            Some(c) => changed |= c,
        }
    }
    rs.touched += u32::from(changed);
    true
}

// ---- persistent evaluation worker pool ---------------------------------

/// One evaluation job, published to the pool by the evaluating thread.
/// Task ids below the batch count (`⌈srcs_len/64⌉`) are 64-wide sweep
/// batches; the rest index into `repair`. All pointers stay valid until
/// the job completes (the publisher blocks).
#[derive(Debug, Clone, Copy)]
struct JobPacket {
    csr: *const SlotCsr,
    counts: *const u32,
    counts_len: usize,
    srcs: *const u32,
    srcs_len: usize,
    scratch: *mut EvalScratch,
    cache: Option<CachePtrs>,
    repair: *const u32,
    repair_len: usize,
    rctx: Option<RepairCtx>,
    rscratch: *mut RepairScratch,
}

// SAFETY: the publisher (`EvalPool::run`) blocks until every worker
// finished the job and clears `PoolCtl::job` before returning, so the
// buffers behind every pointer outlive all uses. Worker `w` writes only
// `scratch[w]`, `rscratch[w]` and the cache rows of the sources its
// tasks own; every task index is popped or stolen exactly once, so
// those sources are disjoint.
unsafe impl Send for JobPacket {}
// SAFETY: as for `Send`: shared access writes only worker-indexed
// scratch and task-owned rows.
unsafe impl Sync for JobPacket {}

#[derive(Debug)]
struct PoolCtl {
    seq: u64,
    shutdown: bool,
    job: Option<JobPacket>,
    active: usize,
    partials: Vec<BatchSums>,
}

/// One worker's cumulative scheduler counters. Written with relaxed
/// atomics — once per job by the owning worker, pushes/peak by the
/// publisher at seed time — and read by [`SearchState::pool_stats`].
/// Untouched (a single relaxed load per job) unless telemetry is on.
#[derive(Debug, Default)]
struct LaneStats {
    pushes: AtomicU64,
    pops: AtomicU64,
    steals: AtomicU64,
    steal_fails: AtomicU64,
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
    peak_depth: AtomicU64,
}

#[derive(Debug)]
struct PoolShared {
    ctl: Mutex<PoolCtl>,
    go: Condvar,
    done: Condvar,
    /// One work-stealing deque per worker (index 0 = the publisher).
    /// The publisher seeds each with a contiguous shard of the task
    /// list before the job is published; tasks are never re-pushed, so
    /// an observed-empty deque stays empty for the rest of the job.
    deques: Vec<Deque<u32>>,
    overflow: AtomicBool,
    /// Per-worker scheduler telemetry; populated only while
    /// [`PoolShared::telemetry`] is set.
    lanes: Vec<LaneStats>,
    telemetry: AtomicBool,
}

/// Persistent evaluation workers: spawned once per [`SearchState`],
/// parked on a condvar between proposals, woken by sequence number.
/// Replaces the per-proposal `std::thread::scope` spawn of the previous
/// engine — the steady-state eval path creates no threads at all.
#[derive(Debug)]
struct EvalPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// Executes this worker's share of `job`: drains the worker's own deque
/// (LIFO), then steals the oldest tasks from siblings until every deque
/// has been observed empty.
fn pool_process(job: &JobPacket, worker: usize, shared: &PoolShared) -> BatchSums {
    let telemetry = shared.telemetry.load(Ordering::Relaxed);
    let job_start = telemetry.then(Instant::now);
    let (mut busy_ns, mut pops, mut steals, mut steal_fails) = (0u64, 0u64, 0u64, 0u64);
    // SAFETY: the publisher keeps every pointer alive until the job is
    // complete (it blocks in `EvalPool::run`), `worker` is below the
    // scratch vectors' length (one entry per worker), and
    // `scratch.add(worker)` is this worker's exclusive buffer.
    let (csr, counts, srcs, scratch) = unsafe {
        (
            &*job.csr,
            std::slice::from_raw_parts(job.counts, job.counts_len),
            std::slice::from_raw_parts(job.srcs, job.srcs_len),
            &mut *job.scratch.add(worker),
        )
    };
    let repair: &[u32] = if job.repair_len == 0 {
        &[]
    } else {
        // SAFETY: `repair` points at the publisher's `repair_buf`,
        // which stays alive and unmutated until the job completes.
        unsafe { std::slice::from_raw_parts(job.repair, job.repair_len) }
    };
    let nbatches = srcs.len().div_ceil(64);
    let mut acc = BatchSums::default();
    let exec = |t: usize, acc: &mut BatchSums, scratch: &mut EvalScratch| {
        if t < nbatches {
            let lo = t * 64;
            let hi = (lo + 64).min(srcs.len());
            match &job.cache {
                Some(c) => {
                    if !sweep_batch_cached(csr, counts, &srcs[lo..hi], scratch, c) {
                        shared.overflow.store(true, Ordering::Relaxed);
                    }
                }
                None => acc.absorb(sweep_batch(csr, counts, &srcs[lo..hi], scratch)),
            }
        } else {
            let s = repair[t - nbatches] as usize;
            let ctx = job.rctx.as_ref().expect("repair task without context");
            // SAFETY: `rscratch.add(worker)` is this worker's own repair
            // scratch (one per worker, live until the job completes),
            // and this task owns source `s` — each task index is popped
            // or stolen exactly once.
            let rs = unsafe { &mut *job.rscratch.add(worker) };
            if !repair_one_source(ctx, rs, s) {
                shared.overflow.store(true, Ordering::Relaxed);
            }
        }
    };
    // When telemetry is on, each task execution is bracketed by two
    // clock reads (tens of ns against µs-scale BFS batches); when off,
    // `exec` runs bare and the whole function costs one relaxed load.
    let timed_exec =
        |t: usize, acc: &mut BatchSums, scratch: &mut EvalScratch, busy_ns: &mut u64| {
            if telemetry {
                let t0 = Instant::now();
                exec(t, acc, scratch);
                *busy_ns += t0.elapsed().as_nanos() as u64;
            } else {
                exec(t, acc, scratch);
            }
        };
    while let Some(t) = shared.deques[worker].pop() {
        pops += 1;
        timed_exec(t as usize, &mut acc, scratch, &mut busy_ns);
    }
    let nw = shared.deques.len();
    if nw > 1 {
        let mut victim = (worker + 1) % nw;
        let mut empties = 0usize;
        while empties < nw - 1 {
            if victim == worker {
                victim = (victim + 1) % nw;
                continue;
            }
            match shared.deques[victim].steal() {
                Steal::Success(t) => {
                    steals += 1;
                    timed_exec(t as usize, &mut acc, scratch, &mut busy_ns);
                    empties = 0;
                }
                Steal::Retry => {
                    steal_fails += 1;
                    std::hint::spin_loop();
                    empties = 0;
                }
                Steal::Empty => {
                    steal_fails += 1;
                    empties += 1;
                    victim = (victim + 1) % nw;
                }
            }
        }
    }
    if let Some(t0) = job_start {
        let total_ns = t0.elapsed().as_nanos() as u64;
        let lane = &shared.lanes[worker];
        lane.pops.fetch_add(pops, Ordering::Relaxed);
        lane.steals.fetch_add(steals, Ordering::Relaxed);
        lane.steal_fails.fetch_add(steal_fails, Ordering::Relaxed);
        lane.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
        lane.idle_ns
            .fetch_add(total_ns.saturating_sub(busy_ns), Ordering::Relaxed);
    }
    acc
}

impl EvalPool {
    /// Spawns `extra` parked workers (the evaluating thread itself acts
    /// as worker 0); each deque holds up to `task_cap` tasks.
    fn spawn(extra: usize, task_cap: usize) -> Self {
        let shared = Arc::new(PoolShared {
            ctl: Mutex::new(PoolCtl {
                seq: 0,
                shutdown: false,
                job: None,
                active: 0,
                partials: vec![BatchSums::default(); extra + 1],
            }),
            go: Condvar::new(),
            done: Condvar::new(),
            deques: (0..=extra)
                .map(|_| Deque::with_capacity(task_cap))
                .collect(),
            overflow: AtomicBool::new(false),
            lanes: (0..=extra).map(|_| LaneStats::default()).collect(),
            telemetry: AtomicBool::new(false),
        });
        let handles = (1..=extra)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut last_seen = 0u64;
                    loop {
                        let job = {
                            let mut ctl = shared.ctl.lock().expect("pool lock");
                            loop {
                                if ctl.shutdown {
                                    return;
                                }
                                if ctl.seq != last_seen {
                                    if let Some(job) = ctl.job {
                                        last_seen = ctl.seq;
                                        break job;
                                    }
                                }
                                ctl = shared.go.wait(ctl).expect("pool wait");
                            }
                        };
                        let acc = pool_process(&job, w, &shared);
                        let mut ctl = shared.ctl.lock().expect("pool lock");
                        ctl.partials[w] = acc;
                        ctl.active -= 1;
                        if ctl.active == 0 {
                            shared.done.notify_one();
                        }
                    }
                })
            })
            .collect();
        Self { shared, handles }
    }

    /// Runs one job of `ntasks` tasks across the pool (the caller
    /// participates as worker 0) and returns the combined sums plus the
    /// overflow flag.
    fn run(&self, job: JobPacket, ntasks: usize) -> (BatchSums, bool) {
        self.shared.overflow.store(false, Ordering::Relaxed);
        // Seed each worker's deque with a contiguous shard of the task
        // list (worker i owns tasks [i·per, (i+1)·per)): contiguous
        // source ranges keep each worker's row writes dense in memory,
        // and stealing rebalances the tail. The job publish below
        // (mutex + condvar) orders these pushes before any worker's
        // first pop or steal.
        let nw = self.handles.len() + 1;
        let per = ntasks.div_ceil(nw);
        let telemetry = self.shared.telemetry.load(Ordering::Relaxed);
        for (w, dq) in self.shared.deques.iter().enumerate() {
            debug_assert!(dq.is_empty());
            let lo = (w * per).min(ntasks);
            let hi = ((w + 1) * per).min(ntasks);
            for t in lo..hi {
                assert!(dq.push(t as u32), "deque sized below the job's task count");
            }
            if telemetry && hi > lo {
                // Tasks are never re-pushed mid-job, so the seeded
                // shard size is this job's peak depth for the deque.
                let lane = &self.shared.lanes[w];
                lane.pushes.fetch_add((hi - lo) as u64, Ordering::Relaxed);
                lane.peak_depth
                    .fetch_max((hi - lo) as u64, Ordering::Relaxed);
            }
        }
        {
            let mut ctl = self.shared.ctl.lock().expect("pool lock");
            ctl.seq += 1;
            ctl.job = Some(job);
            ctl.active = self.handles.len();
            for p in &mut ctl.partials {
                *p = BatchSums::default();
            }
        }
        self.shared.go.notify_all();
        let mine = pool_process(&job, 0, &self.shared);
        let mut ctl = self.shared.ctl.lock().expect("pool lock");
        while ctl.active > 0 {
            ctl = self.shared.done.wait(ctl).expect("pool wait");
        }
        ctl.job = None;
        let mut totals = mine;
        for p in &ctl.partials {
            totals.absorb(*p);
        }
        (totals, self.shared.overflow.load(Ordering::Relaxed))
    }
}

impl Drop for EvalPool {
    fn drop(&mut self) {
        {
            let mut ctl = self.shared.ctl.lock().expect("pool lock");
            ctl.shutdown = true;
        }
        self.shared.go.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

// ---- evaluation outcome & stats ----------------------------------------

/// Which code path scored the last proposal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalPathKind {
    /// Full batched sweep over every hostful source.
    #[default]
    Full,
    /// Affected-source re-sweep over the distance cache.
    Incremental,
    /// Guarded evaluation proved the move hopeless without any BFS.
    EarlyRejected,
}

/// Running counters for the evaluation paths, exposed for telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalStats {
    /// Evaluations that swept every hostful source.
    pub full: u64,
    /// Evaluations served by the affected-source re-sweep.
    pub incremental: u64,
    /// Guarded evaluations rejected from the lower bound alone.
    pub early_rejected: u64,
    /// Sources fixed by the in-place repair path instead of a re-BFS
    /// (a subset of the incremental evaluations' affected sources).
    pub repaired: u64,
    /// Cache rows rewritten by a full re-BFS sweep (the expensive
    /// complement of [`EvalStats::repaired`]).
    pub swept: u64,
    /// Jobs dispatched to the work-stealing worker pool.
    pub pool_jobs: u64,
    /// Path taken by the most recent evaluation.
    pub last_kind: EvalPathKind,
    /// Sources re-swept by the most recent evaluation.
    pub last_affected: u32,
    /// Source universe of the most recent evaluation (every switch on
    /// the cached path, hostful switches on the plain path).
    pub last_sources: u32,
}

/// One worker's cumulative scheduler counters, as returned by
/// [`SearchState::pool_stats`]. All values are totals since the pool
/// was spawned (telemetry-off stretches contribute nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolWorkerStats {
    /// Tasks seeded into this worker's deque by job publishers.
    pub pushes: u64,
    /// Tasks this worker took from its own deque.
    pub pops: u64,
    /// Tasks this worker stole from siblings.
    pub steals: u64,
    /// Steal attempts that lost a race or found the victim empty.
    pub steal_fails: u64,
    /// Wall nanoseconds spent executing tasks.
    pub busy_ns: u64,
    /// Wall nanoseconds inside jobs but not executing (stealing,
    /// spinning, observing empty deques).
    pub idle_ns: u64,
    /// Largest task count ever seeded into this worker's deque.
    pub peak_depth: u64,
}

/// Result of [`SearchState::evaluate_guarded`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EvalOutcome {
    /// The graph was scored.
    Metrics(PathMetrics),
    /// Some host pair is unreachable.
    Disconnected,
    /// The proposal was provably worse than the caller's threshold; no
    /// BFS ran and the cache is untouched. Contains the proven h-ASPL
    /// lower bound.
    EarlyRejected(f64),
}

/// One entry of the undo log; each names the *applied* mutation, so
/// rollback performs its inverse.
#[derive(Debug, Clone, Copy)]
enum UndoOp {
    AddedLink(Switch, Switch),
    RemovedLink(Switch, Switch),
    /// Host `.0` was moved; it previously sat on switch `.1`.
    MovedHost(Host, Switch),
}

/// The single source of truth for everything the local search reads or
/// mutates: the [`HostSwitchGraph`], a mutation-tracked [`SlotCsr`], the
/// per-switch host counts, and the [`EdgeSet`] used for move sampling.
///
/// Moves go through [`SearchState::apply_swap`] /
/// [`SearchState::apply_swing`] inside a [`SearchState::begin`] …
/// [`SearchState::commit`]/[`SearchState::rollback`] transaction, which
/// keeps all four structures consistent by construction; the structures
/// are never rebuilt after [`SearchState::with_search`]. Scoring via
/// [`SearchState::evaluate`] reuses per-worker [`EvalScratch`] buffers —
/// after warm-up a proposal allocates nothing — and, whenever the
/// [`SearchConfig`] provisions a distance cache,
/// re-sweeps only the sources whose distance vectors the move can
/// actually change (see the module docs). On multi-worker engines the
/// re-sweeps *and* per-source repairs of one evaluation are scheduled
/// over the pool's work-stealing deques as a single job.
#[derive(Debug)]
pub struct SearchState {
    g: HostSwitchGraph,
    csr: SlotCsr,
    counts: Vec<u32>,
    edges: EdgeSet,
    hostful: u64,
    undo: Vec<UndoOp>,
    txn_marks: Vec<usize>,
    workers: usize,
    scratch: Vec<EvalScratch>,
    srcs: Vec<u32>,
    cache: Option<DistCache>,
    pool: Option<EvalPool>,
    rebfs_buf: Vec<u32>,
    repair_buf: Vec<u32>,
    /// Per-worker repair scratch (index 0 doubles as the sequential
    /// path's scratch).
    rscratch: Vec<RepairScratch>,
    /// Pending delta split for the repair tasks, reused per evaluation.
    adds_buf: Vec<(u32, u32, u32)>,
    dels_buf: Vec<(u32, u32)>,
    /// Reusable `(source, worker, segment)` keys for the deterministic
    /// post-job journal merge.
    journal_order: Vec<(u32, u32, u32)>,
    stats: EvalStats,
}

impl SearchState {
    /// Builds the engine around `start` with `workers` evaluation
    /// threads (clamped to at least 1; see [`resolve_parallel_eval`]
    /// for the auto choice) and the cache provisioning policy `cfg`
    /// (see [`SearchConfig::provisions_cache`]).
    ///
    /// Fails with [`GraphError::Disconnected`] if some host pair is
    /// unreachable (the annealer requires a connected start), and with
    /// [`GraphError::InvalidParameters`] on fewer than two hosts.
    pub fn with_search(
        start: HostSwitchGraph,
        workers: usize,
        cfg: SearchConfig,
    ) -> Result<Self, GraphError> {
        if start.num_hosts() < 2 {
            return Err(GraphError::InvalidParameters(
                "search needs at least two hosts".into(),
            ));
        }
        let counts = start.host_counts();
        let workers = workers.max(1);
        let m = start.num_switches() as usize;
        // worst case per job: every source re-swept in 64-wide batches
        // plus every source repaired
        let task_cap = m + m.div_ceil(64);
        let mut state = Self {
            csr: SlotCsr::from_graph(&start),
            edges: EdgeSet::from_graph(&start),
            hostful: counts.iter().filter(|&&k| k > 0).count() as u64,
            counts,
            g: start,
            undo: Vec::new(),
            txn_marks: Vec::new(),
            workers,
            scratch: vec![EvalScratch::default(); workers],
            srcs: Vec::new(),
            cache: cfg.provisions_cache(m).then(|| DistCache::new(m)),
            pool: (workers > 1).then(|| EvalPool::spawn(workers - 1, task_cap)),
            rebfs_buf: Vec::new(),
            repair_buf: Vec::new(),
            rscratch: (0..workers).map(|_| RepairScratch::default()).collect(),
            adds_buf: Vec::new(),
            dels_buf: Vec::new(),
            journal_order: Vec::new(),
            stats: EvalStats::default(),
        };
        if state.evaluate().is_none() {
            return Err(GraphError::Disconnected);
        }
        Ok(state)
    }

    /// Checkpoint-restore constructor: as [`SearchState::with_search`]
    /// but with an explicit [`EdgeSet`] storage order.
    ///
    /// The edge set's internal order after a long run is a function of
    /// the whole move history (swap-remove on every removal), and move
    /// sampling indexes into it — so resuming a run bit-identically
    /// requires restoring that exact order, not rebuilding it from the
    /// graph. `edge_order` must hold exactly the graph's links, each
    /// once, in the checkpointed order.
    pub fn with_search_edge_order(
        start: HostSwitchGraph,
        workers: usize,
        cfg: SearchConfig,
        edge_order: &[(Switch, Switch)],
    ) -> Result<Self, GraphError> {
        let edges = EdgeSet::from_ordered(edge_order).ok_or_else(|| {
            GraphError::InvalidParameters("edge order contains duplicates".into())
        })?;
        if edges.len() != start.num_links()
            || edge_order.iter().any(|&(a, b)| !start.has_link(a, b))
        {
            return Err(GraphError::InvalidParameters(
                "edge order does not match the graph's links".into(),
            ));
        }
        let mut state = Self::with_search(start, workers, cfg)?;
        state.edges = edges;
        Ok(state)
    }

    /// The owned graph. Mutate it only through this engine.
    #[inline]
    pub fn graph(&self) -> &HostSwitchGraph {
        &self.g
    }

    /// The link multiset kept in sync with the graph (for move sampling).
    #[inline]
    pub fn edges(&self) -> &EdgeSet {
        &self.edges
    }

    /// The in-place-maintained adjacency.
    #[inline]
    pub fn csr(&self) -> &SlotCsr {
        &self.csr
    }

    /// `k_s` per switch, maintained incrementally.
    #[inline]
    pub fn host_counts(&self) -> &[u32] {
        &self.counts
    }

    /// Number of evaluation worker threads this state resolved to.
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether the incremental distance cache is live for this instance.
    #[inline]
    pub fn cache_active(&self) -> bool {
        self.cache.as_ref().is_some_and(|c| !c.disabled)
    }

    /// Evaluation-path counters (full vs incremental vs early-rejected).
    #[inline]
    pub fn eval_stats(&self) -> &EvalStats {
        &self.stats
    }

    /// Turns per-worker scheduler telemetry on or off. Off (the
    /// default), the pool's hot path pays one relaxed load per job;
    /// on, each task execution is clock-bracketed and the counters
    /// land in [`SearchState::pool_stats`].
    pub fn set_pool_telemetry(&self, on: bool) {
        if let Some(pool) = &self.pool {
            pool.shared.telemetry.store(on, Ordering::Relaxed);
        }
    }

    /// Cumulative per-worker scheduler counters (index 0 = the
    /// evaluating thread). Empty on single-worker engines; all zeros
    /// until [`SearchState::set_pool_telemetry`] enables collection.
    pub fn pool_stats(&self) -> Vec<PoolWorkerStats> {
        self.pool.as_ref().map_or_else(Vec::new, |pool| {
            pool.shared
                .lanes
                .iter()
                .map(|l| PoolWorkerStats {
                    pushes: l.pushes.load(Ordering::Relaxed),
                    pops: l.pops.load(Ordering::Relaxed),
                    steals: l.steals.load(Ordering::Relaxed),
                    steal_fails: l.steal_fails.load(Ordering::Relaxed),
                    busy_ns: l.busy_ns.load(Ordering::Relaxed),
                    idle_ns: l.idle_ns.load(Ordering::Relaxed),
                    peak_depth: l.peak_depth.load(Ordering::Relaxed),
                })
                .collect()
        })
    }

    /// Resident bytes of the live distance cache (row store, per-source
    /// aggregates, and transactional undo journal). 0 when no cache is
    /// provisioned or it disabled itself.
    pub fn cache_resident_bytes(&self) -> usize {
        self.cache
            .as_ref()
            .filter(|c| !c.disabled)
            .map_or(0, DistCache::resident_bytes)
    }

    /// Consumes the engine, returning the graph.
    pub fn into_graph(self) -> HostSwitchGraph {
        self.g
    }

    // ---- transactional mutation ------------------------------------

    /// Opens a transaction. Transactions nest; each `begin` must be
    /// matched by exactly one [`Self::commit`] or [`Self::rollback`].
    pub fn begin(&mut self) {
        self.txn_marks.push(self.undo.len());
        if let Some(c) = &mut self.cache {
            c.mark();
        }
    }

    /// Whether a transaction is currently open.
    #[inline]
    pub fn in_txn(&self) -> bool {
        !self.txn_marks.is_empty()
    }

    /// Makes the innermost transaction's mutations permanent (or part of
    /// the enclosing transaction, if one is open).
    pub fn commit(&mut self) {
        self.txn_marks.pop().expect("commit without begin");
        if let Some(c) = &mut self.cache {
            c.commit_mark();
        }
        if self.txn_marks.is_empty() {
            self.undo.clear();
        }
    }

    /// Reverts every mutation of the innermost transaction, restoring the
    /// graph, CSR, host counts, and edge set to their state at `begin`.
    /// The distance cache replays its undo journal, restoring every
    /// entry an in-transaction evaluation overwrote, and rewinds its
    /// pending edge delta, so a rejected proposal leaves the cache
    /// exactly as `begin` found it — the *next* proposal's affected set
    /// is not inflated by the rejected one.
    pub fn rollback(&mut self) {
        let mark = self.txn_marks.pop().expect("rollback without begin");
        while self.undo.len() > mark {
            match self.undo.pop().expect("len > mark") {
                UndoOp::AddedLink(a, b) => self.raw_unlink(a, b),
                UndoOp::RemovedLink(a, b) => self.raw_link(a, b),
                UndoOp::MovedHost(h, from) => self.raw_move_host(h, from),
            }
        }
        if let Some(c) = &mut self.cache {
            c.rollback_mark(&self.counts);
        }
    }

    fn raw_link(&mut self, a: Switch, b: Switch) {
        self.g.add_link(a, b).expect("undo-logged link re-add");
        self.csr.add_link(a, b);
        self.edges.insert(a, b);
        if let Some(c) = &mut self.cache {
            c.note_edge(a, b, 1);
        }
    }

    fn raw_unlink(&mut self, a: Switch, b: Switch) {
        self.g.remove_link(a, b).expect("undo-logged link removal");
        self.csr.remove_link(a, b);
        self.edges.remove(a, b);
        if let Some(c) = &mut self.cache {
            c.note_edge(a, b, -1);
        }
    }

    fn raw_move_host(&mut self, h: Host, to: Switch) {
        let from = self.g.switch_of(h);
        self.g.move_host(h, to).expect("undo-logged host move");
        let from_old = self.counts[from as usize];
        let to_old = self.counts[to as usize];
        self.counts[from as usize] -= 1;
        if self.counts[from as usize] == 0 {
            self.hostful -= 1;
        }
        if self.counts[to as usize] == 0 {
            self.hostful += 1;
        }
        self.counts[to as usize] += 1;
        if let Some(c) = &mut self.cache {
            c.note_host_delta(from, from_old, from_old - 1);
            c.note_host_delta(to, to_old, to_old + 1);
        }
    }

    fn link(&mut self, a: Switch, b: Switch) {
        self.raw_link(a, b);
        self.undo.push(UndoOp::AddedLink(a, b));
    }

    fn unlink(&mut self, a: Switch, b: Switch) {
        self.raw_unlink(a, b);
        self.undo.push(UndoOp::RemovedLink(a, b));
    }

    fn move_host(&mut self, h: Host, to: Switch) {
        let from = self.g.switch_of(h);
        self.raw_move_host(h, to);
        self.undo.push(UndoOp::MovedHost(h, from));
    }

    /// Applies a swap (Fig. 2) to every owned structure. Must be inside a
    /// transaction; invalid swaps leave the state untouched.
    pub fn apply_swap(&mut self, s: Swap) -> Result<(), GraphError> {
        assert!(self.in_txn(), "apply_swap outside a transaction");
        if !s.is_valid(&self.g) {
            return Err(GraphError::InvalidParameters(format!("invalid swap {s:?}")));
        }
        self.unlink(s.a, s.b);
        self.unlink(s.c, s.d);
        self.link(s.a, s.d);
        self.link(s.c, s.b);
        Ok(())
    }

    /// Applies a swing (Fig. 3) to every owned structure, returning the
    /// host that moved. Must be inside a transaction; invalid swings leave
    /// the state untouched.
    pub fn apply_swing(&mut self, s: Swing) -> Result<Host, GraphError> {
        assert!(self.in_txn(), "apply_swing outside a transaction");
        if !s.is_valid(&self.g) {
            return Err(GraphError::InvalidParameters(format!(
                "invalid swing {s:?}"
            )));
        }
        let h = *self.g.hosts_of(s.c).last().expect("validated non-empty");
        self.unlink(s.a, s.b);
        self.move_host(h, s.b);
        self.link(s.a, s.c);
        Ok(h)
    }

    // ---- evaluation -------------------------------------------------

    /// Scores the current (possibly uncommitted) graph: h-ASPL, diameter,
    /// and total pair length, or `None` if some host pair is unreachable.
    ///
    /// On cache-backed instances only the sources affected by the edge
    /// delta since the last evaluation are re-swept; otherwise (and as
    /// the fallback) the full batched BFS runs over the in-place CSR and
    /// reused scratch.
    pub fn evaluate(&mut self) -> Option<PathMetrics> {
        match self.evaluate_guarded(None) {
            EvalOutcome::Metrics(m) => Some(m),
            EvalOutcome::Disconnected => None,
            EvalOutcome::EarlyRejected(_) => unreachable!("no reject threshold given"),
        }
    }

    /// As [`Self::evaluate`], but with an optional early-reject
    /// threshold: if the engine can prove from the cached distances alone
    /// that the new h-ASPL exceeds `reject_above` (possible when no
    /// added link shortcuts any source and some removed link strictly
    /// lengthens a path), it returns [`EvalOutcome::EarlyRejected`]
    /// without running any BFS and without touching the cache — the
    /// caller is expected to roll the proposal back.
    pub fn evaluate_guarded(&mut self, reject_above: Option<f64>) -> EvalOutcome {
        let n = self.g.num_hosts() as u64;
        self.srcs.clear();
        let counts = &self.counts;
        self.srcs
            .extend((0..self.csr.len() as u32).filter(|&s| counts[s as usize] > 0));
        if self.cache_active() {
            if let Some(outcome) = self.evaluate_cached(n, reject_above) {
                return outcome;
            }
            // the cached sweep overflowed the rows' distance cap: drop
            // the cache and fall through to the plain path
            if let Some(c) = &mut self.cache {
                c.release();
            }
        }
        let totals = self.sweep_all_plain();
        self.stats.full += 1;
        self.stats.last_kind = EvalPathKind::Full;
        self.stats.last_affected = self.srcs.len() as u32;
        self.stats.last_sources = self.srcs.len() as u32;
        self.finish(n, totals)
    }

    /// The cache-backed evaluation path; `None` means the cache
    /// overflowed and the caller must fall back to the plain sweep.
    ///
    /// Re-sweeps and per-source repairs are one combined job: sweeps
    /// rewrite *invalid* rows, repairs rewrite *valid* rows, and both
    /// touch only their own source's row and aggregates, so the tasks
    /// are independent and the pool schedules them over its
    /// work-stealing deques in any order. All reductions (path sums,
    /// journal merge) happen in deterministic sequential order
    /// afterwards, so the result is bit-identical for any worker count.
    fn evaluate_cached(&mut self, n: u64, reject_above: Option<f64>) -> Option<EvalOutcome> {
        let in_txn = self.in_txn();
        let cache = self.cache.as_mut().expect("cache_active checked");
        let scan = cache.scan_delta(
            &self.csr,
            &self.counts,
            &mut self.rebfs_buf,
            &mut self.repair_buf,
        );
        if let Some(limit) = reject_above {
            if scan.guardable && !scan.invalid_hostful {
                let weighted = cache.lower_bound_weighted(&self.counts, &scan);
                let lb = finalize_metrics(n, &self.counts, weighted, 0, weighted > 0).haspl;
                if lb > limit {
                    self.stats.early_rejected += 1;
                    self.stats.last_kind = EvalPathKind::EarlyRejected;
                    self.stats.last_affected = 0;
                    self.stats.last_sources = self.srcs.len() as u32;
                    return Some(EvalOutcome::EarlyRejected(lb));
                }
            }
        }
        let full = self.rebfs_buf.len() == self.csr.len();
        let m = self.csr.len();
        let cache = self.cache.as_mut().expect("cache_active checked");
        if in_txn {
            // Rows rewritten wholesale by re-BFS are copied here; the
            // repair path journals single entries at its write sites,
            // so conservatively-routed rows a witness protects never
            // pay for anything.
            for &s in self.rebfs_buf.iter() {
                cache.save_row(s);
            }
        }
        // split the pending delta once for every repair task
        self.adds_buf.clear();
        self.dels_buf.clear();
        for &(a, b, net) in &cache.edge_delta {
            if net > 0 {
                self.adds_buf.push((a, b, net as u32));
            } else if net < 0 {
                self.dels_buf.push((a, b));
            }
        }
        let ptrs = cache.ptrs();
        let rctx = RepairCtx {
            cache: ptrs,
            flags: cache.flags.as_ptr(),
            csr: &self.csr,
            counts: self.counts.as_ptr(),
            counts_len: self.counts.len(),
            adds: self.adds_buf.as_ptr(),
            adds_len: self.adds_buf.len(),
            dels: self.dels_buf.as_ptr(),
            dels_len: self.dels_buf.len(),
            journal: in_txn,
        };
        for rs in &mut self.rscratch {
            rs.ensure(m);
            rs.reset_job();
        }
        let nbatches = self.rebfs_buf.len().div_ceil(64);
        let ntasks = nbatches + self.repair_buf.len();
        let ok = if ntasks == 0 {
            true
        } else if self.workers > 1 && (self.rebfs_buf.len() > 64 || ntasks >= POOL_TASK_THRESHOLD) {
            self.stats.pool_jobs += 1;
            let job = JobPacket {
                csr: &self.csr,
                counts: self.counts.as_ptr(),
                counts_len: self.counts.len(),
                srcs: self.rebfs_buf.as_ptr(),
                srcs_len: self.rebfs_buf.len(),
                scratch: self.scratch.as_mut_ptr(),
                cache: Some(ptrs),
                repair: self.repair_buf.as_ptr(),
                repair_len: self.repair_buf.len(),
                rctx: Some(rctx),
                rscratch: self.rscratch.as_mut_ptr(),
            };
            let (_, overflow) = self.pool.as_ref().expect("workers > 1").run(job, ntasks);
            !overflow
        } else {
            let mut ok = true;
            for lo in (0..self.rebfs_buf.len()).step_by(64) {
                let hi = (lo + 64).min(self.rebfs_buf.len());
                ok &= sweep_batch_cached(
                    &self.csr,
                    &self.counts,
                    &self.rebfs_buf[lo..hi],
                    &mut self.scratch[0],
                    &ptrs,
                );
            }
            if ok {
                for &s in &self.repair_buf {
                    if !repair_one_source(&rctx, &mut self.rscratch[0], s as usize) {
                        ok = false;
                        break;
                    }
                }
            }
            ok
        };
        if !ok {
            return None;
        }
        let cache = self.cache.as_mut().expect("cache_active checked");
        if in_txn {
            // Merge the worker-local journals into the cache's journal
            // in ascending source order — deterministic no matter which
            // worker executed (or stole) each repair task. Within one
            // evaluation each source has one segment, and across
            // evaluations append order preserves time order, so
            // rollback's reverse replay restores the earliest
            // (pre-transaction) value of every entry last.
            self.journal_order.clear();
            for (w, rs) in self.rscratch.iter().enumerate() {
                for (i, &(s, _)) in rs.segs.iter().enumerate() {
                    self.journal_order.push((s, w as u32, i as u32));
                }
            }
            self.journal_order.sort_unstable();
            for &(_, w, i) in &self.journal_order {
                let rs = &self.rscratch[w as usize];
                let start = rs.segs[i as usize].1;
                let end = rs
                    .segs
                    .get(i as usize + 1)
                    .map_or(rs.journal.len(), |&(_, e)| e);
                cache.journal.extend_from_slice(&rs.journal[start..end]);
            }
        }
        cache.touched = self.rscratch.iter().map(|rs| rs.touched).sum();
        cache.edge_delta.clear();
        let totals = cache.totals(&self.counts);
        if full {
            self.stats.full += 1;
            self.stats.last_kind = EvalPathKind::Full;
        } else {
            self.stats.incremental += 1;
            self.stats.last_kind = EvalPathKind::Incremental;
        }
        let touched = self.cache.as_ref().expect("cache_active checked").touched;
        self.stats.repaired += u64::from(touched);
        self.stats.swept += self.rebfs_buf.len() as u64;
        self.stats.last_affected = self.rebfs_buf.len() as u32 + touched;
        self.stats.last_sources = self.csr.len() as u32;
        Some(self.finish(n, totals))
    }

    /// Full batched sweep with no cache involvement, on the pool when
    /// the instance is large enough.
    fn sweep_all_plain(&mut self) -> BatchSums {
        if self.workers > 1 && self.srcs.len() > 64 {
            self.stats.pool_jobs += 1;
            let job = JobPacket {
                csr: &self.csr,
                counts: self.counts.as_ptr(),
                counts_len: self.counts.len(),
                srcs: self.srcs.as_ptr(),
                srcs_len: self.srcs.len(),
                scratch: self.scratch.as_mut_ptr(),
                cache: None,
                repair: std::ptr::null(),
                repair_len: 0,
                rctx: None,
                rscratch: self.rscratch.as_mut_ptr(),
            };
            let ntasks = self.srcs.len().div_ceil(64);
            self.pool.as_ref().expect("workers > 1").run(job, ntasks).0
        } else {
            let mut totals = BatchSums::default();
            for lo in (0..self.srcs.len()).step_by(64) {
                let hi = (lo + 64).min(self.srcs.len());
                totals.absorb(sweep_batch(
                    &self.csr,
                    &self.counts,
                    &self.srcs[lo..hi],
                    &mut self.scratch[0],
                ));
            }
            totals
        }
    }

    /// Connectivity check plus the shared metric accounting.
    fn finish(&self, n: u64, totals: BatchSums) -> EvalOutcome {
        // every source must have reached every hostful switch
        if totals.reached != self.srcs.len() as u64 * self.hostful {
            return EvalOutcome::Disconnected;
        }
        EvalOutcome::Metrics(finalize_metrics(
            n,
            &self.counts,
            totals.weighted,
            totals.max_d,
            totals.weighted > 0,
        ))
    }

    /// Debug-grade cross-check that every incremental structure matches a
    /// from-scratch derivation (used by the property suites): host
    /// counts, adjacency, edge set, and — when the distance cache is live
    /// — its aggregates against its rows and, once the pending edge delta
    /// is settled, its rows against fresh single-source BFS distances.
    pub fn check_consistency(&self) -> Result<(), String> {
        let fresh_counts = self.g.host_counts();
        if self.counts != fresh_counts {
            return Err(format!(
                "host counts diverged: incremental {:?} vs fresh {:?}",
                self.counts, fresh_counts
            ));
        }
        let fresh = SwitchCsr::from_graph(&self.g);
        for s in 0..self.csr.len() as u32 {
            let mut a: Vec<u32> = self.csr.neighbors(s).to_vec();
            let mut b: Vec<u32> = fresh.neighbors(s).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            if a != b {
                return Err(format!("adjacency of switch {s} diverged: {a:?} vs {b:?}"));
            }
        }
        let mut ours: Vec<(u32, u32)> = self.edges.edges().to_vec();
        let mut theirs: Vec<(u32, u32)> = self.g.links().collect();
        ours.sort_unstable();
        theirs.sort_unstable();
        if ours != theirs {
            return Err(format!("edge set diverged: {ours:?} vs {theirs:?}"));
        }
        self.check_cache_consistency()
    }

    /// Distance-cache part of [`Self::check_consistency`].
    fn check_cache_consistency(&self) -> Result<(), String> {
        let Some(cache) = &self.cache else {
            return Ok(());
        };
        if cache.disabled {
            return Ok(());
        }
        let m = cache.m;
        let settled = cache.edge_delta.is_empty();
        for s in 0..m {
            if !cache.valid[s] {
                continue;
            }
            // aggregates must match the row as stored + current counts
            let mut wsum = 0u64;
            let mut hist = vec![0u32; MAX_DIST];
            let mut nreach = 0u32;
            let mut ecc = 0u16;
            for (v, &k) in self.counts.iter().enumerate().take(m) {
                let d = cache.dist(s, v);
                if v == s || d == INVALID_DIST || k == 0 {
                    continue;
                }
                wsum += k as u64 * (d as u64 + 2);
                hist[d as usize] += 1;
                nreach += 1;
                ecc = ecc.max(d);
            }
            if wsum != cache.wsum[s]
                || nreach != cache.nreach[s]
                || ecc != cache.ecc[s]
                || hist != cache.hist[s * MAX_DIST..(s + 1) * MAX_DIST]
            {
                return Err(format!(
                    "cache aggregates of source {s} diverged from its row \
                     (wsum {} vs {}, nreach {} vs {}, ecc {} vs {})",
                    cache.wsum[s], wsum, cache.nreach[s], nreach, cache.ecc[s], ecc
                ));
            }
            if settled {
                // rows must equal fresh BFS distances of the owned graph
                let fresh = self.g.switch_distances(s as u32);
                for (v, &f) in fresh.iter().enumerate() {
                    let f16 = if f == u32::MAX {
                        INVALID_DIST
                    } else {
                        f as u16
                    };
                    let cached = cache.dist(s, v);
                    if cached != f16 {
                        return Err(format!(
                            "cached distance d({s},{v}) = {cached} diverged from fresh {f16}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::random_general;
    use crate::metrics::path_metrics;
    use crate::ops::{sample_swap, sample_swing};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Side-by-side cost of the plain vs cache-filling batched sweep;
    /// run with `--ignored --nocapture` on a release build when tuning.
    #[test]
    #[ignore = "perf harness, not a correctness check"]
    fn bfs_sweep_cost_comparison() {
        let m = 4096u32;
        let g = random_general(4 * m, m, 12, 7).unwrap();
        let mut st = seq_engine(g).unwrap();
        let srcs: Vec<u32> = (0..m).collect();
        let mut scratch = EvalScratch::default();
        for round in 0..3 {
            let t0 = std::time::Instant::now();
            let mut sums = BatchSums::default();
            for lo in (0..srcs.len()).step_by(64) {
                sums.absorb(sweep_batch(
                    &st.csr,
                    &st.counts,
                    &srcs[lo..lo + 64],
                    &mut scratch,
                ));
            }
            let plain = t0.elapsed();
            let cache = st.cache.as_mut().unwrap();
            let ptrs = cache.ptrs();
            let t0 = std::time::Instant::now();
            for lo in (0..srcs.len()).step_by(64) {
                assert!(sweep_batch_cached(
                    &st.csr,
                    &st.counts,
                    &srcs[lo..lo + 64],
                    &mut scratch,
                    &ptrs,
                ));
            }
            let cached = t0.elapsed();
            println!(
                "round {round}: plain {plain:?}  cached {cached:?}  (weighted {})",
                sums.weighted
            );
        }
    }

    /// Prints how swap/swing proposals classify sources (re-BFS vs
    /// formula repair vs untouched); run with `--ignored --nocapture`
    /// when tuning the scan.
    #[test]
    #[ignore = "perf harness, not a correctness check"]
    fn delta_classification_profile() {
        let m = 1024u32;
        let g = random_general(4 * m, m, 12, 7).unwrap();
        let mut st = seq_engine(g).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for round in 0..8 {
            for swing in [false, true] {
                st.begin();
                let ok = if swing {
                    sample_swing(&st.g, &st.edges, &mut rng, 32)
                        .map(|s| st.apply_swing(s).unwrap())
                        .is_some()
                } else {
                    sample_swap(&st.g, &st.edges, &mut rng, 32)
                        .map(|s| st.apply_swap(s).unwrap())
                        .is_some()
                };
                if !ok {
                    st.rollback();
                    continue;
                }
                let counts = st.counts.clone();
                let cache = st.cache.as_mut().unwrap();
                let (mut rebfs, mut repair) = (Vec::new(), Vec::new());
                cache.scan_delta(&st.csr, &counts, &mut rebfs, &mut repair);
                let mu = cache.m;
                let count = |bit: u8| (0..mu).filter(|&s| cache.flags[s] & bit != 0).count();
                println!(
                    "round {round} {}: rebfs {:>4} repair {:>4}  add_aff {:>4} del_aff {:>4} \
                     no_strict {:>4}",
                    if swing { "swing" } else { "swap " },
                    rebfs.len(),
                    repair.len(),
                    count(ADD_AFF),
                    count(DEL_AFF),
                    count(NO_STRICT),
                );
                st.rollback();
            }
        }
    }

    /// Structural equality up to adjacency-list ordering (rollback uses
    /// `swap_remove`, which permutes neighbour lists).
    fn assert_same_graph(a: &HostSwitchGraph, b: &HostSwitchGraph) {
        let (mut a, mut b) = (a.clone(), b.clone());
        a.canonicalize();
        b.canonicalize();
        assert_eq!(a, b);
    }

    fn ring(m: u32, hosts_per: u32, r: u32) -> HostSwitchGraph {
        let mut g = HostSwitchGraph::new(m, r).unwrap();
        for s in 0..m {
            g.add_link(s, (s + 1) % m).unwrap();
        }
        for s in 0..m {
            for _ in 0..hosts_per {
                g.attach_host(s).unwrap();
            }
        }
        g
    }

    /// The single-worker engine with the default cache policy.
    fn seq_engine(g: HostSwitchGraph) -> Result<SearchState, GraphError> {
        SearchState::with_search(g, 1, SearchConfig::default())
    }

    #[test]
    fn search_config_provisions_cache_by_mode_and_budget() {
        let auto = SearchConfig::default();
        assert!(auto.provisions_cache(64));
        assert!(auto.provisions_cache(65536));
        assert!(!auto.provisions_cache(1));
        assert!(!SearchConfig::off().provisions_cache(64));
        let tight = SearchConfig {
            cache_mode: CacheMode::Auto,
            memory_budget_bytes: 1024,
        };
        assert!(!tight.provisions_cache(4096));
        #[allow(deprecated)]
        let legacy = SearchConfig {
            cache_mode: CacheMode::Compressed,
            ..SearchConfig::default()
        };
        assert!(legacy.provisions_cache(64));
        assert_eq!("auto".parse::<CacheMode>(), Ok(CacheMode::Auto));
        assert_eq!("off".parse::<CacheMode>(), Ok(CacheMode::Off));
        for gone in ["dense", "compressed", "bogus"] {
            assert!(gone.parse::<CacheMode>().is_err(), "{gone}");
        }
    }

    #[test]
    fn cache_disabled_engine_matches_cached() {
        // the cached engine must follow bit-identical trajectories to
        // the no-cache oracle across mixed proposals with commits and
        // rollbacks
        let g = random_general(96, 24, 8, 13).unwrap();
        let mut cached = seq_engine(g.clone()).unwrap();
        let mut plain = SearchState::with_search(g, 1, SearchConfig::off()).unwrap();
        assert!(cached.cache_active());
        assert!(!plain.cache_active());
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for step in 0..120 {
            let applied = if step % 2 == 0 {
                sample_swing(cached.graph(), cached.edges(), &mut rng, 24).map(|s| {
                    cached.begin();
                    plain.begin();
                    cached.apply_swing(s).unwrap();
                    plain.apply_swing(s).unwrap();
                })
            } else {
                sample_swap(cached.graph(), cached.edges(), &mut rng, 24).map(|s| {
                    cached.begin();
                    plain.begin();
                    cached.apply_swap(s).unwrap();
                    plain.apply_swap(s).unwrap();
                })
            };
            if applied.is_none() {
                continue;
            }
            let want = plain.evaluate();
            assert_eq!(cached.evaluate(), want, "step {step}");
            if step % 3 == 0 && want.is_some() {
                cached.commit();
                plain.commit();
            } else {
                cached.rollback();
                plain.rollback();
            }
        }
        assert_eq!(cached.evaluate(), plain.evaluate());
        cached.check_consistency().unwrap();
        assert!(cached.eval_stats().incremental > 0);
    }

    #[test]
    fn sharded_repair_pool_matches_sequential() {
        // the combined sweep+repair job on the work-stealing pool must be
        // bit-identical to the sequential engine, including rollbacks
        let g = random_general(768, 192, 10, 29).unwrap();
        let mut seq = seq_engine(g.clone()).unwrap();
        let mut par = SearchState::with_search(g, 3, SearchConfig::default()).unwrap();
        assert_eq!(par.workers(), 3);
        assert!(par.eval_stats().pool_jobs > 0, "initial fill uses the pool");
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        for step in 0..60 {
            let applied = if step % 2 == 0 {
                sample_swing(seq.graph(), seq.edges(), &mut rng, 24).map(|s| {
                    seq.begin();
                    par.begin();
                    seq.apply_swing(s).unwrap();
                    par.apply_swing(s).unwrap();
                })
            } else {
                sample_swap(seq.graph(), seq.edges(), &mut rng, 24).map(|s| {
                    seq.begin();
                    par.begin();
                    seq.apply_swap(s).unwrap();
                    par.apply_swap(s).unwrap();
                })
            };
            if applied.is_none() {
                continue;
            }
            let want = seq.evaluate();
            assert_eq!(par.evaluate(), want, "step {step}");
            if step % 3 == 0 && want.is_some() {
                seq.commit();
                par.commit();
            } else {
                seq.rollback();
                par.rollback();
            }
        }
        assert_eq!(seq.evaluate(), par.evaluate());
        assert_eq!(seq.eval_stats().repaired, par.eval_stats().repaired);
        assert!(par.eval_stats().repaired > 0, "walk exercised the repairs");
        par.check_consistency().unwrap();
    }

    /// Every cache field a rollback must restore, copied out of the
    /// live cache.
    #[derive(Debug, PartialEq)]
    struct CacheImage {
        rows: Vec<u8>,
        valid: Vec<bool>,
        wsum: Vec<u64>,
        hist: Vec<u32>,
        ecc: Vec<u16>,
        nreach: Vec<u32>,
    }

    fn cache_image(st: &SearchState) -> CacheImage {
        let c = st.cache.as_ref().expect("cache provisioned");
        CacheImage {
            rows: c.rows.clone(),
            valid: c.valid.clone(),
            wsum: c.wsum.clone(),
            hist: c.hist.clone(),
            ecc: c.ecc.clone(),
            nreach: c.nreach.clone(),
        }
    }

    /// Checks the journal entries since `boundary` against the rows as
    /// they were before the evaluation (`before`): cells only (no row
    /// images — the repaired rows pay per entry), exactly one cell per
    /// rewritten `(source, switch)` entry, each holding that entry's
    /// pre-image. Returns the number of cells.
    fn assert_journal_is_cellwise(st: &SearchState, before: &CacheImage, boundary: usize) -> usize {
        let c = st.cache.as_ref().expect("cache provisioned");
        let m = c.m;
        assert!(
            c.row_images.is_empty(),
            "a repaired row left a whole-row image"
        );
        let mut seen = std::collections::HashSet::new();
        for e in &c.journal[boundary..] {
            let CacheUndo::Cell { src, sw, old } = *e else {
                panic!("whole-row record {e:?} in a repair-only evaluation");
            };
            let (s, v) = (src as usize, sw as usize);
            assert!(seen.insert((s, v)), "entry ({s}, {v}) journaled twice");
            assert_eq!(
                old,
                unpack_dist(before.rows[s * m + v]),
                "cell ({s}, {v}) pre-image"
            );
        }
        for (i, (&now, &was)) in cache_image(st).rows.iter().zip(&before.rows).enumerate() {
            if now != was {
                assert!(
                    seen.contains(&(i / m, i % m)),
                    "rewrite of {i} not journaled"
                );
            }
        }
        seen.len()
    }

    #[test]
    fn undo_journal_is_cellwise_and_rolls_back_bit_for_bit() {
        // The 2-neighbour swing flow: swing, evaluate, stack a second
        // swing (whose host move lands between the two evaluations),
        // evaluate, roll both back — or fold the inner level into the
        // outer one, whose rollback then replays both evaluations.
        for workers in [1, 2] {
            let g = random_general(1024, 256, 12, 43).unwrap();
            let mut st = SearchState::with_search(g, workers, SearchConfig::default()).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(47);
            let (mut nested, mut cells) = (0, 0);
            for step in 0..30 {
                let Some(s1) = sample_swing(st.graph(), st.edges(), &mut rng, 24) else {
                    continue;
                };
                let outer = cache_image(&st);
                st.begin();
                st.apply_swing(s1).unwrap();
                st.evaluate();
                cells += assert_journal_is_cellwise(&st, &outer, 0);
                let s2 = st
                    .graph()
                    .neighbors(s1.c)
                    .iter()
                    .map(|&d| Swing {
                        a: d,
                        b: s1.c,
                        c: s1.b,
                    })
                    .find(|s2| s2.a != s1.a && s2.a != s1.b && s2.is_valid(st.graph()));
                if let Some(s2) = s2 {
                    let inner = cache_image(&st);
                    st.begin();
                    let boundary = st.cache.as_ref().unwrap().journal.len();
                    st.apply_swing(s2).unwrap();
                    st.evaluate();
                    cells += assert_journal_is_cellwise(&st, &inner, boundary);
                    if step % 2 == 0 {
                        st.rollback();
                        assert_eq!(cache_image(&st), inner, "w{workers}: inner");
                    } else {
                        st.commit();
                    }
                    nested += 1;
                }
                st.rollback();
                assert_eq!(cache_image(&st), outer, "w{workers}: outer");
            }
            assert!(nested > 10 && cells > 0, "w{workers}: walk too short");
            if workers > 1 {
                assert!(
                    st.eval_stats().pool_jobs > 1,
                    "repairs never reached the pool"
                );
            }
            st.check_consistency().unwrap();
        }
    }

    #[test]
    fn evaluate_matches_path_metrics() {
        for seed in 0..4 {
            let g = random_general(96, 24, 8, seed).unwrap();
            let expect = path_metrics(&g).unwrap();
            let mut st = seq_engine(g).unwrap();
            let got = st.evaluate().unwrap();
            assert_eq!(got.total_length, expect.total_length, "seed {seed}");
            assert_eq!(got.diameter, expect.diameter, "seed {seed}");
            assert!((got.haspl - expect.haspl).abs() < 1e-12, "seed {seed}");
        }
    }

    #[test]
    fn evaluate_matches_on_irregular_counts() {
        // hostless switches, piles of hosts on others
        let mut g = HostSwitchGraph::new(5, 8).unwrap();
        for s in 0..5 {
            g.add_link(s, (s + 1) % 5).unwrap();
        }
        for _ in 0..5 {
            g.attach_host(0).unwrap();
        }
        g.attach_host(2).unwrap();
        let expect = path_metrics(&g).unwrap();
        let mut st = seq_engine(g).unwrap();
        assert_eq!(st.evaluate().unwrap(), expect);
    }

    #[test]
    fn evaluate_batches_beyond_64_sources() {
        // more than 64 hostful switches exercises multi-batch sweeps
        let g = ring(130, 1, 4);
        let expect = path_metrics(&g).unwrap();
        let mut st = seq_engine(g).unwrap();
        assert_eq!(st.evaluate().unwrap(), expect);
    }

    #[test]
    fn threaded_evaluation_is_bit_identical() {
        let g = random_general(256, 72, 10, 9).unwrap();
        let workers = resolve_parallel_eval(Some(true), g.num_switches());
        let mut seq = seq_engine(g.clone()).unwrap();
        let mut par = SearchState::with_search(g, workers, SearchConfig::default()).unwrap();
        assert!(par.workers() >= 1);
        assert_eq!(seq.evaluate().unwrap(), par.evaluate().unwrap());
    }

    #[test]
    fn worker_pool_matches_sequential_across_random_walk() {
        // explicit worker count so the pool is exercised even on 1-CPU
        // machines; both engines must follow bit-identical trajectories
        let g = random_general(256, 72, 10, 21).unwrap();
        let mut seq = seq_engine(g.clone()).unwrap();
        let mut par = SearchState::with_search(g, 3, SearchConfig::default()).unwrap();
        assert_eq!(par.workers(), 3);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for step in 0..60 {
            let Some(s) = sample_swing(seq.graph(), seq.edges(), &mut rng, 24) else {
                continue;
            };
            seq.begin();
            par.begin();
            seq.apply_swing(s).unwrap();
            par.apply_swing(s).unwrap();
            assert_eq!(seq.evaluate(), par.evaluate(), "step {step}");
            if step % 3 == 0 {
                seq.commit();
                par.commit();
            } else {
                seq.rollback();
                par.rollback();
            }
        }
        assert_eq!(seq.evaluate(), par.evaluate());
        par.check_consistency().unwrap();
    }

    #[test]
    fn disconnection_detected() {
        let mut g = HostSwitchGraph::new(4, 4).unwrap();
        g.add_link(0, 1).unwrap();
        g.add_link(2, 3).unwrap();
        g.attach_host(0).unwrap();
        g.attach_host(3).unwrap();
        assert!(matches!(seq_engine(g), Err(GraphError::Disconnected)));
    }

    #[test]
    fn uncommitted_disconnection_is_caught_incrementally() {
        // two 4-cycles joined by {0,4} and {2,6}; the swap rewires both
        // cross links to internal chords, disconnecting the halves — the
        // affected-source scan must surface it without a full sweep
        let mut g = HostSwitchGraph::new(8, 4).unwrap();
        for s in 0..4 {
            g.add_link(s, (s + 1) % 4).unwrap();
            g.add_link(4 + s, 4 + (s + 1) % 4).unwrap();
        }
        g.add_link(0, 4).unwrap();
        g.add_link(2, 6).unwrap();
        for s in 0..8 {
            g.attach_host(s).unwrap();
        }
        let mut st = seq_engine(g).unwrap();
        let before = st.evaluate().unwrap();
        st.begin();
        // {0,4},{6,2} -> {0,2},{6,4}: both new links are intra-cycle
        let s = Swap {
            a: 0,
            b: 4,
            c: 6,
            d: 2,
        };
        assert!(s.is_valid(st.graph()));
        st.apply_swap(s).unwrap();
        assert!(st.evaluate().is_none());
        st.rollback();
        assert_eq!(st.evaluate().unwrap(), before);
        st.check_consistency().unwrap();
    }

    #[test]
    fn swap_commit_and_rollback() {
        let mut g = ring(6, 1, 5);
        g.add_link(0, 3).unwrap();
        g.add_link(1, 4).unwrap();
        let snapshot = g.clone();
        let mut st = seq_engine(g).unwrap();
        let s = Swap {
            a: 0,
            b: 1,
            c: 3,
            d: 4,
        };

        st.begin();
        st.apply_swap(s).unwrap();
        assert!(st.graph().has_link(0, 4) && !st.graph().has_link(0, 1));
        st.rollback();
        assert_same_graph(st.graph(), &snapshot);
        st.check_consistency().unwrap();

        st.begin();
        st.apply_swap(s).unwrap();
        st.commit();
        assert!(st.graph().has_link(0, 4) && st.graph().has_link(3, 1));
        st.check_consistency().unwrap();
        assert_eq!(st.evaluate().unwrap(), path_metrics(st.graph()).unwrap());
    }

    #[test]
    fn swing_rollback_restores_host() {
        let g = ring(5, 2, 6);
        let snapshot = g.clone();
        let mut st = seq_engine(g).unwrap();
        let s = Swing { a: 0, b: 1, c: 3 };
        st.begin();
        let h = st.apply_swing(s).unwrap();
        assert_eq!(st.graph().switch_of(h), 1);
        assert_eq!(st.host_counts()[3], 1);
        st.rollback();
        assert_same_graph(st.graph(), &snapshot);
        assert_eq!(st.host_counts()[3], 2);
        st.check_consistency().unwrap();
    }

    #[test]
    fn nested_transactions_support_two_neighbor_flow() {
        let g = ring(8, 2, 6);
        let snapshot = g.clone();
        let mut st = seq_engine(g).unwrap();

        // outer swing, inner swing stacked on top, roll both back
        st.begin();
        st.apply_swing(Swing { a: 0, b: 1, c: 3 }).unwrap();
        st.begin();
        let s2 = Swing { a: 4, b: 3, c: 1 };
        assert!(s2.is_valid(st.graph()));
        st.apply_swing(s2).unwrap();
        st.rollback();
        st.rollback();
        assert_same_graph(st.graph(), &snapshot);
        st.check_consistency().unwrap();

        // commit inner into outer, then commit outer
        st.begin();
        st.apply_swing(Swing { a: 0, b: 1, c: 3 }).unwrap();
        st.begin();
        st.apply_swing(s2).unwrap();
        st.commit();
        st.commit();
        assert!(!st.in_txn());
        st.check_consistency().unwrap();
        assert_eq!(st.evaluate().unwrap(), path_metrics(st.graph()).unwrap());
    }

    #[test]
    fn invalid_moves_leave_state_untouched() {
        let g = ring(5, 1, 5);
        let snapshot = g.clone();
        let mut st = seq_engine(g).unwrap();
        st.begin();
        assert!(st
            .apply_swap(Swap {
                a: 0,
                b: 1,
                c: 1,
                d: 2
            })
            .is_err());
        assert!(st.apply_swing(Swing { a: 0, b: 1, c: 0 }).is_err());
        st.rollback();
        assert_same_graph(st.graph(), &snapshot);
        st.check_consistency().unwrap();
    }

    #[test]
    fn long_random_walk_stays_consistent() {
        let g = random_general(64, 16, 8, 5).unwrap();
        let mut st = seq_engine(g).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for step in 0..300 {
            let accept = step % 3 != 0;
            if step % 2 == 0 {
                let Some(s) = sample_swap(st.graph(), st.edges(), &mut rng, 24) else {
                    continue;
                };
                st.begin();
                st.apply_swap(s).unwrap();
                let ok = st.evaluate().is_some();
                if accept && ok {
                    st.commit();
                } else {
                    st.rollback();
                }
            } else {
                let Some(s) = sample_swing(st.graph(), st.edges(), &mut rng, 24) else {
                    continue;
                };
                st.begin();
                st.apply_swing(s).unwrap();
                let ok = st.evaluate().is_some();
                if accept && ok {
                    st.commit();
                } else {
                    st.rollback();
                }
            }
        }
        st.check_consistency().unwrap();
        assert_eq!(st.evaluate().unwrap(), path_metrics(st.graph()).unwrap());
    }

    #[test]
    fn early_reject_fires_on_a_provably_uphill_swing() {
        // Hub 0 with leaves 1..4 plus chord {1,2}; hosts 1@1, 4@3, 4@4.
        // Swing{a:3, b:0, c:1} removes the hub link of the heavy leaf 3,
        // re-hangs it off leaf 1, and moves 1's host to the hub: for
        // sources 0 and 4 the removal has no witness (strict ≥ +20 on
        // the ordered sum), while everything behind the added link's
        // far side is hostless, so the improvement allowance is 0 — the
        // guard must prove the move uphill without any BFS.
        let mut g = HostSwitchGraph::new(5, 5).unwrap();
        for leaf in 1..5 {
            g.add_link(0, leaf).unwrap();
        }
        g.add_link(1, 2).unwrap();
        g.attach_host(1).unwrap();
        for _ in 0..4 {
            g.attach_host(3).unwrap();
            g.attach_host(4).unwrap();
        }
        let mut st = seq_engine(g).unwrap();
        let cur = st.evaluate().unwrap();
        st.begin();
        let s = Swing { a: 3, b: 0, c: 1 };
        assert!(s.is_valid(st.graph()));
        st.apply_swing(s).unwrap();
        let outcome = st.evaluate_guarded(Some(cur.haspl));
        let EvalOutcome::EarlyRejected(lb) = outcome else {
            panic!("expected an early reject, got {outcome:?}");
        };
        assert!(lb > cur.haspl);
        let truth = path_metrics(st.graph()).unwrap();
        assert!(
            truth.haspl >= lb - 1e-9,
            "lower bound {lb} exceeds truth {}",
            truth.haspl
        );
        assert_eq!(st.eval_stats().early_rejected, 1);
        assert_eq!(st.eval_stats().last_kind, EvalPathKind::EarlyRejected);
        // the rejected proposal must not have corrupted the cache
        st.rollback();
        assert_eq!(st.evaluate().unwrap(), cur);
        st.check_consistency().unwrap();
    }

    #[test]
    fn guarded_evaluation_is_sound_on_random_walks() {
        // Every early reject must prove a genuine lower bound, and a
        // guarded engine must stay bit-identical to an unguarded one.
        let g = random_general(128, 32, 8, 7).unwrap();
        let mut st = seq_engine(g).unwrap();
        let cur = st.evaluate().unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for step in 0..300 {
            st.begin();
            let applied = if step % 2 == 0 {
                match sample_swing(st.graph(), st.edges(), &mut rng, 24) {
                    Some(s) => {
                        st.apply_swing(s).unwrap();
                        true
                    }
                    None => false,
                }
            } else {
                match sample_swap(st.graph(), st.edges(), &mut rng, 24) {
                    Some(s) => {
                        st.apply_swap(s).unwrap();
                        true
                    }
                    None => false,
                }
            };
            if !applied {
                st.rollback();
                continue;
            }
            match st.evaluate_guarded(Some(cur.haspl)) {
                EvalOutcome::EarlyRejected(lb) => {
                    assert!(lb > cur.haspl);
                    if let Some(truth) = path_metrics(st.graph()) {
                        assert!(
                            truth.haspl >= lb - 1e-9,
                            "lower bound {lb} exceeds truth {}",
                            truth.haspl
                        );
                    }
                }
                EvalOutcome::Metrics(m) => {
                    assert_eq!(m, path_metrics(st.graph()).unwrap());
                }
                EvalOutcome::Disconnected => {
                    assert!(path_metrics(st.graph()).is_none());
                }
            }
            st.rollback();
        }
        // the rejected proposals must not have corrupted the cache
        assert_eq!(st.evaluate().unwrap(), cur);
        st.check_consistency().unwrap();
    }

    #[test]
    fn cache_survives_depth_overflow_by_disabling() {
        // a 300-ring has eccentricity 150, far beyond the rows' cap: the
        // engine must fall back to the full sweep and still score
        // correctly
        let g = ring(300, 1, 4);
        let expect = path_metrics(&g).unwrap();
        let mut st = seq_engine(g).unwrap();
        assert!(!st.cache_active());
        assert_eq!(st.evaluate().unwrap(), expect);
        assert!(st.eval_stats().full >= 2);
        // An m-ring has eccentricity ⌊m/2⌋. At the cap's boundary, the
        // largest eccentricity a row byte holds (MAX_DIST − 1) keeps the
        // cache and one more drops it; both score like `path_metrics`,
        // also after swaps (which may split the ring).
        for (m, cached) in [
            (2 * MAX_DIST as u32 - 1, true),
            (2 * MAX_DIST as u32, false),
        ] {
            let g = ring(m, 1, 4);
            let ecc = m / 2;
            let mut st = seq_engine(g.clone()).unwrap();
            assert_eq!(st.cache_active(), cached, "eccentricity {ecc}");
            assert_eq!(st.evaluate(), path_metrics(&g), "eccentricity {ecc}");
            let mut rng = ChaCha8Rng::seed_from_u64(u64::from(m));
            for step in 0..6 {
                let s = sample_swap(st.graph(), st.edges(), &mut rng, 32).expect("swap");
                st.begin();
                st.apply_swap(s).unwrap();
                let want = path_metrics(st.graph());
                assert_eq!(st.evaluate(), want, "eccentricity {ecc}, step {step}");
                if step % 2 == 0 && want.is_some() {
                    st.commit();
                } else {
                    st.rollback();
                }
                assert_eq!(
                    st.evaluate(),
                    path_metrics(st.graph()),
                    "ecc {ecc}, step {step}"
                );
            }
            if cached {
                st.check_consistency().unwrap();
            } else {
                assert!(!st.cache_active());
            }
        }
    }

    #[test]
    fn slot_csr_tracks_link_edits() {
        let g = ring(6, 0, 4);
        let mut csr = SlotCsr::from_graph(&g);
        csr.remove_link(0, 1);
        csr.add_link(0, 3);
        let mut n0: Vec<u32> = csr.neighbors(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![3, 5]);
        assert!(csr.neighbors(1).iter().all(|&t| t != 0));
        assert!(csr.neighbors(3).contains(&0));
    }

    #[test]
    fn resolve_parallel_eval_honours_override() {
        assert_eq!(resolve_parallel_eval(Some(false), 100_000), 1);
        assert!(resolve_parallel_eval(Some(true), 4) >= 1);
        // auto: small instances stay sequential
        assert_eq!(
            resolve_parallel_eval(None, PARALLEL_SWITCH_THRESHOLD - 1),
            1
        );
    }
}
