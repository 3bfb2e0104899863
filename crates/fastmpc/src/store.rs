//! Tiered decision-table catalog: bounded hot tier, mmap'd warm tier,
//! exactly-once cold generation.
//!
//! Several consumers want the *same* FastMPC table: every harness
//! experiment over one (video, buffer, weights, resolution) instance, and
//! every served session on one video. Generation is the most expensive
//! single step — 50,000 exact MPC solves at paper resolution — so
//! [`TableStore`] keys generated tables by a content hash ([`table_key`])
//! and layers three tiers behind one `ensure()` chokepoint:
//!
//! * **Hot**: owned [`FastMpcTable`]s under a byte budget
//!   ([`TableStoreConfig::hot_budget_bytes`], accounted at
//!   [`FastMpcTable::binary_size_bytes`]), evicted clock-style (second
//!   chance: a hit sets a referenced bit; the hand clears one bit per
//!   pass before evicting);
//! * **Warm**: evicted tables spill to `warm_dir` as `FMPC` binaries
//!   (write-to-temp + rename, so a file is never observed half-written)
//!   and are served back as zero-copy [`TableView`]s over mmap'd bytes —
//!   a warm miss costs a page fault, not a regeneration;
//! * **Cold**: a genuine miss runs one offline enumeration fleet-wide,
//!   guarded per key by [`abr_par::OnceMap`] — a miss storm on one video
//!   generates once while every other key proceeds in parallel, and hits
//!   never wait behind any generation.
//!
//! Without a warm directory, eviction forgets the table entirely and
//! resets that key's exactly-once epoch (the next miss regenerates). The
//! default configuration (unbounded budget, no warm dir) never evicts: it
//! generates each distinct instance exactly once per process, which is
//! what the harness's process-wide store relies on.
//!
//! Keys are content hashes, so an entry is never served for a different
//! instance than the one it was generated for — and because generation is
//! bit-deterministic whatever the thread count, a hit returns exactly the
//! decisions a fresh generation would produce.

use crate::table::{FastMpcTable, TableConfig};
use crate::view::TableView;
use abr_net::mmap::Mmap;
use abr_par::OnceMap;
use abr_video::{Fnv, LevelIdx, Video};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Content hash identifying one table-generation instance: the video's
/// timing, ladder and per-chunk per-level sizes, the buffer cap, and every
/// field of the [`TableConfig`] (both bin specs, horizon, QoE weights
/// including the quality function). All floats are hashed by bit pattern,
/// so any observable difference in the instance yields a different key.
///
/// The video comes first in the FNV-1a-128 stream, and every [`Video`]
/// carries that stream's state over itself ([`Video::digest`]), so the key
/// resumes from the digest: a repeat registration hashes the cap and the
/// config (about a hundred bytes), not every chunk size again.
pub fn table_key(video: &Video, buffer_max_secs: f64, cfg: &TableConfig) -> u128 {
    let mut h = Fnv::resume(video.digest());
    h.f64(buffer_max_secs);
    // Config: bins, horizon, weights.
    for bins in [&cfg.buffer_bins, &cfg.throughput_bins] {
        h.len(bins.count);
        h.f64(bins.lo);
        h.f64(bins.hi);
        h.byte(bins.log as u8);
    }
    h.len(cfg.horizon);
    h.len(cfg.horizon_slices);
    let w = &cfg.weights;
    h.f64(w.lambda);
    h.f64(w.mu);
    h.f64(w.mu_s);
    h.f64(w.mu_event);
    h.f64(w.w_lat);
    h.quality(&w.quality);
    h.finish()
}

/// A table served from either tier, sharing one decision interface.
///
/// `Owned` is a hot-tier (or freshly generated) in-memory table; `Mapped`
/// is a warm-tier zero-copy view over mmap'd bytes. The two are
/// bit-identical decision for decision (pinned by seeded properties in
/// [`crate::view`]), so callers — the [`FastMpc`](crate::FastMpc)
/// controller above all — never care which tier answered.
#[derive(Debug, Clone)]
pub enum TableHandle {
    /// An in-memory table (hot tier, or direct generation).
    Owned(Arc<FastMpcTable>),
    /// A zero-copy view over an mmap'd warm-tier binary.
    Mapped(Arc<TableView<Mmap>>),
}

impl TableHandle {
    /// Online lookup; see [`FastMpcTable::lookup`].
    pub fn lookup(&self, buffer_secs: f64, prev: LevelIdx, throughput_kbps: f64) -> LevelIdx {
        match self {
            TableHandle::Owned(t) => t.lookup(buffer_secs, prev, throughput_kbps),
            TableHandle::Mapped(v) => v.lookup(buffer_secs, prev, throughput_kbps),
        }
    }

    /// Live lookup in the truncated-horizon slice; see
    /// [`FastMpcTable::lookup_live`].
    pub fn lookup_live(
        &self,
        buffer_secs: f64,
        prev: LevelIdx,
        throughput_kbps: f64,
        effective_horizon: usize,
    ) -> LevelIdx {
        match self {
            TableHandle::Owned(t) => {
                t.lookup_live(buffer_secs, prev, throughput_kbps, effective_horizon)
            }
            TableHandle::Mapped(v) => {
                v.lookup_live(buffer_secs, prev, throughput_kbps, effective_horizon)
            }
        }
    }

    /// The table's configuration.
    pub fn config(&self) -> &TableConfig {
        match self {
            TableHandle::Owned(t) => t.config(),
            TableHandle::Mapped(v) => v.config(),
        }
    }

    /// Buffer capacity the table was generated for.
    pub fn buffer_max_secs(&self) -> f64 {
        match self {
            TableHandle::Owned(t) => t.buffer_max_secs(),
            TableHandle::Mapped(v) => v.buffer_max_secs(),
        }
    }

    /// Whether this handle is served zero-copy from the warm tier.
    pub fn is_mapped(&self) -> bool {
        matches!(self, TableHandle::Mapped(_))
    }
}

/// Sizing and spill policy for a [`TableStore`].
#[derive(Debug, Clone)]
pub struct TableStoreConfig {
    /// Byte budget for the hot tier, accounted at each table's
    /// [`FastMpcTable::binary_size_bytes`]. Installing past the budget
    /// evicts clock-style until the newcomer fits; a single table larger
    /// than the whole budget still gets to be the one resident (the store
    /// never thrashes itself empty).
    pub hot_budget_bytes: usize,
    /// Directory for warm-tier spill files (`<key>.fmpc`). `None`
    /// disables the warm tier: eviction forgets the table and the next
    /// miss regenerates it.
    pub warm_dir: Option<PathBuf>,
}

impl Default for TableStoreConfig {
    /// Unbounded and memory-only: nothing is ever evicted.
    fn default() -> Self {
        Self {
            hot_budget_bytes: usize::MAX,
            warm_dir: None,
        }
    }
}

/// Counters describing what a [`TableStore`] has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStoreStats {
    /// Tables currently resident in the hot tier.
    pub hot_entries: usize,
    /// Bytes accounted against the hot budget right now.
    pub hot_bytes: usize,
    /// Requests answered by the hot tier.
    pub hot_hits: u64,
    /// Requests answered zero-copy by the warm tier.
    pub warm_hits: u64,
    /// Offline enumerations run (cold misses) — with stampede control,
    /// exactly one per distinct instance per epoch.
    pub generates: u64,
    /// Hot-tier evictions (spilled to warm when a warm dir is configured).
    pub evictions: u64,
}

/// One hot-tier resident.
#[derive(Debug)]
struct HotEntry {
    table: Arc<FastMpcTable>,
    bytes: usize,
    /// Clock second-chance bit, set on every hit.
    referenced: bool,
    /// Matches this entry to its clock-queue ticket; a stale ticket (from
    /// an evicted-then-reinstalled key) is discarded instead of acted on.
    stamp: u64,
}

/// The hot tier: resident map plus the clock queue driving eviction.
#[derive(Debug, Default)]
struct HotTier {
    map: HashMap<u128, HotEntry>,
    /// Clock order: front is the hand. Entries are `(key, stamp)`.
    queue: VecDeque<(u128, u64)>,
    bytes: usize,
    next_stamp: u64,
}

/// A tiered, bounded catalog of generated FastMPC tables.
///
/// [`ensure`](TableStore::ensure) returns a [`TableHandle`] for an
/// instance — hot, warm, or generated exactly once under stampede control.
/// See the [module docs](self) for the tier semantics.
#[derive(Debug, Default)]
pub struct TableStore {
    cfg: TableStoreConfig,
    hot: Mutex<HotTier>,
    /// Open warm-tier views, one mmap per key for the store's lifetime.
    warm_views: OnceMap<u128, TableView<Mmap>>,
    /// Per-key generation gates; an entry marks "this epoch has a table
    /// in some tier". Eviction without a warm spill removes the entry,
    /// opening a fresh epoch for regeneration.
    gates: OnceMap<u128, ()>,
    hot_hits: AtomicU64,
    warm_hits: AtomicU64,
    generates: AtomicU64,
    evictions: AtomicU64,
}

impl TableStore {
    /// An unbounded, memory-only store (the [`Default`] configuration).
    pub fn new() -> Self {
        Self::default()
    }

    /// A store with an explicit budget and spill policy.
    pub fn with_config(cfg: TableStoreConfig) -> Self {
        Self {
            cfg,
            ..Self::default()
        }
    }

    /// Tables currently resident in the hot tier.
    pub fn len(&self) -> usize {
        self.hot.lock().unwrap_or_else(|p| p.into_inner()).map.len()
    }

    /// Whether the hot tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the tier counters.
    pub fn stats(&self) -> TableStoreStats {
        let (hot_entries, hot_bytes) = {
            let hot = self.hot.lock().unwrap_or_else(|p| p.into_inner());
            (hot.map.len(), hot.bytes)
        };
        TableStoreStats {
            hot_entries,
            hot_bytes,
            hot_hits: self.hot_hits.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            generates: self.generates.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// The table for `(video, buffer_max_secs, cfg)` — hot, warm, or
    /// generated exactly once. A handle from any tier is bit-identical to
    /// a fresh [`FastMpcTable::generate`].
    pub fn ensure(&self, video: &Video, buffer_max_secs: f64, cfg: &TableConfig) -> TableHandle {
        let key = table_key(video, buffer_max_secs, cfg);
        self.ensure_with(key, || FastMpcTable::generate(video, buffer_max_secs, cfg.clone()))
    }

    /// [`ensure`](Self::ensure) with the key precomputed and the generator
    /// abstracted — the seam tests use to observe and park generations.
    pub(crate) fn ensure_with(&self, key: u128, gen: impl FnOnce() -> FastMpcTable) -> TableHandle {
        // At most one retry pass ever generates (winning the gate returns
        // from the loop), so the FnOnce travels in an Option.
        let mut gen = Some(gen);
        loop {
            if let Some(h) = self.hot_get(key) {
                self.hot_hits.fetch_add(1, Ordering::Relaxed);
                return h;
            }
            if let Some(h) = self.warm_get(key) {
                self.warm_hits.fetch_add(1, Ordering::Relaxed);
                return h;
            }
            // Cold path: win this key's gate or wait for whoever has it.
            let mut produced = None;
            let (_, won) = self.gates.get_or_init(key, || {
                // Re-check the tiers under the gate: between our miss and
                // winning a *fresh* epoch (post-eviction), another caller
                // may already have reinstalled the table.
                if let Some(h) = self.hot_get(key) {
                    self.hot_hits.fetch_add(1, Ordering::Relaxed);
                    produced = Some(h);
                    return;
                }
                if let Some(h) = self.warm_get(key) {
                    self.warm_hits.fetch_add(1, Ordering::Relaxed);
                    produced = Some(h);
                    return;
                }
                let generate = gen.take().expect("gate won at most once per call");
                let table = Arc::new(generate());
                self.generates.fetch_add(1, Ordering::Relaxed);
                self.install(key, Arc::clone(&table));
                produced = Some(TableHandle::Owned(table));
            });
            if won {
                if let Some(h) = produced {
                    return h;
                }
            }
            // Lost the race (or hit a stale epoch): the winner's install
            // is visible in a tier now — or was itself already evicted,
            // in which case the gate entry is gone and the next pass
            // opens a new epoch. Either way, go around.
        }
    }

    /// Hot-tier probe; sets the clock referenced bit on a hit.
    fn hot_get(&self, key: u128) -> Option<TableHandle> {
        let mut hot = self.hot.lock().unwrap_or_else(|p| p.into_inner());
        let entry = hot.map.get_mut(&key)?;
        entry.referenced = true;
        Some(TableHandle::Owned(Arc::clone(&entry.table)))
    }

    /// Warm-tier probe: an already-open view, else open + validate the
    /// spill file (exactly one mapping per key wins; losers drop theirs).
    fn warm_get(&self, key: u128) -> Option<TableHandle> {
        let dir = self.cfg.warm_dir.as_ref()?;
        if let Some(v) = self.warm_views.get(&key) {
            return Some(TableHandle::Mapped(v));
        }
        let path = dir.join(format!("{key:032x}.fmpc"));
        let map = Mmap::open(&path).ok()?;
        // A spill file that fails validation is treated as absent (the
        // cold path regenerates); it can only mean outside interference,
        // since spills are written whole and renamed into place.
        let view = TableView::new(map).ok()?;
        self.warm_views.insert(key, Arc::new(view));
        self.warm_views.get(&key).map(TableHandle::Mapped)
    }

    /// Installs a freshly generated table into the hot tier, evicting
    /// clock-style until it fits the byte budget.
    fn install(&self, key: u128, table: Arc<FastMpcTable>) {
        let bytes = table.binary_size_bytes();
        let mut hot = self.hot.lock().unwrap_or_else(|p| p.into_inner());
        if hot.map.contains_key(&key) {
            return; // a racing epoch reinstalled it first
        }
        // Clock sweep: clear one referenced bit per pass, evict the first
        // unreferenced entry, until the newcomer fits (or the tier is
        // empty — one table may exceed the whole budget and still hosts).
        while !hot.map.is_empty()
            && hot.bytes.saturating_add(bytes) > self.cfg.hot_budget_bytes
        {
            let Some((victim_key, stamp)) = hot.queue.pop_front() else {
                break;
            };
            let second_chance = match hot.map.get(&victim_key) {
                // Stale ticket: the key was evicted (and possibly
                // reinstalled with a fresh stamp) since it was queued.
                None => continue,
                Some(e) if e.stamp != stamp => continue,
                Some(e) => e.referenced,
            };
            if second_chance {
                hot.map.get_mut(&victim_key).expect("checked above").referenced = false;
                hot.queue.push_back((victim_key, stamp));
                continue;
            }
            // Evict + spill while still holding the hot lock: readers
            // cannot observe the gap between tiers.
            let e = hot.map.remove(&victim_key).expect("victim resident");
            hot.bytes -= e.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if !self.spill(victim_key, &e.table) {
                // No warm copy: this key's exactly-once epoch is over;
                // the next miss may regenerate.
                self.gates.remove(&victim_key);
            }
        }
        let stamp = hot.next_stamp;
        hot.next_stamp += 1;
        hot.queue.push_back((key, stamp));
        hot.bytes += bytes;
        hot.map.insert(
            key,
            HotEntry {
                table,
                bytes,
                referenced: false,
                stamp,
            },
        );
    }

    /// Writes the warm-tier spill file for `key` (write temp, rename).
    /// Returns whether a warm copy exists afterwards.
    fn spill(&self, key: u128, table: &FastMpcTable) -> bool {
        let Some(dir) = self.cfg.warm_dir.as_ref() else {
            return false;
        };
        let path = dir.join(format!("{key:032x}.fmpc"));
        if path.exists() {
            return true;
        }
        let tmp = dir.join(format!("{key:032x}.fmpc.tmp"));
        let written = std::fs::write(&tmp, table.to_bytes())
            .and_then(|()| std::fs::rename(&tmp, &path))
            .is_ok();
        if !written {
            let _ = std::fs::remove_file(&tmp);
        }
        written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableConfig;
    use abr_video::{envivio_video, QualityFn};

    fn small_cfg(levels: usize) -> TableConfig {
        TableConfig::with_levels(levels, 30.0)
    }

    fn make_table(levels: usize) -> FastMpcTable {
        FastMpcTable::generate(&envivio_video(), 30.0, small_cfg(levels))
    }

    fn temp_warm_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("abr_store_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    #[test]
    fn default_store_behaves_like_the_unbounded_cache() {
        let video = envivio_video();
        let store = TableStore::new();
        let a = store.ensure(&video, 30.0, &small_cfg(6));
        let b = store.ensure(&video, 30.0, &small_cfg(6));
        let c = store.ensure(&video, 30.0, &small_cfg(7));
        assert_eq!(
            a.lookup(12.0, LevelIdx(2), 2200.0),
            b.lookup(12.0, LevelIdx(2), 2200.0)
        );
        assert!(!a.is_mapped() && !c.is_mapped());
        let stats = store.stats();
        assert_eq!(stats.hot_entries, 2);
        assert_eq!(stats.generates, 2);
        assert_eq!(stats.hot_hits, 1);
        assert_eq!(stats.warm_hits, 0);
        assert_eq!(stats.evictions, 0);
        assert!(stats.hot_bytes > 0);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn budget_evicts_and_warm_tier_serves_zero_copy_without_regeneration() {
        let dir = temp_warm_dir("warm");
        let one_table = make_table(6).binary_size_bytes();
        // Room for roughly two tables of this size.
        let store = TableStore::with_config(TableStoreConfig {
            hot_budget_bytes: one_table * 2 + one_table / 2,
            warm_dir: Some(dir.clone()),
        });
        let tables: Vec<FastMpcTable> = (0..4).map(|_| make_table(6)).collect();
        for (i, t) in tables.iter().enumerate() {
            let t = t.clone();
            store.ensure_with(i as u128, move || t);
        }
        let stats = store.stats();
        assert_eq!(stats.generates, 4);
        assert!(stats.evictions >= 1, "budget must force evictions");
        assert!(stats.hot_bytes <= one_table * 2 + one_table / 2);
        assert!(store.len() < 4);
        // The first-installed (coldest) key was evicted; it must come back
        // mapped, not regenerated.
        let evicted_key = (0..4)
            .find(|&i| store.hot_get(i as u128).is_none())
            .expect("something was evicted") as u128;
        let h = store.ensure_with(evicted_key, || panic!("warm hit must not regenerate"));
        assert!(h.is_mapped(), "evicted table served from the warm tier");
        assert_eq!(
            h.lookup(12.0, LevelIdx(2), 2200.0),
            tables[evicted_key as usize].lookup(12.0, LevelIdx(2), 2200.0),
            "mapped view decides identically to the original table"
        );
        let stats = store.stats();
        assert_eq!(stats.generates, 4, "no regeneration after eviction");
        assert_eq!(stats.warm_hits, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eviction_without_warm_dir_regenerates_exactly_once() {
        let one_table = make_table(6).binary_size_bytes();
        let store = TableStore::with_config(TableStoreConfig {
            hot_budget_bytes: one_table + one_table / 2,
            warm_dir: None,
        });
        let (t1, t2) = (make_table(6), make_table(7));
        store.ensure_with(1, || t1.clone());
        store.ensure_with(2, || t2.clone()); // evicts key 1
        assert_eq!(store.stats().evictions, 1);
        let regens = AtomicU64::new(0);
        let h = store.ensure_with(1, || {
            regens.fetch_add(1, Ordering::Relaxed);
            t1.clone()
        });
        assert!(!h.is_mapped());
        assert_eq!(regens.load(Ordering::Relaxed), 1, "fresh epoch regenerates once");
        assert_eq!(store.stats().generates, 3);
    }

    #[test]
    fn referenced_entries_survive_the_clock_sweep() {
        let one_table = make_table(6).binary_size_bytes();
        let store = TableStore::with_config(TableStoreConfig {
            hot_budget_bytes: one_table * 2 + one_table / 2,
            warm_dir: None,
        });
        let t = make_table(6);
        for key in [1u128, 2] {
            let t = t.clone();
            store.ensure_with(key, move || t);
        }
        // Touch key 1 so its referenced bit shields it from the hand.
        store.ensure_with(1, || panic!("hot"));
        let t3 = make_table(6);
        store.ensure_with(3, move || t3); // must evict key 2, not key 1
        assert!(store.hot_get(1).is_some(), "recently used key survives");
        assert!(store.hot_get(2).is_none(), "unreferenced key is the victim");
        assert!(store.hot_get(3).is_some());
    }

    #[test]
    fn miss_storm_generates_once_while_other_keys_proceed() {
        let store = Arc::new(TableStore::new());
        let runs = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let store = Arc::clone(&store);
                let runs = Arc::clone(&runs);
                s.spawn(move || {
                    store.ensure_with(42, || {
                        runs.fetch_add(1, Ordering::Relaxed);
                        make_table(6)
                    });
                });
            }
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1, "one generation fleet-wide");
        let stats = store.stats();
        assert_eq!(stats.generates, 1);
        assert_eq!(stats.hot_hits + stats.warm_hits, 7);
    }

    #[test]
    fn ensure_is_bit_identical_across_tiers() {
        let dir = temp_warm_dir("bitident");
        let one_table = make_table(8).binary_size_bytes();
        let store = TableStore::with_config(TableStoreConfig {
            hot_budget_bytes: one_table + one_table / 2,
            warm_dir: Some(dir.clone()),
        });
        let video = envivio_video();
        let fresh = FastMpcTable::generate(&video, 30.0, small_cfg(8));
        let hot = store.ensure(&video, 30.0, &small_cfg(8));
        // Push the first table out of the hot tier.
        let filler = make_table(9);
        store.ensure_with(999, move || filler);
        let warm = store.ensure(&video, 30.0, &small_cfg(8));
        assert!(warm.is_mapped());
        let cfg = small_cfg(8);
        for b in 0..cfg.buffer_bins.count {
            for p in 0..5 {
                for c in 0..cfg.throughput_bins.count {
                    let buffer = cfg.buffer_bins.centroid(b);
                    let thr = cfg.throughput_bins.centroid(c);
                    let want = fresh.lookup(buffer, LevelIdx(p), thr);
                    assert_eq!(hot.lookup(buffer, LevelIdx(p), thr), want);
                    assert_eq!(warm.lookup(buffer, LevelIdx(p), thr), want);
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn key_is_sensitive_to_every_config_field() {
        let video = envivio_video();
        let base = small_cfg(6);
        let base_key = table_key(&video, 30.0, &base);
        let mut horizon = base.clone();
        horizon.horizon = 4;
        let mut weights = base.clone();
        weights.weights.mu = 7777.0;
        let mut bins = base.clone();
        bins.throughput_bins.count += 1;
        for (what, cfg) in [("horizon", &horizon), ("weights", &weights), ("bins", &bins)] {
            assert_ne!(base_key, table_key(&video, 30.0, cfg), "{what}");
        }
        assert_ne!(base_key, table_key(&video, 29.0, &base), "buffer cap");
    }

    /// The byte-wise `table_key` that the video digest replaced, kept as
    /// its oracle: it rehashes every chunk size on every call.
    fn bytewise_table_key(video: &Video, buffer_max_secs: f64, cfg: &TableConfig) -> u128 {
        let mut h = Fnv::new();
        // Video: timing, ladder, and per-chunk per-level sizes (covers VBR).
        h.f64(video.chunk_secs());
        h.len(video.num_chunks());
        h.len(video.ladder().len());
        for &r in video.ladder().levels() {
            h.f64(r);
        }
        for k in 0..video.num_chunks() {
            for l in 0..video.ladder().len() {
                h.f64(video.chunk_size_kbits(k, LevelIdx(l)));
            }
        }
        h.f64(buffer_max_secs);
        // Config: bins, horizon, weights.
        for bins in [&cfg.buffer_bins, &cfg.throughput_bins] {
            h.len(bins.count);
            h.f64(bins.lo);
            h.f64(bins.hi);
            h.byte(bins.log as u8);
        }
        h.len(cfg.horizon);
        h.len(cfg.horizon_slices);
        let w = &cfg.weights;
        h.f64(w.lambda);
        h.f64(w.mu);
        h.f64(w.mu_s);
        h.f64(w.mu_event);
        h.f64(w.w_lat);
        match &w.quality {
            QualityFn::Identity => h.byte(0),
            QualityFn::Log { r0, scale } => {
                h.byte(1);
                h.f64(*r0);
                h.f64(*scale);
            }
            QualityFn::Saturating { cap_kbps } => {
                h.byte(2);
                h.f64(*cap_kbps);
            }
            QualityFn::Table { knots } => {
                h.byte(3);
                h.len(knots.len());
                for &(b, q) in knots {
                    h.f64(b);
                    h.f64(q);
                }
            }
        }
        h.finish()
    }

    /// Envivio; a six-level VBR video; a four-level whole-kbps VBR video
    /// shaped like a benchmark catalog entry.
    fn key_videos() -> Vec<Video> {
        let vbr =
            abr_video::Ladder::new(vec![300.0, 750.0, 1200.0, 1850.0, 2850.0, 4300.0]).unwrap();
        let catalog = abr_video::Ladder::new(vec![287.0, 604.0, 1271.0, 2674.0]).unwrap();
        vec![
            envivio_video(),
            abr_video::VideoBuilder::new(vbr)
                .chunks(40)
                .chunk_secs(2.0)
                .vbr(|k| 0.6 + 0.8 * ((k * 7) % 11) as f64 / 10.0),
            abr_video::VideoBuilder::new(catalog)
                .chunks(16)
                .chunk_secs(3.0)
                .vbr(|k| 0.8 + 0.4 * ((k * 5) % 9) as f64 / 8.0),
        ]
    }

    #[test]
    fn digest_keys_match_the_bytewise_oracle() {
        use abr_video::{QoePreference, QoeWeights};
        let mut videos = key_videos();
        // Each video again as a manifest round trip: what a registration
        // resolves.
        let parsed: Vec<Video> = videos
            .iter()
            .map(|v| abr_net::mpd::parse(&abr_net::mpd::generate(v)).unwrap())
            .collect();
        videos.extend(parsed);
        let mut weights = vec![
            QoeWeights::preset(QoePreference::Balanced),
            QoeWeights::preset(QoePreference::AvoidRebuffering),
        ];
        for quality in [
            QualityFn::Log {
                r0: 350.0,
                scale: 1.5,
            },
            QualityFn::Saturating { cap_kbps: 2_500.0 },
            QualityFn::Table {
                knots: vec![(300.0, 1.0), (3_000.0, 4.5)],
            },
        ] {
            let mut w = QoeWeights::balanced();
            w.quality = quality;
            w.w_lat = 10.0;
            weights.push(w);
        }
        let mut keys = std::collections::HashSet::new();
        for video in &videos {
            for cap in [30.0, 8.0] {
                for w in &weights {
                    let mut vod = TableConfig::with_levels(video.ladder().len(), cap);
                    vod.weights = w.clone();
                    let live = vod.clone().live_slices(vod.horizon);
                    for cfg in [&vod, &live] {
                        let key = table_key(video, cap, cfg);
                        assert_eq!(key, bytewise_table_key(video, cap, cfg));
                        keys.insert(key);
                    }
                }
            }
        }
        // A manifest round trip is exact, so it keys the same table; every
        // other combination is a distinct instance.
        assert_eq!(keys.len(), videos.len() / 2 * 2 * weights.len() * 2);
    }

    #[test]
    fn keys_keep_their_recorded_values() {
        // Recorded from the byte-wise key, before videos carried a digest.
        let videos = key_videos();
        let vod = TableConfig::with_levels(5, 30.0);
        assert_eq!(
            table_key(&videos[0], 30.0, &vod),
            0x7cc0ff9699ab60824fdf3edb9d6a4dc1
        );
        let live = TableConfig::with_levels(6, 8.0).live_slices(5);
        assert_eq!(
            table_key(&videos[1], 8.0, &live),
            0xe263db3754e6c797e89f19b53f8c7d7f
        );
    }

    #[test]
    fn one_manifest_parses_to_one_digest() {
        for video in key_videos() {
            let manifest = abr_net::mpd::generate(&video);
            let a = abr_net::mpd::parse(&manifest).unwrap();
            let b = abr_net::mpd::parse(&manifest).unwrap();
            assert_eq!(a.digest(), b.digest());
            assert_eq!(a.digest(), video.digest(), "the round trip is exact");
            assert_eq!(video.clone().digest(), video.digest());
        }
    }

    #[test]
    fn hit_completes_while_another_key_generates() {
        // A populated key's readers never queue behind a generation: a hot
        // hit must complete while a *different* key's generation is parked
        // mid-flight.
        let video = envivio_video();
        let store = Arc::new(TableStore::new());
        let TableHandle::Owned(hot) = store.ensure(&video, 30.0, &small_cfg(6)) else {
            panic!("a fresh generation is owned");
        };
        let cold_key = table_key(&video, 30.0, &small_cfg(6)).wrapping_add(1);
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let generator = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                store.ensure_with(cold_key, move || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap(); // hold the generation open
                    make_table(7)
                })
            })
        };
        started_rx.recv().unwrap(); // the cold key is now mid-generation
        let TableHandle::Owned(again) = store.ensure(&video, 30.0, &small_cfg(6)) else {
            panic!("the hot tier serves owned tables");
        };
        assert!(Arc::ptr_eq(&hot, &again), "hit served while cold key generates");
        release_tx.send(()).unwrap();
        generator.join().unwrap();
        let stats = store.stats();
        assert_eq!(stats.generates, 2);
        assert_eq!(stats.hot_hits, 1);
    }
}
