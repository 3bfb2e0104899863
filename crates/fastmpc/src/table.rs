//! Offline table generation (Figure 5's enumeration) and size accounting
//! (Table 1).

use crate::bins::BinSpec;
use crate::rle::Rle;
use abr_core::mpc::{optimize_first_with, HorizonScratch};
use abr_video::{LevelIdx, QoeWeights, Video};

/// Configuration of the FastMPC table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableConfig {
    /// Binning of the buffer dimension (linear over `[0, B_max]`).
    pub buffer_bins: BinSpec,
    /// Binning of the throughput-prediction dimension (logarithmic).
    pub throughput_bins: BinSpec,
    /// MPC look-ahead horizon.
    pub horizon: usize,
    /// Number of truncated-horizon slices for live sessions: slice `s`
    /// stores the optimum for an effective horizon of `horizon - s`
    /// chunks, so a player at the live edge (where fewer chunks exist yet)
    /// looks up the slice matching its availability-truncated horizon.
    /// `1` — the default — is the VOD table: the full
    /// horizon only. Must satisfy `1 <= horizon_slices <= horizon`.
    pub horizon_slices: usize,
    /// QoE weights the offline solves optimize.
    pub weights: QoeWeights,
}

impl TableConfig {
    /// The paper's configuration: 100 buffer bins over `[0, 30 s]`,
    /// 100 throughput bins, horizon 5 — 100 × |R| × 100 rows (50,000 for
    /// the 5-level Envivio ladder, matching Figure 5).
    pub fn paper_default() -> Self {
        Self::with_levels(100, 30.0)
    }

    /// The MPC look-ahead of every configuration
    /// [`with_levels`](Self::with_levels) builds: the paper's 5 chunks.
    pub const HORIZON: usize = 5;

    /// A table with `levels` bins per continuous dimension (the Figure 12a
    /// / Table 1 sweep parameter) for a player buffer of `buffer_max_secs`.
    pub fn with_levels(levels: usize, buffer_max_secs: f64) -> Self {
        Self {
            buffer_bins: BinSpec::linear(levels, 0.0, buffer_max_secs),
            throughput_bins: BinSpec::log(levels, 100.0, 10_000.0),
            horizon: Self::HORIZON,
            horizon_slices: 1,
            weights: QoeWeights::balanced(),
        }
    }

    /// Grows the table with truncated-horizon slices for live lookups:
    /// every effective horizon in `[horizon - slices + 1, horizon]` gets
    /// its own enumerated slice.
    pub fn live_slices(mut self, slices: usize) -> Self {
        assert!(
            (1..=self.horizon).contains(&slices),
            "need 1 <= slices <= horizon"
        );
        self.horizon_slices = slices;
        self
    }
}

/// The enumerated decision table: optimal bitrate level for every
/// (buffer bin, previous level, throughput bin) scenario, stored run-length
/// encoded.
///
/// ```
/// use abr_fastmpc::{FastMpcTable, TableConfig};
/// use abr_video::{envivio_video, LevelIdx};
///
/// let video = envivio_video();
/// // Offline: enumerate and solve (small table for the example).
/// let table = FastMpcTable::generate(&video, 30.0, TableConfig::with_levels(15, 30.0));
/// // Online: a pure lookup.
/// let level = table.lookup(12.0, LevelIdx(2), 2200.0);
/// assert!(level.get() < 5);
/// assert!(table.rle_size_bytes() <= table.full_size_bytes() * 5);
/// ```
///
/// Row layout (row-major): `buffer` is the slowest dimension, then
/// `previous level`, then `throughput`. Throughput is innermost because the
/// optimal decision is monotone-ish in predicted throughput, producing long
/// runs for the RLE to exploit.
#[derive(Debug, Clone, PartialEq)]
pub struct FastMpcTable {
    pub(crate) cfg: TableConfig,
    pub(crate) num_levels: usize,
    pub(crate) buffer_max_secs: f64,
    pub(crate) decisions: Rle,
}

impl FastMpcTable {
    /// Runs the offline enumeration: one exact MPC solve per scenario
    /// centroid (the role CPLEX plays in the paper).
    ///
    /// `video` supplies the ladder and chunk sizes; the table represents the
    /// steady state, so solves start at chunk 0 with the full horizon,
    /// clipped to the video as every solve is. (Buffer, previous-level)
    /// rows fan out across threads via `abr-par`, and each row solves its
    /// throughput bins in order in one [`HorizonScratch`], so a cell's
    /// search starts from its neighbour's plan as incumbent. The incumbent
    /// only speeds the proof of optimality: every cell equals a cold solve
    /// from a fresh scratch.
    pub fn generate(video: &Video, buffer_max_secs: f64, cfg: TableConfig) -> Self {
        let num_levels = video.ladder().len();
        assert!(num_levels <= u8::MAX as usize, "ladder too large for u8 storage");
        assert!(
            (1..=cfg.horizon).contains(&cfg.horizon_slices),
            "need 1 <= horizon_slices <= horizon"
        );
        let slice_rows = cfg.buffer_bins.count * num_levels;
        let n_rows = cfg.horizon_slices * slice_rows;
        let row_len = cfg.throughput_bins.count;

        // Slice-major: slice `s` (effective horizon `horizon - s`) is a
        // contiguous block of rows, so slice 0 is byte-identical to the
        // single-slice (VOD) table over the same bins.
        let make_row = |r: usize| -> Vec<u8> {
            let horizon = cfg.horizon - r / slice_rows;
            let b = (r % slice_rows) / num_levels;
            let prev = Some(LevelIdx(r % num_levels));
            let buffer = cfg.buffer_bins.centroid(b).min(buffer_max_secs);
            let mut scratch = HorizonScratch::new();
            (0..row_len)
                .map(|c| {
                    let (first, _) = optimize_first_with(
                        &mut scratch,
                        video,
                        0,
                        horizon,
                        buffer,
                        buffer_max_secs,
                        prev,
                        cfg.throughput_bins.centroid(c),
                        &cfg.weights,
                    );
                    first.get() as u8
                })
                .collect()
        };
        let decisions = abr_par::par_map(n_rows, make_row).concat();
        Self {
            cfg,
            num_levels,
            buffer_max_secs,
            decisions: Rle::encode(&decisions),
        }
    }

    /// Online lookup: bins the live state and retrieves the stored optimum
    /// (binary search, no solving). Always resolves in slice 0 — the
    /// full-horizon (VOD) slice — regardless of `horizon_slices`.
    pub fn lookup(&self, buffer_secs: f64, prev: LevelIdx, throughput_kbps: f64) -> LevelIdx {
        let b = self.cfg.buffer_bins.index_of(buffer_secs);
        let p = prev.get().min(self.num_levels - 1);
        let c = self.cfg.throughput_bins.index_of(throughput_kbps);
        let idx = (b * self.num_levels + p) * self.cfg.throughput_bins.count + c;
        LevelIdx(self.decisions.get(idx) as usize)
    }

    /// Live lookup: resolves the probe in the slice enumerated for
    /// `effective_horizon` look-ahead chunks (the availability-truncated
    /// horizon of [`abr_core::mpc::live_effective_horizon`]), clamped to
    /// the slices stored. With `horizon_slices == 1`, or an effective
    /// horizon at the full look-ahead, this is exactly [`Self::lookup`].
    pub fn lookup_live(
        &self,
        buffer_secs: f64,
        prev: LevelIdx,
        throughput_kbps: f64,
        effective_horizon: usize,
    ) -> LevelIdx {
        let s = self
            .cfg
            .horizon
            .saturating_sub(effective_horizon.max(1))
            .min(self.cfg.horizon_slices - 1);
        let b = self.cfg.buffer_bins.index_of(buffer_secs);
        let p = prev.get().min(self.num_levels - 1);
        let c = self.cfg.throughput_bins.index_of(throughput_kbps);
        let grid = self.cfg.buffer_bins.count * self.num_levels * self.cfg.throughput_bins.count;
        let idx = s * grid + (b * self.num_levels + p) * self.cfg.throughput_bins.count + c;
        LevelIdx(self.decisions.get(idx) as usize)
    }

    /// Number of scenarios (rows) in the table.
    pub fn num_entries(&self) -> usize {
        self.decisions.len()
    }

    /// Number of RLE runs after compression.
    pub fn num_runs(&self) -> usize {
        self.decisions.runs()
    }

    /// Size of the uncompressed table: one byte per scenario (bin keys are
    /// implicit in the row index). The Table 1 "full table" column.
    pub fn full_size_bytes(&self) -> usize {
        self.num_entries()
    }

    /// Size of the run-length-coded table (the Table 1 "run length coding"
    /// column) — what the player actually ships.
    pub fn rle_size_bytes(&self) -> usize {
        self.decisions.size_bytes()
    }

    /// The table's configuration.
    pub fn config(&self) -> &TableConfig {
        &self.cfg
    }

    /// Buffer capacity the table was generated for.
    pub fn buffer_max_secs(&self) -> f64 {
        self.buffer_max_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_core::mpc::optimize_horizon;
    use abr_video::envivio_video;

    fn small_table() -> FastMpcTable {
        let video = envivio_video();
        FastMpcTable::generate(&video, 30.0, TableConfig::with_levels(12, 30.0))
    }

    #[test]
    fn paper_dimensions_give_50k_rows() {
        let cfg = TableConfig::paper_default();
        assert_eq!(cfg.buffer_bins.count, 100);
        assert_eq!(cfg.throughput_bins.count, 100);
        // 100 * 5 * 100 = 50,000 — the scenario count shown in Figure 5.
        assert_eq!(cfg.buffer_bins.count * 5 * cfg.throughput_bins.count, 50_000);
    }

    #[test]
    fn lookup_matches_exact_mpc_at_centroids() {
        let video = envivio_video();
        let cfg = TableConfig::with_levels(12, 30.0);
        let table = FastMpcTable::generate(&video, 30.0, cfg.clone());
        for b in [0, 5, 11] {
            for prev in 0..5 {
                for c in [0, 4, 11] {
                    let buffer = cfg.buffer_bins.centroid(b);
                    let thr = cfg.throughput_bins.centroid(c);
                    let exact = optimize_horizon(
                        &video,
                        0,
                        5,
                        buffer,
                        30.0,
                        Some(LevelIdx(prev)),
                        thr,
                        &cfg.weights,
                    )
                    .first();
                    assert_eq!(
                        table.lookup(buffer, LevelIdx(prev), thr),
                        exact,
                        "bin (b={b}, p={prev}, c={c})"
                    );
                }
            }
        }
    }

    #[test]
    fn extreme_states_behave_sensibly() {
        let t = small_table();
        // Deep starvation + slow link: bottom level.
        assert_eq!(t.lookup(0.0, LevelIdx(0), 120.0), LevelIdx(0));
        // Full buffer + fast link: top level.
        assert_eq!(t.lookup(30.0, LevelIdx(4), 9_500.0), LevelIdx(4));
        // Out-of-range queries clamp instead of panicking.
        assert_eq!(t.lookup(-1.0, LevelIdx(0), 50.0), LevelIdx(0));
        assert_eq!(t.lookup(99.0, LevelIdx(4), 1e6), LevelIdx(4));
    }

    #[test]
    fn rle_compresses_the_table_at_realistic_resolution() {
        // At coarse resolution runs are short and RLE overhead dominates;
        // at the paper's working resolutions compression wins (Table 1).
        let video = envivio_video();
        let t = FastMpcTable::generate(&video, 30.0, TableConfig::with_levels(50, 30.0));
        assert_eq!(t.num_entries(), 50 * 5 * 50);
        assert!(
            t.rle_size_bytes() < t.full_size_bytes(),
            "rle {} vs full {}",
            t.rle_size_bytes(),
            t.full_size_bytes()
        );
    }

    #[test]
    fn compression_improves_with_resolution() {
        // Table 1's trend: finer discretization -> better compression ratio.
        let video = envivio_video();
        let coarse = FastMpcTable::generate(&video, 30.0, TableConfig::with_levels(10, 30.0));
        let fine = FastMpcTable::generate(&video, 30.0, TableConfig::with_levels(40, 30.0));
        let ratio = |t: &FastMpcTable| t.rle_size_bytes() as f64 / t.full_size_bytes() as f64;
        assert!(
            ratio(&fine) < ratio(&coarse),
            "fine {} vs coarse {}",
            ratio(&fine),
            ratio(&coarse)
        );
    }

    #[test]
    fn live_slice_zero_is_the_vod_table() {
        // A sliced table's full-horizon slice must agree with the plain
        // VOD table probe for probe, and lookup_live at the full horizon
        // must collapse to lookup.
        let video = envivio_video();
        let vod = FastMpcTable::generate(&video, 30.0, TableConfig::with_levels(10, 30.0));
        let sliced = FastMpcTable::generate(
            &video,
            30.0,
            TableConfig::with_levels(10, 30.0).live_slices(4),
        );
        assert_eq!(sliced.num_entries(), 4 * vod.num_entries());
        for (buffer, prev, thr) in
            [(0.0, 0, 120.0), (9.0, 2, 1500.0), (22.0, 3, 4000.0), (30.0, 4, 9500.0)]
        {
            let want = vod.lookup(buffer, LevelIdx(prev), thr);
            assert_eq!(sliced.lookup(buffer, LevelIdx(prev), thr), want);
            assert_eq!(sliced.lookup_live(buffer, LevelIdx(prev), thr, 5), want);
            // Horizons beyond the stored slices clamp to full-horizon.
            assert_eq!(sliced.lookup_live(buffer, LevelIdx(prev), thr, 99), want);
        }
    }

    #[test]
    fn live_slices_match_exact_truncated_solves_at_centroids() {
        let video = envivio_video();
        let cfg = TableConfig::with_levels(10, 30.0).live_slices(5);
        let table = FastMpcTable::generate(&video, 30.0, cfg.clone());
        for h_eff in 1..=5usize {
            for b in [0, 4, 9] {
                for c in [0, 5, 9] {
                    let buffer = cfg.buffer_bins.centroid(b);
                    let thr = cfg.throughput_bins.centroid(c);
                    let exact = optimize_horizon(
                        &video,
                        0,
                        h_eff,
                        buffer,
                        30.0,
                        Some(LevelIdx(2)),
                        thr,
                        &cfg.weights,
                    )
                    .first();
                    assert_eq!(
                        table.lookup_live(buffer, LevelIdx(2), thr, h_eff),
                        exact,
                        "h_eff={h_eff} bin (b={b}, c={c})"
                    );
                }
            }
        }
    }

    #[test]
    fn decision_monotone_in_throughput_bin_majority() {
        // The decision should (overwhelmingly) not decrease as predicted
        // throughput rises, holding buffer and prev fixed. Binning can
        // introduce rare boundary wiggles; demand 95 % monotone steps.
        let t = small_table();
        let cfg = t.config().clone();
        let mut monotone = 0;
        let mut total = 0;
        for b in 0..cfg.buffer_bins.count {
            for p in 0..5 {
                let mut prev_level = 0usize;
                for c in 0..cfg.throughput_bins.count {
                    let lvl = t
                        .lookup(
                            cfg.buffer_bins.centroid(b),
                            LevelIdx(p),
                            cfg.throughput_bins.centroid(c),
                        )
                        .get();
                    if c > 0 {
                        total += 1;
                        if lvl >= prev_level {
                            monotone += 1;
                        }
                    }
                    prev_level = lvl;
                }
            }
        }
        assert!(
            monotone as f64 >= 0.95 * total as f64,
            "only {monotone}/{total} monotone steps"
        );
    }
}
