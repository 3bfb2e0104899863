//! Model predictive control for bitrate adaptation — Section 4 and
//! Algorithm 1 of the paper.
//!
//! At each chunk `k` the controller solves `QOE_MAX_STEADY(k .. k+N-1)`:
//! maximize the Eq. (5) QoE over all bitrate plans for the next `N` chunks,
//! rolling the buffer model of Eqs. (1)–(4) forward under the predicted
//! throughput, then applies only the first decision (receding horizon).
//!
//! The paper solves this with CPLEX offline; at the evaluation's problem
//! sizes (`|R| = 5`, `N = 5` → 3125 plans) exact enumeration is cheap. We
//! implement depth-first branch-and-bound over a reusable scratch buffer
//! ([`HorizonScratch`] — no heap allocation per node or per solve), warm-
//! started with a real plan and pruned by the smaller of two admissible
//! bounds. This keeps even the `N = 9` sensitivity sweep of Figure 12b
//! exact and fast.
//!
//! The search visits levels top-down and replaces the incumbent only on
//! strict improvement, so it always returns the *first* optimal plan in
//! that fixed order. Warm starts are backed off by [`BOUND_SLACK`] so they
//! sit strictly below the optimum and can never displace that plan, and an
//! admissible bound never prunes it either — the solver's output is
//! bit-identical whatever the warm start and whichever admissible bound,
//! which is what lets a session's decisions and a FastMPC row's cells
//! (`abr-fastmpc` solves a row's throughput bins in order in one scratch)
//! seed each solve with the previous plan and still equal a cold solve.
//!
//! **Bounds.** The *switching bound* folds the unavoidable switch penalty
//! and the unavoidable rebuffer time into the optimistic estimate; it
//! assumes the top of the ladder is reachable at any throughput once the
//! buffer covers the cheapest downloads. The *throughput-budget bound*
//! caps the quality of the remaining chunks at what the predicted
//! throughput delivers while the buffer lasts, `budget[d] + (C/L)·(B +
//! (r−1)·L)` with `budget[d] = Σ_{j≥d} max_l (q_l − size(start+j, l)/L)`;
//! it holds while `C/L ≤ μ`, `λ ≥ 0`, `μ_event ≥ 0` and `L ≤ B_max` (see
//! `Below::budget`). A child is bounded in its parent's loop, so a
//! pruned child costs no call.
//!
//! **Seeds.** The scratch keeps the previous solve's plan and the chunk it
//! starts at. A solve at the same start (a FastMPC row's next cell, a
//! startup grid point) reuses it as is, a solve one chunk later (a
//! session's next decision) shifts it by a chunk, and the chunks it no
//! longer covers are completed greedily. Its value, accumulated with the
//! search's own tables, minus [`BOUND_SLACK`] seeds the incumbent; a
//! greedy plan seeds it only when no previous plan covers the start.
//!
//! **Tables.** A node does no division, no chunk-size lookup and no loop
//! over the ladder; it reads tables, with levels as indices (`n` stands for
//! "no previous level"):
//!
//! - once per solve, `dl[d][l] = d_{start+d}(l) / C`, the download times,
//!   the rebuffer bound's floor `min_suffix_kbits[d] / C` and the budget
//!   bound's `budget[d]`;
//! - once per ladder, cached in the scratch and rebuilt only when the
//!   ladder's quality values or `λ` change: `qsw[p][l] = q_l − λ·|q_l − q_p|`
//!   (row `n`: `q_l − λ·0`), and the quality part of the switching bound per
//!   chunks remaining and previous level, so solves with a clipped or live-
//!   truncated horizon share it;
//! - the last chunk of a plan is scored in its parent's loop, with no call.
//!
//! The output is bit-identical to computing everything at the node: each
//! table entry is the very expression the node evaluated, with the same
//! operands in the same order (a chunk scores `((q − λ·switch) − μ·r) −
//! event`, the table holding the parenthesized head, see
//! [`QoeWeights::charge_rebuffer`]), with the same `<=` prune and strict
//! `>` update. A test keeps the node-by-node search with the switching
//! bound and a greedy seed as an oracle and compares first level, QoE bits
//! and plan over 10,000 seeded cases and over solves in session and
//! same-start order.
//!
//! **Work.** In MPC and RobustMPC sessions (`N = 5`, Envivio's five
//! levels, 30 FCC-like and 30 HSDPA-like traces, 7,800 solves) a solve
//! checks the bound at about 60 nodes and expands about 14; with the
//! switching bound and a greedy seed alone it was 113 and 26. The
//! switching bound left a floor of 97 checks even with the optimum itself
//! as the incumbent, which is why a better seed alone gained nothing; with
//! both bounds that floor is 48, and the previous plan comes within a
//! quarter of it. `tests::search_work_on_a_fixed_replay_stays_under_its_ceiling`
//! pins the count on a smaller replay.
//!
//! **RobustMPC** (Section 4.3) maximizes worst-case QoE over a throughput
//! interval `[Ĉ_lo, Ĉ_hi]`. By Theorem 1 the inner minimum is attained at
//! `Ĉ_lo` — QoE of a fixed plan is non-decreasing in throughput (only the
//! rebuffer term depends on it, and less throughput means more rebuffering)
//! — so RobustMPC is exactly regular MPC fed the lower bound. This module
//! encodes that equivalence and `tests` verify the monotonicity property.
//!
//! **Startup phase** (`fst_mpc`): the player may also choose the startup
//! delay `T_s`. Deferring playback by `T_s` is equivalent to starting with
//! buffer credit `B_1 = T_s` (Eq. 10), so the startup optimizer grid-searches
//! `T_s`, scoring each candidate as the horizon QoE from buffer `B + T_s`
//! minus `μ_s · T_s`.
//!
//! **Live sessions** ([`optimize_first_live`]): when the driver runs a
//! [`abr_video::LiveSchedule`], the horizon is truncated to the chunks that
//! will have been released before the content the player already holds runs
//! out ([`live_effective_horizon`]) — planning further enumerates levels for
//! chunks that cannot exist when they would be needed. The rolled-forward
//! model tracks wall-clock time: a chunk not yet released at its predicted
//! fetch instant incurs an explicit *wait* (fetch-at-release; waiting any
//! longer only drains buffer and raises latency, so the wait-vs-fetch
//! decision is always "wait exactly until release, then fetch"), and each
//! chunk's contribution is charged the latency QoE term
//! `−w_lat · (live_edge − playhead)` at the latency held when the chunk
//! lands. With `w_lat = 0` and every chunk already released, the live solve
//! is bit-identical to the VOD solve.

use crate::controller::{BitrateController, ControllerContext, Decision};
use crate::model::advance_buffer;
use abr_video::{LevelIdx, LiveState, QoeWeights, Video};

/// Configuration of the MPC controller family.
#[derive(Debug, Clone)]
pub struct MpcConfig {
    /// Look-ahead horizon `N` in chunks (the paper uses 5).
    pub horizon: usize,
    /// QoE objective weights.
    pub weights: QoeWeights,
    /// Use the robust throughput lower bound instead of the raw prediction.
    pub robust: bool,
    /// During startup, optimize `T_s` over a grid (otherwise leave startup
    /// to the driver's policy).
    pub optimize_startup: bool,
    /// Grid step for the startup search, seconds.
    pub startup_step_secs: f64,
    /// Largest startup delay considered, seconds.
    pub startup_max_secs: f64,
}

impl MpcConfig {
    /// The paper's defaults: horizon 5, balanced QoE weights.
    pub fn paper_default() -> Self {
        Self {
            horizon: 5,
            weights: QoeWeights::balanced(),
            robust: false,
            optimize_startup: false,
            startup_step_secs: 0.5,
            startup_max_secs: 10.0,
        }
    }
}

impl Default for MpcConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// An optimal plan over the look-ahead horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct HorizonPlan {
    /// QoE of the plan under the assumed throughput (Eq. 5 terms within the
    /// horizon, including the switch penalty against the pre-horizon level).
    pub qoe: f64,
    /// Chosen levels for chunks `start .. start + len`.
    pub levels: Vec<LevelIdx>,
}

impl HorizonPlan {
    /// The receding-horizon output: the first level of the plan.
    pub fn first(&self) -> LevelIdx {
        *self.levels.first().expect("plans are non-empty")
    }
}

/// Scores a complete candidate plan: the QoE contribution of chunks
/// `start .. start + plan.len()` starting from `buffer_secs` with constant
/// `throughput_kbps`, including the switch penalty of the first chunk
/// against `prev_level`. Shared by the optimizer, its tests, and the
/// offline/FastMPC crates.
#[allow(clippy::too_many_arguments)]
pub fn plan_qoe(
    video: &Video,
    start: usize,
    plan: &[LevelIdx],
    buffer_secs: f64,
    buffer_max_secs: f64,
    prev_level: Option<LevelIdx>,
    throughput_kbps: f64,
    weights: &QoeWeights,
) -> f64 {
    let mut qoe = 0.0;
    let mut buffer = buffer_secs;
    let mut prev_q = prev_level.map(|l| weights.q(video.ladder().kbps(l)));
    for (i, &level) in plan.iter().enumerate() {
        let k = start + i;
        let dl = video.chunk_size_kbits(k, level) / throughput_kbps;
        let step = advance_buffer(buffer, dl, video.chunk_secs(), buffer_max_secs);
        let q = weights.q(video.ladder().kbps(level));
        let switch = prev_q.map_or(0.0, |p| (q - p).abs());
        qoe += weights.chunk_contribution(q, switch, step.rebuffer_secs);
        buffer = step.next_buffer_secs;
        prev_q = Some(q);
    }
    qoe
}

/// Back-off applied to warm-start incumbent values so they sit strictly
/// below the optimum even under floating-point rounding of the bound
/// arithmetic. QoE values in this model are O(10³)–O(10⁵), so 10⁻⁶ is
/// ~10⁴ × the accumulated rounding noise while being far too small to cost
/// measurable pruning.
pub const BOUND_SLACK: f64 = 1e-6;

/// Reusable workspace for [`optimize_first_with`] and
/// [`optimize_first_live`].
///
/// Besides the plan buffers it holds the search's tables (see the module
/// docs). The per-solve tables are refilled in place by every solve; the
/// per-ladder tables are rebuilt only when the ladder's quality values or
/// `λ` change, so a scratch held across the solves of one session or one
/// FastMPC table builds them once. The plan of the most recent solve stays
/// in the scratch and seeds the next solve's incumbent (see the module
/// docs). After the first solve at a given horizon and ladder size, a solve
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct HorizonScratch {
    best: Vec<LevelIdx>,
    current: Vec<LevelIdx>,
    /// The chunk `best[0]` was planned for.
    best_start: usize,
    /// `dl[d·n + l]`: seconds to download chunk `start + d` at level `l`.
    dl: Vec<f64>,
    /// `min_dl[d]`: seconds to download the cheapest encodings of chunks
    /// `start + d ..` to the end of the horizon.
    min_dl: Vec<f64>,
    /// `budget[d]`: the buffer-free part of the throughput-budget bound for
    /// chunks `start + d ..` (see [`Below::budget`]); `+∞` where that bound
    /// does not hold.
    budget: Vec<f64>,
    ladder: LadderTables,
    #[cfg(test)]
    work: Work,
}

impl HorizonScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// The full optimal plan left behind by the most recent solve (length =
    /// the clipped horizon of that solve). Empty before the first solve.
    pub fn plan(&self) -> &[LevelIdx] {
        &self.best
    }
}

/// What the searches of one scratch have done, counted in test builds
/// only: the tests pin the search's work without timing it.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
struct Work {
    /// Bound checks: one per node whose subtree the search may prune.
    checks: u64,
    /// Nodes whose children the search enumerated.
    expanded: u64,
}

/// The tables that depend only on the ladder's quality values and `λ`,
/// for an `n`-level ladder. Row `p = n` stands for "no previous level".
#[derive(Debug, Clone, Default)]
struct LadderTables {
    /// The cache key, compared bit for bit: `q_l` per level, and `λ`.
    level_q: Vec<f64>,
    lambda: f64,
    /// `qsw[p·n + l] = q_l − λ·|q_l − q_p|`, the leading part of
    /// `QoeWeights::chunk_contribution` for level `l` after level `p`;
    /// row `n` is `q_l − λ·0`.
    qsw: Vec<f64>,
    /// `bq[r·(n+1) + p]`: the quality part of [`Below::switching`] with `r`
    /// chunks remaining after level `p`. Grown a row at a time, so solves
    /// with shorter (clipped or live-truncated) horizons share it.
    bq: Vec<f64>,
}

impl LadderTables {
    /// Brings the tables up to date for `video`'s ladder under `weights`,
    /// with bound rows for up to `len` chunks remaining.
    fn refresh(&mut self, video: &Video, weights: &QoeWeights, len: usize) {
        let ladder = video.ladder();
        let n = ladder.len();
        let mut stale =
            self.level_q.len() != n || self.lambda.to_bits() != weights.lambda.to_bits();
        self.level_q.resize(n, 0.0);
        for (li, cached) in self.level_q.iter_mut().enumerate() {
            let q = weights.q(ladder.kbps(LevelIdx(li)));
            stale |= cached.to_bits() != q.to_bits();
            *cached = q;
        }
        if stale {
            self.lambda = weights.lambda;
            self.qsw.clear();
            for p in 0..=n {
                for &q in &self.level_q {
                    let switch = match self.level_q.get(p) {
                        Some(&prev_q) => (q - prev_q).abs(),
                        None => 0.0,
                    };
                    self.qsw.push(q - self.lambda * switch);
                }
            }
            self.bq.clear();
        }
        // Quality minus unavoidable switching: a future plan whose best
        // per-chunk quality is `q_l` earns at most `r·q_l` and, by the
        // triangle inequality on the switch terms, pays at least
        // `λ·|q_l − q_p|` to visit that level; maximize over the ladder.
        // Without a previous level there is no switch to pay, and the top
        // of the ladder is its best quality.
        while self.bq.len() < (len + 1) * (n + 1) {
            let remaining = (self.bq.len() / (n + 1)) as f64;
            for &p in &self.level_q {
                let mut b = f64::NEG_INFINITY;
                for &q in &self.level_q {
                    let cand = remaining * q - self.lambda * (q - p).abs();
                    if cand > b {
                        b = cand;
                    }
                }
                self.bq.push(b);
            }
            self.bq.push(remaining * self.level_q[n - 1]);
        }
    }
}

/// The branch-and-bound state: the tables and plan buffers of a
/// [`HorizonScratch`], borrowed; the recursion allocates nothing. A level
/// is its index `l < n`, and "no previous level" is `n`.
struct Search<'a> {
    weights: &'a QoeWeights,
    n: usize,
    len: usize,
    buffer_max: f64,
    chunk_secs: f64,
    /// `C / L`: what a second of buffer is worth in the throughput-budget
    /// bound.
    rate: f64,
    dl: &'a [f64],
    min_dl: &'a [f64],
    budget: &'a [f64],
    qsw: &'a [f64],
    bq: &'a [f64],
    /// How many leading levels of `current` are the previous solve's plan,
    /// realigned to this solve's start (see [`prepare`]).
    seed_len: usize,
    best_qoe: f64,
    best: &'a mut [LevelIdx],
    current: &'a mut [LevelIdx],
    #[cfg(test)]
    work: &'a mut Work,
}

/// Admissible upper bound on the total QoE contribution of the chunks
/// from one depth to the end of the horizon, given the buffer level and
/// the level placed before them: the smaller of two bounds, each an
/// over-estimate on its own. It holds what every node at that depth
/// shares, so a node bounds its children with one lookup and a few flops.
#[derive(Debug, Clone, Copy)]
struct Below<'a> {
    /// The quality part of the switching bound per previous level (the
    /// ladder table's row for the chunks remaining).
    quality: &'a [f64],
    /// Seconds to download the cheapest encodings of those chunks.
    min_dl: f64,
    /// `(remaining − 1) · L`: playback the chunks themselves add before
    /// the last one lands.
    playback: f64,
    /// The throughput-budget bound's buffer-free part.
    budget: f64,
    mu: f64,
    /// `C / L`.
    rate: f64,
}

impl Below<'_> {
    /// The smaller of the two bounds.
    #[inline]
    fn bound(&self, buffer: f64, prev: usize) -> f64 {
        self.switching(buffer, prev).min(self.budget(buffer))
    }

    /// The quality part from the ladder table (quality minus unavoidable
    /// switching, see [`LadderTables::refresh`]) minus **unavoidable
    /// rebuffering**: downloading even the smallest remaining chunks takes
    /// `min_dl` seconds while the buffer supplies at most
    /// `buffer + (remaining − 1) · L` seconds of playback before the last
    /// chunk lands (telescoping Eqs. (1)–(4); the `B_max` cap only removes
    /// buffer, so ignoring it keeps the bound admissible). Its arithmetic
    /// is ordered differently from a plan's, so on an exact tie it can fall
    /// an ulp below the plan's value; [`BOUND_SLACK`] keeps every seed far
    /// below such a tie.
    #[inline]
    fn switching(&self, buffer: f64, prev: usize) -> f64 {
        self.quality[prev] - self.mu * (self.min_dl - buffer - self.playback).max(0.0)
    }

    /// The **throughput budget**: quality is capped by what the predicted
    /// throughput delivers while the buffer lasts, which the switching
    /// bound never sees. The telescoping above gives
    /// `Σ rebuffer ≥ Σ dl − x` with `x = buffer + (remaining − 1) · L`, and
    /// `μ · max(0, y) ≥ (C/L) · y` for any `y` while `C/L ≤ μ`. Dropping
    /// the switch and event penalties (`λ, μ_event ≥ 0`), the chunks earn
    /// at most `Σ (q_j − (C/L) · dl_j) + (C/L) · x`, where `(C/L) · dl_j`
    /// is chunk `j`'s size over `L`: at most `budget + (C/L) · buffer`,
    /// with `budget` summing each chunk's best `q_l − size_l / L` plus
    /// `(C/L) · (remaining − 1) · L`. A margin of `1e-9·|v| + 1e-6` covers
    /// the rounding of this differently ordered arithmetic. Where the
    /// conditions fail (or `L > B_max`), `budget` is `+∞` and so is this
    /// bound.
    #[inline]
    fn budget(&self, buffer: f64) -> f64 {
        let v = self.budget + self.rate * buffer;
        v + (1e-9 * v.abs() + 1e-6)
    }
}

impl<'a> Search<'a> {
    /// The download times of the chunk at `depth`, one per level.
    #[inline]
    fn dl_row(&self, depth: usize) -> &'a [f64] {
        let dl: &'a [f64] = self.dl;
        &dl[depth * self.n..(depth + 1) * self.n]
    }

    /// Each level's quality-minus-switch score after level `prev`.
    #[inline]
    fn qsw_row(&self, prev: usize) -> &'a [f64] {
        let qsw: &'a [f64] = self.qsw;
        &qsw[prev * self.n..(prev + 1) * self.n]
    }

    /// The bounds on the chunks from `depth` on (see [`Below`]).
    #[inline]
    fn below(&self, depth: usize) -> Below<'a> {
        let remaining = self.len - depth;
        let bq: &'a [f64] = self.bq;
        Below {
            quality: &bq[remaining * (self.n + 1)..(remaining + 1) * (self.n + 1)],
            min_dl: self.min_dl[depth],
            playback: (remaining as f64 - 1.0) * self.chunk_secs,
            budget: self.budget[depth],
            mu: self.weights.mu,
            rate: self.rate,
        }
    }

    /// Whether a node worth `qoe` so far, whose chunks below add at most
    /// `bound`, cannot beat the incumbent.
    #[inline]
    fn pruned(&mut self, qoe: f64, bound: f64) -> bool {
        #[cfg(test)]
        {
            self.work.checks += 1;
        }
        qoe + bound <= self.best_qoe
    }

    /// Keeps the complete plan in `current`, worth `qoe`, if it strictly
    /// beats the incumbent.
    #[inline]
    fn offer(&mut self, qoe: f64) {
        if qoe > self.best_qoe {
            self.best_qoe = qoe;
            self.best.copy_from_slice(self.current);
        }
    }

    /// The value of a real plan to seed the incumbent with: the previous
    /// solve's plan from this start on (see [`prepare`]), then, chunk by
    /// chunk, the level with the largest immediate gain (the higher level
    /// on a tie), accumulated with the exact floating-point operations the
    /// DFS uses along that path. Without a previous plan this is the greedy
    /// plan. Only the value is kept, so the search starts pruning from
    /// node one.
    fn seed_value(&self, buffer: f64, prev: usize) -> f64 {
        let prefix = &self.current[..self.seed_len];
        let mut qoe = 0.0;
        let mut buf = buffer;
        let mut p = prev;
        for depth in 0..self.len {
            let (dl, qsw) = (self.dl_row(depth), self.qsw_row(p));
            if let Some(&level) = prefix.get(depth) {
                let li = level.get();
                let step = advance_buffer(buf, dl[li], self.chunk_secs, self.buffer_max);
                qoe += self.weights.charge_rebuffer(qsw[li], step.rebuffer_secs);
                buf = step.next_buffer_secs;
                p = li;
                continue;
            }
            let mut best_gain = f64::NEG_INFINITY;
            let mut best_next = buf;
            for li in (0..self.n).rev() {
                let step = advance_buffer(buf, dl[li], self.chunk_secs, self.buffer_max);
                let gain = self.weights.charge_rebuffer(qsw[li], step.rebuffer_secs);
                if gain > best_gain {
                    best_gain = gain;
                    best_next = step.next_buffer_secs;
                    p = li;
                }
            }
            qoe += best_gain;
            buf = best_next;
        }
        qoe
    }

    /// Runs the search from the root, whose incumbent is already set.
    fn solve(&mut self, buffer: f64, prev: usize) {
        if !self.pruned(0.0, self.below(0).bound(buffer, prev)) {
            self.dfs(0, buffer, prev, 0.0);
        }
    }

    /// Depth-first branch-and-bound below a node at `depth < len` that
    /// passed its bound check. Iterates levels from the top down and
    /// replaces the incumbent only on strict improvement, so the final
    /// `best` is the first optimal plan in that fixed enumeration order —
    /// independent of the incumbent value the search started from (as long
    /// as it is strictly below the optimum) and of the bound (as long as it
    /// is admissible). A child is bounded, and the last chunk of a plan
    /// scored, here in its parent's loop, so a pruned child costs no call.
    fn dfs(&mut self, depth: usize, buffer: f64, prev: usize, qoe: f64) {
        #[cfg(test)]
        {
            self.work.expanded += 1;
        }
        let (dl, qsw) = (self.dl_row(depth), self.qsw_row(prev));
        if depth + 1 == self.len {
            for li in (0..self.n).rev() {
                let step = advance_buffer(buffer, dl[li], self.chunk_secs, self.buffer_max);
                self.current[depth] = LevelIdx(li);
                self.offer(qoe + self.weights.charge_rebuffer(qsw[li], step.rebuffer_secs));
            }
            return;
        }
        let below = self.below(depth + 1);
        for li in (0..self.n).rev() {
            let step = advance_buffer(buffer, dl[li], self.chunk_secs, self.buffer_max);
            let child = qoe + self.weights.charge_rebuffer(qsw[li], step.rebuffer_secs);
            if !self.pruned(child, below.bound(step.next_buffer_secs, li)) {
                self.current[depth] = LevelIdx(li);
                self.dfs(depth + 1, step.next_buffer_secs, li, child);
            }
        }
    }

    /// Admissible live bound on the chunks from `depth` on: the VOD bound
    /// minus the *minimum* latency charge of those chunks. In-plan latency
    /// never decreases (it grows with every rebuffer and is otherwise
    /// constant), so each of the `len − depth` chunks pays at least
    /// `w_lat · lat`. A wait for a release drains the buffer like download
    /// time, so both VOD bounds still hold.
    #[inline]
    fn live_bound(&self, x: &LiveExtra, depth: usize, buffer: f64, prev: usize, lat: f64) -> f64 {
        self.below(depth).bound(buffer, prev) - (self.len - depth) as f64 * x.w_lat * lat
    }

    /// The live depth-first branch-and-bound. Identical enumeration order
    /// and incumbent discipline to [`dfs`](Self::dfs), with two extensions:
    /// wall-clock tracking (`tau` seconds since the decision; a chunk not
    /// yet released at its fetch instant waits exactly until release), and
    /// a per-chunk latency charge `−w_lat · lat` at the latency held when
    /// the chunk lands (rebuffers freeze the playhead, so `lat` grows by
    /// each step's rebuffer).
    #[allow(clippy::too_many_arguments)]
    fn dfs_live(
        &mut self,
        x: &LiveExtra,
        depth: usize,
        buffer: f64,
        tau: f64,
        lat: f64,
        prev: usize,
        qoe: f64,
    ) {
        #[cfg(test)]
        {
            self.work.expanded += 1;
        }
        let (dl, qsw) = (self.dl_row(depth), self.qsw_row(prev));
        let wait = (x.release_in + depth as f64 * self.chunk_secs - tau).max(0.0);
        let leaf = depth + 1 == self.len;
        for li in (0..self.n).rev() {
            // The forced wait drains buffer exactly like download time does.
            let step = advance_buffer(buffer, wait + dl[li], self.chunk_secs, self.buffer_max);
            let lat2 = lat + step.rebuffer_secs;
            let gain = self.weights.charge_rebuffer(qsw[li], step.rebuffer_secs) - x.w_lat * lat2;
            let child = qoe + gain;
            if leaf {
                self.current[depth] = LevelIdx(li);
                self.offer(child);
            } else if !self.pruned(
                child,
                self.live_bound(x, depth + 1, step.next_buffer_secs, li, lat2),
            ) {
                self.current[depth] = LevelIdx(li);
                let tau2 = tau + wait + dl[li] + step.wait_secs;
                self.dfs_live(x, depth + 1, step.next_buffer_secs, tau2, lat2, li, child);
            }
        }
    }
}

/// The table row of the level before the horizon: its index, or `n` for
/// none.
fn prev_row(video: &Video, prev_level: Option<LevelIdx>) -> usize {
    let n = video.ladder().len();
    match prev_level {
        Some(l) => {
            assert!(l.get() < n, "previous level {} off a {n}-level ladder", l.get());
            l.get()
        }
        None => n,
    }
}

/// Validates arguments, refreshes the scratch's tables, and assembles a
/// [`Search`] over them; its `len` is the clipped horizon.
///
/// The previous solve's plan is realigned to this solve's chunks: its
/// levels from chunk `start` on, up to the clipped horizon, lead `current`
/// ([`Search::seed_len`] of them), and [`Search::seed_value`] completes the
/// rest greedily. That is the same plan at the same start (a FastMPC row's
/// next cell, a startup grid point) and the plan shifted by one chunk at
/// the next decision of a session. A plan that does not cover `start`, or
/// leaves the ladder, leaves nothing, and the seed is the greedy plan.
fn prepare<'a>(
    scratch: &'a mut HorizonScratch,
    video: &Video,
    start: usize,
    horizon: usize,
    buffer_max_secs: f64,
    throughput_kbps: f64,
    weights: &'a QoeWeights,
) -> Search<'a> {
    assert!(horizon > 0, "horizon must be positive");
    assert!(start < video.num_chunks(), "start chunk beyond video end");
    assert!(
        throughput_kbps > 0.0 && throughput_kbps.is_finite(),
        "throughput must be positive, got {throughput_kbps}"
    );
    let len = horizon.min(video.num_chunks() - start);
    let n = video.ladder().len();
    let chunk_secs = video.chunk_secs();
    let HorizonScratch {
        best,
        current,
        best_start,
        dl,
        min_dl,
        budget,
        ladder,
        #[cfg(test)]
        work,
    } = scratch;
    ladder.refresh(video, weights, len);
    let kept = (start.checked_sub(*best_start))
        .and_then(|shift| best.get(shift..))
        .filter(|kept| kept.iter().all(|l| l.get() < n))
        .unwrap_or_default();
    let seed_len = kept.len().min(len);
    current.clear();
    current.extend_from_slice(&kept[..seed_len]);
    current.resize(len, LevelIdx(0));
    best.clear();
    best.resize(len, LevelIdx(0));
    *best_start = start;
    dl.clear();
    for k in start..start + len {
        dl.extend(video.chunk_sizes_kbits(k).iter().map(|s| s / throughput_kbps));
    }
    // The cheapest encoding of chunks start+d .. start+len-1, summed from
    // the end: the floor on future download work in the rebuffer bound.
    // Sizes never fall with the level, so level 0 is a chunk's cheapest.
    min_dl.clear();
    min_dl.resize(len, 0.0);
    let mut acc = 0.0;
    for d in (0..len).rev() {
        acc += video.chunk_size_kbits(start + d, LevelIdx(0));
        min_dl[d] = acc / throughput_kbps;
    }
    // The throughput-budget bound's buffer-free part, summed from the end
    // (see `Below::budget` for the conditions it needs).
    let rate = throughput_kbps / chunk_secs;
    budget.clear();
    budget.resize(len, f64::INFINITY);
    if rate <= weights.mu
        && weights.lambda >= 0.0
        && weights.mu_event >= 0.0
        && chunk_secs <= buffer_max_secs
    {
        let mut acc = 0.0;
        for d in (0..len).rev() {
            let row = &dl[d * n..(d + 1) * n];
            let mut best_chunk = f64::NEG_INFINITY;
            for (&q, &t) in ladder.level_q.iter().zip(row) {
                best_chunk = best_chunk.max(q - rate * t);
            }
            acc += best_chunk;
            budget[d] = acc + throughput_kbps * (len - d - 1) as f64;
        }
    }
    Search {
        weights,
        n,
        len,
        buffer_max: buffer_max_secs,
        chunk_secs,
        rate,
        dl,
        min_dl,
        budget,
        qsw: &ladder.qsw,
        bq: &ladder.bq,
        seed_len,
        best_qoe: f64::NEG_INFINITY,
        best,
        current,
        #[cfg(test)]
        work,
    }
}

/// The allocation-free horizon solve: identical semantics to
/// [`optimize_horizon`] but writing the plan into `scratch` (read it back
/// via [`HorizonScratch::plan`]) and returning only the receding-horizon
/// output — the first level — plus the optimal QoE.
///
/// This is the online hot path: MPC and RobustMPC call it once per chunk,
/// table generation calls it tens of thousands of times per table.
#[allow(clippy::too_many_arguments)]
pub fn optimize_first_with(
    scratch: &mut HorizonScratch,
    video: &Video,
    start: usize,
    horizon: usize,
    buffer_secs: f64,
    buffer_max_secs: f64,
    prev_level: Option<LevelIdx>,
    throughput_kbps: f64,
    weights: &QoeWeights,
) -> (LevelIdx, f64) {
    let prev = prev_row(video, prev_level);
    let mut s = prepare(
        scratch,
        video,
        start,
        horizon,
        buffer_max_secs,
        throughput_kbps,
        weights,
    );
    // Warm-start from a real plan, backed off below the optimum.
    s.best_qoe = s.seed_value(buffer_secs, prev) - BOUND_SLACK;
    s.solve(buffer_secs, prev);
    let qoe = s.best_qoe;
    (scratch.best[0], qoe)
}

/// The number of horizon slots a live solve may actually plan over: `1 +`
/// the count of future chunks that will have been released before the
/// content the player already holds runs out (chunk `next + i` qualifies
/// when `release_in + i·L ≤ buffer + L`; the `+ L` accounts for the chunk
/// being planned in slot 0 playing while slot `i` waits).
///
/// Far behind the edge (`release_in` deeply negative — a DVR window or a
/// lagging playhead) every chunk qualifies and the live solve degenerates
/// to the full-horizon VOD solve; at the edge with a thin buffer this is
/// 1–2 chunks, which is what makes the truncated solve strictly cheaper.
pub fn live_effective_horizon(
    horizon: usize,
    chunk_secs: f64,
    release_in_secs: f64,
    buffer_secs: f64,
) -> usize {
    let mut h = 1;
    while h < horizon && release_in_secs + h as f64 * chunk_secs <= buffer_secs + chunk_secs {
        h += 1;
    }
    h
}

/// Live-solve constants threaded through [`Search::dfs_live`].
struct LiveExtra {
    /// Seconds until the first planned chunk's release (negative: already
    /// out), from the decision instant `tau = 0`.
    release_in: f64,
    /// The latency QoE weight `w_lat`.
    w_lat: f64,
}

/// The live receding-horizon solve: truncates the horizon to
/// [`live_effective_horizon`] — the explicit wait-vs-fetch decision is
/// resolved *inside* the rolled-forward model, which waits exactly until
/// each unreleased chunk's release before fetching it — and charges the
/// latency term `−w_lat · (live_edge − playhead)` per chunk at the latency
/// held when that chunk lands. Writes the plan into `scratch` like
/// [`optimize_first_with`] and returns the first level plus the optimal
/// live QoE.
///
/// With `w_lat = 0` and every horizon chunk already released the result is
/// **bit-identical** to [`optimize_first_with`] at the same horizon: the
/// waits are all `0.0`, `wait + dl` reproduces `dl` bitwise, and the
/// latency charge multiplies by zero.
#[allow(clippy::too_many_arguments)]
pub fn optimize_first_live(
    scratch: &mut HorizonScratch,
    video: &Video,
    start: usize,
    horizon: usize,
    buffer_secs: f64,
    buffer_max_secs: f64,
    prev_level: Option<LevelIdx>,
    throughput_kbps: f64,
    weights: &QoeWeights,
    live: &LiveState,
) -> (LevelIdx, f64) {
    let h_eff = live_effective_horizon(
        horizon,
        video.chunk_secs(),
        live.release_in_secs,
        buffer_secs,
    );
    let prev = prev_row(video, prev_level);
    let mut s = prepare(
        scratch,
        video,
        start,
        h_eff,
        buffer_max_secs,
        throughput_kbps,
        weights,
    );
    let x = LiveExtra {
        release_in: live.release_in_secs,
        w_lat: weights.w_lat,
    };
    if !s.pruned(0.0, s.live_bound(&x, 0, buffer_secs, prev, live.latency_secs)) {
        s.dfs_live(&x, 0, buffer_secs, 0.0, live.latency_secs, prev, 0.0);
    }
    let qoe = s.best_qoe;
    (scratch.best[0], qoe)
}

/// Exactly solves `QOE_MAX_STEADY(start .. start + horizon - 1)` for a
/// constant predicted throughput: the optimal bitrate plan and its QoE.
///
/// The horizon is clipped at the end of the video. Convenience wrapper
/// around [`optimize_first_with`] that materializes the full plan; callers
/// on a hot path should hold a [`HorizonScratch`] and use
/// [`optimize_first_with`] directly to avoid the plan allocation.
#[allow(clippy::too_many_arguments)]
pub fn optimize_horizon(
    video: &Video,
    start: usize,
    horizon: usize,
    buffer_secs: f64,
    buffer_max_secs: f64,
    prev_level: Option<LevelIdx>,
    throughput_kbps: f64,
    weights: &QoeWeights,
) -> HorizonPlan {
    let mut scratch = HorizonScratch::new();
    let (_, qoe) = optimize_first_with(
        &mut scratch,
        video,
        start,
        horizon,
        buffer_secs,
        buffer_max_secs,
        prev_level,
        throughput_kbps,
        weights,
    );
    HorizonPlan {
        qoe,
        levels: scratch.best,
    }
}

/// The startup-phase optimizer `fst_mpc`: jointly chooses the first chunk's
/// level and the startup delay `T_s` by grid search, scoring each candidate
/// as the horizon QoE from buffer `B + T_s` minus `μ_s · T_s`. Every grid
/// point solves in `scratch`, so they share its ladder tables.
#[allow(clippy::too_many_arguments)]
pub fn optimize_startup(
    scratch: &mut HorizonScratch,
    video: &Video,
    start: usize,
    horizon: usize,
    buffer_secs: f64,
    buffer_max_secs: f64,
    prev_level: Option<LevelIdx>,
    throughput_kbps: f64,
    weights: &QoeWeights,
    step_secs: f64,
    max_secs: f64,
) -> (HorizonPlan, f64) {
    assert!(step_secs > 0.0 && max_secs >= 0.0);
    let mut best_ts = 0.0;
    let mut best: Option<HorizonPlan> = None;
    let mut best_score = f64::NEG_INFINITY;
    let steps = (max_secs / step_secs).round() as usize;
    for i in 0..=steps {
        let ts = i as f64 * step_secs;
        let (_, qoe) = optimize_first_with(
            scratch,
            video,
            start,
            horizon,
            (buffer_secs + ts).min(buffer_max_secs),
            buffer_max_secs,
            prev_level,
            throughput_kbps,
            weights,
        );
        let score = qoe - weights.mu_s * ts;
        if score > best_score {
            best_score = score;
            best_ts = ts;
            best = Some(HorizonPlan {
                qoe,
                levels: scratch.plan().to_vec(),
            });
        }
    }
    (best.expect("at least Ts = 0 was evaluated"), best_ts)
}

/// The MPC / RobustMPC bitrate controller (Algorithm 1).
///
/// ```
/// use abr_core::{BitrateController, ControllerContext, Mpc};
/// use abr_video::{envivio_video, LevelIdx};
///
/// let video = envivio_video();
/// let mut mpc = Mpc::robust(); // the paper's RobustMPC
/// let ctx = ControllerContext {
///     chunk_index: 10,
///     buffer_secs: 12.0,
///     prev_level: Some(LevelIdx(2)),
///     prediction_kbps: Some(2200.0),
///     robust_lower_kbps: Some(1900.0),
///     last_throughput_kbps: Some(2100.0),
///     recent_low_buffer: false,
///     startup: false,
///     video: &video,
///     buffer_max_secs: 30.0,
///     live: None,
/// };
/// let decision = mpc.decide(&ctx);
/// assert!(decision.level.get() < video.ladder().len());
/// ```
#[derive(Debug, Clone)]
pub struct Mpc {
    cfg: MpcConfig,
    name: &'static str,
    scratch: HorizonScratch,
}

impl Mpc {
    /// Regular MPC with the given configuration (name "MPC").
    pub fn new(cfg: MpcConfig) -> Self {
        let name = if cfg.robust { "RobustMPC" } else { "MPC" };
        Self {
            cfg,
            name,
            scratch: HorizonScratch::new(),
        }
    }

    /// The paper's regular MPC configuration.
    pub fn paper_default() -> Self {
        Self::new(MpcConfig::paper_default())
    }

    /// The paper's RobustMPC configuration: identical, but driven by the
    /// throughput lower bound `Ĉ/(1 + max recent error)`.
    pub fn robust() -> Self {
        Self::new(MpcConfig {
            robust: true,
            ..MpcConfig::paper_default()
        })
    }

    /// Overrides the display name (e.g. "MPC-OPT" when driven by a perfect
    /// predictor).
    pub fn named(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &MpcConfig {
        &self.cfg
    }
}

impl BitrateController for Mpc {
    fn name(&self) -> &'static str {
        self.name
    }

    fn decide(&mut self, ctx: &ControllerContext<'_>) -> Decision {
        let throughput = if self.cfg.robust {
            ctx.robust_or_prediction()
        } else {
            ctx.prediction_or_floor()
        };
        if let Some(live) = &ctx.live {
            // Live session: availability-truncated horizon with the
            // latency-aware objective. `ctx.buffer_max_secs` already holds
            // the effective live cap (driver contract).
            let (level, _) = optimize_first_live(
                &mut self.scratch,
                ctx.video,
                ctx.chunk_index,
                self.cfg.horizon,
                ctx.buffer_secs,
                ctx.buffer_max_secs,
                ctx.prev_level,
                throughput,
                &self.cfg.weights,
                live,
            );
            return Decision::level(level);
        }
        if ctx.startup && self.cfg.optimize_startup {
            let (plan, ts) = optimize_startup(
                &mut self.scratch,
                ctx.video,
                ctx.chunk_index,
                self.cfg.horizon,
                ctx.buffer_secs,
                ctx.buffer_max_secs,
                ctx.prev_level,
                throughput,
                &self.cfg.weights,
                self.cfg.startup_step_secs,
                self.cfg.startup_max_secs,
            );
            return Decision {
                level: plan.first(),
                startup_wait_secs: Some(ts),
            };
        }
        // Steady state: solve in the controller-owned scratch — no heap
        // allocation per decision.
        let (level, _) = optimize_first_with(
            &mut self.scratch,
            ctx.video,
            ctx.chunk_index,
            self.cfg.horizon,
            ctx.buffer_secs,
            ctx.buffer_max_secs,
            ctx.prev_level,
            throughput,
            &self.cfg.weights,
        );
        Decision::level(level)
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use abr_video::{envivio_video, QoePreference};
    use abr_par::{check, SplitMix64};

    fn weights() -> QoeWeights {
        QoeWeights::balanced()
    }

    /// Naive exhaustive enumeration for cross-checking the pruned search.
    #[allow(clippy::too_many_arguments)]
    fn brute_force(
        video: &Video,
        start: usize,
        horizon: usize,
        buffer: f64,
        bmax: f64,
        prev: Option<LevelIdx>,
        c: f64,
        w: &QoeWeights,
    ) -> HorizonPlan {
        let len = horizon.min(video.num_chunks() - start);
        let n = video.ladder().len();
        let total = n.pow(len as u32);
        let mut best_qoe = f64::NEG_INFINITY;
        let mut best = Vec::new();
        for code in 0..total {
            let mut plan = Vec::with_capacity(len);
            let mut rem = code;
            for _ in 0..len {
                plan.push(LevelIdx(rem % n));
                rem /= n;
            }
            let qoe = plan_qoe(video, start, &plan, buffer, bmax, prev, c, w);
            if qoe > best_qoe {
                best_qoe = qoe;
                best = plan;
            }
        }
        HorizonPlan {
            qoe: best_qoe,
            levels: best,
        }
    }

    #[test]
    fn optimizer_matches_brute_force_exhaustively() {
        let v = envivio_video();
        let w = weights();
        for &buffer in &[0.0, 4.0, 12.0, 30.0] {
            for &c in &[200.0, 700.0, 1500.0, 5000.0] {
                for prev in [None, Some(LevelIdx(0)), Some(LevelIdx(4))] {
                    let fast = optimize_horizon(&v, 10, 4, buffer, 30.0, prev, c, &w);
                    let slow = brute_force(&v, 10, 4, buffer, 30.0, prev, c, &w);
                    assert!(
                        (fast.qoe - slow.qoe).abs() < 1e-9,
                        "buffer={buffer} c={c} prev={prev:?}: {} vs {}",
                        fast.qoe,
                        slow.qoe
                    );
                }
            }
        }
    }

    #[test]
    fn ample_throughput_and_buffer_pick_top_level() {
        let v = envivio_video();
        let plan = optimize_horizon(&v, 0, 5, 30.0, 30.0, Some(LevelIdx(4)), 50_000.0, &weights());
        assert!(plan.levels.iter().all(|&l| l == LevelIdx(4)), "{plan:?}");
    }

    #[test]
    fn starving_picks_bottom_level() {
        let v = envivio_video();
        // 100 kbps with an empty buffer: even the lowest level rebuffers,
        // anything higher rebuffers catastrophically.
        let plan = optimize_horizon(&v, 0, 5, 0.0, 30.0, None, 100.0, &weights());
        assert!(plan.levels.iter().all(|&l| l == LevelIdx(0)), "{plan:?}");
    }

    #[test]
    fn huge_switch_penalty_freezes_level() {
        let v = envivio_video();
        let w = QoeWeights {
            lambda: 1e6,
            ..weights()
        };
        // Plenty of throughput to go higher, but switching is prohibitive.
        let plan = optimize_horizon(&v, 0, 5, 20.0, 30.0, Some(LevelIdx(1)), 10_000.0, &w);
        assert!(
            plan.levels.iter().all(|&l| l == LevelIdx(1)),
            "expected frozen at level 1: {plan:?}"
        );
    }

    #[test]
    fn horizon_clips_at_video_end() {
        let v = envivio_video();
        let plan = optimize_horizon(&v, 63, 5, 10.0, 30.0, None, 1000.0, &weights());
        assert_eq!(plan.levels.len(), 2); // chunks 63, 64 only
    }

    #[test]
    fn plan_qoe_matches_manual_two_chunk_computation() {
        let v = envivio_video();
        let w = weights();
        // Buffer 4s, throughput 1000 kbps, plan [1000 kbps, 350 kbps].
        // Chunk sizes: 4000 and 1400 kbits -> downloads 4.0 s and 1.4 s.
        // Step 1: B=4, dl=4 -> no rebuffer, B' = 4-4+4 = 4.
        // Step 2: B=4, dl=1.4 -> no rebuffer.
        // QoE = 1000 + 350 - lambda*|350-1000| = 1350 - 650 = 700.
        let qoe = plan_qoe(
            &v,
            0,
            &[LevelIdx(2), LevelIdx(0)],
            4.0,
            30.0,
            None,
            1000.0,
            &w,
        );
        assert!((qoe - 700.0).abs() < 1e-9, "{qoe}");
    }

    #[test]
    fn rebuffer_penalty_enters_plan_qoe() {
        let v = envivio_video();
        let w = weights();
        // Empty buffer, 1000 kbps, top level (12000 kbits -> 12 s download):
        // rebuffer 12 s on the first chunk alone.
        let qoe = plan_qoe(&v, 0, &[LevelIdx(4)], 0.0, 30.0, None, 1000.0, &w);
        assert!((qoe - (3000.0 - 3000.0 * 12.0)).abs() < 1e-9, "{qoe}");
    }

    #[test]
    fn startup_optimizer_waits_when_throughput_is_low() {
        let v = envivio_video();
        // Cheap startup (small mu_s) + low throughput: waiting builds
        // buffer credit that avoids expensive rebuffering.
        let w = QoeWeights {
            mu_s: 10.0,
            ..weights()
        };
        let mut scratch = HorizonScratch::new();
        let (_, ts) =
            optimize_startup(&mut scratch, &v, 0, 5, 0.0, 30.0, None, 600.0, &w, 0.5, 10.0);
        assert!(ts > 0.0, "expected a positive startup wait, got {ts}");
        // Expensive startup: don't wait.
        let w2 = QoeWeights {
            mu_s: 1e9,
            ..weights()
        };
        let (_, ts2) =
            optimize_startup(&mut scratch, &v, 0, 5, 0.0, 30.0, None, 600.0, &w2, 0.5, 10.0);
        assert_eq!(ts2, 0.0);
    }

    #[test]
    fn controller_startup_decision_carries_ts() {
        let v = envivio_video();
        let mut mpc = Mpc::new(MpcConfig {
            optimize_startup: true,
            weights: QoeWeights {
                mu_s: 10.0,
                ..weights()
            },
            ..MpcConfig::paper_default()
        });
        let ctx = ControllerContext {
            chunk_index: 0,
            buffer_secs: 0.0,
            prev_level: None,
            prediction_kbps: Some(600.0),
            robust_lower_kbps: None,
            last_throughput_kbps: None,
            recent_low_buffer: false,
            startup: true,
            video: &v,
            buffer_max_secs: 30.0,
            live: None,
        };
        let d = mpc.decide(&ctx);
        assert!(d.startup_wait_secs.unwrap() > 0.0);
    }

    #[test]
    fn robust_uses_lower_bound() {
        let v = envivio_video();
        let mk_ctx = |robust_lower| ControllerContext {
            chunk_index: 5,
            buffer_secs: 8.0,
            prev_level: Some(LevelIdx(2)),
            prediction_kbps: Some(3000.0),
            robust_lower_kbps: robust_lower,
            last_throughput_kbps: None,
            recent_low_buffer: false,
            startup: false,
            video: &v,
            buffer_max_secs: 30.0,
            live: None,
        };
        let mut regular = Mpc::paper_default();
        let mut robust = Mpc::robust();
        // With a much lower bound, RobustMPC must not choose above what
        // regular MPC would choose at that lower throughput.
        let r1 = regular.decide(&mk_ctx(Some(400.0))).level;
        let r2 = robust.decide(&mk_ctx(Some(400.0))).level;
        assert!(r2 <= r1, "robust {r2:?} vs regular {r1:?}");
        // Theorem 1 equivalence: RobustMPC(lower bound) == MPC fed the
        // lower bound directly as its prediction.
        let mut regular_low = Mpc::paper_default();
        let ctx_low = ControllerContext {
            prediction_kbps: Some(400.0),
            robust_lower_kbps: None,
            ..mk_ctx(None)
        };
        assert_eq!(r2, regular_low.decide(&ctx_low).level);
    }

    #[test]
    fn scratch_solver_matches_wrapper_and_reuses_across_sizes() {
        let v = envivio_video();
        let w = weights();
        let mut scratch = HorizonScratch::new();
        // Alternate horizons and start positions so the scratch is resized
        // up and down; every solve must agree with the allocating wrapper.
        for (start, horizon, buffer, c) in [
            (0usize, 5usize, 10.0, 1500.0),
            (63, 5, 4.0, 700.0), // clips to 2 chunks
            (10, 9, 22.0, 2600.0),
            (30, 1, 0.0, 150.0),
            (5, 7, 30.0, 9000.0),
        ] {
            let plan = optimize_horizon(&v, start, horizon, buffer, 30.0, None, c, &w);
            let (first, qoe) = optimize_first_with(
                &mut scratch,
                &v,
                start,
                horizon,
                buffer,
                30.0,
                None,
                c,
                &w,
            );
            assert_eq!(first, plan.first());
            assert_eq!(qoe.to_bits(), plan.qoe.to_bits(), "qoe must be bit-identical");
            assert_eq!(scratch.plan(), &plan.levels[..]);
        }
    }

    #[test]
    fn shared_scratch_solves_match_fresh_scratch_solves() {
        let v = envivio_video();
        let w = weights();
        // A deliberately mixed run of probes: different chunks, buffers,
        // previous levels, throughputs — the worst case for any state
        // leakage through the shared scratch.
        let chunk_index = [0usize, 17, 63, 5, 30, 0];
        let buffer_secs = [0.0, 12.5, 4.0, 30.0, 22.0, 7.5];
        let prev_level = [
            None,
            Some(LevelIdx(2)),
            Some(LevelIdx(4)),
            Some(LevelIdx(0)),
            Some(LevelIdx(1)),
            None,
        ];
        let throughput_kbps = [150.0, 1500.0, 700.0, 9000.0, 2600.0, 450.0];
        let mut shared = HorizonScratch::new();
        for i in 0..chunk_index.len() {
            let solve = |scratch: &mut HorizonScratch| {
                optimize_first_with(
                    scratch,
                    &v,
                    chunk_index[i],
                    5,
                    buffer_secs[i],
                    30.0,
                    prev_level[i],
                    throughput_kbps[i],
                    &w,
                )
                .0
            };
            let reused = solve(&mut shared);
            let fresh = solve(&mut HorizonScratch::new());
            assert_eq!(reused, fresh, "probe {i} diverged");
        }
    }

    #[test]
    fn effective_horizon_windows_on_buffered_content() {
        // Far behind the edge: everything released, full horizon.
        assert_eq!(live_effective_horizon(5, 4.0, -100.0, 10.0), 5);
        // At the edge with an empty buffer: only the next chunk is worth
        // planning (chunk 1 releases at 2 + 4 = 6 s > buffer + L = 4 s).
        assert_eq!(live_effective_horizon(5, 4.0, 2.0, 0.0), 1);
        // A fuller buffer pulls more future releases inside the window.
        assert_eq!(live_effective_horizon(5, 4.0, 2.0, 8.0), 3);
        assert_eq!(live_effective_horizon(5, 4.0, 0.0, 30.0), 5);
        // Never exceeds the configured horizon, never drops below 1.
        assert_eq!(live_effective_horizon(1, 4.0, -100.0, 30.0), 1);
        // At the edge, mid-window and fully released, in Envivio chunks:
        // (buffer, release_in) -> h_eff at horizon 5.
        let l = abr_video::ENVIVIO_CHUNK_SECS;
        for (buffer, release_in, want) in [
            (1.0 * l, 1.5 * l, 1),
            (2.0 * l, 0.5 * l, 3),
            (4.0 * l, -0.25 * l, 5),
        ] {
            assert_eq!(
                live_effective_horizon(5, l, release_in, buffer),
                want,
                "buffer {buffer}, release_in {release_in}"
            );
        }
    }

    #[test]
    fn live_far_behind_edge_with_zero_weight_matches_vod_solve() {
        let v = envivio_video();
        let w = weights(); // w_lat = 0 in every preset
        let live = LiveState {
            now_secs: 500.0,
            release_in_secs: -460.0,
            latency_secs: 120.0,
            max_buffer_secs: 30.0,
        };
        for (start, buffer, c, prev) in [
            (0usize, 0.0, 300.0, None),
            (10, 12.0, 1500.0, Some(LevelIdx(2))),
            (40, 25.0, 4000.0, Some(LevelIdx(4))),
        ] {
            let mut s1 = HorizonScratch::new();
            let (l_vod, q_vod) =
                optimize_first_with(&mut s1, &v, start, 5, buffer, 30.0, prev, c, &w);
            let mut s2 = HorizonScratch::new();
            let (l_live, q_live) =
                optimize_first_live(&mut s2, &v, start, 5, buffer, 30.0, prev, c, &w, &live);
            assert_eq!(l_live, l_vod, "start={start} buffer={buffer} c={c}");
            assert_eq!(q_live.to_bits(), q_vod.to_bits(), "QoE must be bit-identical");
            assert_eq!(s2.plan(), s1.plan());
        }
    }

    #[test]
    fn at_edge_truncation_matches_manual_single_chunk_enumeration() {
        let v = envivio_video();
        let w = weights();
        // Chunk releases in 2 s with an empty buffer: h_eff = 1 and every
        // level rebuffers the wait plus its whole download.
        let live = LiveState {
            now_secs: 10.0,
            release_in_secs: 2.0,
            latency_secs: 6.0,
            max_buffer_secs: 8.0,
        };
        let c = 1000.0;
        let mut scratch = HorizonScratch::new();
        let (level, qoe) = optimize_first_live(
            &mut scratch,
            &v,
            10,
            5,
            0.0,
            8.0,
            Some(LevelIdx(0)),
            c,
            &w,
            &live,
        );
        assert_eq!(scratch.plan().len(), 1, "horizon must truncate to 1");
        let prev_q = w.q(v.ladder().kbps(LevelIdx(0)));
        let mut best = f64::NEG_INFINITY;
        let mut best_level = LevelIdx(0);
        for li in 0..v.ladder().len() {
            let q = w.q(v.ladder().kbps(LevelIdx(li)));
            let dl = v.chunk_size_kbits(10, LevelIdx(li)) / c;
            let rebuffer = 2.0 + dl; // wait + download on an empty buffer
            let cand = w.chunk_contribution(q, (q - prev_q).abs(), rebuffer)
                - w.w_lat * (6.0 + rebuffer);
            if cand > best {
                best = cand;
                best_level = LevelIdx(li);
            }
        }
        assert_eq!(level, best_level);
        assert!((qoe - best).abs() < 1e-9, "{qoe} vs {best}");
    }

    #[test]
    fn latency_weight_shifts_qoe_by_held_latency() {
        let v = envivio_video();
        let w = QoeWeights {
            w_lat: 25.0,
            ..weights()
        };
        let live_at = |lat: f64| LiveState {
            now_secs: 100.0,
            release_in_secs: -60.0,
            latency_secs: lat,
            max_buffer_secs: 30.0,
        };
        let solve = |lat: f64| {
            let mut s = HorizonScratch::new();
            optimize_first_live(
                &mut s,
                &v,
                5,
                5,
                20.0,
                30.0,
                Some(LevelIdx(2)),
                2000.0,
                &w,
                &live_at(lat),
            )
        };
        let (l0, q0) = solve(0.0);
        let (l9, q9) = solve(9.0);
        // Buffer 20 s at 2000 kbps: no plan rebuffers, so latency stays
        // constant in-plan and a latency offset shifts every plan's QoE by
        // exactly w_lat · len · offset — the argmax is unchanged.
        assert_eq!(l9, l0);
        assert!((q0 - q9 - 25.0 * 5.0 * 9.0).abs() < 1e-9, "{q0} vs {q9}");
    }

    #[test]
    fn controller_routes_live_context_through_the_live_solver() {
        let v = envivio_video();
        let live = LiveState {
            now_secs: 42.0,
            release_in_secs: 1.5,
            latency_secs: 7.0,
            max_buffer_secs: 10.0,
        };
        let ctx = ControllerContext {
            chunk_index: 10,
            buffer_secs: 4.0,
            prev_level: Some(LevelIdx(1)),
            prediction_kbps: Some(1800.0),
            robust_lower_kbps: Some(1200.0),
            last_throughput_kbps: None,
            recent_low_buffer: false,
            startup: false,
            video: &v,
            buffer_max_secs: 10.0,
            live: Some(live),
        };
        let mut robust = Mpc::robust();
        let got = robust.decide(&ctx).level;
        let mut scratch = HorizonScratch::new();
        let (want, _) = optimize_first_live(
            &mut scratch,
            &v,
            10,
            5,
            4.0,
            10.0,
            Some(LevelIdx(1)),
            1200.0,
            &MpcConfig::paper_default().weights,
            &live,
        );
        assert_eq!(got, want);
    }

    #[test]
    fn names_follow_configuration() {
        assert_eq!(Mpc::paper_default().name(), "MPC");
        assert_eq!(Mpc::robust().name(), "RobustMPC");
        assert_eq!(Mpc::paper_default().named("MPC-OPT").name(), "MPC-OPT");
    }

    /// `Some(level)` or `None`, even odds.
    fn maybe_level(rng: &mut SplitMix64) -> Option<LevelIdx> {
        rng.next_bool().then(|| LevelIdx(rng.below(5)))
    }

    /// Pruned search equals brute force on `(buffer, c, prev, start, horizon)`.
    fn prune_is_exact_on(
        buffer: f64,
        c: f64,
        prev: Option<LevelIdx>,
        start: usize,
        horizon: usize,
    ) {
        let v = envivio_video();
        let w = weights();
        let fast = optimize_horizon(&v, start, horizon, buffer, 30.0, prev, c, &w);
        let slow = brute_force(&v, start, horizon, buffer, 30.0, prev, c, &w);
        // Equal value (plans may differ only on exact ties).
        assert!((fast.qoe - slow.qoe).abs() < 1e-9);
        // The reported plan really achieves the reported value.
        let recomputed = plan_qoe(&v, start, &fast.levels, buffer, 30.0, prev, c, &w);
        assert!((recomputed - fast.qoe).abs() < 1e-9);
    }

    /// Pruned search equals brute force on random instances, and on one
    /// that once failed.
    #[test]
    fn prune_is_exact() {
        prune_is_exact_on(15.265819522992802, 3166.2345689349795, Some(LevelIdx(0)), 0, 1);
        check(64, |rng| {
            let buffer = rng.range(0.0..30.0);
            let c = rng.range(100.0..8000.0);
            let prev = maybe_level(rng);
            let start = rng.range(0usize..60);
            let horizon = rng.range(1usize..5);
            prune_is_exact_on(buffer, c, prev, start, horizon);
        });
    }

    /// Theorem 1's engine: for any fixed plan, QoE is non-decreasing in
    /// throughput, so the worst case over an interval is at the lower
    /// bound.
    #[test]
    fn plan_qoe_monotone_in_throughput() {
        check(64, |rng| {
            let buffer = rng.range(0.0..30.0);
            let c_lo = rng.range(100.0..5000.0);
            let bump = rng.range(1.0..5000.0);
            let plan: Vec<LevelIdx> = (0..5).map(|_| LevelIdx(rng.below(5))).collect();
            let v = envivio_video();
            let w = weights();
            let lo = plan_qoe(&v, 0, &plan, buffer, 30.0, None, c_lo, &w);
            let hi = plan_qoe(&v, 0, &plan, buffer, 30.0, None, c_lo + bump, &w);
            assert!(hi >= lo - 1e-9, "QoE decreased with throughput: {lo} -> {hi}");
        });
    }

    /// The optimizer's value never goes down when the horizon's inputs
    /// improve (more buffer).
    #[test]
    fn value_monotone_in_buffer() {
        check(64, |rng| {
            let b = rng.range(0.0..28.0);
            let extra = rng.range(0.0..2.0);
            let c = rng.range(200.0..6000.0);
            let v = envivio_video();
            let w = weights();
            let lo = optimize_horizon(&v, 0, 5, b, 30.0, None, c, &w);
            let hi = optimize_horizon(&v, 0, 5, b + extra, 30.0, None, c, &w);
            assert!(hi.qoe >= lo.qoe - 1e-9);
        });
    }

    /// The solves of one MPC and one RobustMPC session per trace (four
    /// FCC-like and four HSDPA-like, seed 1, Envivio), each on its own
    /// scratch in session order, driven the way the simulator drives them:
    /// a 5-sample harmonic-mean forecast (RobustMPC divides it by one plus
    /// the largest of the last 5 relative errors), downloads timed on the
    /// trace, the buffer advanced by the model. Returns the solve count and
    /// the search's work over all of them.
    fn replay_work() -> (u64, Work) {
        use abr_trace::Dataset;
        let video = envivio_video();
        let w = weights();
        let l = video.chunk_secs();
        let mut traces = Dataset::Fcc.generate(1, 4);
        traces.extend(Dataset::Hsdpa.generate(1, 4));
        let (mut solves, mut work) = (0, Work::default());
        for trace in &traces {
            for robust in [false, true] {
                let mut scratch = HorizonScratch::new();
                let (mut buffer, mut t, mut prev) = (0.0, 0.0, None);
                let (mut tputs, mut errors) = (Vec::new(), Vec::new());
                for k in 0..video.num_chunks() {
                    let recent = &tputs[tputs.len().saturating_sub(5)..];
                    let forecast = match recent.len() {
                        0 => video.ladder().min_kbps(),
                        m => m as f64 / recent.iter().map(|c| 1.0 / c).sum::<f64>(),
                    };
                    let worst = errors[errors.len().saturating_sub(5)..]
                        .iter()
                        .fold(0.0f64, |a, &e| a.max(e));
                    let c = if robust { forecast / (1.0 + worst) } else { forecast };
                    let (level, _) =
                        optimize_first_with(&mut scratch, &video, k, 5, buffer, 30.0, prev, c, &w);
                    solves += 1;
                    let size = video.chunk_size_kbits(k, level);
                    let dl = trace.time_to_download(size, t);
                    let step = advance_buffer(buffer, dl, l, 30.0);
                    t += dl + step.wait_secs;
                    buffer = step.next_buffer_secs;
                    let actual = size / dl;
                    errors.push((forecast - actual).abs() / actual);
                    tputs.push(actual);
                    prev = Some(level);
                }
                work.checks += scratch.work.checks;
                work.expanded += scratch.work.expanded;
            }
        }
        (solves, work)
    }

    /// The search's work on [`replay_work`]'s fixed replay, pinned by
    /// count rather than by time, so a loosened bound or a lost seed fails
    /// here. With the switching bound alone and a greedy seed the same
    /// replay took 117.7 bound checks and 27.5 expanded nodes per solve;
    /// with the throughput-budget bound but a greedy seed, 70.3 and 16.7.
    #[test]
    fn search_work_on_a_fixed_replay_stays_under_its_ceiling() {
        let (solves, work) = replay_work();
        let checks = work.checks as f64 / solves as f64;
        let expanded = work.expanded as f64 / solves as f64;
        eprintln!("{solves} solves: {checks:.1} bound checks, {expanded:.1} expanded per solve");
        assert!(checks <= 65.0, "{checks:.1} bound checks per solve");
        assert!(expanded <= 15.5, "{expanded:.1} expanded nodes per solve");
    }

    /// The centroids of `count` bins over `[lo, hi]`, linear or
    /// logarithmic, by the expression `abr_fastmpc::BinSpec::centroid`
    /// evaluates.
    fn centroids(count: usize, lo: f64, hi: f64, log: bool) -> Vec<f64> {
        (0..count)
            .map(|i| {
                let frac = (i as f64 + 0.5) / count as f64;
                if log {
                    (lo.ln() + frac * (hi.ln() - lo.ln())).exp()
                } else {
                    lo + frac * (hi - lo)
                }
            })
            .collect()
    }

    /// The search's work per cell over a 30-bin FastMPC grid on Envivio
    /// (buffer bins over `[0, 30 s]`, throughput bins over
    /// `[100, 10,000] kbps`, horizon 5), solved two ways: each row's
    /// throughput bins in order in one scratch, as `FastMpcTable::generate`
    /// sweeps a row, and each cell from a fresh scratch. Returns the cell
    /// count and the work of each.
    fn row_sweep_work() -> (u64, Work, Work) {
        let video = envivio_video();
        let w = weights();
        let buffers = centroids(30, 0.0, 30.0, false);
        let throughputs = centroids(30, 100.0, 10_000.0, true);
        let (mut cells, mut swept, mut fresh) = (0, Work::default(), Work::default());
        for &buffer in &buffers {
            for prev in (0..video.ladder().len()).map(|l| Some(LevelIdx(l))) {
                let solve = |scratch: &mut HorizonScratch, c: f64| {
                    optimize_first_with(scratch, &video, 0, 5, buffer, 30.0, prev, c, &w).0
                };
                let mut row = HorizonScratch::new();
                for &c in &throughputs {
                    let mut cold = HorizonScratch::new();
                    let (level, cold_level) = (solve(&mut row, c), solve(&mut cold, c));
                    assert_eq!(level, cold_level, "{buffer} s, {prev:?}, {c} kbps");
                    fresh.checks += cold.work.checks;
                    fresh.expanded += cold.work.expanded;
                    cells += 1;
                }
                swept.checks += row.work.checks;
                swept.expanded += row.work.expanded;
            }
        }
        (cells, swept, fresh)
    }

    /// A FastMPC row's in-order sweep, pinned by count: each cell's search
    /// starts from the previous cell's plan, which leaves every table
    /// byte-identical, so a lost seed would show only as extra work. The
    /// sweep must stay under its committed ceilings and below the
    /// fresh-scratch solves of the same cells.
    #[test]
    fn row_sweep_work_stays_under_its_ceiling_and_below_cold_solves() {
        let (cells, swept, fresh) = row_sweep_work();
        let mean = |count: u64| count as f64 / cells as f64;
        let (checks, expanded) = (mean(swept.checks), mean(swept.expanded));
        let (cold_checks, cold_expanded) = (mean(fresh.checks), mean(fresh.expanded));
        eprintln!(
            "{cells} cells: swept {checks:.1} bound checks, {expanded:.1} expanded per cell; \
             fresh scratch {cold_checks:.1} and {cold_expanded:.1}"
        );
        assert!(checks <= 53.0, "{checks:.1} bound checks per cell");
        assert!(expanded <= 12.5, "{expanded:.1} expanded nodes per cell");
        assert!(
            checks < cold_checks,
            "{checks:.1} vs {cold_checks:.1} bound checks per cell"
        );
        assert!(
            expanded < cold_expanded,
            "{expanded:.1} vs {cold_expanded:.1} expanded per cell"
        );
    }

    /// Exchange-argument theorem: raising the rebuffer weight µ can only
    /// lower the optimal plan's total (model-predicted) rebuffering.
    fn heavier_mu_never_rebuffers_more_on(b: f64, c: f64) {
        let v = envivio_video();
        let planned_rebuffer = |plan: &[LevelIdx]| -> f64 {
            let mut buffer = b;
            let mut total = 0.0;
            for (i, &lvl) in plan.iter().enumerate() {
                let dl = v.chunk_size_kbits(i, lvl) / c;
                let step = advance_buffer(buffer, dl, v.chunk_secs(), 30.0);
                total += step.rebuffer_secs;
                buffer = step.next_buffer_secs;
            }
            total
        };
        let balanced = optimize_horizon(
            &v, 0, 5, b, 30.0, None, c, &QoeWeights::preset(QoePreference::Balanced));
        let averse = optimize_horizon(
            &v, 0, 5, b, 30.0, None, c, &QoeWeights::preset(QoePreference::AvoidRebuffering));
        assert!(planned_rebuffer(&averse.levels) <= planned_rebuffer(&balanced.levels) + 1e-9);
    }

    /// [`heavier_mu_never_rebuffers_more_on`] on random instances, and on
    /// one that once failed.
    #[test]
    fn heavier_mu_never_rebuffers_more() {
        heavier_mu_never_rebuffers_more_on(9.70892744949633, 1845.7610304907425);
        check(64, |rng| {
            heavier_mu_never_rebuffers_more_on(rng.range(0.0..15.0), rng.range(200.0..3000.0));
        });
    }
}
