//! The horizon search as it stood before the table-driven rewrite: every
//! node divides a chunk size by the throughput, recomputes
//! `q − λ·|q − q_prev|` and loops over the ladder for its bound. Kept
//! verbatim (only the scratch type is its own) as the oracle the tables
//! must match bit for bit: first level, QoE bits and full plan.

use super::{live_effective_horizon, BOUND_SLACK};
use crate::model::advance_buffer;
use abr_video::{LevelIdx, LiveState, QoeWeights, Video};

/// The buffers the reference search borrows.
#[derive(Debug, Default)]
pub(super) struct HorizonScratch {
    pub(super) best: Vec<LevelIdx>,
    current: Vec<LevelIdx>,
    level_q: Vec<f64>,
    min_suffix_kbits: Vec<f64>,
}

/// The branch-and-bound state. Borrows all buffers from a
/// [`HorizonScratch`]; the recursion allocates nothing.
struct Search<'a> {
    video: &'a Video,
    weights: &'a QoeWeights,
    start: usize,
    len: usize,
    buffer_max: f64,
    throughput: f64,
    lambda: f64,
    mu: f64,
    chunk_secs: f64,
    q_max: f64,
    level_q: &'a [f64],
    min_suffix_kbits: &'a [f64],
    best_qoe: f64,
    best: &'a mut Vec<LevelIdx>,
    current: &'a mut Vec<LevelIdx>,
}

impl Search<'_> {
    /// Admissible upper bound on the total QoE contribution of the chunks
    /// below `depth`, given the buffer level and the quality of the chunk
    /// just placed.
    ///
    /// Two ingredients, each individually an over-estimate, so their sum is
    /// too. **Quality minus unavoidable switching**: a future plan whose
    /// best per-chunk quality is `q_l` earns at most `remaining · q_l` and,
    /// by the triangle inequality on the switch terms, pays at least
    /// `λ · |q_l − prev_q|` to visit that level; maximize over the ladder.
    /// **Unavoidable rebuffering**: downloading even the smallest remaining
    /// chunks takes `min_suffix / C` seconds while the buffer supplies at
    /// most `buffer + (remaining − 1) · L` seconds of playback before the
    /// last chunk lands (telescoping Eqs. (1)–(4); the `B_max` cap only
    /// removes buffer, so ignoring it keeps the bound admissible).
    #[inline]
    fn bound(&self, depth: usize, buffer: f64, prev_q: Option<f64>) -> f64 {
        let remaining = (self.len - depth) as f64;
        let quality = match prev_q {
            None => remaining * self.q_max,
            Some(p) => {
                let mut b = f64::NEG_INFINITY;
                for &q in self.level_q {
                    let cand = remaining * q - self.lambda * (q - p).abs();
                    if cand > b {
                        b = cand;
                    }
                }
                b
            }
        };
        let min_dl_secs = self.min_suffix_kbits[depth] / self.throughput;
        let rebuf_min = (min_dl_secs - buffer - (remaining - 1.0) * self.chunk_secs).max(0.0);
        quality - self.mu * rebuf_min
    }

    /// Greedy one-step-lookahead descent: the QoE of a feasible plan,
    /// accumulated with the exact same floating-point operations the DFS
    /// would use along that path. Only the value is kept — it seeds the
    /// incumbent so the search starts pruning from node one.
    fn greedy_value(&self, buffer: f64, prev_q: Option<f64>) -> f64 {
        let mut qoe = 0.0;
        let mut buf = buffer;
        let mut pq = prev_q;
        for depth in 0..self.len {
            let k = self.start + depth;
            let mut best_gain = f64::NEG_INFINITY;
            let mut best_next = buf;
            let mut best_q = 0.0;
            for li in (0..self.level_q.len()).rev() {
                let level = LevelIdx(li);
                let dl = self.video.chunk_size_kbits(k, level) / self.throughput;
                let step = advance_buffer(buf, dl, self.video.chunk_secs(), self.buffer_max);
                let q = self.level_q[li];
                let switch = pq.map_or(0.0, |p| (q - p).abs());
                let gain = self.weights.chunk_contribution(q, switch, step.rebuffer_secs);
                if gain > best_gain {
                    best_gain = gain;
                    best_next = step.next_buffer_secs;
                    best_q = q;
                }
            }
            qoe += best_gain;
            buf = best_next;
            pq = Some(best_q);
        }
        qoe
    }

    /// Depth-first branch-and-bound. Iterates levels from the top down and
    /// replaces the incumbent only on strict improvement, so the final
    /// `best` is the first optimal plan in that fixed enumeration order —
    /// independent of the incumbent value the search started from (as long
    /// as it is strictly below the optimum).
    fn dfs(&mut self, depth: usize, buffer: f64, prev_q: Option<f64>, qoe: f64) {
        if depth == self.len {
            if qoe > self.best_qoe {
                self.best_qoe = qoe;
                self.best[..self.len].copy_from_slice(&self.current[..self.len]);
            }
            return;
        }
        if qoe + self.bound(depth, buffer, prev_q) <= self.best_qoe {
            return;
        }
        let k = self.start + depth;
        for li in (0..self.level_q.len()).rev() {
            let level = LevelIdx(li);
            let dl = self.video.chunk_size_kbits(k, level) / self.throughput;
            let step = advance_buffer(buffer, dl, self.video.chunk_secs(), self.buffer_max);
            let q = self.level_q[li];
            let switch = prev_q.map_or(0.0, |p| (q - p).abs());
            let gain = self.weights.chunk_contribution(q, switch, step.rebuffer_secs);
            self.current[depth] = level;
            self.dfs(depth + 1, step.next_buffer_secs, Some(q), qoe + gain);
        }
    }
}

/// Validates arguments, sizes the scratch buffers, and assembles a
/// [`Search`] over them. Returns the search and the clipped horizon.
fn prepare<'a>(
    scratch: &'a mut HorizonScratch,
    video: &'a Video,
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
    let num_levels = video.ladder().len();
    let HorizonScratch {
        best,
        current,
        level_q,
        min_suffix_kbits,
    } = scratch;
    level_q.clear();
    for li in 0..num_levels {
        level_q.push(weights.q(video.ladder().kbps(LevelIdx(li))));
    }
    best.clear();
    best.resize(len, LevelIdx(0));
    current.clear();
    current.resize(len, LevelIdx(0));
    // min_suffix_kbits[d] = total size of the cheapest encoding of chunks
    // start+d .. start+len-1 — the floor on future download work feeding
    // the rebuffer part of the bound.
    min_suffix_kbits.clear();
    min_suffix_kbits.resize(len, 0.0);
    let mut acc = 0.0;
    for d in (0..len).rev() {
        let k = start + d;
        let mut min_size = f64::INFINITY;
        for li in 0..num_levels {
            min_size = min_size.min(video.chunk_size_kbits(k, LevelIdx(li)));
        }
        acc += min_size;
        min_suffix_kbits[d] = acc;
    }
    Search {
        video,
        weights,
        start,
        len,
        buffer_max: buffer_max_secs,
        throughput: throughput_kbps,
        lambda: weights.lambda,
        mu: weights.mu,
        chunk_secs: video.chunk_secs(),
        q_max: weights.q(video.ladder().max_kbps()),
        level_q,
        min_suffix_kbits,
        best_qoe: f64::NEG_INFINITY,
        best,
        current,
    }
}

/// Live-solve constants threaded through [`dfs_live`] alongside the shared
/// [`Search`] state.
struct LiveExtra {
    /// Seconds until the first planned chunk's release (negative: already
    /// out), from the decision instant `tau = 0`.
    release_in: f64,
    /// The latency QoE weight `w_lat`.
    w_lat: f64,
}

/// Admissible live bound: the VOD bound minus the *minimum* latency charge
/// of the remaining chunks. In-plan latency never decreases (it grows with
/// every rebuffer and is otherwise constant), so each of the
/// `len − depth` remaining chunks pays at least `w_lat · lat`.
#[inline]
fn live_bound(
    s: &Search<'_>,
    x: &LiveExtra,
    depth: usize,
    buffer: f64,
    prev_q: Option<f64>,
    lat: f64,
) -> f64 {
    s.bound(depth, buffer, prev_q) - (s.len - depth) as f64 * x.w_lat * lat
}

/// The live depth-first branch-and-bound. Identical enumeration order and
/// incumbent discipline to [`Search::dfs`], with two extensions: wall-clock
/// tracking (`tau` seconds since the decision; a chunk not yet released at
/// its fetch instant waits exactly until release), and a per-chunk latency
/// charge `−w_lat · lat` at the latency held when the chunk lands
/// (rebuffers freeze the playhead, so `lat` grows by each step's rebuffer).
#[allow(clippy::too_many_arguments)]
fn dfs_live(
    s: &mut Search<'_>,
    x: &LiveExtra,
    depth: usize,
    buffer: f64,
    tau: f64,
    lat: f64,
    prev_q: Option<f64>,
    qoe: f64,
) {
    if depth == s.len {
        if qoe > s.best_qoe {
            s.best_qoe = qoe;
            s.best[..s.len].copy_from_slice(&s.current[..s.len]);
        }
        return;
    }
    if qoe + live_bound(s, x, depth, buffer, prev_q, lat) <= s.best_qoe {
        return;
    }
    let k = s.start + depth;
    let wait = (x.release_in + depth as f64 * s.chunk_secs - tau).max(0.0);
    for li in (0..s.level_q.len()).rev() {
        let level = LevelIdx(li);
        let dl = s.video.chunk_size_kbits(k, level) / s.throughput;
        // The forced wait drains buffer exactly like download time does.
        let step = advance_buffer(buffer, wait + dl, s.video.chunk_secs(), s.buffer_max);
        let q = s.level_q[li];
        let switch = prev_q.map_or(0.0, |p| (q - p).abs());
        let lat2 = lat + step.rebuffer_secs;
        let gain = s.weights.chunk_contribution(q, switch, step.rebuffer_secs) - x.w_lat * lat2;
        s.current[depth] = level;
        dfs_live(
            s,
            x,
            depth + 1,
            step.next_buffer_secs,
            tau + wait + dl + step.wait_secs,
            lat2,
            Some(q),
            qoe + gain,
        );
    }
}

/// The reference [`super::optimize_first_with`].
#[allow(clippy::too_many_arguments)]
pub(super) fn optimize_first_with(
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
    let prev_q = prev_level.map(|l| weights.q(video.ladder().kbps(l)));
    let mut s = prepare(
        scratch,
        video,
        start,
        horizon,
        buffer_max_secs,
        throughput_kbps,
        weights,
    );
    s.best_qoe = s.greedy_value(buffer_secs, prev_q) - BOUND_SLACK;
    s.dfs(0, buffer_secs, prev_q, 0.0);
    let qoe = s.best_qoe;
    (scratch.best[0], qoe)
}

/// The reference [`super::optimize_first_live`].
#[allow(clippy::too_many_arguments)]
pub(super) fn optimize_first_live(
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
    let prev_q = prev_level.map(|l| weights.q(video.ladder().kbps(l)));
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
    dfs_live(&mut s, &x, 0, buffer_secs, 0.0, live.latency_secs, prev_q, 0.0);
    let qoe = s.best_qoe;
    (scratch.best[0], qoe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpc;
    use abr_par::SplitMix64;
    use abr_video::{envivio_video, Ladder, QualityFn, VideoBuilder};

    /// Envivio (5 CBR levels), and VBR videos with 3 and 8 levels.
    fn videos() -> [Video; 3] {
        let wobble = |k: usize| 1.0 + 0.4 * ((k * 7919 % 13) as f64 / 13.0 - 0.5);
        let three = Ladder::new(vec![300.0, 750.0, 1850.0]).unwrap();
        let eight = [200.0, 400.0, 650.0, 1000.0, 1500.0, 2300.0, 3500.0, 5300.0];
        let eight = Ladder::new(eight.to_vec()).unwrap();
        [
            envivio_video(),
            VideoBuilder::new(three).chunks(24).chunk_secs(4.0).vbr(wobble),
            VideoBuilder::new(eight).chunks(30).chunk_secs(2.0).vbr(wobble),
        ]
    }

    /// Weights that change the ladder tables from case to case: `λ`, the
    /// quality map (saturating makes ties) and the event penalty.
    fn weights(rng: &mut SplitMix64) -> QoeWeights {
        let mut w = QoeWeights::balanced();
        w.lambda = [1.0, 3.0, 0.5][rng.below(3)];
        w.mu = [3000.0, 6000.0][rng.below(2)];
        w.mu_event = [0.0, 500.0][rng.below(2)];
        w.quality = match rng.below(4) {
            0 => QualityFn::Log {
                r0: 150.0,
                scale: 1000.0,
            },
            1 => QualityFn::Saturating { cap_kbps: 1200.0 },
            _ => QualityFn::Identity,
        };
        w
    }

    type Solve = (LevelIdx, f64);

    fn same(what: &str, table: Solve, table_plan: &[LevelIdx], old: Solve, old_plan: &[LevelIdx]) {
        assert_eq!(table.0, old.0, "{what}: first level");
        assert_eq!(table.1.to_bits(), old.1.to_bits(), "{what}: QoE {} vs {}", table.1, old.1);
        assert_eq!(table_plan, old_plan, "{what}: plan");
    }

    /// The table-driven search against this module's, on one scratch that
    /// lives across every case, so a stale ladder table would show.
    #[test]
    fn table_driven_search_matches_the_reference_bit_for_bit() {
        const CASES: usize = 10_000;
        let videos = videos();
        let mut rng = SplitMix64::new(0x00C0_FFEE);
        let mut table = mpc::HorizonScratch::new();
        let mut old = HorizonScratch::default();
        for case in 0..CASES {
            // Runs of ten cases on one video: the ladder tables are reused
            // when the weights repeat and must be rebuilt when `λ` or the
            // quality map alone changes.
            let video = &videos[case / 10 % videos.len()];
            let (n, chunks, l) = (video.ladder().len(), video.num_chunks(), video.chunk_secs());
            let mut w = weights(&mut rng);
            let horizon = 1 + rng.below(9);
            // A third of the cases start within a horizon of the end.
            let start = match rng.below(3) {
                0 => chunks - 1 - rng.below(horizon),
                _ => rng.below(chunks),
            };
            let b_max = [10.0, 20.0, 30.0, 40.0][rng.below(4)];
            let buffer = b_max * rng.next_f64();
            let c = 100.0 * 100f64.powf(rng.next_f64());
            let prev = Some(rng.below(n + 1)).filter(|&p| p < n).map(LevelIdx);
            let what = format!(
                "case {case}: {n} levels, start {start}, horizon {horizon}, \
                 buffer {buffer}/{b_max}, {c} kbps, prev {prev:?}, {w:?}"
            );
            let args = (video, start, horizon, buffer, b_max, prev, c);

            let got = mpc::optimize_first_with(
                &mut table, args.0, args.1, args.2, args.3, args.4, args.5, args.6, &w,
            );
            let want = optimize_first_with(
                &mut old, args.0, args.1, args.2, args.3, args.4, args.5, args.6, &w,
            );
            same(&what, got, table.plan(), want, &old.best);

            w.w_lat = [0.0, 25.0][rng.below(2)];
            let live = LiveState {
                now_secs: 600.0,
                release_in_secs: (2.0 * rng.next_f64() - 1.0) * 4.0 * l,
                latency_secs: 30.0 * rng.next_f64(),
                max_buffer_secs: b_max,
            };
            let got = mpc::optimize_first_live(
                &mut table, args.0, args.1, args.2, args.3, args.4, args.5, args.6, &w, &live,
            );
            let want = optimize_first_live(
                &mut old, args.0, args.1, args.2, args.3, args.4, args.5, args.6, &w, &live,
            );
            same(&format!("{what}, live {live:?}"), got, table.plan(), want, &old.best);
        }
    }

    /// A VBR video of 40 four-second chunks on an `n`-level ladder from
    /// 200 to 8000 kbps.
    fn ladder_video(n: usize) -> Video {
        let wobble = |k: usize| 1.0 + 0.4 * ((k * 7919 % 13) as f64 / 13.0 - 0.5);
        let ladder = Ladder::geometric(200.0, 8000.0, n).unwrap();
        VideoBuilder::new(ladder)
            .chunks(40)
            .chunk_secs(4.0)
            .vbr(wobble)
    }

    /// Solves in the orders that reuse the previous plan, each search on
    /// one scratch across every solve: a session's decisions (start,
    /// start + 1, … to the end, with a drifting throughput and the buffer
    /// the chosen levels leave), then a FastMPC row's cells at one start
    /// (throughput up a grid, as the table generator sweeps a row) and a
    /// startup grid (buffer up a grid). First level, QoE bits and plan must
    /// match the reference.
    #[test]
    fn seeded_solves_match_the_reference_in_session_and_same_start_order() {
        let mut rng = SplitMix64::new(0x5E55_1015);
        for n in [3, 5, 10, 18] {
            let video = ladder_video(n);
            let chunks = video.num_chunks();
            for run in 0..6 {
                let w = weights(&mut rng);
                let horizon = [5, 5, 3, 7][run % 4].min(if n > 10 { 5 } else { 9 });
                let b_max = [20.0, 30.0][rng.below(2)];
                let mut table = mpc::HorizonScratch::new();
                let mut old = HorizonScratch::default();
                let what = |order: &str, k: usize, buffer: f64, c: f64, prev: Option<LevelIdx>| {
                    format!(
                        "{n} levels, run {run}, {order} at chunk {k}: horizon {horizon}, \
                         buffer {buffer}/{b_max}, {c} kbps, prev {prev:?}, {w:?}"
                    )
                };
                let mut c = 100.0 * 100f64.powf(rng.next_f64());
                let mut buffer = b_max * rng.next_f64();
                let mut prev = None;
                for k in rng.below(chunks / 2)..chunks {
                    let args = (&video, k, horizon, buffer, b_max, prev, c);
                    let got = mpc::optimize_first_with(
                        &mut table, args.0, args.1, args.2, args.3, args.4, args.5, args.6, &w,
                    );
                    let want = optimize_first_with(
                        &mut old, args.0, args.1, args.2, args.3, args.4, args.5, args.6, &w,
                    );
                    let label = what("session", k, buffer, c, prev);
                    same(&label, got, table.plan(), want, &old.best);
                    // The chunk downloads at a throughput near the forecast,
                    // and the forecast drifts.
                    let actual = c * (0.5 + rng.next_f64());
                    let dl = video.chunk_size_kbits(k, got.0) / actual;
                    buffer = advance_buffer(buffer, dl, video.chunk_secs(), b_max).next_buffer_secs;
                    c = (c * (0.7 + 0.6 * rng.next_f64())).clamp(50.0, 20_000.0);
                    prev = Some(got.0);
                }
                let start = rng.below(chunks);
                let prev = Some(rng.below(n + 1)).filter(|&p| p < n).map(LevelIdx);
                let buffer = b_max * rng.next_f64();
                for cell in 0..30 {
                    let c = 100.0 * 100f64.powf(cell as f64 / 29.0);
                    let args = (&video, start, horizon, buffer, b_max, prev, c);
                    let got = mpc::optimize_first_with(
                        &mut table, args.0, args.1, args.2, args.3, args.4, args.5, args.6, &w,
                    );
                    let want = optimize_first_with(
                        &mut old, args.0, args.1, args.2, args.3, args.4, args.5, args.6, &w,
                    );
                    let label = what("row", start, buffer, c, prev);
                    same(&label, got, table.plan(), want, &old.best);
                }
                let c = 100.0 * 100f64.powf(rng.next_f64());
                for step in 0..=20 {
                    let buffer = b_max * step as f64 / 20.0;
                    let args = (&video, start, horizon, buffer, b_max, prev, c);
                    let got = mpc::optimize_first_with(
                        &mut table, args.0, args.1, args.2, args.3, args.4, args.5, args.6, &w,
                    );
                    let want = optimize_first_with(
                        &mut old, args.0, args.1, args.2, args.3, args.4, args.5, args.6, &w,
                    );
                    let label = what("startup grid", start, buffer, c, prev);
                    same(&label, got, table.plan(), want, &old.best);
                }
            }
        }
    }

    /// At the root both of the search's bounds are at least the reference
    /// optimum, over random states and weights with every quality map. The
    /// throughput-budget bound carries a rounding margin and must hold
    /// exactly; the switching bound may fall an ulp or two below an exact
    /// tie (see `Below::switching`). A quarter of the cases or more
    /// must be decided by the throughput-budget bound, so the property
    /// covers it.
    #[test]
    fn the_bound_at_the_root_is_at_least_the_optimum() {
        let videos = [
            ladder_video(3),
            envivio_video(),
            ladder_video(10),
            ladder_video(18),
        ];
        let two_second = VideoBuilder::new(Ladder::geometric(300.0, 4000.0, 6).unwrap())
            .chunks(30)
            .chunk_secs(2.0)
            .cbr();
        let qualities = [
            QualityFn::Identity,
            QualityFn::Log {
                r0: 150.0,
                scale: 1000.0,
            },
            QualityFn::Saturating { cap_kbps: 1200.0 },
            QualityFn::Table {
                knots: vec![
                    (200.0, 0.0),
                    (1000.0, 1500.0),
                    (3000.0, 2500.0),
                    (8000.0, 3000.0),
                ],
            },
        ];
        let cases = 4000;
        let mut budget_decides = 0;
        let mut rng = SplitMix64::new(0xB0_07D5);
        for case in 0..cases {
            let video = match rng.below(5) {
                4 => &two_second,
                i => &videos[i],
            };
            let (n, chunks) = (video.ladder().len(), video.num_chunks());
            let w = QoeWeights {
                lambda: [0.0, 0.5, 1.0, 3.0][rng.below(4)],
                mu: [3000.0, 6000.0][rng.below(2)],
                mu_event: [0.0, 500.0][rng.below(2)],
                quality: qualities[rng.below(qualities.len())].clone(),
                ..QoeWeights::balanced()
            };
            let horizon = 1 + rng.below(if n > 10 { 4 } else { 6 });
            let start = rng.below(chunks);
            let b_max = [10.0, 20.0, 30.0][rng.below(3)];
            let buffer = b_max * rng.next_f64();
            let c = 100.0 * 100f64.powf(rng.next_f64());
            let prev = Some(rng.below(n + 1)).filter(|&p| p < n).map(LevelIdx);
            let (_, optimum) = optimize_first_with(
                &mut HorizonScratch::default(),
                video,
                start,
                horizon,
                buffer,
                b_max,
                prev,
                c,
                &w,
            );
            let mut scratch = mpc::HorizonScratch::new();
            let s = mpc::prepare(&mut scratch, video, start, horizon, b_max, c, &w);
            let p = mpc::prev_row(video, prev);
            let (switching, budget) = (s.below(0).switching(buffer, p), s.below(0).budget(buffer));
            budget_decides += usize::from(budget < switching);
            let what = format!(
                "case {case}: {n} levels, start {start}, horizon {horizon}, \
                 buffer {buffer}/{b_max}, {c} kbps, prev {prev:?}, {w:?}"
            );
            assert!(
                budget >= optimum,
                "{what}: budget bound {budget} < optimum {optimum}"
            );
            assert!(
                switching >= optimum - 1e-12 * optimum.abs(),
                "{what}: switching bound {switching} < optimum {optimum}"
            );
        }
        assert!(
            budget_decides * 4 >= cases,
            "the throughput-budget bound decided only {budget_decides} of {cases} cases"
        );
    }
}
