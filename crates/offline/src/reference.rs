//! The offline DP's test oracles, compiled only under `cfg(test)`: the
//! straightforward per-layer-allocating solver this crate originally
//! shipped, kept verbatim, and an exhaustive search over every discrete
//! plan. The scratch solver in the crate root must stay **bit-identical**
//! to the reference solver (the seeded properties below assert it over
//! random instances); any change to the DP must land in both.

use super::{chunk_size_kbits, OfflineConfig, OfflineResult};
use abr_core::advance_buffer;
use abr_trace::Trace;
use abr_video::Video;

/// Continuous-relaxation optimum, baseline implementation; see
/// [`super::optimal_qoe`].
pub fn optimal_qoe(trace: &Trace, video: &Video, cfg: &OfflineConfig) -> OfflineResult {
    let lo = video.ladder().min_kbps();
    let hi = video.ladder().max_kbps();
    let n = cfg.rate_grid.max(2);
    let ratio = (hi / lo).powf(1.0 / (n as f64 - 1.0));
    let mut rates = Vec::with_capacity(n);
    for i in 0..n {
        rates.push(lo * ratio.powi(i as i32));
    }
    *rates.last_mut().expect("n >= 2") = hi;
    solve(trace, video, cfg, &rates)
}

/// Ladder-restricted optimum, baseline implementation; see
/// [`super::optimal_qoe_discrete`].
pub fn optimal_qoe_discrete(trace: &Trace, video: &Video, cfg: &OfflineConfig) -> OfflineResult {
    solve(trace, video, cfg, video.ladder().levels())
}

fn solve(trace: &Trace, video: &Video, cfg: &OfflineConfig, rates: &[f64]) -> OfflineResult {
    assert!(!rates.is_empty());
    assert!(cfg.buffer_bins >= 2, "need at least two buffer bins");
    let k_total = video.num_chunks();
    let nb = cfg.buffer_bins;
    let nr = rates.len();
    let bmax = cfg.buffer_max_secs;
    let w = &cfg.weights;
    let bin_width = bmax / (nb - 1) as f64;
    let bin_of = |buf: f64| -> usize { ((buf / bin_width).round() as usize).min(nb - 1) };

    let idx = |b: usize, r: usize| -> usize { b * nr + r };
    let states = nb * nr;
    let neg = f64::NEG_INFINITY;

    // Per-layer DP arrays. Bins bucket states for dominance pruning only;
    // each surviving state keeps its exact buffer and wall-clock time so
    // every transition is computed against the trace without rounding.
    let mut qoe = vec![neg; states];
    let mut buf_exact = vec![0.0_f64; states];
    let mut time = vec![0.0_f64; states];
    let mut parents: Vec<Vec<u32>> = Vec::with_capacity(k_total);

    // Layer 0: choose the first chunk's rate. Startup rule: playback
    // begins when chunk 0 lands — startup penalty µ_s · download, no
    // rebuffer, buffer = L afterwards.
    let mut parent0 = vec![u32::MAX; states];
    for (r_i, &r) in rates.iter().enumerate() {
        let dl = trace.time_to_download(chunk_size_kbits(video, 0, r), 0.0);
        let b_after = video.chunk_secs().min(bmax);
        let s = idx(bin_of(b_after), r_i);
        let value = w.q(r) - w.mu_s * dl;
        if value > qoe[s] {
            qoe[s] = value;
            buf_exact[s] = b_after;
            time[s] = dl;
            parent0[s] = r_i as u32; // encodes the chosen first rate
        }
    }
    parents.push(parent0);

    // Layers 1..K-1.
    for k in 1..k_total {
        let mut nqoe = vec![neg; states];
        let mut nbuf = vec![0.0_f64; states];
        let mut ntime = vec![0.0_f64; states];
        let mut nparent = vec![u32::MAX; states];
        for b in 0..nb {
            for r_prev in 0..nr {
                let s = idx(b, r_prev);
                if qoe[s] == neg {
                    continue;
                }
                let t0 = time[s];
                let buf = buf_exact[s];
                let q_prev = w.q(rates[r_prev]);
                // One pass over the trace yields the download time of
                // every candidate rate (sizes are ascending in the grid).
                let sizes: Vec<f64> = rates
                    .iter()
                    .map(|&r| chunk_size_kbits(video, k, r))
                    .collect();
                let downloads = trace.times_to_download(&sizes, t0);
                for (r_i, &r) in rates.iter().enumerate() {
                    let dl = downloads[r_i];
                    let step = advance_buffer(buf, dl, video.chunk_secs(), bmax);
                    let q = w.q(r);
                    let gain = w.chunk_contribution(q, (q - q_prev).abs(), step.rebuffer_secs);
                    let s2 = idx(bin_of(step.next_buffer_secs), r_i);
                    let v = qoe[s] + gain;
                    if v > nqoe[s2] {
                        nqoe[s2] = v;
                        nbuf[s2] = step.next_buffer_secs;
                        ntime[s2] = t0 + dl + step.wait_secs;
                        nparent[s2] = s as u32;
                    }
                }
            }
        }
        qoe = nqoe;
        buf_exact = nbuf;
        time = ntime;
        parents.push(nparent);
    }

    // Best terminal state.
    let (best_state, &best_qoe) = qoe
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN in DP"))
        .expect("non-empty DP");
    assert!(
        best_qoe > neg,
        "DP found no feasible plan (trace cannot deliver the video)"
    );

    // Reconstruct the rate path.
    let mut rates_path = vec![0.0_f64; k_total];
    let mut s = best_state;
    for k in (1..k_total).rev() {
        rates_path[k] = rates[s % nr];
        s = parents[k][s] as usize;
    }
    rates_path[0] = rates[if k_total == 1 {
        parents[0][s] as usize
    } else {
        s % nr
    }];

    // Replay the plan (all dynamics were exact, so this reproduces the
    // DP value; it is how we report startup and rebuffering).
    let mut replay_qoe = 0.0;
    let mut buf = 0.0_f64;
    let mut t = 0.0_f64;
    let mut rebuf_total = 0.0;
    let mut startup = 0.0;
    let mut q_prev: Option<f64> = None;
    for (k, &r) in rates_path.iter().enumerate() {
        let dl = trace.time_to_download(chunk_size_kbits(video, k, r), t);
        let mut step = advance_buffer(buf, dl, video.chunk_secs(), bmax);
        if k == 0 {
            startup = dl;
            step.rebuffer_secs = 0.0;
        }
        let q = w.q(r);
        replay_qoe +=
            w.chunk_contribution(q, q_prev.map_or(0.0, |p| (q - p).abs()), step.rebuffer_secs);
        rebuf_total += step.rebuffer_secs;
        q_prev = Some(q);
        buf = step.next_buffer_secs;
        t += dl + step.wait_secs;
    }
    replay_qoe -= w.mu_s * startup;
    debug_assert!(
        (replay_qoe - best_qoe).abs() < 1e-6 * (1.0 + best_qoe.abs()),
        "replay {replay_qoe} diverged from DP value {best_qoe}"
    );

    OfflineResult {
        qoe: replay_qoe,
        rates_kbps: rates_path,
        total_rebuffer_secs: rebuf_total,
        startup_secs: startup,
    }
}

/// Exhaustive exact optimum over the discrete ladder — ground truth for
/// validating the DP on small instances. Enumerates all `|R|^K` plans, so
/// it refuses instances beyond ~10 million plans.
pub fn exhaustive_optimal_discrete(
    trace: &Trace,
    video: &Video,
    cfg: &OfflineConfig,
) -> OfflineResult {
    let n = video.ladder().len();
    let k_total = video.num_chunks();
    let plans = (n as f64).powi(k_total as i32);
    assert!(
        plans <= 1e7,
        "instance too large for exhaustive search ({plans:.0} plans)"
    );
    let w = &cfg.weights;
    let bmax = cfg.buffer_max_secs;
    let mut best_qoe = f64::NEG_INFINITY;
    let mut best_plan = vec![0usize; k_total];
    let mut plan = vec![0usize; k_total];
    loop {
        // Score the current plan exactly.
        let mut qoe = 0.0;
        let mut buf = 0.0_f64;
        let mut t = 0.0_f64;
        let mut q_prev: Option<f64> = None;
        for (k, &lvl) in plan.iter().enumerate() {
            let r = video.ladder().kbps(abr_video::LevelIdx(lvl));
            let dl = trace.time_to_download(video.chunk_size_kbits(k, abr_video::LevelIdx(lvl)), t);
            let mut step = advance_buffer(buf, dl, video.chunk_secs(), bmax);
            if k == 0 {
                qoe -= w.mu_s * dl;
                step.rebuffer_secs = 0.0;
            }
            let q = w.q(r);
            qoe +=
                w.chunk_contribution(q, q_prev.map_or(0.0, |p| (q - p).abs()), step.rebuffer_secs);
            q_prev = Some(q);
            buf = step.next_buffer_secs;
            t += dl + step.wait_secs;
        }
        if qoe > best_qoe {
            best_qoe = qoe;
            best_plan.copy_from_slice(&plan);
        }
        // Advance the mixed-radix counter.
        let mut i = 0;
        loop {
            if i == k_total {
                // Replay the winner for rebuffer/startup reporting.
                let rates: Vec<f64> = best_plan
                    .iter()
                    .map(|&l| video.ladder().kbps(abr_video::LevelIdx(l)))
                    .collect();
                let mut buf = 0.0_f64;
                let mut t = 0.0_f64;
                let mut rebuf = 0.0;
                let mut startup = 0.0;
                for (k, &lvl) in best_plan.iter().enumerate() {
                    let dl = trace
                        .time_to_download(video.chunk_size_kbits(k, abr_video::LevelIdx(lvl)), t);
                    let mut step = advance_buffer(buf, dl, video.chunk_secs(), bmax);
                    if k == 0 {
                        startup = dl;
                        step.rebuffer_secs = 0.0;
                    }
                    rebuf += step.rebuffer_secs;
                    buf = step.next_buffer_secs;
                    t += dl + step.wait_secs;
                }
                return OfflineResult {
                    qoe: best_qoe,
                    rates_kbps: rates,
                    total_rebuffer_secs: rebuf,
                    startup_secs: startup,
                };
            }
            plan[i] += 1;
            if plan[i] < n {
                break;
            }
            plan[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    //! The differential contract of the offline solver pipeline: the
    //! scratch-based solver, the thread-local convenience wrappers, the
    //! cache, and the reference solver must agree **exactly** — same QoE
    //! bits, same rate path, same rebuffer/startup schedule — on arbitrary
    //! ladders, traces, videos and DP resolutions.

    use crate::reference;
    use crate::{OfflineConfig, OfflineResult, OfflineScratch, OptCache};
    use abr_par::{check, SplitMix64};
    use abr_trace::Trace;
    use abr_video::{Ladder, QoePreference, QoeWeights, QualityFn, VideoBuilder};

    fn assert_bits_equal(a: &OfflineResult, b: &OfflineResult, what: &str) {
        assert_eq!(
            a.qoe.to_bits(),
            b.qoe.to_bits(),
            "{what}: qoe {} vs {}",
            a.qoe,
            b.qoe
        );
        assert_eq!(
            a.total_rebuffer_secs.to_bits(),
            b.total_rebuffer_secs.to_bits(),
            "{what}: rebuffer {} vs {}",
            a.total_rebuffer_secs,
            b.total_rebuffer_secs
        );
        assert_eq!(
            a.startup_secs.to_bits(),
            b.startup_secs.to_bits(),
            "{what}: startup {} vs {}",
            a.startup_secs,
            b.startup_secs
        );
        assert_eq!(
            a.rates_kbps.len(),
            b.rates_kbps.len(),
            "{what}: path length"
        );
        for (i, (x, y)) in a.rates_kbps.iter().zip(&b.rates_kbps).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: rate {i}: {x} vs {y}");
        }
    }

    /// A random strictly-ascending bitrate ladder with 2..=5 levels.
    fn random_ladder(rng: &mut SplitMix64) -> Ladder {
        let mut levels = vec![rng.range(100.0..800.0)];
        for _ in 0..rng.range(1usize..5) {
            let step = rng.range(1.15..2.2);
            levels.push(levels.last().unwrap() * step);
        }
        Ladder::new(levels).expect("ascending positive levels")
    }

    /// A random cyclic trace with 1..=6 segments, at least one non-zero.
    fn random_trace(rng: &mut SplitMix64) -> Trace {
        loop {
            let segs = rng.vec(1..6, |r| (r.range(0.5..20.0), r.range(0.0..6_000.0)));
            if segs.iter().any(|&(_, c)| c > 0.0) {
                return Trace::new(segs).expect("valid segments");
            }
        }
    }

    fn random_weights(rng: &mut SplitMix64) -> QoeWeights {
        let mut w = match rng.below(4) {
            0 => QoeWeights::balanced(),
            1 => QoeWeights::preset(QoePreference::AvoidInstability),
            2 => QoeWeights::preset(QoePreference::AvoidRebuffering),
            _ => QoeWeights {
                lambda: 1.0,
                mu: 3000.0,
                mu_s: 3000.0,
                mu_event: 0.0,
                w_lat: 0.0,
                quality: QualityFn::Saturating { cap_kbps: 1200.0 },
            },
        };
        w.lambda = rng.range(0.0..5.0);
        w.mu_event = rng.range(0.0..500.0);
        w
    }

    /// Scratch solver, thread-local wrapper, cache hit and cache miss all
    /// reproduce the reference solver bit-for-bit on random instances.
    #[test]
    fn all_paths_agree_exactly() {
        check(24, |rng| {
            let ladder = random_ladder(rng);
            let trace = random_trace(rng);
            let chunks = rng.range(1usize..16);
            let chunk_secs = rng.range(1.0..6.0);
            let cfg = OfflineConfig {
                rate_grid: rng.range(2usize..16),
                buffer_bins: rng.range(2usize..60),
                buffer_max_secs: rng.range(8.0..40.0),
                weights: random_weights(rng),
            };
            let vbr_amp = rng.range(0.0..0.5);
            let video = VideoBuilder::new(ladder)
                .chunks(chunks)
                .chunk_secs(chunk_secs)
                // Deterministic per-chunk VBR wobble exercises per-layer sizes.
                .vbr(|k| 1.0 + vbr_amp * (((k * 7919) % 13) as f64 / 13.0 - 0.5));

            let expected = reference::optimal_qoe(&trace, &video, &cfg);

            let mut scratch = OfflineScratch::new();
            assert_bits_equal(
                scratch.optimal_qoe(&trace, &video, &cfg),
                &expected,
                "scratch vs reference",
            );
            assert_bits_equal(
                &crate::optimal_qoe(&trace, &video, &cfg),
                &expected,
                "thread-local wrapper vs reference",
            );

            let cache = OptCache::new();
            let miss = cache.get_or_solve(&trace, &video, &cfg);
            assert_bits_equal(&miss, &expected, "cache miss vs reference");
            let hit = cache.get_or_solve(&trace, &video, &cfg);
            assert_bits_equal(&hit, &expected, "cache hit vs reference");
            assert_eq!(cache.stats().solves, 1);
            assert_eq!(cache.stats().hits, 1);
        });
    }

    /// Same contract for the ladder-restricted (discrete) solver.
    #[test]
    fn discrete_paths_agree_exactly() {
        check(24, |rng| {
            let ladder = random_ladder(rng);
            let trace = random_trace(rng);
            let video = VideoBuilder::new(ladder)
                .chunks(rng.range(1usize..16))
                .chunk_secs(rng.range(1.0..6.0))
                .cbr();
            let cfg = OfflineConfig {
                buffer_bins: rng.range(2usize..60),
                ..OfflineConfig::paper_default()
            };
            let expected = reference::optimal_qoe_discrete(&trace, &video, &cfg);
            let mut scratch = OfflineScratch::new();
            assert_bits_equal(
                scratch.optimal_qoe_discrete(&trace, &video, &cfg),
                &expected,
                "scratch discrete vs reference",
            );
            assert_bits_equal(
                &crate::optimal_qoe_discrete(&trace, &video, &cfg),
                &expected,
                "thread-local discrete vs reference",
            );
        });
    }

    /// One scratch reused across a random sequence of differently-shaped
    /// instances never leaks state between solves.
    #[test]
    fn scratch_reuse_is_stateless() {
        check(24, |rng| {
            let mut scratch = OfflineScratch::new();
            for _ in 0..rng.range(2usize..5) {
                let ladder = random_ladder(rng);
                let trace = random_trace(rng);
                let video = VideoBuilder::new(ladder)
                    .chunks(rng.range(1usize..10))
                    .cbr();
                let cfg = OfflineConfig {
                    buffer_bins: rng.range(2usize..40),
                    ..OfflineConfig::paper_default()
                };
                assert_bits_equal(
                    scratch.optimal_qoe(&trace, &video, &cfg),
                    &reference::optimal_qoe(&trace, &video, &cfg),
                    "reused scratch vs reference",
                );
            }
        });
    }
}
