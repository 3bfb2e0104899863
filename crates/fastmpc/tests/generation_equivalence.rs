//! Property tests of the offline enumeration: every table cell equals a
//! cold exact solve at its centroids, across randomized ladders, bin
//! resolutions (including the degenerate 1-bin case), horizons, live
//! slices, videos shorter than the horizon, VBR size profiles and QoE
//! weights; and the binary codec round-trips what the enumeration makes.

use abr_core::mpc::optimize_horizon;
use abr_fastmpc::{BinSpec, FastMpcTable, TableConfig};
use abr_par::{check, SplitMix64};
use abr_video::{Ladder, LevelIdx, QoeWeights, QualityFn, VideoBuilder};

/// A strictly increasing bitrate ladder built from a base rate and
/// multiplicative steps.
fn random_ladder(rng: &mut SplitMix64) -> Ladder {
    let mut levels = vec![rng.range(100.0..600.0)];
    for _ in 0..rng.range(1usize..4) {
        let step = rng.range(1.2..2.2);
        levels.push(levels.last().unwrap() * step);
    }
    Ladder::new(levels).expect("constructed strictly increasing")
}

/// Weights with `λ ∈ {0, 3}`, `μ_event ∈ {0, 500}` and any quality map.
fn random_weights(rng: &mut SplitMix64) -> QoeWeights {
    let quality = match rng.below(4) {
        0 => QualityFn::Identity,
        1 => QualityFn::Log {
            r0: 80.0,
            scale: 1000.0,
        },
        2 => QualityFn::Saturating { cap_kbps: 900.0 },
        _ => QualityFn::Table {
            knots: vec![
                (100.0, 0.0),
                (500.0, 1200.0),
                (1500.0, 2000.0),
                (4000.0, 2400.0),
            ],
        },
    };
    QoeWeights {
        lambda: [0.0, 3.0][rng.below(2)],
        mu_event: [0.0, 500.0][rng.below(2)],
        quality,
        ..QoeWeights::balanced()
    }
}

/// Every cell of a generated table — each live slice, buffer bin,
/// previous level and throughput bin — equals the first level of
/// `optimize_horizon`, a cold solve from a fresh scratch, at the cell's
/// centroids. The generator solves a row's cells in order in one scratch,
/// each search starting from its neighbour's plan, so this pins that the
/// seed never changes an answer. Videos may be shorter than the horizon,
/// where every solve clips it.
#[test]
fn every_cell_equals_a_cold_solve_at_its_centroids() {
    check(400, |rng| {
        let ladder = random_ladder(rng);
        let chunks = rng.range(1usize..12);
        let vbr_swing = rng.range(0.0..0.4);
        let video = VideoBuilder::new(ladder)
            .chunks(chunks)
            .chunk_secs(4.0)
            .vbr(|k| 1.0 + vbr_swing * if k % 2 == 0 { 1.0 } else { -1.0 });
        let horizon = rng.range(1usize..6);
        let cfg = TableConfig {
            buffer_bins: BinSpec::linear(rng.range(1usize..8), 0.0, 30.0),
            throughput_bins: BinSpec::log(rng.range(1usize..10), 100.0, 10_000.0),
            horizon,
            horizon_slices: rng.range(1usize..=horizon),
            weights: random_weights(rng),
        };
        let b_max = [20.0, 30.0][rng.below(2)];
        let table = FastMpcTable::generate(&video, b_max, cfg.clone());
        let levels = video.ladder().len();
        assert_eq!(
            table.num_entries(),
            cfg.horizon_slices * cfg.buffer_bins.count * levels * cfg.throughput_bins.count
        );
        for s in 0..cfg.horizon_slices {
            for b in 0..cfg.buffer_bins.count {
                let centroid = cfg.buffer_bins.centroid(b);
                for p in (0..levels).map(LevelIdx) {
                    for c in 0..cfg.throughput_bins.count {
                        let thr = cfg.throughput_bins.centroid(c);
                        let cold = optimize_horizon(
                            &video,
                            0,
                            horizon - s,
                            centroid.min(b_max),
                            b_max,
                            Some(p),
                            thr,
                            &cfg.weights,
                        );
                        assert_eq!(
                            table.lookup_live(centroid, p, thr, horizon - s),
                            cold.first(),
                            "{levels} levels, {chunks} chunks, horizon {horizon}, slice {s}, \
                             buffer bin {b}/{b_max}, prev {p:?}, {thr} kbps, {:?}",
                            cfg.weights
                        );
                    }
                }
            }
        }
    });
}

/// The binary codec round-trips every randomly generated table.
#[test]
fn binary_codec_round_trips() {
    check(12, |rng| {
        let ladder = random_ladder(rng);
        let bins = rng.range(1usize..8);
        let horizon = rng.range(1usize..5);
        let video = VideoBuilder::new(ladder).chunks(10).chunk_secs(4.0).cbr();
        let cfg = TableConfig {
            buffer_bins: BinSpec::linear(bins, 0.0, 30.0),
            throughput_bins: BinSpec::log(bins, 100.0, 10_000.0),
            horizon,
            horizon_slices: 1,
            weights: QoeWeights::balanced(),
        };
        let t = FastMpcTable::generate(&video, 30.0, cfg);
        let bytes = t.to_bytes();
        assert_eq!(bytes.len(), t.binary_size_bytes());
        let back = FastMpcTable::from_bytes(&bytes).expect("round trip decodes");
        assert_eq!(t, back);
    });
}
