//! Shared-bottleneck fairness — coordinated vs uncoordinated fleets.
//!
//! Sweeps players-per-bottleneck × controller × coordinated/uncoordinated
//! with the fault layer armed. Every cell runs `--bottlenecks` independent
//! shared links through the multiplayer engine, where each player steps the
//! same session core as the simulator; the coordinated arm wraps each
//! player in a
//! [`CoordinatedController`](abr_serve::CoordinatedController) sharing one
//! [`FairnessCoordinator`] per link, exactly the allocator `abr-serve`
//! runs behind `POST /decision(s)`.
//!
//! A **wire twin** guards every run: each player's decision stream is
//! recorded in global decision order as the exact `DecisionRequest` the
//! wire would carry, then replayed through a real in-process
//! [`AbrService`] (grouped sessions for the coordinated arm) and the
//! service's replies compared decision-for-decision. This pins the
//! in-process coordinator consulted by the harness to the one the server
//! runs. Any mismatch panics, so a clean exit is the differential gate
//! (`scripts/ci.sh` fairness smoke). Outputs: per-run rows in
//! `fairness.csv` (full float precision — the byte-identity determinism
//! gate diffs this file across processes), headline CDFs in
//! `fairness_cdf.csv`, and the rendered summary/verdict tables.

use super::ExpOptions;
use crate::registry::Algo;
use crate::report::{cdf_table, fmt_num, write_csv, Table};
use crate::runner::par_map;
use abr_core::{BitrateController, ControllerContext, Decision};
use abr_net::http::Request;
use abr_net::multiplayer::{run_shared_session_faulted, SharedPlayer};
use abr_net::FaultSpec;
use abr_predictor::HarmonicMean;
use abr_serve::{
    AbrService, CoordinatedController, CoordinatorConfig, DecisionReply, DecisionRequest,
    FairnessCoordinator, LastChunk, SessionSpec,
};
use abr_sim::SimConfig;
use abr_trace::{Dataset, Trace};
use abr_video::{envivio_video, Video};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// The coordinator configuration under test — shared by the in-process
/// fleet and the wire-replay service so both consult bit-identical
/// allocators.
///
/// `headroom > 1` compensates the capacity estimator's residual low bias
/// on bursty traces (throughput is only sampled while flows are on-wire,
/// which correlates with contention), and `max_step_up: 2` lets the
/// allocator track FCC-style rate bursts; both were tuned so the
/// coordinated fleet keeps ≥ 95% of uncoordinated delivered kilobits
/// while winning the Jain CDF.
fn coord_cfg(alpha: f64) -> CoordinatorConfig {
    CoordinatorConfig {
        alpha,
        headroom: 1.125,
        max_step_up: 2,
        ..CoordinatorConfig::default()
    }
}

/// One recorded decision: the wire request the player state maps to and
/// the decision the in-process controller produced for it.
struct WireEvent {
    player: usize,
    req: DecisionRequest,
    level: usize,
    wait_bits: Option<u64>,
}

type WireLog = Arc<Mutex<Vec<WireEvent>>>;

/// Wraps a controller and appends every decision to a shared log in
/// global decision order — the engine is single-threaded, so the log is
/// the exact serialization the wire replay must reproduce.
struct Recording {
    inner: Box<dyn BitrateController>,
    sid: u64,
    log: WireLog,
}

impl BitrateController for Recording {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &ControllerContext<'_>) -> Decision {
        let req = DecisionRequest::from_context(self.sid, ctx);
        let d = self.inner.decide(ctx);
        self.log.lock().unwrap().push(WireEvent {
            player: self.sid as usize,
            req,
            level: d.level.get(),
            wait_bits: d.startup_wait_secs.map(f64::to_bits),
        });
        d
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

fn build_players(
    n: usize,
    algo: Algo,
    cfg: &SimConfig,
    video: &Video,
    coordinator: Option<&Arc<FairnessCoordinator>>,
    log: &WireLog,
) -> Vec<SharedPlayer> {
    (0..n)
        .map(|i| {
            let mut ctrl: Box<dyn BitrateController> = algo.build(None, &cfg.weights, 5);
            if let Some(coord) = coordinator {
                ctrl = Box::new(CoordinatedController::new(
                    ctrl,
                    Arc::clone(coord),
                    "link",
                    i as u64,
                    video,
                    &cfg.weights.quality,
                ));
            }
            SharedPlayer {
                controller: Box::new(Recording {
                    inner: ctrl,
                    sid: i as u64,
                    log: Arc::clone(log),
                }),
                predictor: Box::new(HarmonicMean::paper_default()),
                // Staggered joins: waves of 16, half a second apart.
                start_offset_secs: (i % 16) as f64 * 0.5,
            }
        })
        .collect()
}

/// Replays the recorded decision stream through a real in-process
/// [`AbrService`] and counts reply divergences.
fn wire_replay(
    log: &[WireEvent],
    n: usize,
    algo: Algo,
    coordinated: bool,
    alpha: f64,
    video: &Video,
) -> usize {
    let svc = AbrService::with_coordinator_config(
        4,
        abr_fastmpc::TableStoreConfig::default(),
        coord_cfg(alpha),
    );
    let backend = algo.backend().expect("the fairness experiment runs served algorithms");
    let mut sids = Vec::with_capacity(n);
    for _ in 0..n {
        let mut spec = SessionSpec::paper_default(backend, video.clone());
        if coordinated {
            spec.bottleneck = Some("link".to_string());
        }
        let resp = svc.handle(&Request::post("/session", spec.encode().as_bytes(), "text/plain"));
        assert_eq!(resp.status, 200, "fairness wire twin: registration failed");
        let sid: u64 = String::from_utf8_lossy(&resp.body)
            .trim()
            .strip_prefix("sid ")
            .expect("sid line")
            .parse()
            .expect("sid number");
        sids.push(sid);
    }
    let mut mismatches = 0usize;
    for ev in log {
        let req = DecisionRequest {
            sid: sids[ev.player],
            chunk: ev.req.chunk,
            buffer_secs: ev.req.buffer_secs,
            last: ev.req.last.as_ref().map(|l| LastChunk {
                level: l.level,
                throughput_kbps: l.throughput_kbps,
                download_secs: l.download_secs,
            }),
            now_secs: None,
        };
        let resp = svc.handle(&Request::post(
            "/decision",
            req.encode().as_bytes(),
            "text/plain",
        ));
        if resp.status != 200 {
            mismatches += 1;
            continue;
        }
        let reply = DecisionReply::decode(&String::from_utf8_lossy(&resp.body))
            .expect("fairness wire twin: reply body");
        if reply.level != ev.level
            || reply.startup_wait_secs.map(f64::to_bits) != ev.wait_bits
        {
            mismatches += 1;
        }
    }
    mismatches
}

/// One (players, algorithm, mode, bottleneck) run.
struct Row {
    players: usize,
    algo: Algo,
    coordinated: bool,
    run: usize,
    jain_qoe: f64,
    jain_bitrate: f64,
    utilization: f64,
    mean_qoe: f64,
    delivered_kbits: f64,
    mean_instability: f64,
    mean_oscillations: f64,
    coordinated_decisions: u64,
    fallback_decisions: u64,
    wire_mismatches: usize,
    qoes: Vec<f64>,
    instabilities: Vec<f64>,
}

#[allow(clippy::too_many_arguments)]
fn run_one(
    players: usize,
    algo: Algo,
    coordinated: bool,
    run: usize,
    trace: &Trace,
    faults: &FaultSpec,
    alpha: f64,
    video: &Video,
    cfg: &SimConfig,
) -> Row {
    let log: WireLog = Arc::default();
    let coordinator = coordinated.then(|| {
        Arc::new(FairnessCoordinator::new(coord_cfg(alpha)))
    });
    let fleet = build_players(players, algo, cfg, video, coordinator.as_ref(), &log);
    let out = run_shared_session_faulted(fleet, trace, video, cfg, Some(faults));
    let (coordinated_decisions, fallback_decisions) = coordinator
        .as_ref()
        .map(|c| {
            (
                c.stats().coordinated.load(Ordering::Relaxed),
                c.stats().fallbacks.load(Ordering::Relaxed),
            )
        })
        .unwrap_or((0, 0));

    // Wire twin: replay the recorded stream through a real service.
    let events = Arc::try_unwrap(log)
        .unwrap_or_else(|_| panic!("wire log still shared"))
        .into_inner()
        .unwrap();
    let wire_mismatches = wire_replay(&events, players, algo, coordinated, alpha, video);

    let qoes: Vec<f64> = out.sessions.iter().map(|s| s.qoe.qoe).collect();
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    Row {
        players,
        algo,
        coordinated,
        run,
        jain_qoe: out.qoe_fairness,
        jain_bitrate: out.bitrate_fairness,
        utilization: out.utilization,
        mean_qoe: mean(&qoes),
        delivered_kbits: out.delivered_kbits,
        mean_instability: mean(&out.instabilities),
        mean_oscillations: out.oscillations.iter().sum::<usize>() as f64
            / out.oscillations.len().max(1) as f64,
        coordinated_decisions,
        fallback_decisions,
        wire_mismatches,
        qoes,
        instabilities: out.instabilities.clone(),
    }
}

fn mode_name(coordinated: bool) -> &'static str {
    if coordinated {
        "coordinated"
    } else {
        "uncoordinated"
    }
}

/// Runs the experiment and returns the rendered report.
pub fn run(opts: &ExpOptions) -> String {
    let video = envivio_video();
    let cfg = SimConfig::paper_default();
    let alpha = opts.fairness_alpha;
    let player_counts: Vec<usize> = match opts.players {
        Some(p) => vec![p],
        None if opts.quick => vec![4, 16],
        None => vec![8, 64],
    };
    let algos: Vec<Algo> = if opts.quick {
        vec![Algo::RobustMpc]
    } else {
        vec![Algo::Bb, Algo::RobustMpc]
    };
    let runs = opts.bottlenecks;
    // The fault layer is ON by default in this experiment (the regime the
    // coordinator must survive); --fault-rate overrides, including to 0.
    let rate = opts.fault_rate.unwrap_or(0.05);
    let fault_template = FaultSpec::for_rate(rate, opts.fault_seed);
    // One base trace per bottleneck, scaled per fleet size so the
    // long-run fair share sits between ladder levels and contention
    // actually bites.
    let base_traces = Dataset::Fcc.generate(opts.seed ^ 0x6A11, runs);

    struct Job {
        players: usize,
        algo: Algo,
        coordinated: bool,
        run: usize,
        trace: Trace,
        faults: FaultSpec,
    }
    let mut jobs = Vec::new();
    for &players in &player_counts {
        for &algo in &algos {
            for coordinated in [false, true] {
                for (run, base) in base_traces.iter().enumerate() {
                    jobs.push(Job {
                        players,
                        algo,
                        coordinated,
                        run,
                        trace: base.scaled(1.2 * players as f64),
                        faults: FaultSpec {
                            seed: fault_template.seed
                                ^ (run as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
                            ..fault_template.clone()
                        },
                    });
                }
            }
        }
    }
    let rows: Vec<Row> = par_map(jobs.len(), |i| {
        let j = &jobs[i];
        run_one(
            j.players,
            j.algo,
            j.coordinated,
            j.run,
            &j.trace,
            &j.faults,
            alpha,
            &video,
            &cfg,
        )
    });

    // The twin gate: any divergence is a bug, not a data point.
    let wire_total: usize = rows.iter().map(|r| r.wire_mismatches).sum();
    assert_eq!(
        wire_total, 0,
        "in-process coordinator diverged from the served wire replay"
    );

    // Per-run CSV, full float precision: the cross-process determinism
    // gate byte-diffs this file.
    let mut csv = Table::new(
        "Fairness runs: one row per (players, algorithm, mode, bottleneck)",
        &[
            "players",
            "algorithm",
            "mode",
            "bottleneck",
            "jain_qoe",
            "jain_bitrate",
            "utilization",
            "mean_qoe",
            "delivered_kbits",
            "mean_instability",
            "mean_oscillations",
            "coordinated_decisions",
            "fallback_decisions",
            "wire_twin_mismatches",
        ],
    );
    for r in &rows {
        csv.row(vec![
            r.players.to_string(),
            r.algo.name().to_string(),
            mode_name(r.coordinated).to_string(),
            r.run.to_string(),
            format!("{}", r.jain_qoe),
            format!("{}", r.jain_bitrate),
            format!("{}", r.utilization),
            format!("{}", r.mean_qoe),
            format!("{}", r.delivered_kbits),
            format!("{}", r.mean_instability),
            format!("{}", r.mean_oscillations),
            r.coordinated_decisions.to_string(),
            r.fallback_decisions.to_string(),
            r.wire_mismatches.to_string(),
        ]);
    }
    write_csv(opts.out.as_deref(), "fairness", &csv).expect("csv write");

    // Summary: cell means across bottlenecks.
    let mut summary = Table::new(
        "Shared-bottleneck fairness: coordinated vs uncoordinated (cell means)",
        &[
            "players",
            "algorithm",
            "mode",
            "Jain(QoE)",
            "Jain(bitrate)",
            "utilization",
            "mean QoE",
            "instability",
            "coord/fallback",
            "twin mismatches",
        ],
    );
    let cell = |players: usize, algo: Algo, coordinated: bool| -> Vec<&Row> {
        rows.iter()
            .filter(|r| r.players == players && r.algo == algo && r.coordinated == coordinated)
            .collect()
    };
    let cell_mean = |rs: &[&Row], f: fn(&Row) -> f64| -> f64 {
        rs.iter().map(|r| f(r)).sum::<f64>() / rs.len().max(1) as f64
    };
    for &players in &player_counts {
        for &algo in &algos {
            for coordinated in [false, true] {
                let rs = cell(players, algo, coordinated);
                let twin: usize = rs.iter().map(|r| r.wire_mismatches).sum();
                summary.row(vec![
                    players.to_string(),
                    algo.name().to_string(),
                    mode_name(coordinated).to_string(),
                    fmt_num(cell_mean(&rs, |r| r.jain_qoe)),
                    fmt_num(cell_mean(&rs, |r| r.jain_bitrate)),
                    fmt_num(cell_mean(&rs, |r| r.utilization)),
                    fmt_num(cell_mean(&rs, |r| r.mean_qoe)),
                    fmt_num(cell_mean(&rs, |r| r.mean_instability)),
                    format!(
                        "{}/{}",
                        rs.iter().map(|r| r.coordinated_decisions).sum::<u64>(),
                        rs.iter().map(|r| r.fallback_decisions).sum::<u64>()
                    ),
                    twin.to_string(),
                ]);
            }
        }
    }
    let mut out = summary.render();

    // Verdict per (players, algorithm): the acceptance comparison.
    let mut verdict = Table::new(
        "Coordination verdict: Jain(QoE) lift and efficiency ratio (coordinated / uncoordinated)",
        &[
            "players",
            "algorithm",
            "Jain uncoord",
            "Jain coord",
            "delivered ratio",
            "instability ratio",
        ],
    );
    for &players in &player_counts {
        for &algo in &algos {
            let u = cell(players, algo, false);
            let c = cell(players, algo, true);
            let ju = cell_mean(&u, |r| r.jain_qoe);
            let jc = cell_mean(&c, |r| r.jain_qoe);
            let eff =
                cell_mean(&c, |r| r.delivered_kbits) / cell_mean(&u, |r| r.delivered_kbits);
            let instab =
                cell_mean(&c, |r| r.mean_instability) / cell_mean(&u, |r| r.mean_instability);
            verdict.row(vec![
                players.to_string(),
                algo.name().to_string(),
                fmt_num(ju),
                fmt_num(jc),
                fmt_num(eff),
                fmt_num(instab),
            ]);
        }
    }
    out.push_str(&verdict.render());

    // Headline CDFs: the largest fleet, the MPC arm (or the only algo).
    let headline_players = *player_counts.iter().max().unwrap();
    let headline_algo = *algos.last().unwrap();
    let pool = |coordinated: bool, f: fn(&Row) -> &Vec<f64>| -> Vec<f64> {
        cell(headline_players, headline_algo, coordinated)
            .iter()
            .flat_map(|r| f(r).iter().copied())
            .collect()
    };
    let jain = |coordinated: bool| -> Vec<f64> {
        cell(headline_players, headline_algo, coordinated)
            .iter()
            .map(|r| r.jain_qoe)
            .collect()
    };
    let (ju, jc) = (jain(false), jain(true));
    let (qu, qc) = (pool(false, |r| &r.qoes), pool(true, |r| &r.qoes));
    let (iu, ic) = (
        pool(false, |r| &r.instabilities),
        pool(true, |r| &r.instabilities),
    );
    let cdfs = cdf_table(
        &format!(
            "Fairness CDFs: {headline_players} players/bottleneck, {} (quantiles across bottlenecks/players)",
            headline_algo.name()
        ),
        &[
            ("jain_uncoord", ju.as_slice()),
            ("jain_coord", jc.as_slice()),
            ("qoe_uncoord", qu.as_slice()),
            ("qoe_coord", qc.as_slice()),
            ("instab_uncoord", iu.as_slice()),
            ("instab_coord", ic.as_slice()),
        ],
        20,
    );
    write_csv(opts.out.as_deref(), "fairness_cdf", &cdfs).expect("csv write");
    out.push_str(&cdfs.render());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fairness_experiment_renders_with_zero_twin_mismatches() {
        // Tiny fleet, both modes, wire twin active. The run() asserts 0
        // mismatches, so rendering at all is the differential gate.
        let s = run(&ExpOptions {
            players: Some(3),
            bottlenecks: 1,
            quick: true,
            ..ExpOptions::default()
        });
        assert!(s.contains("coordinated"), "{s}");
        assert!(s.contains("Jain(QoE)"), "{s}");
        assert!(s.contains("jain_coord"), "{s}");
    }
}
