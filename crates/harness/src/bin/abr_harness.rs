//! The experiment CLI — regenerates every table and figure of Section 7.
//!
//! ```text
//! abr-harness <command> [options]
//! ```
//!
//! `abr-harness --help` lists every command and flag. Both lists, the
//! parse errors and the dispatch come from the [`COMMANDS`] and [`FLAGS`]
//! tables below, and the parsed [`ExpOptions`] are the only input a run's
//! results depend on.

use abr_harness::experiments::{self, ExpOptions};
use abr_harness::report::Table;
use abr_trace::Dataset;
use abr_video::ENVIVIO_CHUNK_SECS;
use std::path::PathBuf;
use std::time::Instant;

/// One subcommand: its name, help text and regenerator.
#[derive(Debug)]
struct Command {
    name: &'static str,
    help: &'static str,
    run: fn(&ExpOptions) -> String,
}

/// One flag: its name, value placeholder (empty for a switch), help text
/// and the setter that validates a value and stores it. A setter's error
/// completes the sentence "`<flag>` ...".
struct Flag {
    name: &'static str,
    value: &'static str,
    help: &'static str,
    set: fn(&mut ExpOptions, &str) -> Result<(), String>,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "fig7",
        help: "dataset characteristics (3 CDF panels)",
        run: experiments::fig7::run,
    },
    Command {
        name: "fig8",
        help: "normalized-QoE CDFs on FCC / HSDPA / Synthetic (emulation path)",
        run: experiments::fig8::run,
    },
    Command {
        name: "fig9",
        help: "FCC detail CDFs (bitrate, switches, rebuffer)",
        run: experiments::fig8::run_fig9,
    },
    Command {
        name: "fig10",
        help: "HSDPA detail CDFs",
        run: experiments::fig8::run_fig10,
    },
    Command {
        name: "fig11a",
        help: "n-QoE vs prediction error",
        run: experiments::fig11::run_fig11a,
    },
    Command {
        name: "fig11b",
        help: "n-QoE vs QoE preference presets",
        run: experiments::fig11::run_fig11b,
    },
    Command {
        name: "fig11c",
        help: "n-QoE vs buffer size",
        run: experiments::fig11::run_fig11c,
    },
    Command {
        name: "fig11d",
        help: "n-QoE vs fixed startup delay",
        run: experiments::fig11::run_fig11d,
    },
    Command {
        name: "fig12a",
        help: "FastMPC discretization sweep",
        run: experiments::fig12::run_fig12a,
    },
    Command {
        name: "fig12b",
        help: "MPC look-ahead horizon sweep",
        run: experiments::fig12::run_fig12b,
    },
    Command {
        name: "table1",
        help: "FastMPC table sizes (full vs run-length coded)",
        run: experiments::table1::run,
    },
    Command {
        name: "levels",
        help: "bitrate-ladder granularity sweep (§7.3, unplotted)",
        run: experiments::levels::run,
    },
    Command {
        name: "overhead",
        help: "per-decision CPU cost and table memory (§7.4)",
        run: experiments::overhead::run,
    },
    Command {
        name: "ablation",
        help: "design-choice ablations (predictors, robust bound, MDP, binning)",
        run: experiments::ablation::run,
    },
    Command {
        name: "multi",
        help: "multi-player shared-bottleneck fairness (§8 extension)",
        run: experiments::multiplayer::run,
    },
    Command {
        name: "robustness",
        help: "fault-rate sweep: QoE + retry/waste accounting under injected \
               connection resets, truncation, stalls, 404/503 and jitter",
        run: experiments::robustness::run,
    },
    Command {
        name: "fairness",
        help: "shared-bottleneck fleets: coordinated vs uncoordinated players \
               over faulted links, with served wire-replay twins (a twin \
               mismatch aborts the run), writing fairness.csv and \
               fairness_cdf.csv",
        run: experiments::fairness::run,
    },
    Command {
        name: "live",
        help: "live/low-latency frontier: {encode delay} x {live buffer cap} \
               x {BB, RobustMPC, FastMPC-live} over FCC and 3G traces with \
               the fault layer armed, writing live.csv, plus a live serve leg \
               through the event engine with bit-identical wire twins",
        run: experiments::live::run,
    },
    Command {
        name: "all",
        help: "everything above except robustness, fairness and live",
        run: run_all,
    },
];

const FLAGS: &[Flag] = &[
    Flag {
        name: "--traces",
        value: "N",
        help: "traces per dataset (default 100)",
        set: |o, v| positive(v).map(|n| o.traces = n),
    },
    Flag {
        name: "--seed",
        value: "S",
        help: "RNG seed (default 42)",
        set: |o, v| unsigned(v).map(|s| o.seed = s),
    },
    Flag {
        name: "--out",
        value: "DIR",
        help: "also write CSV series under DIR",
        set: |o, v| {
            o.out = Some(PathBuf::from(v));
            Ok(())
        },
    },
    Flag {
        name: "--quick",
        value: "",
        help: "smaller sweeps for a fast smoke run",
        set: |o, _| {
            o.quick = true;
            Ok(())
        },
    },
    Flag {
        name: "--threads",
        value: "T",
        help: "worker threads for parallel sections (default: the ABR_THREADS \
               environment variable if set, else all cores)",
        set: |o, v| positive(v).map(|t| o.threads = Some(t)),
    },
    Flag {
        name: "--fault-rate",
        value: "R",
        help: "inject faults into every emulated session at rate R in [0, 1] \
               (R/5 per fault kind); also pins the robustness sweep to that \
               single rate. R = 0 arms the layer but never fires: output is \
               byte-identical to omitting the flag",
        set: |o, v| number(v, "in [0, 1]", |r| r <= 1.0).map(|r| o.fault_rate = Some(r)),
    },
    Flag {
        name: "--fault-seed",
        value: "S",
        help: "base seed for fault streams (default 7), independent of --seed \
               so fault schedules and predictor noise can be varied separately",
        set: |o, v| unsigned(v).map(|s| o.fault_seed = s),
    },
    Flag {
        name: "--players",
        value: "N",
        help: "fairness: players per shared bottleneck (positive); omit to \
               sweep the default grid (8 and 64; 4 and 16 under --quick)",
        set: |o, v| positive(v).map(|n| o.players = Some(n)),
    },
    Flag {
        name: "--bottlenecks",
        value: "N",
        help: "fairness: independent bottleneck groups per cell (default 4, \
               positive), each a shared-link run over its own trace and fault \
               stream",
        set: |o, v| positive(v).map(|n| o.bottlenecks = n),
    },
    Flag {
        name: "--fairness-alpha",
        value: "A",
        help: "fairness: weight of the coordinator's fairness term (finite, \
               non-negative, default 1.0; 0 is pure efficiency)",
        set: |o, v| number(v, NON_NEGATIVE, |_| true).map(|a| o.fairness_alpha = a),
    },
    Flag {
        name: "--encode-delay",
        value: "D",
        help: "live: pin the encoder delay to D seconds past each chunk's \
               nominal end (finite, positive) instead of sweeping the default \
               delays",
        set: |o, v| number(v, "finite and positive", |d| d > 0.0).map(|d| o.encode_delay = Some(d)),
    },
    Flag {
        name: "--max-buffer-live",
        value: "B",
        help: "live: pin the player-side live buffer cap to B seconds (finite, \
               at least one 4 s chunk of the streamed video) instead of \
               sweeping the default caps",
        set: |o, v| {
            let want = "finite and at least one chunk (4 s)";
            number(v, want, |b| b >= ENVIVIO_CHUNK_SECS).map(|b| o.max_buffer_live = Some(b))
        },
    },
    Flag {
        name: "--latency-weight",
        value: "W",
        help: "live: latency QoE weight w_lat (finite, non-negative; 0 \
               disables the latency term)",
        set: |o, v| number(v, NON_NEGATIVE, |_| true).map(|w| o.latency_weight = Some(w)),
    },
];

/// The accepted range of the weight flags.
const NON_NEGATIVE: &str = "finite and non-negative";

/// A positive integer.
fn positive(v: &str) -> Result<usize, String> {
    match v.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err("must be a positive integer".into()),
    }
}

/// A non-negative integer that fits in 64 bits.
fn unsigned(v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| "must be a non-negative integer".into())
}

/// A finite, non-negative number accepted by `ok`; `want` describes the
/// accepted values.
fn number(v: &str, want: &str, ok: fn(f64) -> bool) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && x >= 0.0 && ok(x) => Ok(x),
        _ => Err(format!("must be {want}")),
    }
}

/// Parses a command line into its command and options. Everything is
/// checked here, the command name included, so a run never starts on a
/// bad argument.
fn parse(args: &[String]) -> Result<(&'static Command, ExpOptions), String> {
    let mut cmd = None;
    let mut opts = ExpOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(flag) = FLAGS.iter().find(|f| f.name == arg) {
            let value = match flag.value {
                "" => "",
                _ => it
                    .next()
                    .ok_or_else(|| format!("{} needs a value", flag.name))?,
            };
            (flag.set)(&mut opts, value).map_err(|e| format!("{} {e}", flag.name))?;
        } else if cmd.is_none() && !arg.starts_with('-') {
            let found = COMMANDS.iter().find(|c| c.name == arg);
            cmd = Some(found.ok_or_else(|| format!("unknown command '{arg}'"))?);
        } else {
            return Err(format!("unknown argument '{arg}'"));
        }
    }
    Ok((cmd.ok_or("no command given")?, opts))
}

/// The `--help` text, rendered from [`COMMANDS`] and [`FLAGS`].
fn usage() -> String {
    /// Appends `name` padded to `width`, then `help` word-wrapped into the
    /// column after it (starting on the next line if `name` overflows).
    fn entry(out: &mut String, name: &str, width: usize, help: &str) {
        let mut line = format!("  {name:<width$}");
        for word in help.split_whitespace() {
            if line.len() + 1 + word.len() > 79 && line.len() > width + 2 {
                out.push_str(&line);
                out.push('\n');
                line = " ".repeat(width + 2);
            }
            line.push(' ');
            line.push_str(word);
        }
        out.push_str(&line);
        out.push('\n');
    }
    let mut out = String::from("usage: abr-harness <command> [options]\n\ncommands:\n");
    for c in COMMANDS {
        entry(&mut out, c.name, 14, c.help);
    }
    out.push_str("\noptions:\n");
    for f in FLAGS {
        entry(&mut out, &format!("{} {}", f.name, f.value), 22, f.help);
    }
    out
}

/// `all`: every paper artifact in one run, sharing the Figure 8 dataset
/// evaluations with Figures 9 and 10 instead of recomputing per figure.
fn run_all(opts: &ExpOptions) -> String {
    let mut out = experiments::fig7::run(opts);
    for ds in Dataset::ALL {
        let eval = experiments::fig8::dataset_eval(ds, opts);
        out.push_str(&experiments::fig8::render_fig8_panel(ds, &eval, opts));
        let detail = match ds {
            Dataset::Fcc => "Figure 9",
            Dataset::Hsdpa => "Figure 10",
            Dataset::Synthetic => continue,
        };
        out.push_str(&experiments::fig8::render_detail_panel(
            detail, ds, &eval, opts,
        ));
    }
    for name in [
        "fig11a", "fig11b", "fig11c", "fig11d", "fig12a", "fig12b", "table1", "levels", "overhead",
        "ablation", "multi",
    ] {
        let cmd = COMMANDS
            .iter()
            .find(|c| c.name == name)
            .expect("listed command");
        out.push_str(&(cmd.run)(opts));
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print!("{}", usage());
        return;
    }
    let (cmd, opts) = parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\nrun 'abr-harness --help' for the commands and flags");
        std::process::exit(2);
    });
    // Applies to every parallel section: trace grids and table generation.
    abr_par::set_max_threads(opts.threads);
    let start = Instant::now();
    print!("{}", (cmd.run)(&opts));
    let mut meta = Table::new("run info", &["key", "value"]);
    meta.row(vec!["command".into(), cmd.name.into()]);
    meta.row(vec!["traces/dataset".into(), opts.traces.to_string()]);
    meta.row(vec!["seed".into(), opts.seed.to_string()]);
    meta.row(vec![
        "elapsed".into(),
        format!("{:.1}s", start.elapsed().as_secs_f64()),
    ]);
    print!("{}", meta.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    /// Whether a parsed value landed in its field.
    type Landed = fn(&ExpOptions) -> bool;

    /// Values each valued flag must accept, edges included, and where each
    /// one lands.
    const ACCEPTS: &[(&str, &str, Landed)] = &[
        ("--traces", "1", |o| o.traces == 1),
        ("--traces", "25", |o| o.traces == 25),
        ("--seed", "0", |o| o.seed == 0),
        ("--seed", "18446744073709551615", |o| o.seed == u64::MAX),
        ("--out", "results", |o| {
            o.out == Some(PathBuf::from("results"))
        }),
        ("--threads", "1", |o| o.threads == Some(1)),
        ("--fault-rate", "0", |o| o.fault_rate == Some(0.0)),
        ("--fault-rate", "0.1", |o| o.fault_rate == Some(0.1)),
        ("--fault-rate", "1", |o| o.fault_rate == Some(1.0)),
        ("--fault-seed", "99", |o| o.fault_seed == 99),
        ("--players", "1", |o| o.players == Some(1)),
        ("--bottlenecks", "1", |o| o.bottlenecks == 1),
        ("--fairness-alpha", "0", |o| o.fairness_alpha == 0.0),
        ("--fairness-alpha", "2.5", |o| o.fairness_alpha == 2.5),
        ("--encode-delay", "0.001", |o| o.encode_delay == Some(0.001)),
        ("--encode-delay", "1.5", |o| o.encode_delay == Some(1.5)),
        ("--max-buffer-live", "4", |o| o.max_buffer_live == Some(4.0)),
        ("--max-buffer-live", "12", |o| {
            o.max_buffer_live == Some(12.0)
        }),
        ("--latency-weight", "0", |o| o.latency_weight == Some(0.0)),
        ("--latency-weight", "25", |o| o.latency_weight == Some(25.0)),
    ];

    /// Values each valued flag must refuse (a missing value is refused
    /// for every valued flag as well).
    const REJECTS: &[(&str, &[&str])] = &[
        ("--traces", &["0", "abc"]),
        ("--seed", &["-1", "x"]),
        ("--threads", &["0", "many"]),
        ("--fault-rate", &["1.5", "-0.1", "nan"]),
        ("--fault-seed", &["x"]),
        ("--players", &["0", "-4", "many"]),
        ("--bottlenecks", &["0", "-1"]),
        ("--fairness-alpha", &["-0.1", "inf", "nan", "fair"]),
        ("--encode-delay", &["0", "-1", "inf", "nan", "slow"]),
        ("--max-buffer-live", &["0", "1", "3.99", "-8", "inf", "big"]),
        ("--latency-weight", &["-0.1", "inf", "nan", "low"]),
    ];

    #[test]
    fn every_flag_accepts_its_edge_values() {
        for (flag, value, landed) in ACCEPTS {
            let (_, opts) = parse(&args(&["fig8", flag, value]))
                .unwrap_or_else(|e| panic!("{flag} {value}: {e}"));
            assert!(landed(&opts), "{flag} {value}");
        }
        for f in FLAGS.iter().filter(|f| !f.value.is_empty()) {
            assert!(ACCEPTS.iter().any(|c| c.0 == f.name), "{} untested", f.name);
        }
    }

    #[test]
    fn every_flag_refuses_bad_values() {
        for (flag, values) in REJECTS {
            for value in *values {
                let err = parse(&args(&["fig8", flag, value])).unwrap_err();
                assert!(
                    err.starts_with(&format!("{flag} must be")),
                    "{flag} {value}: {err}"
                );
            }
        }
        for f in FLAGS.iter().filter(|f| !f.value.is_empty()) {
            let err = parse(&args(&["fig8", f.name])).unwrap_err();
            assert_eq!(err, format!("{} needs a value", f.name));
            if f.name != "--out" {
                assert!(REJECTS.iter().any(|c| c.0 == f.name), "{} untested", f.name);
            }
        }
    }

    #[test]
    fn defaults_apply() {
        let (cmd, opts) = parse(&args(&["table1"])).unwrap();
        assert_eq!(cmd.name, "table1");
        assert_eq!(opts.traces, 100);
        assert_eq!(opts.seed, 42);
        assert!(!opts.quick);
        assert!(opts.out.is_none());
        assert_eq!(opts.threads, None);
        assert_eq!(opts.fault_rate, None);
        assert_eq!(opts.fault_seed, 7);
        assert_eq!(opts.bottlenecks, 4);
        assert_eq!(opts.fairness_alpha, 1.0);
        assert!(opts.players.is_none() && opts.latency_weight.is_none());
        assert!(opts.encode_delay.is_none() && opts.max_buffer_live.is_none());
    }

    #[test]
    fn command_and_switch_combine_with_flags_in_any_order() {
        let (cmd, opts) =
            parse(&args(&["--quick", "--traces", "25", "fig8", "--seed", "7"])).unwrap();
        assert_eq!(cmd.name, "fig8");
        assert!(opts.quick);
        assert_eq!((opts.traces, opts.seed), (25, 7));
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(parse(&args(&[])).unwrap_err(), "no command given");
        assert!(parse(&args(&["fig8", "--bogus"])).is_err());
        assert!(parse(&args(&["fig8", "extra-command"])).is_err());
        let err = parse(&args(&["not-an-experiment"])).unwrap_err();
        assert_eq!(err, "unknown command 'not-an-experiment'");
    }

    #[test]
    fn removed_flags_are_unknown_arguments() {
        for flag in [
            "--no-opt-cache",
            "--no-table-cache",
            "--opt-cache",
            "--live",
            "--sessions",
            "--backend",
            "--event-loops",
            "--max-conns",
            "--scale-sessions",
            "--table-budget-mb",
            "--catalog-videos",
            "--zipf-alpha",
        ] {
            let err = parse(&args(&["all", flag])).unwrap_err();
            assert_eq!(err, format!("unknown argument '{flag}'"));
        }
        for command in ["serve-bench", "serve-scale", "catalog-bench"] {
            let err = parse(&args(&[command, "--quick"])).unwrap_err();
            assert_eq!(err, format!("unknown command '{command}'"));
        }
    }

    #[test]
    fn help_names_every_flag_and_command_exactly_once() {
        let help = usage();
        let entries: Vec<&str> = help
            .lines()
            .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        let flags: Vec<&str> = entries
            .iter()
            .copied()
            .filter(|e| e.starts_with("--"))
            .collect();
        let commands: Vec<&str> = entries
            .iter()
            .copied()
            .filter(|e| !e.starts_with("--"))
            .collect();
        assert_eq!(flags, FLAGS.iter().map(|f| f.name).collect::<Vec<_>>());
        assert_eq!(
            commands,
            COMMANDS.iter().map(|c| c.name).collect::<Vec<_>>()
        );
        assert!(help.lines().all(|l| l.len() <= 79), "{help}");
    }
}
