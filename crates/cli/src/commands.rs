//! Subcommand dispatch and execution.

use crate::args::Options;
use crate::errors::{CliError, EXIT_CLOBBER, EXIT_INVARIANT, EXIT_SWEEP_FAILED};
use crate::run::{self, Job, RunSpec};
use btfluid_bench::{
    ablation, adapt_exp, fig2, fig3, fig4a, fig4bc, skew, transient, validate, Table,
};
use btfluid_core::adapt::AdaptConfig;
use btfluid_core::multiclass::{BandwidthClass, MultiClassFluid};
use btfluid_core::FluidParams;
use btfluid_des::{
    estimate_eta, run_single_torrent, ChunkLevelConfig, ScenarioHook, SchemeKind, SimOutcome,
    SingleTorrentConfig, Snapshot,
};
use btfluid_harness as harness;
use btfluid_hybrid::{HybridConfig, HybridRunner, Regime};
use btfluid_scenario::{
    per_file, registry, runner, trace_program, RateMode, ScenarioProgram, ScenarioRun, TraceHook,
    TraceShaper,
};
use btfluid_telemetry::{
    diag, set_level, Counters, FlightDump, FlightKind, FlightRecord, Json, Level, OwnedSample,
    TraceRecord, FLIGHTREC_VERSION, TRACE_VERSION,
};
use btfluid_workload::{fit_model, ArrivalTrace, CorrelationModel};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
btfluid — multiple-file BitTorrent downloading, reproduced (ICPP 2006)

USAGE: btfluid <command> [options]

COMMANDS
  fig2        Figure 2: MTCD vs MTSD avg online time per file vs correlation
                [--points N] [--k K]
  fig3        Figure 3: per-class times at p = 0.1 and p = 1.0  [--k K] [--p LIST]
  fig4a       Figure 4(a): CMFSD avg online time per file over the (p, ρ) grid
  fig4b       Figure 4(b): per-class CMFSD vs MFCD at p = 0.9
  fig4c       Figure 4(c): per-class CMFSD vs MFCD at p = 0.1
  validate    X3: fluid model vs peer-level simulator
                [--p P] [--reps N] [--horizon H] [--warmup W] [--seed S]
  adapt       X4: Adapt under cheaters  [--cheaters LIST] [--p P] [--reps N]
                [--epoch E] [--horizon H] [--seed S]
  transient   X5: flash-crowd settling  [--p P] [--crowd N]
  ablation    X6: parameter elasticities per scheme  [--p P]
  skew        X8: Zipf popularity skew, MTCD vs MTSD  [--k K]
  multiclass  X7: heterogeneous bandwidth classes, fluid vs simulation
                [--classes MU:C:LAMBDA,...] [--seed S]
  eta         X9: measure the sharing efficiency η at chunk level [--seed S]
  sim         one raw simulation  --scheme mtsd|mtcd|mfcd|cmfsd[:RHO]
                [--k K] [--p P] [--horizon H] [--warmup W]
                [--origin-seeds N] [RUN OPTIONS]
  scenario    non-stationary scenario runs (flash crowds, churn, faults)
                btfluid scenario list
                btfluid scenario <name> [--scheme SCHEME]
                  [--smoke | --scale F] [--fluid] [RUN OPTIONS]
                no --scheme runs the line-up MTSD, MTCD, MFCD, CMFSD and
                CMFSD+Adapt (Adapt is left out under --aggregate)
                multiscale fluid/DES driver (mtcd|mtsd only):
                  --hybrid [--hybrid-tol T] (default 0.1; thresholds
                  hi = ceil(1/T²), lo = hi/2); --checkpoint-every counts
                  decision boundaries here (default 8), not events
  inspect     summarize a telemetry trace (counters, anomaly flags,
              per-class trajectories) or a flight-recorder dump (event
              mix, last handoff/checkpoint, staleness vs failure time)
                btfluid inspect <trace.jsonl|flightrec.jsonl> [--csv-out FILE]
  profile     hot-path self-profiler: one engine run with scoped phase
              timers (heap ops, rate maintenance, member sampling, hook
              dispatch, snapshot encode, sink write), calibrated-overhead
              subtracted, rendered as per-phase wall and per-event tables
                [--scheme S] [--k K] [--p P] [--horizon H] [RUN OPTIONS]
  perf        cross-run performance observatory over committed BENCH_*.json
              and sweep manifests
                [--bench FILES] [--manifest FILE] [--history FILE]
                [--report FILE] [--md-out FILE] [--record] [--check]
                [--canary]
              --record appends today's metrics to the history
              (PERF_HISTORY.jsonl); --check compares them against the
              noise band (median ± MAD over history) and exits 4 on a
              regression; --canary degrades the metrics first and must
              exit 4 — CI asserts exactly that
  sweep       supervised replicate sweep with failure quarantine
                --manifest FILE [--bundles DIR] [--schemes LIST] [--reps N]
                [--seed S] [--k K] [--p P] [--horizon H] [--resume]
                [--retries N] [--workers N] [--event-budget N]
                [--wall-budget-ms MS] [--checkpoint-every N] [--checked]
                [--exact | --aggregate] [--inject-panic CELL@EVENT]
                [--workload FILE] replays a recorded arrival trace into
                every cell (geometry and rates come from the trace;
                --p/--k/--horizon are ignored; [--bins N] bins the
                empirical rate for the reference schedule); --resume skips
                the cells the --manifest journal records as done
  trace       measurement-calibrated workload traces
              (codec btfluid-trace-arrivals v1, CSV or JSONL)
                btfluid trace gen --out FILE [--shape flat|diurnal]
                  [--k K] [--p P] [--lambda0 L] [--horizon H] [--seed S]
                  [--alpha A] [--leecher-frac F] [--format csv|jsonl]
                btfluid trace fit --in FILE          recover (λ₀, p) by
                  moment matching; prints fitted vs empirical moments
                btfluid trace replay --in FILE [--scheme S] [--bins N]
                  [--warmup W] [--fluid] [RUN OPTIONS]  drive the DES
                  with the recorded arrivals
                btfluid trace info --in FILE         codec header, rate,
                  and class histogram
  repro       replay a quarantined cell (or chaos plan) from its repro
              bundle
                btfluid repro <bundle-dir>
  chaos       deterministic chaos sweep: seeded random fault plans × I/O
              fault schedules × kill/resume points, run against the
              invariant catalog; violations are shrunk to minimal failing
              plans and written as replayable repro bundles
                [--seed S] [--cells N] [--bundles DIR] [--expect-fail]
              exits 4 when any invariant is violated; --expect-fail runs
              a canary with silently corrupted checkpoints that must be
              caught (exit 4) — CI asserts exactly that
  selfcheck   differential self-check oracle: paper-derived invariants,
              cross-implementation agreement, decoder fuzz
                [--full] [--seed S] [--expect-fail]
              --full adds the simulation-heavy checks; --expect-fail seeds
              a deliberate rate-cache corruption and exits 4 when (and only
              when) the audit detects it
  all         every fluid-model figure in sequence

GLOBAL OPTIONS
  --csv            print CSV instead of an aligned table
  --out FILE       also write the (CSV) output to FILE
  --force          overwrite existing --out/--records/--trace/--flightrec
                   files
  --verbose        debug-level stderr diagnostics (includes engine traces)
  --quiet          errors only on stderr; result output is unaffected
  --help           this message

RUN OPTIONS  (sim, profile, scenario, trace replay; sweep takes the first line)
  --seed S  --exact | --aggregate  --checked (per-event audits, exit 4)
  --checkpoint FILE [--checkpoint-every N] [--resume]  atomic snapshot every
        N events (default 5000); a killed run resumes **bit-identical**;
        a failed write retries, warns and, if it keeps failing, turns
        checkpointing off — the run still completes (hybrid too)
  --records FILE                        per-user record stream as CSV
  --trace FILE [--sample-every T]       btfluid-trace v1 JSONL, sampled
        every T time units (default 5); 'btfluid inspect' reads it back
  --flightrec FILE [--flightrec-cap N]  ring of the last N engine
        happenings (default 256), dumped on success and on a typed error
  Refused with exit 2 before anything runs: --exact with --aggregate;
  --sample-every ≤ 0; --flightrec-cap 0; --checkpoint-every 0; --hybrid
  with a scheme other than mtcd|mtsd or with --exact, --records or
  --checked; the scheme line-up (no --scheme) with --checkpoint,
  --records, --resume or --checked; sweep with --trace, --flightrec,
  --records or --checkpoint.

SEEDS
  Every DES-running command is deterministic under --seed; reruns with the
  same seed are bit-identical. Defaults: validate 2006, adapt 43, sim 1,
  profile 1, eta 11, multiclass 7, scenario 2006, trace replay 2006,
  sweep 2006. Fluid-only commands (fig*, transient, ablation, skew) take
  no seed.

EXIT CODES
  0 success          1 usage or I/O     2 invalid configuration
  3 solver diverged  4 invariant violated (--checked, chaos)
  5 snapshot/checkpoint rejected        6 sweep had failures / repro
  7 refused to overwrite (use --force)    reproduced the recorded failure
";

/// Runs the command line; `Ok(())` on success.
pub fn dispatch(argv: &[String]) -> Result<(), CliError> {
    // The global verbosity flags may appear anywhere on the line; peel
    // them before any positional/option handling so every command (and
    // every diag! call below it) shares one threshold.
    let mut filtered = Vec::with_capacity(argv.len());
    for arg in argv {
        match arg.as_str() {
            "--verbose" => set_level(Level::Debug),
            "--quiet" => set_level(Level::Error),
            _ => filtered.push(arg.clone()),
        }
    }
    let argv = filtered;
    let Some(cmd) = argv.first() else {
        print!("{USAGE}");
        return Ok(());
    };
    if cmd == "--help" || cmd == "help" || cmd == "-h" {
        print!("{USAGE}");
        return Ok(());
    }
    // `scenario`, `repro`, `inspect`, and `trace` take a positional
    // argument before the options.
    if cmd == "scenario" {
        return cmd_scenario(&argv[1..]);
    }
    if cmd == "repro" {
        return cmd_repro(&argv[1..]);
    }
    if cmd == "inspect" {
        return cmd_inspect(&argv[1..]);
    }
    if cmd == "trace" {
        return cmd_trace(&argv[1..]);
    }
    let opts = Options::parse(&argv[1..])?;
    if opts.has("help") {
        print!("{USAGE}");
        return Ok(());
    }
    match cmd.as_str() {
        "fig2" => cmd_fig2(&opts),
        "fig3" => cmd_fig3(&opts),
        "fig4a" => cmd_fig4a(&opts),
        "fig4b" => cmd_fig4bc(&opts, 0.9),
        "fig4c" => cmd_fig4bc(&opts, 0.1),
        "validate" => cmd_validate(&opts),
        "adapt" => cmd_adapt(&opts),
        "transient" => cmd_transient(&opts),
        "ablation" => cmd_ablation(&opts),
        "multiclass" => cmd_multiclass(&opts),
        "skew" => cmd_skew(&opts),
        "eta" => cmd_eta(&opts),
        "sim" => cmd_sim(&opts),
        "profile" => cmd_profile(&opts),
        "perf" => crate::perf::cmd_perf(&opts),
        "sweep" => cmd_sweep(&opts),
        "chaos" => cmd_chaos(&opts),
        "selfcheck" => cmd_selfcheck(&opts),
        "all" => cmd_all(&opts),
        other => Err(format!("unknown command '{other}' (try --help)").into()),
    }
}

thread_local! {
    /// Paths this invocation already wrote: commands that emit several
    /// tables to one `--out` file may keep rewriting it, only the *first*
    /// write of a pre-existing file needs `--force`.
    static WRITTEN: std::cell::RefCell<std::collections::BTreeSet<String>> =
        const { std::cell::RefCell::new(std::collections::BTreeSet::new()) };
}

/// Refuses to overwrite `path` unless `--force` was given.
pub(crate) fn check_clobber(path: &str, opts: &Options) -> Result<(), CliError> {
    let first = WRITTEN.with(|w| w.borrow_mut().insert(path.to_string()));
    if first && Path::new(path).exists() && !opts.has("force") {
        return Err(CliError::clobber(path));
    }
    Ok(())
}

/// Prints a table (or its CSV form) and optionally writes the CSV to disk.
fn emit(table: &Table, opts: &Options) -> Result<(), CliError> {
    if opts.has("csv") {
        print!("{}", table.to_csv());
    } else {
        println!("{}", table.render());
    }
    if let Some(path) = opts.get("out") {
        check_clobber(path, opts)?;
        fs::write(path, table.to_csv())?;
        diag!(Level::Info, "wrote {path}");
    }
    Ok(())
}

fn cmd_fig2(opts: &Options) -> Result<(), CliError> {
    let cfg = fig2::Fig2Config {
        points: opts.get_usize("points", 50)?,
        k: opts.get_usize("k", 10)? as u32,
        params: FluidParams::paper(),
    };
    let r = fig2::run(&cfg)?;
    emit(&r.table(), opts)
}

fn cmd_fig3(opts: &Options) -> Result<(), CliError> {
    let cfg = fig3::Fig3Config {
        k: opts.get_usize("k", 10)? as u32,
        correlations: opts.get_f64_list("p", &[0.1, 1.0])?,
        params: FluidParams::paper(),
    };
    let r = fig3::run(&cfg)?;
    for t in r.tables() {
        emit(&t, opts)?;
    }
    Ok(())
}

fn cmd_fig4a(opts: &Options) -> Result<(), CliError> {
    let r = fig4a::run(&fig4a::Fig4aConfig::default())?;
    emit(&r.table(), opts)
}

fn cmd_fig4bc(opts: &Options, p: f64) -> Result<(), CliError> {
    let cfg = fig4bc::Fig4bcConfig {
        correlations: vec![p],
        ..Default::default()
    };
    let r = fig4bc::run(&cfg)?;
    for t in r.tables() {
        emit(&t, opts)?;
    }
    Ok(())
}

fn cmd_validate(opts: &Options) -> Result<(), CliError> {
    let p = opts.get_f64("p", 0.5)?;
    let cfg = validate::ValidateConfig {
        model: CorrelationModel::new(10, p, 0.25)?,
        replications: opts.get_usize("reps", 4)?,
        horizon: opts.get_f64("horizon", 4000.0)?,
        warmup: opts.get_f64("warmup", 1000.0)?,
        seed: opts.get_u64("seed", 2006)?,
        ..Default::default()
    };
    let r = validate::run(&cfg)?;
    emit(&r.table(), opts)?;
    diag!(
        Level::Info,
        "worst relative online-time error: {:.1}%",
        100.0 * r.worst_online_error()
    );
    Ok(())
}

fn cmd_adapt(opts: &Options) -> Result<(), CliError> {
    let p = opts.get_f64("p", 0.9)?;
    let cfg = adapt_exp::AdaptExpConfig {
        model: CorrelationModel::new(10, p, 0.25)?,
        cheater_fractions: opts.get_f64_list("cheaters", &[0.0, 0.25, 0.5, 0.75])?,
        replications: opts.get_usize("reps", 3)?,
        epoch: opts.get_f64("epoch", 20.0)?,
        horizon: opts.get_f64("horizon", 4000.0)?,
        warmup: opts.get_f64("warmup", 1000.0)?,
        seed: opts.get_u64("seed", 43)?,
        controller: AdaptConfig::default_for_mu(0.02),
        params: FluidParams::paper(),
    };
    let r = adapt_exp::run(&cfg)?;
    emit(&r.table(), opts)
}

fn cmd_transient(opts: &Options) -> Result<(), CliError> {
    let cfg = transient::TransientConfig {
        p: opts.get_f64("p", 0.5)?,
        flash_crowd: opts.get_f64("crowd", 200.0)?,
        ..Default::default()
    };
    let r = transient::run(&cfg)?;
    emit(&r.table(), opts)?;
    if opts.has("csv") {
        print!("{}", r.mtcd.to_csv());
    }
    Ok(())
}

fn cmd_ablation(opts: &Options) -> Result<(), CliError> {
    let p = opts.get_f64("p", 0.7)?;
    let cfg = ablation::AblationConfig {
        model: CorrelationModel::new(10, p, 1.0)?,
        ..Default::default()
    };
    let r = ablation::run(&cfg)?;
    emit(&r.table(), opts)
}

fn cmd_eta(opts: &Options) -> Result<(), CliError> {
    let seed = opts.get_u64("seed", 11)?;
    let mut t = Table::new(
        "X9 — chunk-level η: downloader upload utilization and seed byte share",
        vec!["chunks", "1/γ", "utilization", "seed/dl bytes", "completed"],
    );
    for &chunks in &[4usize, 16, 64, 256] {
        for &gamma in &[0.05, 0.2] {
            let e = estimate_eta(&ChunkLevelConfig {
                chunks,
                gamma,
                horizon: 2000.0,
                warmup: 500.0,
                seed,
                ..Default::default()
            })?;
            t.push_row(vec![
                format!("{chunks}"),
                format!("{:.0}", 1.0 / gamma),
                format!("{:.3}", e.utilization),
                format!("{:.2}", e.seed_byte_ratio()),
                format!("{}", e.completed),
            ]);
        }
    }
    emit(&t, opts)
}

fn cmd_skew(opts: &Options) -> Result<(), CliError> {
    let cfg = skew::SkewConfig {
        k: opts.get_usize("k", 10)? as u32,
        ..Default::default()
    };
    let r = skew::run(&cfg)?;
    emit(&r.table(), opts)
}

fn parse_classes(spec: &str) -> Result<Vec<BandwidthClass>, CliError> {
    let mut classes = Vec::new();
    for (i, tok) in spec.split(',').enumerate() {
        let parts: Vec<&str> = tok.trim().split(':').collect();
        if parts.len() != 3 {
            return Err(format!("class {i}: expected MU:C:LAMBDA, got '{tok}'").into());
        }
        classes.push(BandwidthClass {
            mu: parts[0]
                .parse()
                .map_err(|_| format!("class {i}: bad μ '{}'", parts[0]))?,
            c: parts[1]
                .parse()
                .map_err(|_| format!("class {i}: bad c '{}'", parts[1]))?,
            lambda: parts[2]
                .parse()
                .map_err(|_| format!("class {i}: bad λ '{}'", parts[2]))?,
        });
    }
    Ok(classes)
}

fn cmd_multiclass(opts: &Options) -> Result<(), CliError> {
    let classes = match opts.get("classes") {
        Some(spec) => parse_classes(spec)?,
        None => vec![
            BandwidthClass {
                mu: 0.005,
                c: 0.05,
                lambda: 0.2,
            },
            BandwidthClass {
                mu: 0.02,
                c: 0.2,
                lambda: 0.3,
            },
            BandwidthClass {
                mu: 0.08,
                c: 0.8,
                lambda: 0.1,
            },
        ],
    };
    let fluid = MultiClassFluid::new(classes.clone(), 0.5, 0.05)?;
    let ss = fluid.steady_state()?;
    let sim = run_single_torrent(&SingleTorrentConfig {
        classes: classes.clone(),
        eta: 0.5,
        gamma: 0.05,
        horizon: 8000.0,
        warmup: 2500.0,
        drain: 4000.0,
        seed: opts.get_u64("seed", 7)?,
    })?;
    let mut t = Table::new(
        "X7 — heterogeneous bandwidth classes (Section 2), fluid vs simulation",
        vec!["class", "μ", "c", "λ", "fluid T_dl", "sim T_dl", "users"],
    );
    for (i, cl) in classes.iter().enumerate() {
        t.push_row(vec![
            format!("{}", i + 1),
            format!("{}", cl.mu),
            format!("{}", cl.c),
            format!("{}", cl.lambda),
            format!("{:.2}", ss.download_times[i]),
            format!("{:.2}", sim.classes[i].download.mean()),
            format!("{}", sim.classes[i].download.count()),
        ]);
    }
    emit(&t, opts)?;
    if sim.censored > 0 {
        diag!(Level::Warn, "warning: {} censored users", sim.censored);
    }
    Ok(())
}

fn parse_scheme(s: &str) -> Result<SchemeKind, CliError> {
    match s {
        "mtsd" => Ok(SchemeKind::Mtsd),
        "mtcd" => Ok(SchemeKind::Mtcd),
        "mfcd" => Ok(SchemeKind::Mfcd),
        _ => {
            if let Some(rho) = s.strip_prefix("cmfsd") {
                let rho = rho.strip_prefix(':').unwrap_or("0.0");
                let rho: f64 = rho
                    .parse()
                    .map_err(|_| format!("bad CMFSD ρ in '{s}' (use cmfsd:0.3)"))?;
                Ok(SchemeKind::Cmfsd { rho })
            } else {
                Err(format!("unknown scheme '{s}' (mtsd|mtcd|mfcd|cmfsd[:RHO])").into())
            }
        }
    }
}

fn cmd_sim(opts: &Options) -> Result<(), CliError> {
    let spec = RunSpec::parse(opts, 1)?;
    let scheme = parse_scheme(opts.get("scheme").unwrap_or("mtsd"))?;
    let cfg = spec.des_config(opts, scheme, spec.seed, 4000.0)?;
    let p = cfg.model.p();
    let job = Job {
        cfg,
        hook: None,
        meta: spec.meta(format!("sim-{}", scheme.name())),
    };
    let (outcome, _) = run::execute(&spec, opts, vec![job])?.remove(0);
    let mut t = Table::new(
        format!("simulation — {} (p = {p})", scheme.name()),
        vec!["class", "users", "download/file", "online/file"],
    );
    for (i, stats) in outcome.classes.iter().enumerate() {
        if stats.count() == 0 {
            continue;
        }
        let class = (i + 1) as f64;
        t.push_row(vec![
            format!("{}", i + 1),
            format!("{}", stats.count()),
            format!("{:.2}", stats.download.mean() / class),
            format!("{:.2}", stats.online.mean() / class),
        ]);
    }
    emit(&t, opts)?;
    diag!(
        Level::Info,
        "arrivals: {}, counted: {}, censored: {}, avg online/file: {:.2}",
        outcome.arrivals,
        outcome.records.len(),
        outcome.censored,
        outcome.avg_online_per_file()?
    );
    Ok(())
}

/// `btfluid profile` — run one engine configuration with the hierarchical
/// self-profiler enabled and render the per-phase cost tables.
fn cmd_profile(opts: &Options) -> Result<(), CliError> {
    let mut spec = RunSpec::parse(opts, 1)?;
    spec.profile = true;
    let scheme = parse_scheme(opts.get("scheme").unwrap_or("mtcd"))?;
    let cfg = spec.des_config(opts, scheme, spec.seed, 2000.0)?;
    let p = cfg.model.p();
    let job = Job {
        cfg,
        hook: None,
        meta: spec.meta(format!("profile-{}", scheme.name())),
    };
    let (outcome, report) = run::execute(&spec, opts, vec![job])?.remove(0);
    let wall = report.wall;
    let table = report
        .profile
        .ok_or_else(|| CliError::from("internal: profiler vanished".to_string()))?;

    let events = table.events.max(1);
    let accounted = table.accounted_ns();
    let mut t = Table::new(
        format!(
            "profile — {} (p = {p}, {} events, {:.1} ms wall)",
            scheme.name(),
            table.events,
            wall.as_secs_f64() * 1e3
        ),
        vec![
            "phase", "calls", "self ms", "total ms", "ns/call", "ns/event", "self %",
        ],
    );
    for (name, stats) in &table.phases {
        let pct = if accounted > 0 {
            100.0 * stats.self_ns as f64 / accounted as f64
        } else {
            0.0
        };
        let per_call = if stats.calls > 0 {
            format!("{:.0}", stats.self_ns as f64 / stats.calls as f64)
        } else {
            "-".into()
        };
        t.push_row(vec![
            (*name).to_string(),
            format!("{}", stats.calls),
            format!("{:.3}", stats.self_ns as f64 / 1e6),
            format!("{:.3}", stats.total_ns as f64 / 1e6),
            per_call,
            format!("{:.0}", stats.self_ns as f64 / events as f64),
            format!("{pct:.1}"),
        ]);
    }
    t.push_row(vec![
        "accounted".into(),
        "-".into(),
        format!("{:.3}", accounted as f64 / 1e6),
        "-".into(),
        "-".into(),
        format!("{:.0}", accounted as f64 / events as f64),
        "100.0".into(),
    ]);
    emit(&t, opts)?;
    diag!(
        Level::Info,
        "profile: pair overhead {} ns (subtracted per scope); {:.1}% of wall \
         accounted to phases; arrivals {}, completed {}",
        table.pair_overhead_ns,
        100.0 * accounted as f64 / (wall.as_nanos().max(1) as f64),
        outcome.arrivals,
        outcome.records.len()
    );
    Ok(())
}

/// `btfluid scenario list` | `btfluid scenario <name> [options]`.
///
/// The scenario name is positional, so it is peeled off before the
/// option parser (which rejects positionals) sees the rest.
fn cmd_scenario(rest: &[String]) -> Result<(), CliError> {
    let Some(name) = rest.first() else {
        return Err(format!(
            "scenario: missing name (try 'btfluid scenario list'); registry: {}",
            registry::SCENARIO_NAMES.join(", ")
        )
        .into());
    };
    let opts = Options::parse(&rest[1..])?;
    if name == "list" {
        return scenario_list(&opts);
    }
    let Some(mut program) = registry::by_name(name) else {
        return Err(format!(
            "scenario: unknown name '{name}'; registry: {}",
            registry::SCENARIO_NAMES.join(", ")
        )
        .into());
    };

    let scale = if opts.has("smoke") {
        0.25
    } else {
        opts.get_f64("scale", 1.0)?
    };
    if !scale.is_finite() || scale <= 0.0 {
        return Err("scenario: --scale must be positive".into());
    }
    if (scale - 1.0).abs() > 1e-12 {
        program = program.time_scaled(scale);
    }
    let spec = RunSpec::parse(&opts, 2006)?;
    let seed = spec.seed;
    if opts.has("hybrid") {
        let scheme = opts.get("scheme").map(parse_scheme).transpose()?;
        let cfg = spec.hybrid_config(&program, scheme, opts.get_f64("hybrid-tol", 0.1)?)?;
        return run_scenario_hybrid(name, cfg, scale, &spec, &opts);
    }

    // One engine run per line-up entry, each with its own trace segment
    // in the shared sink so `btfluid inspect` can tell the runs apart.
    program.validate()?;
    let lineup = match opts.get("scheme") {
        Some(s) => {
            let scheme = parse_scheme(s)?;
            vec![(scheme, None, scheme.name())]
        }
        None => runner::scheme_lineup(&program, spec.mode),
    };
    let hook = || -> Box<dyn ScenarioHook> { Box::new(program.hook()) };
    let mut jobs = Vec::with_capacity(lineup.len());
    for (scheme, adapt, label) in &lineup {
        let mut cfg = program.des_config(*scheme, seed)?;
        cfg.adapt = *adapt;
        spec.apply(&mut cfg);
        let mut meta = spec.meta(label.clone());
        meta.insert(0, ("scenario", Json::Str(name.clone())));
        meta.insert(3, ("scale", Json::num_f64(scale)));
        jobs.push(Job {
            cfg,
            hook: Some(&hook),
            meta,
        });
    }
    let runs: Vec<ScenarioRun> = run::execute(&spec, &opts, jobs)?
        .into_iter()
        .zip(lineup)
        .map(|((outcome, _), (scheme, _, label))| {
            ScenarioRun::new(&program, scheme, label, outcome)
        })
        .collect();

    diag!(
        Level::Info,
        "scenario {name}: {} (seed {seed}, scale {scale})",
        program.description
    );
    for run in &runs {
        emit(&scenario_table(name, run), &opts)?;
        diag!(
            Level::Info,
            "{}: arrivals {}, completed {}, aborted {}, censored {}",
            run.label,
            run.outcome.arrivals,
            run.outcome.records.len(),
            run.outcome.aborts.len(),
            run.outcome.censored
        );
    }

    if opts.has("fluid") {
        scenario_fluid_comparison(name, &program, seed)?;
    }
    Ok(())
}

fn scenario_list(opts: &Options) -> Result<(), CliError> {
    let mut t = Table::new(
        "scenario registry — btfluid scenario <name>",
        vec!["name", "description", "phases"],
    );
    for p in registry::all() {
        let phases: Vec<String> = p.phases.iter().map(|ph| ph.name.clone()).collect();
        t.push_row(vec![
            p.name.clone(),
            p.description.clone(),
            phases.join("/"),
        ]);
    }
    emit(&t, opts)
}

/// Per-phase timeline of one scheme's scenario run.
fn scenario_table(name: &str, run: &ScenarioRun) -> Table {
    let mut t = Table::new(
        format!("scenario {name} — {}", run.label),
        vec![
            "phase",
            "window",
            "completed",
            "aborted",
            "dl/file",
            "online/file",
        ],
    );
    for ph in &run.phases {
        t.push_row(vec![
            ph.name.clone(),
            format!("[{:.0}, {:.0})", ph.start, ph.end),
            format!("{}", ph.completed()),
            format!("{}", ph.aborted),
            or_dash(per_file(&ph.classes, |c| c.download.mean())),
            or_dash(ph.online_per_file()),
        ]);
    }
    t
}

/// A per-file mean to two decimals, or `-` when nobody completed.
fn or_dash(v: Option<f64>) -> String {
    v.map_or_else(|| "-".into(), |v| format!("{v:.2}"))
}

/// Logs the DES-vs-fluid agreement of the downloading-user population.
fn fluid_check(what: &str, des: &SimOutcome, program: &ScenarioProgram) -> Result<(), CliError> {
    let des = btfluid_scenario::des_avg_downloaders(des);
    let fluid = btfluid_scenario::fluid_avg_downloaders(program, 0.5)?;
    diag!(
        Level::Info,
        "fluid check ({what}): DES {des:.2} downloading users, scheduled fluid \
         {fluid:.2}, relative error {:.1}%",
        100.0 * (des - fluid).abs() / fluid.max(1e-9)
    );
    Ok(())
}

/// DES-vs-fluid transient check: the schedule-driven MTCD ODE against an
/// MTCD DES run of the same program. Origin seeds are zeroed on both
/// sides — the fluid model has no publisher, and under MTCD a pinned
/// origin seed adds a full μ per subtorrent.
fn scenario_fluid_comparison(
    name: &str,
    program: &ScenarioProgram,
    seed: u64,
) -> Result<(), CliError> {
    let mut program = program.clone();
    program.origin_seeds = 0;
    let run = runner::run_one(
        &program,
        SchemeKind::Mtcd,
        None,
        "MTCD",
        seed,
        RateMode::Incremental,
    )?;
    let what = format!("{name}, MTCD, origin seeds off");
    fluid_check(&what, &run.outcome, &program)
}

/// `btfluid scenario <name> --hybrid` — the multiscale fluid/DES driver:
/// the scheduled ODE carries the swarm while the population is large,
/// the DES takes over for small/critical windows (DESIGN.md §15).
///
/// Honors `--checkpoint`/`--checkpoint-every`/`--resume` with hybrid
/// snapshots (v4); `--checkpoint-every` counts decision boundaries, not
/// events. Checkpoint writes follow the DES driver's policy
/// ([`harness::Checkpointer`]): a failed write retries, warns and
/// eventually disables checkpointing, and never stops the run. Per-class
/// means print with shortest-roundtrip formatting, so byte-identical
/// `--out` files mean bit-identical runs.
fn run_scenario_hybrid(
    name: &str,
    cfg: HybridConfig,
    scale: f64,
    spec: &RunSpec,
    opts: &Options,
) -> Result<(), CliError> {
    let (scheme, seed, tol, aggregate) = (cfg.scheme, cfg.seed, cfg.tol, cfg.aggregate);
    let program = cfg.program.clone();
    let outputs = run::Outputs::open(spec, opts)?;
    let mut ckpt =
        harness::Checkpointer::new(spec.checkpoint.clone(), harness::RetryPolicy::default());
    let every = spec.checkpoint_every.unwrap_or(8);
    let saved = if spec.resume { ckpt.load()? } else { None };
    let mut runner = match saved {
        Some(bytes) => {
            let r = HybridRunner::resume(cfg, &bytes)?;
            diag!(
                Level::Info,
                "resumed hybrid run at t = {:.3} in the {:?} regime \
                 ({} handoff(s) so far)",
                r.sim_time(),
                r.regime(),
                r.handoffs().len()
            );
            r
        }
        None => HybridRunner::new(cfg)?,
    };

    if let Some(sink) = &outputs.sink {
        run::lock(sink).meta(&[
            ("scenario", Json::Str(name.to_string())),
            ("label", Json::Str(format!("hybrid-{}", scheme.name()))),
            ("seed", Json::num_u64(seed)),
            ("scale", Json::num_f64(scale)),
            ("hybrid", Json::Bool(true)),
            ("hybrid_tol", Json::num_f64(tol)),
            ("aggregate", Json::Bool(aggregate)),
        ]);
        runner.attach_sink(sink.clone());
    }
    if let Some((rec, _)) = &outputs.flight {
        runner.attach_flight(Arc::clone(rec));
    }

    // A surfaced error still ships its flight story.
    let mut boundaries = 0u64;
    while runner
        .step_boundary()
        .inspect_err(|_| outputs.dump_on_error())?
    {
        boundaries += 1;
        if boundaries.is_multiple_of(every) && ckpt.active() {
            ckpt.write(&runner.snapshot(), boundaries);
        }
    }
    let outcome = runner.finish();

    if let Some(sink) = &outputs.sink {
        let counters = Counters {
            events_popped: outcome.des_events,
            ..Default::default()
        };
        run::lock(sink).end(outcome.final_t, &counters);
    }
    outputs.finish(None)?;
    ckpt.complete()?;

    let mut t = Table::new(
        format!(
            "scenario {name} — hybrid {} (tol {tol}, seed {seed})",
            scheme.name()
        ),
        vec!["class", "mean downloading users"],
    );
    for (i, mean) in outcome.class_means.iter().enumerate() {
        t.push_row(vec![format!("{}", i + 1), format!("{mean}")]);
    }
    t.push_row(vec!["total".into(), format!("{}", outcome.total_mean())]);
    emit(&t, opts)?;

    let to_fluid = outcome
        .handoffs
        .iter()
        .filter(|h| h.to == Regime::Fluid)
        .count();
    diag!(
        Level::Info,
        "hybrid {name}: {} handoff(s) ({to_fluid} →fluid, {} →discrete), \
         {} DES events, {} fluid substeps, final t {:.1}",
        outcome.handoffs.len(),
        outcome.handoffs.len() - to_fluid,
        outcome.des_events,
        outcome.fluid_steps,
        outcome.final_t
    );

    if opts.has("fluid") {
        scenario_fluid_comparison(name, &program, seed)?;
    }
    Ok(())
}

/// `--inject-panic CELL[@EVENT]` (default event 50).
fn parse_inject(spec: Option<&str>) -> Result<Option<(String, u64)>, CliError> {
    let Some(spec) = spec else { return Ok(None) };
    match spec.rsplit_once('@') {
        Some((cell, ev)) => {
            let ev = ev.parse().map_err(|_| {
                format!("--inject-panic: '{ev}' is not an event count (use CELL@EVENT)")
            })?;
            Ok(Some((cell.to_string(), ev)))
        }
        None => Ok(Some((spec.to_string(), 50))),
    }
}

/// `btfluid sweep` — supervised replicate sweep with failure quarantine.
fn cmd_sweep(opts: &Options) -> Result<(), CliError> {
    let Some(manifest) = opts.get("manifest") else {
        return Err("sweep: --manifest FILE is required (the append-only journal)".into());
    };
    let manifest_path = PathBuf::from(manifest);
    let spec = RunSpec::parse(opts, 2006)?;
    spec.refuse_run_outputs("sweep")?;
    let resume = spec.resume;
    if !resume && fs::metadata(&manifest_path).is_ok_and(|m| m.len() > 0) {
        return Err(CliError::new(
            EXIT_CLOBBER,
            format!(
                "{manifest} already journals a sweep; pass --resume to continue it \
                 or choose a fresh manifest path"
            ),
        ));
    }
    let bundles = opts
        .get("bundles")
        .map(PathBuf::from)
        .unwrap_or_else(|| manifest_path.with_extension("bundles"));

    let scheme_specs: Vec<String> = match opts.get("schemes") {
        Some(s) => s.split(',').map(|t| t.trim().to_string()).collect(),
        None => ["mtsd", "mtcd", "mfcd", "cmfsd:0.5"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    };
    let reps = opts.get_usize("reps", 2)?;
    if reps == 0 {
        return Err("sweep: --reps must be at least 1".into());
    }
    let base_seed = spec.seed;
    let inject = parse_inject(opts.get("inject-panic"))?;

    // `--workload FILE` makes every cell a trace replay: the recorded
    // arrivals drive the engine and the reference model/geometry come
    // from the trace itself (fitted by `trace_program`), not from
    // --p/--k/--horizon.
    let workload = match opts.get("workload") {
        None => None,
        Some(path) => {
            let trace = harness::load_trace(Path::new(path))?;
            let bins = opts.get_usize("bins", 8)?;
            let w = opts.get_f64("warmup", trace.horizon() / 4.0)?;
            let program = trace_program(&trace, bins, w)?;
            diag!(
                Level::Info,
                "workload {path}: {} arrivals over [0, {}), K = {}, \
                 entering rate {:.4}",
                trace.len(),
                trace.horizon(),
                trace.k(),
                trace.empirical_rate()
            );
            Some((path.to_string(), program))
        }
    };

    let mut cells = Vec::new();
    for scheme_spec in &scheme_specs {
        let scheme = parse_scheme(scheme_spec)?;
        for rep in 0..reps {
            let seed = base_seed.wrapping_add(rep as u64);
            let id = format!("{scheme_spec}-s{seed}");
            let (cfg, scenario) = match &workload {
                Some((path, program)) => {
                    let mut cfg = program.des_config(scheme, seed)?;
                    spec.apply(&mut cfg);
                    (cfg, Some(harness::ScenarioRef::traced(path)))
                }
                None => (spec.des_config(opts, scheme, seed, 600.0)?, None),
            };
            cfg.validate()?;
            let inject_panic_at = inject
                .as_ref()
                .and_then(|(cell, ev)| (cell == &id).then_some(*ev));
            cells.push(harness::CellSpec {
                id,
                cfg,
                scenario,
                inject_panic_at,
            });
        }
    }
    let total = cells.len();

    let max_events = match opts.get("event-budget") {
        None => None,
        Some(_) => Some(opts.get_u64("event-budget", 0)?),
    };
    let max_wall = match opts.get("wall-budget-ms") {
        None => None,
        Some(_) => Some(Duration::from_millis(opts.get_u64("wall-budget-ms", 0)?)),
    };
    let sup = harness::SupervisorConfig {
        manifest: manifest_path,
        bundle_dir: bundles,
        budget: harness::Budget {
            max_events,
            max_wall,
        },
        max_retries: opts.get_usize("retries", 1)? as u32,
        backoff: Duration::from_millis(100),
        workers: opts.get_usize("workers", 1)?,
        resume,
        checkpoint_every: spec.checkpoint_every.unwrap_or(5000),
    };
    let report = harness::run_sweep(&sup, cells)?;

    let mut t = Table::new(
        "sweep results (this invocation)",
        vec![
            "cell",
            "events",
            "arrivals",
            "completed",
            "censored",
            "aborted",
            "online/file",
        ],
    );
    for r in &report.completed {
        t.push_row(vec![
            r.id.clone(),
            format!("{}", r.events),
            format!("{}", r.arrivals),
            format!("{}", r.completed),
            format!("{}", r.censored),
            format!("{}", r.aborted),
            r.avg_online_per_file
                .map_or_else(|| "-".into(), |v| format!("{v:.2}")),
        ]);
    }
    emit(&t, opts)?;
    if !report.skipped.is_empty() {
        diag!(
            Level::Info,
            "skipped {} cell(s) the manifest already records done",
            report.skipped.len()
        );
    }
    for f in &report.failed {
        diag!(
            Level::Warn,
            "quarantined {} after {} attempt(s): {} — replay with \
             'btfluid repro {}'",
            f.id,
            f.attempts,
            f.reason,
            f.bundle.display()
        );
    }
    if report.failed.is_empty() {
        diag!(
            Level::Info,
            "sweep complete: {} ran, {} skipped, {total} total",
            report.completed.len(),
            report.skipped.len()
        );
        Ok(())
    } else {
        Err(CliError::new(
            EXIT_SWEEP_FAILED,
            format!(
                "sweep: {} of {total} cell(s) quarantined (all others completed)",
                report.failed.len()
            ),
        ))
    }
}

/// Renders a caught panic payload.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// `btfluid trace <gen|fit|replay|info>` — the measurement-calibrated
/// workload pipeline (DESIGN.md §18): synthesize shaped traces, fit the
/// stationary model back out of a recording, and replay recordings into
/// the DES.
fn cmd_trace(rest: &[String]) -> Result<(), CliError> {
    let Some(sub) = rest.first() else {
        return Err("trace: missing subcommand (gen | fit | replay | info)".into());
    };
    let opts = Options::parse(&rest[1..])?;
    if opts.has("help") {
        print!("{USAGE}");
        return Ok(());
    }
    match sub.as_str() {
        "gen" => trace_gen(&opts),
        "fit" => trace_fit(&opts),
        "replay" => trace_replay(&opts),
        "info" => trace_info(&opts),
        other => {
            Err(format!("trace: unknown subcommand '{other}' (gen | fit | replay | info)").into())
        }
    }
}

/// Loads the `--in FILE` trace; the codec follows the extension
/// (`.jsonl` → JSONL, anything else → CSV).
fn trace_input(opts: &Options, sub: &str) -> Result<ArrivalTrace, CliError> {
    let Some(path) = opts.get("in") else {
        return Err(format!("trace {sub}: --in FILE is required").into());
    };
    Ok(harness::load_trace(Path::new(path))?)
}

/// `btfluid trace gen` — synthesize a trace through [`TraceShaper`].
fn trace_gen(opts: &Options) -> Result<(), CliError> {
    let k = opts.get_usize("k", 10)? as u32;
    let horizon = opts.get_f64("horizon", 2000.0)?;
    let seed = opts.get_u64("seed", 1)?;
    let shape = opts.get("shape").unwrap_or("flat");
    let mut shaper = match shape {
        "flat" => TraceShaper::flat(
            opts.get_f64("lambda0", 0.25)?,
            opts.get_f64("p", 0.4)?,
            k,
            horizon,
        ),
        "diurnal" => {
            if opts.get("lambda0").is_some() || opts.get("p").is_some() {
                return Err("trace gen: --shape diurnal fixes λ₀(t) and p to the \
                     measured preset; --alpha/--leecher-frac remain tunable"
                    .into());
            }
            TraceShaper::measured(k, horizon)
        }
        other => {
            return Err(format!("trace gen: unknown --shape '{other}' (flat | diurnal)").into())
        }
    };
    if opts.get("alpha").is_some() {
        shaper.session_alpha = opts.get_f64("alpha", 0.0)?;
    }
    if opts.get("leecher-frac").is_some() {
        shaper.leecher_fraction = opts.get_f64("leecher-frac", 1.0)?;
    }
    let mut rng = btfluid_numkit::rng::Xoshiro256StarStar::seed_from_u64(seed);
    let trace = shaper.synthesize(&mut rng)?;

    let out = opts.get("out");
    let format = match opts.get("format") {
        Some("csv") => "csv",
        Some("jsonl") => "jsonl",
        Some(other) => {
            return Err(format!("trace gen: unknown --format '{other}' (csv | jsonl)").into())
        }
        None => match out {
            Some(p) if p.ends_with(".jsonl") => "jsonl",
            _ => "csv",
        },
    };
    let text = if format == "jsonl" {
        trace.to_jsonl()
    } else {
        trace.to_csv()
    };
    match out {
        Some(path) => {
            check_clobber(path, opts)?;
            fs::write(path, &text)?;
            diag!(
                Level::Info,
                "wrote {} arrivals ({format}) to {path}",
                trace.len()
            );
        }
        None => print!("{text}"),
    }
    diag!(
        Level::Info,
        "trace gen: shape {shape}, seed {seed}, K = {}, horizon {}, \
         entering rate {:.4}",
        trace.k(),
        trace.horizon(),
        trace.empirical_rate()
    );
    Ok(())
}

/// `btfluid trace fit` — recover `(λ₀, p)` by moment matching.
fn trace_fit(opts: &Options) -> Result<(), CliError> {
    let trace = trace_input(opts, "fit")?;
    let fit = fit_model(&trace)?;
    let mut t = Table::new(
        "trace fit — moment-matched stationary model",
        vec!["quantity", "fitted", "empirical"],
    );
    t.push_row(vec![
        "K (files)".into(),
        fit.k().to_string(),
        trace.k().to_string(),
    ]);
    t.push_row(vec![
        "λ₀ (visitor rate)".into(),
        format!("{:.6}", fit.lambda0()),
        "-".into(),
    ]);
    t.push_row(vec![
        "p (correlation)".into(),
        format!("{:.6}", fit.p()),
        "-".into(),
    ]);
    t.push_row(vec![
        "entering rate".into(),
        format!("{:.6}", fit.entering_rate()),
        format!("{:.6}", trace.empirical_rate()),
    ]);
    t.push_row(vec![
        "mean files/entrant".into(),
        format!("{:.4}", fit.mean_files_per_entrant()),
        format!("{:.4}", trace.mean_files_per_entrant()),
    ]);
    t.push_row(vec!["arrivals".into(), "-".into(), trace.len().to_string()]);
    emit(&t, opts)
}

/// `btfluid trace replay` — drive the DES with the recorded arrivals.
fn trace_replay(opts: &Options) -> Result<(), CliError> {
    let spec = RunSpec::parse(opts, 2006)?;
    let trace = trace_input(opts, "replay")?;
    let scheme = parse_scheme(opts.get("scheme").unwrap_or("mtcd"))?;
    let bins = opts.get_usize("bins", 8)?;
    let warmup = opts.get_f64("warmup", trace.horizon() / 4.0)?;
    let program = trace_program(&trace, bins, warmup)?;
    let mut cfg = program.des_config(scheme, spec.seed)?;
    spec.apply(&mut cfg);
    let hook = TraceHook::new(&trace)?;
    let make_hook = || -> Box<dyn ScenarioHook> { Box::new(hook.clone()) };
    let job = Job {
        cfg,
        hook: Some(&make_hook),
        meta: spec.meta(format!("replay-{}", scheme.name())),
    };
    let (outcome, _) = run::execute(&spec, opts, vec![job])?.remove(0);

    let mut t = Table::new(
        format!(
            "trace replay — {} over {} arrivals",
            scheme.name(),
            trace.len()
        ),
        vec!["quantity", "value"],
    );
    t.push_row(vec![
        "arrivals admitted".into(),
        outcome.arrivals.to_string(),
    ]);
    t.push_row(vec!["completed".into(), outcome.records.len().to_string()]);
    t.push_row(vec!["aborted".into(), outcome.aborts.len().to_string()]);
    t.push_row(vec!["censored".into(), outcome.censored.to_string()]);
    t.push_row(vec![
        "avg online/file".into(),
        or_dash(per_file(&outcome.classes, |c| c.online.mean())),
    ]);
    t.push_row(vec![
        "avg downloading users".into(),
        format!("{:.2}", btfluid_scenario::des_avg_downloaders(&outcome)),
    ]);
    emit(&t, opts)?;

    if opts.has("fluid") {
        // The schedule adapter replays the binned empirical λ(t) through
        // the MTCD fluid ODE; under MTCD replay the two must agree.
        let what = format!("{}, trace-driven", scheme.name());
        fluid_check(&what, &outcome, &program)?;
    }
    Ok(())
}

/// `btfluid trace info` — codec header, moments, and class histogram.
fn trace_info(opts: &Options) -> Result<(), CliError> {
    let trace = trace_input(opts, "info")?;
    let mut t = Table::new(
        format!(
            "{} v{} — {}",
            btfluid_workload::TRACE_FORMAT,
            btfluid_workload::TRACE_VERSION,
            opts.get("in").unwrap_or("?")
        ),
        vec!["quantity", "value"],
    );
    t.push_row(vec!["K (files)".into(), trace.k().to_string()]);
    t.push_row(vec!["horizon".into(), format!("{}", trace.horizon())]);
    t.push_row(vec!["arrivals".into(), trace.len().to_string()]);
    t.push_row(vec![
        "entering rate".into(),
        format!("{:.6}", trace.empirical_rate()),
    ]);
    t.push_row(vec![
        "total file requests".into(),
        trace.total_files().to_string(),
    ]);
    t.push_row(vec![
        "mean files/entrant".into(),
        format!("{:.4}", trace.mean_files_per_entrant()),
    ]);
    emit(&t, opts)?;
    if !trace.is_empty() {
        let counts = trace.class_counts();
        let mut h = Table::new("class histogram", vec!["class", "count", "share"]);
        for (idx, n) in counts.iter().enumerate() {
            if *n > 0 {
                h.push_row(vec![
                    (idx + 1).to_string(),
                    n.to_string(),
                    format!("{:.1}%", 100.0 * *n as f64 / trace.len() as f64),
                ]);
            }
        }
        emit(&h, opts)?;
    }
    Ok(())
}

/// `btfluid repro <bundle-dir>` — replay a quarantined cell.
fn cmd_repro(rest: &[String]) -> Result<(), CliError> {
    let Some(dir) = rest.first() else {
        return Err("repro: missing bundle directory (written under a sweep's --bundles)".into());
    };
    let _opts = Options::parse(&rest[1..])?;
    // Chaos bundles (`chaos.json`) replay through the chaos executor;
    // supervisor cell bundles (`repro.json`) through the engine below.
    if btfluid_chaos::ChaosBundle::is_chaos_dir(Path::new(dir)) {
        return repro_chaos(Path::new(dir));
    }
    let bundle = harness::ReproBundle::read(Path::new(dir))?;
    diag!(
        Level::Info,
        "repro {}: recorded failure: {}",
        bundle.cell_id,
        bundle.reason
    );
    // Resolve eagerly so a bad reference is a typed error; drive builds
    // the hook it runs with from the same reference.
    if let Some(sref) = &bundle.scenario {
        sref.build_hook()?;
    }
    let make_hook = bundle
        .scenario
        .as_ref()
        .map(|sref| move || sref.build_hook().expect("reference resolved above"));
    let snap = bundle
        .checkpoint
        .as_deref()
        .map(Snapshot::from_bytes)
        .transpose()?;
    let start = match &snap {
        Some(snap) => {
            diag!(
                Level::Info,
                "restoring checkpoint at t = {:.3} ({} events)",
                snap.sim_time(),
                snap.events()
            );
            harness::Start::Snapshot(snap)
        }
        None => harness::Start::Fresh,
    };
    let limits = harness::RunLimits {
        inject_panic_at: bundle.inject_panic_at,
        ..Default::default()
    };
    let replay = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        harness::drive(
            bundle.cfg.clone(),
            make_hook.as_ref().map(|f| f as &dyn Fn() -> _),
            None,
            start,
            &limits,
            None,
            None,
            None,
        )
    }));
    match replay {
        Err(payload) => Err(CliError::new(
            EXIT_SWEEP_FAILED,
            format!(
                "repro {}: failure reproduced: {}",
                bundle.cell_id,
                panic_text(payload)
            ),
        )),
        Ok(Err(e)) => {
            diag!(
                Level::Info,
                "repro {}: typed engine failure reproduced",
                bundle.cell_id
            );
            Err(e.into())
        }
        Ok(Ok(report)) => {
            let outcome = report.outcome.expect("a run without limits completes");
            diag!(
                Level::Info,
                "repro {}: ran to completion without reproducing the failure \
                 (events {}, arrivals {}, completed {})",
                bundle.cell_id,
                outcome.events,
                outcome.arrivals,
                outcome.records.len()
            );
            Ok(())
        }
    }
}

/// Scratch directory for chaos executor checkpoints/traces.
fn chaos_work_dir() -> Result<PathBuf, CliError> {
    let work = std::env::temp_dir().join(format!("btfluid-chaos-{}", std::process::id()));
    fs::create_dir_all(&work)?;
    Ok(work)
}

/// `btfluid chaos` — the deterministic chaos sweep: generate seeded
/// random plans, execute each against the invariant catalog, shrink any
/// violation to a minimal failing plan, and write replayable bundles.
fn cmd_chaos(opts: &Options) -> Result<(), CliError> {
    let seed = opts.get_u64("seed", 2006)?;
    let cells = opts.get_u64("cells", 100)?;
    let bundles = opts.get("bundles").unwrap_or("chaos-bundles").to_string();
    let work = chaos_work_dir()?;

    let plans = if opts.has("expect-fail") {
        diag!(
            Level::Info,
            "chaos: expect-fail canary — silently corrupted checkpoint \
             writes; the resume must catch it via the snapshot checksum"
        );
        vec![btfluid_chaos::canary(seed)]
    } else {
        btfluid_chaos::generate(seed, cells)
    };

    let mut failing: Vec<(btfluid_chaos::ChaosPlan, btfluid_chaos::Verdict)> = Vec::new();
    for (i, plan) in plans.iter().enumerate() {
        let verdict = btfluid_chaos::run_plan(plan, &work);
        if !verdict.clean() {
            diag!(
                Level::Warn,
                "chaos plan {}: {} violation(s): {}",
                plan.index,
                verdict.violations.len(),
                verdict
                    .violations
                    .iter()
                    .map(|v| v.invariant.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            failing.push((plan.clone(), verdict));
        }
        if (i + 1) % 20 == 0 {
            diag!(Level::Info, "chaos: {}/{} plans run", i + 1, plans.len());
        }
    }
    println!(
        "chaos: seed {seed}, {} plan(s), {} violating",
        plans.len(),
        failing.len()
    );
    if failing.is_empty() {
        return Ok(());
    }

    // Shrink and bundle the first few failures (each shrink evaluation is
    // a full re-run, so keep the tail bounded).
    const MAX_BUNDLES: usize = 4;
    const SHRINK_BUDGET: u32 = 60;
    for (plan, _) in failing.iter().take(MAX_BUNDLES) {
        let (small, evals) = btfluid_chaos::shrink(
            plan,
            |cand| !btfluid_chaos::run_plan(cand, &work).clean(),
            SHRINK_BUDGET,
        );
        let verdict = btfluid_chaos::run_plan(&small, &work);
        let bundle = btfluid_chaos::ChaosBundle {
            master_seed: seed,
            plan: small,
            violations: verdict.violations,
            shrink_evals: evals,
            flight: verdict.flight,
        };
        let dir = Path::new(&bundles).join(format!("plan-{}", plan.index));
        bundle
            .write(&dir)
            .map_err(|e| CliError::new(1, format!("chaos: writing {}: {e}", dir.display())))?;
        println!(
            "chaos: plan {} shrunk ({} rule(s) left, {} eval(s)) -> {}",
            plan.index,
            bundle.plan.script.rules.len(),
            evals,
            dir.display()
        );
    }
    if failing.len() > MAX_BUNDLES {
        diag!(
            Level::Warn,
            "chaos: only the first {MAX_BUNDLES} of {} failing plans were \
             shrunk and bundled",
            failing.len()
        );
    }
    Err(CliError::new(
        EXIT_INVARIANT,
        format!(
            "chaos: {}/{} plan(s) violated invariants (seed {seed}; bundles \
             under {bundles})",
            failing.len(),
            plans.len()
        ),
    ))
}

/// Replays a chaos bundle: re-run the shrunk plan and report whether the
/// recorded violation reproduces (exit 6, mirroring cell repro) or is
/// gone (exit 0).
fn repro_chaos(dir: &Path) -> Result<(), CliError> {
    let bundle = btfluid_chaos::ChaosBundle::read(dir)
        .map_err(|e| CliError::new(1, format!("repro: {e}")))?;
    diag!(
        Level::Info,
        "repro chaos plan {} (master seed {}): recorded {} violation(s), \
         shrunk in {} eval(s)",
        bundle.plan.index,
        bundle.master_seed,
        bundle.violations.len(),
        bundle.shrink_evals
    );
    let verdict = btfluid_chaos::run_plan(&bundle.plan, &chaos_work_dir()?);
    if verdict.clean() {
        println!(
            "chaos plan {}: ran clean; the recorded violation did not reproduce",
            bundle.plan.index
        );
        return Ok(());
    }
    for v in &verdict.violations {
        println!("violation[{}]: {}", v.invariant, v.detail);
    }
    let same = verdict
        .violations
        .iter()
        .any(|v| bundle.violations.iter().any(|r| r.invariant == v.invariant));
    Err(CliError::new(
        EXIT_SWEEP_FAILED,
        format!(
            "repro: chaos plan {} reproduced {} violation(s){}",
            bundle.plan.index,
            verdict.violations.len(),
            if same {
                " (same invariant class as recorded)"
            } else {
                " (different invariant class than recorded)"
            }
        ),
    ))
}

/// One trace segment: a `meta` record plus every `sample`/`span`/`end`
/// record up to the next `meta` (one engine run).
#[derive(Default)]
struct TraceSegment {
    label: String,
    exact_rates: bool,
    aggregate: bool,
    samples: Vec<OwnedSample>,
    /// `(name, micros, t)` — `t` is the simulated time the span was
    /// emitted at (present on hybrid handoff spans, absent on plain ones).
    spans: Vec<(String, u64, Option<f64>)>,
    end: Option<(f64, Counters)>,
}

impl TraceSegment {
    /// The run's closing counters: the end record's, or the last
    /// sample's for a truncated trace.
    fn final_counters(&self) -> Counters {
        self.end
            .as_ref()
            .map(|(_, c)| *c)
            .or_else(|| self.samples.last().map(|s| s.counters))
            .unwrap_or_default()
    }

    /// Simulated times of hybrid regime switches, in trace order (the
    /// driver emits one timestamped `handoff:*` span per switch).
    fn handoff_times(&self) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|(name, _, _)| name.starts_with("handoff:"))
            .filter_map(|(_, _, t)| *t)
            .collect()
    }

    /// Appends human-readable anomaly descriptions for this segment.
    fn detect_anomalies(&self, out: &mut Vec<String>) {
        let label = &self.label;
        if self.end.is_none() {
            out.push(format!(
                "{label}: truncated trace (no end record — the run did not finish)"
            ));
        }
        let mut ts: Vec<f64> = self.samples.iter().map(|s| s.t).collect();
        if let Some((t, _)) = self.end {
            ts.push(t);
        }
        // A NaN timestamp compares as `None` and counts as non-monotone.
        let ordered = |w: &[f64]| {
            matches!(
                w[0].partial_cmp(&w[1]),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            )
        };
        if ts.windows(2).any(|w| !ordered(w)) {
            out.push(format!("{label}: non-monotone clock across samples"));
        }
        if self.aggregate {
            // Aggregate-mode cost health: per-peer rate recomputes are
            // structurally absent (the whole point of the mode), so the
            // incremental heuristic below would see zero recomputes and
            // report nothing even on a degenerating run. The right counter
            // here is `agg_rate_updates` — group-rate refreshes per event.
            // The group count is O(K²), independent of the swarm, so the
            // marginal updates-per-event cost is NOT normalized by live
            // download pairs: on a healthy run it is flat on its own, and
            // growth means group invalidation is fanning out.
            let updates = |a: &OwnedSample, b: &OwnedSample| {
                let de = b.events.saturating_sub(a.events);
                let dr =
                    u64::saturating_sub(b.counters.agg_rate_updates, a.counters.agg_rate_updates);
                (de > 0).then(|| dr as f64 / de as f64)
            };
            if let Some(growth) = cost_drift(&self.samples, updates) {
                out.push(format!(
                    "{label}: group-rate cost drift (per-event aggregate \
                     update cost grew {growth:.1}× over the run in aggregate mode)"
                ));
            }
            let c = self.final_counters();
            if c.rate_recomputes > 0 {
                out.push(format!(
                    "{label}: {} per-peer rate recomputes in aggregate mode \
                     (the per-peer cache should be idle)",
                    c.rate_recomputes
                ));
            }
        } else if !self.exact_rates {
            // Self-calibrating rate-cache health check: the marginal
            // recompute cost per event, normalized by the live download
            // pairs it could touch, stays flat over a healthy run (the
            // dirty set tracks the event, not the swarm). Absolute
            // thresholds don't work here — MFCD legitimately recomputes
            // more pairs per event than MTSD by an order of magnitude —
            // but a cost that *grows* several-fold over the run's own
            // history means lazy invalidation is degenerating.
            let recomputes = |a: &OwnedSample, b: &OwnedSample| {
                let de = b.events.saturating_sub(a.events);
                let dr =
                    u64::saturating_sub(b.counters.rate_recomputes, a.counters.rate_recomputes);
                let pairs: usize = b.download_pairs.iter().sum();
                (de > 0 && pairs > 0).then(|| dr as f64 / de as f64 / pairs as f64)
            };
            if let Some(growth) = cost_drift(&self.samples, recomputes) {
                out.push(format!(
                    "{label}: rate-cache cost drift (per-event recompute cost \
                     grew {growth:.1}× over the run in incremental mode)"
                ));
            }
        }
        if self.samples.len() >= 3 {
            // A class whose users are *present* most of the run but never
            // form a single seeding pair never completes a download —
            // starvation. (A class with zero downloaders throughout simply
            // had no arrivals; that is a workload fact, not an anomaly.)
            let k = self
                .samples
                .iter()
                .map(|s| s.downloaders.len())
                .max()
                .unwrap_or(0);
            let n = self.samples.len();
            for class in 0..k {
                let present = self
                    .samples
                    .iter()
                    .filter(|s| s.downloaders.get(class).copied().unwrap_or(0) > 0)
                    .count();
                let ever_seeded = self
                    .samples
                    .iter()
                    .any(|s| s.seed_pairs.get(class).copied().unwrap_or(0) > 0);
                if present * 2 >= n && !ever_seeded {
                    out.push(format!(
                        "{label}: class {} starved (downloaders in {present} of \
                         {n} samples but no seed pair ever formed)",
                        class + 1
                    ));
                }
            }
        }
        // Hybrid regime thrash: the hysteresis band exists precisely so
        // that switches are rare, so the yardstick is the run's own
        // median dwell between switches. Four consecutive switches packed
        // inside one median dwell means the driver is flip-flopping —
        // burning handoff cost without either engine settling.
        let switches = self.handoff_times();
        if switches.len() >= 4 {
            let mut dwells: Vec<f64> = switches.windows(2).map(|w| w[1] - w[0]).collect();
            dwells.sort_by(f64::total_cmp);
            let median = dwells[dwells.len() / 2];
            if let Some(w) = switches.windows(4).find(|w| w[3] - w[0] <= median) {
                out.push(format!(
                    "{label}: hybrid regime thrash (4 switches within {:.3} time \
                     units at t = {:.1}; median dwell {median:.3})",
                    w[3] - w[0],
                    w[0]
                ));
            }
        }
    }
}

/// How far a per-event cost grew from the first third of the sample
/// windows to the last, when it grew more than 4×; `cost` skips windows
/// that carry no signal. Needs at least 24 costed windows.
fn cost_drift(
    samples: &[OwnedSample],
    cost: impl Fn(&OwnedSample, &OwnedSample) -> Option<f64>,
) -> Option<f64> {
    let costs: Vec<f64> = samples
        .windows(2)
        .filter_map(|w| cost(&w[0], &w[1]))
        .collect();
    let third = costs.len() / 3;
    if third < 8 {
        return None;
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let (early, late) = (mean(&costs[..third]), mean(&costs[costs.len() - third..]));
    (early > 0.0 && late > 4.0 * early).then(|| late / early)
}

/// Per-class trajectory export: one CSV row per sample, classes padded
/// to the widest segment.
fn trajectories_csv(segments: &[TraceSegment]) -> String {
    let k = segments
        .iter()
        .flat_map(|seg| seg.samples.iter())
        .map(|s| s.downloaders.len().max(s.seed_pairs.len()))
        .max()
        .unwrap_or(0);
    let mut out = String::from("run,t,events,rho_mean,delta_mean");
    for column in ["downloaders", "seed_pairs"] {
        for i in 1..=k {
            out.push_str(&format!(",{column}_{i}"));
        }
    }
    out.push('\n');
    // A mean the trace could not carry (written as null) prints empty.
    let opt = |x: f64| if x.is_nan() { "".into() } else { x.to_string() };
    for seg in segments {
        for s in &seg.samples {
            out.push_str(&format!(
                "{},{},{},{},{}",
                seg.label,
                s.t,
                s.events,
                opt(s.rho_mean),
                opt(s.delta_mean)
            ));
            for per_class in [&s.downloaders, &s.seed_pairs] {
                for i in 0..k {
                    out.push(',');
                    if let Some(d) = per_class.get(i) {
                        out.push_str(&d.to_string());
                    }
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Summarizes a `flightrec v1` dump: record mix, last handoff, last
/// checkpoint, and a staleness flag when the newest record predates the
/// failure time stamped into the meta line.
fn inspect_flightrec(path: &str, dump: &FlightDump, opts: &Options) -> Result<(), CliError> {
    if dump.version != u64::from(FLIGHTREC_VERSION) {
        diag!(
            Level::Warn,
            "inspect: {path}: flightrec version {}; this build reads v{FLIGHTREC_VERSION}",
            dump.version
        );
    }

    // (count, newest record) per record kind, in first-seen order; the
    // dump is oldest-first so the last one seen is the newest.
    let mut mix: Vec<(u64, FlightRecord)> = Vec::new();
    let mut newest_t = f64::NEG_INFINITY;
    let mut pop_codes: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for rec in &dump.records {
        if rec.t.is_finite() && rec.t > newest_t {
            newest_t = rec.t;
        }
        if rec.kind == FlightKind::EventPop {
            *pop_codes.entry(rec.a).or_insert(0) += 1;
        }
        match mix.iter_mut().find(|(_, last)| last.kind == rec.kind) {
            Some(row) => *row = (row.0 + 1, *rec),
            None => mix.push((1, *rec)),
        }
    }
    let mut t = Table::new(
        format!(
            "flight recording {path} — {} of {} record(s) \
             retained (capacity {}, dropped {})",
            dump.records.len(),
            dump.total,
            dump.capacity,
            dump.dropped
        ),
        vec!["kind", "count", "last t", "last events", "last a", "last b"],
    );
    for (n, last) in &mix {
        t.push_row(vec![
            last.kind.name().to_string(),
            format!("{n}"),
            format!("{:.3}", last.t),
            format!("{}", last.events),
            format!("{}", last.a),
            format!("{}", last.b),
        ]);
    }
    emit(&t, opts)?;

    const EVENT_NAMES: [&str; 7] = [
        "end",
        "arrival",
        "completion",
        "seed-expiry",
        "epoch",
        "abort",
        "control",
    ];
    let pops: Vec<String> = pop_codes
        .iter()
        .map(|(code, n)| {
            let name = EVENT_NAMES
                .get(usize::try_from(*code).unwrap_or(usize::MAX))
                .copied()
                .unwrap_or("?");
            format!("{name} × {n}")
        })
        .collect();
    if !pops.is_empty() {
        diag!(Level::Info, "event mix: {}", pops.join(", "));
    }
    let last = |kind| mix.iter().map(|(_, r)| r).find(|r| r.kind == kind);
    if let Some(r) = last(FlightKind::Handoff) {
        let way = ["DES -> fluid", "fluid -> DES"][usize::from(r.a != 0)];
        diag!(
            Level::Info,
            "last handoff: t = {:.3}, {way} (population {})",
            r.t,
            r.b
        );
    }
    if let Some(r) = last(FlightKind::Checkpoint) {
        diag!(
            Level::Info,
            "last checkpoint: t = {:.3} at {} events ({} snapshot bytes)",
            r.t,
            r.events,
            r.a
        );
    }
    if let Some(ft) = dump.failure_t {
        // `failure_t` is parsed from a message formatted at 3 decimals,
        // so allow half an ulp of that rounding before calling it stale.
        if newest_t.is_finite() && newest_t < ft - 5e-4 {
            println!(
                "WARNING: stale dump — newest record at t = {newest_t:.3} predates \
                 the failure at t = {ft:.3}; the recorder stopped observing before \
                 the quarantine fired"
            );
        } else {
            diag!(
                Level::Info,
                "dump covers the failure time (newest t = {newest_t:.3} >= {ft:.3})"
            );
        }
    }
    Ok(())
}

/// `btfluid inspect <trace.jsonl>` — summarize a telemetry trace.
fn cmd_inspect(rest: &[String]) -> Result<(), CliError> {
    let Some(path) = rest.first() else {
        return Err("inspect: missing trace path (a scenario --trace JSONL file)".into());
    };
    let opts = Options::parse(&rest[1..])?;
    let body = fs::read_to_string(path)?;
    // A flight-recorder dump leads with its own schema marker; route it
    // to the dedicated summarizer before assuming a telemetry trace.
    if let Some(dump) = FlightDump::parse(&body).map_err(|e| format!("inspect: {path}:{e}"))? {
        return inspect_flightrec(path, &dump, &opts);
    }
    let mut segments: Vec<TraceSegment> = Vec::new();
    for (idx, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record =
            TraceRecord::parse(line).map_err(|e| format!("inspect: {path}:{}: {e}", idx + 1))?;
        if let TraceRecord::Meta {
            version,
            label,
            exact_rates,
            aggregate,
        } = record
        {
            if version != u64::from(TRACE_VERSION) {
                diag!(
                    Level::Warn,
                    "inspect: {path}: trace version {version}; this build reads v{TRACE_VERSION}"
                );
            }
            segments.push(TraceSegment {
                label,
                exact_rates,
                aggregate,
                ..Default::default()
            });
            continue;
        }
        let Some(seg) = segments.last_mut() else {
            return Err(format!(
                "inspect: {path}:{}: record before any meta — not a btfluid trace?",
                idx + 1
            )
            .into());
        };
        match record {
            TraceRecord::Meta { .. } => unreachable!("handled above"),
            TraceRecord::Sample(sample) => seg.samples.push(sample),
            TraceRecord::Span(name, micros, t) => seg.spans.push((name, micros, t)),
            TraceRecord::End(t, counters) => seg.end = Some((t, counters)),
            TraceRecord::Profile(table) => {
                let events = table.events.max(1);
                for (name, stats) in &table.phases {
                    diag!(
                        Level::Info,
                        "{}: profile {name}: {} call(s), self {:.3} ms, {:.0} ns/event",
                        seg.label,
                        stats.calls,
                        stats.self_ns as f64 / 1e6,
                        stats.self_ns as f64 / events as f64
                    );
                }
            }
            TraceRecord::Unknown(other) => diag!(
                Level::Warn,
                "inspect: {path}:{}: unknown record kind '{other}' (skipped)",
                idx + 1
            ),
        }
    }
    if segments.is_empty() {
        return Err(format!("inspect: {path}: no meta records — not a btfluid trace").into());
    }

    let mut t = Table::new(
        format!("trace {path} — {} run(s)", segments.len()),
        vec![
            "run",
            "samples",
            "spans",
            "events",
            "stale",
            "heap peak",
            "recomputes",
            "recomp/ev",
            "snapshots",
        ],
    );
    for seg in &segments {
        let c = seg.final_counters();
        let per_event = c.rate_recomputes as f64 / c.events_popped.max(1) as f64;
        t.push_row(vec![
            seg.label.clone(),
            format!("{}", seg.samples.len()),
            format!("{}", seg.spans.len()),
            format!("{}", c.events_popped),
            format!("{}", c.stale_discards),
            format!("{}", c.heap_peak),
            format!("{}", c.rate_recomputes),
            format!("{per_event:.1}"),
            format!("{}", c.snapshots_taken),
        ]);
    }
    emit(&t, &opts)?;

    for seg in &segments {
        let mut totals: Vec<(String, u64, u64)> = Vec::new();
        for (name, micros, _) in &seg.spans {
            match totals.iter_mut().find(|row| &row.0 == name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += micros;
                }
                None => totals.push((name.clone(), 1, *micros)),
            }
        }
        for (name, n, micros) in totals {
            diag!(
                Level::Info,
                "{}: span {name}: {n} × totalling {micros} µs",
                seg.label
            );
        }
        let handoffs = seg.handoff_times();
        if !handoffs.is_empty() {
            let to_fluid = seg
                .spans
                .iter()
                .filter(|(name, _, _)| name == "handoff:des->fluid")
                .count();
            println!(
                "{}: {} hybrid handoff(s): {} →fluid, {} →discrete",
                seg.label,
                handoffs.len(),
                to_fluid,
                handoffs.len() - to_fluid
            );
        }
    }

    let mut anomalies = Vec::new();
    for seg in &segments {
        seg.detect_anomalies(&mut anomalies);
    }
    if anomalies.is_empty() {
        println!("no anomalies detected");
    } else {
        for a in &anomalies {
            println!("anomaly: {a}");
        }
    }

    if let Some(csv) = opts.get("csv-out") {
        check_clobber(csv, &opts)?;
        fs::write(csv, trajectories_csv(&segments))?;
        diag!(Level::Info, "wrote {csv}");
    }
    Ok(())
}

/// The arg parser's own structural fuzz target, registered here because
/// `args.rs` is CLI-private: random token soup must never panic the
/// parser, and every accepted line must round-trip through the typed
/// getters without error.
fn cli_arg_round_trip(cfg: &btfluid_oracle::OracleConfig) -> Result<String, String> {
    use btfluid_numkit::rng::{RngCore, Xoshiro256StarStar};
    let mut rng = Xoshiro256StarStar::stream(cfg.seed, 9);
    // Exact round-trip: numbers formatted, parsed, and read back.
    for trial in 0..64u64 {
        let p = (rng.next_u64() % 1000) as f64 / 1000.0;
        let seed = rng.next_u64() % 1_000_000;
        let argv = vec![
            format!("--p"),
            format!("{p}"),
            format!("--seed"),
            format!("{seed}"),
            format!("--exact"),
        ];
        let opts = Options::parse(&argv)
            .map_err(|e| format!("trial {trial}: valid argv rejected: {e}"))?;
        let p_back = opts.get_f64("p", f64::NAN).map_err(|e| e.to_string())?;
        let s_back = opts.get_u64("seed", 0).map_err(|e| e.to_string())?;
        if p_back.to_bits() != p.to_bits() || s_back != seed {
            return Err(format!(
                "trial {trial}: round-trip drift (p {p} → {p_back}, seed {seed} → {s_back})"
            ));
        }
        if !opts.has("exact") {
            return Err(format!("trial {trial}: flag --exact lost in parsing"));
        }
    }
    // Token soup: junk must produce typed errors, never a panic or a
    // silently-accepted unknown option.
    let vocab = [
        "--p",
        "--seed",
        "--horizon",
        "--frobnicate",
        "--scheme",
        "mtsd",
        "abc",
        "1e6",
        "-3",
        "0.5,oops",
        "--",
        "--exact",
        "--records",
    ];
    let mut rejected = 0usize;
    for trial in 0..256u64 {
        let n = 1 + (rng.next_u64() % 5) as usize;
        let argv: Vec<String> = (0..n)
            .map(|_| vocab[(rng.next_u64() % vocab.len() as u64) as usize].to_string())
            .collect();
        let verdict =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| Options::parse(&argv)));
        match verdict {
            Err(_) => return Err(format!("trial {trial}: parser PANICKED on {argv:?}")),
            Ok(Err(_)) => rejected += 1,
            Ok(Ok(opts)) => {
                if opts.has("frobnicate") {
                    return Err(format!("trial {trial}: unknown --frobnicate accepted"));
                }
            }
        }
    }
    Ok(format!(
        "64 argv round-trips bit-exact; {rejected}/256 junk lines rejected with typed errors"
    ))
}

fn cmd_selfcheck(opts: &Options) -> Result<(), CliError> {
    let cfg = btfluid_oracle::OracleConfig {
        seed: opts.get_u64("seed", 42)?,
        full: opts.has("full"),
    };

    if opts.has("expect-fail") {
        // Mutation mode: seed a deliberate rate-cache corruption and
        // demand the audit catch it. Detection maps to the invariant exit
        // code (4); a miss is a usage-class failure of the oracle itself.
        return match btfluid_oracle::differential::mutation_canary(&cfg) {
            Ok(detail) => Err(CliError::new(
                crate::errors::EXIT_INVARIANT,
                format!("expect-fail: {detail}"),
            )),
            Err(detail) => Err(CliError::new(
                crate::errors::EXIT_USAGE,
                format!("expect-fail: detection MISSED — {detail}"),
            )),
        };
    }

    let mut report = btfluid_oracle::run_all(&cfg);
    // Append the CLI-local check so the table covers the whole surface.
    let started = std::time::Instant::now();
    let result = cli_arg_round_trip(&cfg);
    let wall_ms = started.elapsed().as_millis() as u64;
    let (passed, detail) = match result {
        Ok(d) => (true, d),
        Err(d) => (false, d),
    };
    report.outcomes.push(btfluid_oracle::CheckOutcome {
        name: "cli-arg-round-trip",
        paper_ref: "CLI contract (parse → getters, no panic)",
        passed,
        detail,
        wall_ms,
    });

    let mut table = Table::new(
        format!(
            "selfcheck ({} tier, seed {})",
            if cfg.full { "full" } else { "quick" },
            cfg.seed
        ),
        vec!["check", "pins", "status", "ms", "detail"],
    );
    for o in &report.outcomes {
        table.push_row(vec![
            o.name.to_string(),
            o.paper_ref.to_string(),
            if o.passed { "ok".into() } else { "FAIL".into() },
            o.wall_ms.to_string(),
            o.detail.clone(),
        ]);
    }
    emit(&table, opts)?;
    println!(
        "selfcheck: {}/{} checks passed in {} ms",
        report.outcomes.iter().filter(|o| o.passed).count(),
        report.outcomes.len(),
        report.wall_ms
    );
    if report.outcomes.iter().any(|o| !o.passed) {
        let failed: Vec<&str> = report
            .outcomes
            .iter()
            .filter(|o| !o.passed)
            .map(|o| o.name)
            .collect();
        return Err(CliError::new(
            crate::errors::EXIT_INVARIANT,
            format!("selfcheck failed: {failed:?}"),
        ));
    }
    Ok(())
}

fn cmd_all(opts: &Options) -> Result<(), CliError> {
    cmd_fig2(opts)?;
    cmd_fig3(opts)?;
    cmd_fig4a(opts)?;
    cmd_fig4bc(opts, 0.9)?;
    cmd_fig4bc(opts, 0.1)?;
    cmd_transient(opts)?;
    cmd_ablation(opts)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_parsing() {
        assert_eq!(parse_scheme("mtsd").unwrap(), SchemeKind::Mtsd);
        assert_eq!(parse_scheme("mtcd").unwrap(), SchemeKind::Mtcd);
        assert_eq!(parse_scheme("mfcd").unwrap(), SchemeKind::Mfcd);
        assert_eq!(
            parse_scheme("cmfsd:0.3").unwrap(),
            SchemeKind::Cmfsd { rho: 0.3 }
        );
        assert_eq!(
            parse_scheme("cmfsd").unwrap(),
            SchemeKind::Cmfsd { rho: 0.0 }
        );
        assert!(parse_scheme("cmfsd:x").is_err());
        assert!(parse_scheme("ftp").is_err());
    }

    #[test]
    fn dispatch_help_and_unknown() {
        assert!(dispatch(&[]).is_ok());
        assert!(dispatch(&["--help".into()]).is_ok());
        assert!(dispatch(&["frobnicate".into()]).is_err());
    }

    #[test]
    fn fig2_runs_small() {
        let argv = vec!["fig2".into(), "--points".into(), "3".into(), "--csv".into()];
        assert!(dispatch(&argv).is_ok());
    }

    #[test]
    fn fig3_runs() {
        let argv = vec!["fig3".into(), "--p".into(), "0.5".into()];
        assert!(dispatch(&argv).is_ok());
    }

    #[test]
    fn fig4bc_runs() {
        assert!(dispatch(&["fig4b".into()]).is_ok());
        assert!(dispatch(&["fig4c".into()]).is_ok());
    }

    #[test]
    fn scenario_list_runs() {
        assert!(dispatch(&["scenario".into(), "list".into()]).is_ok());
    }

    #[test]
    fn scenario_requires_known_name() {
        assert!(dispatch(&["scenario".into()]).is_err());
        assert!(dispatch(&["scenario".into(), "nope".into()]).is_err());
    }

    #[test]
    fn scenario_smoke_single_scheme() {
        let argv = vec![
            "scenario".into(),
            "flash_crowd".into(),
            "--smoke".into(),
            "--scheme".into(),
            "mtcd".into(),
            "--seed".into(),
            "5".into(),
            "--csv".into(),
        ];
        assert!(dispatch(&argv).is_ok());
    }

    #[test]
    fn scenario_rejects_bad_scale() {
        let argv = vec![
            "scenario".into(),
            "diurnal".into(),
            "--scale".into(),
            "0".into(),
        ];
        assert!(dispatch(&argv).is_err());
    }

    #[test]
    fn inject_spec_parses() {
        assert_eq!(parse_inject(None).unwrap(), None);
        assert_eq!(
            parse_inject(Some("mtsd-s7@120")).unwrap(),
            Some(("mtsd-s7".into(), 120))
        );
        assert_eq!(
            parse_inject(Some("mtsd-s7")).unwrap(),
            Some(("mtsd-s7".into(), 50))
        );
        assert!(parse_inject(Some("cell@lots")).is_err());
    }

    /// End-to-end sweep robustness: an injected panic quarantines exactly
    /// one cell (exit 6), the repro bundle replays the failure (exit 6),
    /// `--resume` reruns only the missing cell and the sweep completes, and
    /// a stale manifest without `--resume` is refused (exit 7).
    #[test]
    fn sweep_quarantine_repro_resume_cycle() {
        let dir = std::env::temp_dir().join("btfluid_cli_sweep_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("sweep.jsonl");
        let bundles = dir.join("bundles");
        let base = vec![
            "sweep".into(),
            "--manifest".into(),
            manifest.to_str().unwrap().to_string(),
            "--bundles".into(),
            bundles.to_str().unwrap().to_string(),
            "--schemes".into(),
            "mtsd".into(),
            "--reps".into(),
            "2".into(),
            "--horizon".into(),
            "120".into(),
            "--seed".into(),
            "42".into(),
            "--retries".into(),
            "0".into(),
            "--csv".into(),
        ];

        let mut first = base.clone();
        first.extend(["--inject-panic".into(), "mtsd-s43@20".into()]);
        let err = dispatch(&first).unwrap_err();
        assert_eq!(err.code, EXIT_SWEEP_FAILED, "{}", err.message);
        let bundle = harness::bundle_path(&bundles, "mtsd-s43");
        assert!(bundle.join("repro.json").is_file(), "bundle not written");

        // The bundle must replay the recorded panic.
        let err = dispatch(&["repro".into(), bundle.to_str().unwrap().to_string()]).unwrap_err();
        assert_eq!(err.code, EXIT_SWEEP_FAILED, "{}", err.message);
        assert!(err.message.contains("reproduced"), "{}", err.message);

        // A second sweep against the same manifest needs --resume.
        let err = dispatch(&base).unwrap_err();
        assert_eq!(err.code, EXIT_CLOBBER, "{}", err.message);

        // --resume (without the injection) reruns only the failed cell.
        let mut resumed = base.clone();
        resumed.push("--resume".into());
        dispatch(&resumed).unwrap();
        let journal = std::fs::read_to_string(&manifest).unwrap();
        assert_eq!(
            journal.matches("\"id\":\"mtsd-s42\"").count(),
            1,
            "the finished cell must not rerun:\n{journal}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// End-to-end observability: a traced scenario line-up writes one
    /// JSONL segment per scheme, `inspect` summarizes it, and `--csv-out`
    /// exports the per-class trajectories.
    #[test]
    fn scenario_trace_then_inspect_roundtrip() {
        let dir = std::env::temp_dir().join("btfluid_cli_trace_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("out.jsonl");
        let argv = vec![
            "scenario".into(),
            "flash_crowd".into(),
            "--smoke".into(),
            "--seed".into(),
            "5".into(),
            "--trace".into(),
            trace.to_str().unwrap().to_string(),
            "--csv".into(),
        ];
        dispatch(&argv).unwrap();
        assert!(trace.is_file(), "trace not renamed into place");
        let body = std::fs::read_to_string(&trace).unwrap();
        assert_eq!(
            body.matches("\"kind\":\"meta\"").count(),
            5,
            "one meta segment per scheme in the line-up:\n{body}"
        );
        assert_eq!(body.matches("\"kind\":\"end\"").count(), 5);
        assert!(body.contains("\"schema\":\"btfluid-trace\""));
        assert!(body.contains("\"kind\":\"sample\""));

        // Re-running without --force must refuse to clobber the trace.
        // (Fresh thread: the per-invocation WRITTEN set is thread-local.)
        let reinvoke = argv.clone();
        std::thread::spawn(move || {
            let err = dispatch(&reinvoke).unwrap_err();
            assert_eq!(err.code, EXIT_CLOBBER, "{}", err.message);
        })
        .join()
        .unwrap();

        let csv = dir.join("traj.csv");
        let inspect = vec![
            "inspect".into(),
            trace.to_str().unwrap().to_string(),
            "--csv".into(),
            "--csv-out".into(),
            csv.to_str().unwrap().to_string(),
        ];
        dispatch(&inspect).unwrap();
        let traj = std::fs::read_to_string(&csv).unwrap();
        let header = traj.lines().next().unwrap();
        assert!(
            header.starts_with("run,t,events,rho_mean,delta_mean,downloaders_1"),
            "unexpected trajectory header: {header}"
        );
        assert!(header.contains("seed_pairs_1"));
        for label in ["MTSD", "MTCD", "MFCD", "CMFSD+Adapt"] {
            assert!(
                traj.lines().any(|l| l.starts_with(&format!("{label},"))),
                "no trajectory rows for {label}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `inspect` rejects non-trace input instead of mis-summarizing it.
    #[test]
    fn inspect_rejects_non_traces() {
        assert!(dispatch(&["inspect".into()]).is_err());
        assert!(dispatch(&["inspect".into(), "/nonexistent/trace.jsonl".into()]).is_err());
        let dir = std::env::temp_dir().join("btfluid_cli_inspect_reject");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let bogus = dir.join("bogus.jsonl");
        std::fs::write(&bogus, "{\"kind\":\"sample\",\"t\":1}\n").unwrap();
        let err = dispatch(&["inspect".into(), bogus.to_str().unwrap().to_string()]).unwrap_err();
        assert!(err.message.contains("before any meta"), "{}", err.message);
        std::fs::write(
            &bogus,
            "{\"schema\":\"other\",\"version\":1,\"kind\":\"meta\"}\n",
        )
        .unwrap();
        let err = dispatch(&["inspect".into(), bogus.to_str().unwrap().to_string()]).unwrap_err();
        assert!(err.message.contains("schema"), "{}", err.message);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The anomaly heuristics flag truncation, clock regressions, cache
    /// cost drift, and starved classes — and stay quiet on a healthy
    /// trace where the same quantities are merely large but stable.
    #[test]
    fn inspect_anomaly_heuristics() {
        // One sample every 5 time units, 10 events per window, class 1
        // present throughout, class 2 present and seeding.
        let sample = |i: u64, recomputes: u64, seed_pairs: Vec<usize>| OwnedSample {
            t: i as f64 * 5.0,
            events: 10 * (i + 1),
            downloaders: vec![2, 1],
            download_pairs: vec![2, 1],
            seed_pairs,
            counters: Counters {
                rate_recomputes: recomputes,
                ..Default::default()
            },
            ..Default::default()
        };

        let mut recomputes = 0;
        let bad_samples: Vec<OwnedSample> = (0..30)
            .map(|i| {
                // Flat marginal cost for the first 20 windows, then a
                // 50× blow-up — the drift detector's target.
                recomputes += if i < 20 { 10 } else { 500 };
                let mut s = sample(i, recomputes, vec![0, 1]);
                if i == 3 {
                    s.t = 2.0; // clock regression
                }
                s
            })
            .collect();
        let seg = TraceSegment {
            label: "X".into(),
            samples: bad_samples,
            ..Default::default()
        };
        let mut out = Vec::new();
        seg.detect_anomalies(&mut out);
        let all = out.join("\n");
        assert!(all.contains("truncated"), "{all}");
        assert!(all.contains("non-monotone"), "{all}");
        assert!(all.contains("cost drift"), "{all}");
        assert!(all.contains("class 1 starved"), "{all}");
        assert!(!all.contains("class 2 starved"), "{all}");

        // Same per-event cost in every window (large, but stable), every
        // present class eventually seeds, and the run finished.
        let mut recomputes = 0;
        let healthy_samples: Vec<OwnedSample> = (0..30)
            .map(|i| {
                recomputes += 500;
                sample(i, recomputes, vec![1, 1])
            })
            .collect();
        let healthy = TraceSegment {
            label: "Y".into(),
            samples: healthy_samples,
            end: Some((150.0, Counters::default())),
            ..Default::default()
        };
        let mut out = Vec::new();
        healthy.detect_anomalies(&mut out);
        assert!(out.is_empty(), "healthy trace flagged: {out:?}");
    }

    /// In aggregate mode the drift detector reads `agg_rate_updates` (the
    /// per-peer recompute counter is structurally zero there), and any
    /// nonzero per-peer recompute count is itself flagged.
    #[test]
    fn inspect_anomaly_heuristics_aggregate() {
        let sample = |i: u64, agg_updates: u64, recomputes: u64| OwnedSample {
            t: i as f64 * 5.0,
            events: 10 * (i + 1),
            downloaders: vec![2, 1],
            download_pairs: vec![2, 1],
            seed_pairs: vec![1, 1],
            counters: Counters {
                agg_rate_updates: agg_updates,
                rate_recomputes: recomputes,
                ..Default::default()
            },
            ..Default::default()
        };

        // Flat group-update cost for 20 windows, then a 50× blow-up:
        // invisible to the incremental heuristic (rate_recomputes stays
        // zero), caught by the aggregate one.
        let mut updates = 0;
        let drifting: Vec<OwnedSample> = (0..30)
            .map(|i| {
                updates += if i < 20 { 10 } else { 500 };
                sample(i, updates, 0)
            })
            .collect();
        let seg = TraceSegment {
            label: "A".into(),
            aggregate: true,
            samples: drifting,
            end: Some((
                150.0,
                Counters {
                    agg_rate_updates: updates,
                    ..Default::default()
                },
            )),
            ..Default::default()
        };
        let mut out = Vec::new();
        seg.detect_anomalies(&mut out);
        let all = out.join("\n");
        assert!(all.contains("group-rate cost drift"), "{all}");
        assert!(!all.contains("rate-cache cost drift"), "{all}");

        // Healthy aggregate run: flat group-update cost, zero per-peer
        // recomputes — no anomalies.
        let mut updates = 0;
        let flat: Vec<OwnedSample> = (0..30)
            .map(|i| {
                updates += 40;
                sample(i, updates, 0)
            })
            .collect();
        let healthy = TraceSegment {
            label: "B".into(),
            aggregate: true,
            samples: flat,
            end: Some((
                150.0,
                Counters {
                    agg_rate_updates: updates,
                    ..Default::default()
                },
            )),
            ..Default::default()
        };
        let mut out = Vec::new();
        healthy.detect_anomalies(&mut out);
        assert!(out.is_empty(), "healthy aggregate trace flagged: {out:?}");

        // A leaking per-peer cache (recomputes > 0 in aggregate mode) is
        // flagged even when the group-update cost stays flat.
        let mut updates = 0;
        let leaking: Vec<OwnedSample> = (0..30)
            .map(|i| {
                updates += 40;
                sample(i, updates, 7)
            })
            .collect();
        let leaky = TraceSegment {
            label: "C".into(),
            aggregate: true,
            samples: leaking,
            end: Some((
                150.0,
                Counters {
                    agg_rate_updates: updates,
                    rate_recomputes: 7,
                    ..Default::default()
                },
            )),
            ..Default::default()
        };
        let mut out = Vec::new();
        leaky.detect_anomalies(&mut out);
        let all = out.join("\n");
        assert!(
            all.contains("per-peer rate recomputes in aggregate mode"),
            "{all}"
        );
    }

    /// The hybrid driver runs end to end from the CLI and writes a trace
    /// `inspect` can read back (its refusals are rows of the
    /// `run_refusals` table test).
    #[test]
    fn scenario_hybrid_smoke() {
        let dir = std::env::temp_dir().join("btfluid_cli_hybrid_smoke");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("hybrid.jsonl");
        let argv = vec![
            "scenario".into(),
            "flash_crowd".into(),
            "--hybrid".into(),
            "--scheme".into(),
            "mtsd".into(),
            "--aggregate".into(),
            "--smoke".into(),
            "--seed".into(),
            "3".into(),
            "--trace".into(),
            trace.to_str().unwrap().to_string(),
            "--csv".into(),
        ];
        dispatch(&argv).unwrap();
        let body = std::fs::read_to_string(&trace).unwrap();
        assert!(body.contains("\"label\":\"hybrid-MTSD\""), "{body}");
        assert!(body.contains("\"kind\":\"end\""), "{body}");
        dispatch(&["inspect".into(), trace.to_str().unwrap().to_string()]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The thrash heuristic flags a burst of regime switches measured
    /// against the run's own median dwell — and stays quiet when the
    /// same number of switches is evenly spread.
    #[test]
    fn inspect_hybrid_thrash_heuristic() {
        let span = |t: f64| ("handoff:des->fluid".to_string(), 10u64, Some(t));
        let segment = |spans: Vec<(String, u64, Option<f64>)>| TraceSegment {
            label: "H".into(),
            aggregate: true,
            spans,
            end: Some((2000.0, Counters::default())),
            ..Default::default()
        };

        // Four switches packed into 1.5 time units amid ~400-unit dwells.
        let thrashing = segment(vec![
            span(100.0),
            span(500.0),
            span(900.0),
            span(1300.0),
            span(1300.5),
            span(1301.0),
            span(1301.5),
            span(1700.0),
        ]);
        let mut out = Vec::new();
        thrashing.detect_anomalies(&mut out);
        assert!(
            out.iter().any(|a| a.contains("regime thrash")),
            "burst not flagged: {out:?}"
        );

        // The same switch count, evenly spaced: healthy.
        let healthy = segment(vec![span(100.0), span(600.0), span(1100.0), span(1600.0)]);
        let mut out = Vec::new();
        healthy.detect_anomalies(&mut out);
        assert!(out.is_empty(), "even spacing flagged: {out:?}");
    }

    /// Result-writing commands refuse to clobber without `--force`.
    #[test]
    fn clobber_needs_force() {
        let dir = std::env::temp_dir().join("btfluid_cli_clobber_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig2.csv");
        std::fs::write(&path, "old").unwrap();
        let argv = vec![
            "fig2".into(),
            "--points".into(),
            "3".into(),
            "--out".into(),
            path.to_str().unwrap().to_string(),
        ];
        let err = dispatch(&argv).unwrap_err();
        assert_eq!(err.code, EXIT_CLOBBER, "{}", err.message);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "old");

        let mut forced = argv.clone();
        forced.push("--force".into());
        dispatch(&forced).unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().starts_with("p,"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_file_written() {
        let dir = std::env::temp_dir().join("btfluid_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig2.csv");
        let argv = vec![
            "fig2".into(),
            "--points".into(),
            "3".into(),
            "--out".into(),
            path.to_str().unwrap().to_string(),
        ];
        dispatch(&argv).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("p,MTCD,MTSD"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
