//! The repository's benchmark: end-to-end metrics of the shipped
//! `boomerang-sim` binary and, in a separate traced run, per-layer metrics
//! of the public API. See README.md in this directory for the workloads,
//! the metrics and the statistics.
//!
//! ```text
//! perfbench --workload <figure9-full|interp-dispatch|serve-smoke>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
//! when every report matched its pins and its in-process reference.

mod cli;
mod layers;
mod proc;
mod stats;
mod tap;
mod trace;
mod traced;

use boomerang::frontend::SimEngine;
use campaign::{presets, run_generated, to_json, CampaignReport, CampaignSpec, GeneratedWorkloads};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

const PINS: &str = include_str!("../pins.txt");

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Run,
    Serve,
}

struct Workload {
    name: &'static str,
    preset: &'static str,
    mode: Mode,
    smoke: bool,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "figure9-full",
        preset: "figure9",
        mode: Mode::Run,
        smoke: false,
    },
    Workload {
        name: "interp-dispatch",
        preset: "interpreter-dispatch",
        mode: Mode::Run,
        smoke: false,
    },
    Workload {
        name: "serve-smoke",
        preset: "figure9",
        mode: Mode::Serve,
        smoke: true,
    },
];

/// Set-up repetitions per `run` workload run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// `serve` lifetimes per serve-smoke run; `setup_s` is their median.
const SERVE_SESSIONS: usize = 5;
/// Served rows per `serve` lifetime, at least: enough that its p90 has ten
/// samples beyond it.
const MIN_SERVED_ROWS: usize = 100;
/// Cap on the campaigns a `run` workload runs past `--seconds` to give its
/// row latency p90 ten samples beyond it (only short runs need them).
const MAX_EXTRA_CAMPAIGNS: usize = 20;
/// Campaign pairs (untraced CLI, traced in-process) per traced run, at least.
const MIN_TRACED_PAIRS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric, with the samples it summarises.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    note: String,
}

/// What a run found.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            note: String::new(),
        });
    }

    /// A timing reported as the median of `samples`, noting count and
    /// quartiles.
    fn median(&mut self, name: impl Into<String>, unit: &'static str, samples: &[f64]) {
        let (q1, q3) = stats::quartiles(samples);
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value: stats::median(samples),
            note: format!("median of n={}, q1={q1:.6}, q3={q3:.6}", samples.len()),
        });
    }

    /// A quantity reported as the mean of `samples`, noting count, median
    /// and quartiles. Only for one whose samples fall on a few discrete
    /// levels, where the median jumps a whole level when the share of
    /// samples above it crosses one half.
    fn mean(&mut self, name: impl Into<String>, unit: &'static str, samples: &[f64]) {
        let (q1, q3) = stats::quartiles(samples);
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value: samples.iter().sum::<f64>() / samples.len() as f64,
            note: format!(
                "mean of n={}, median={:.6}, q1={q1:.6}, q3={q3:.6}",
                samples.len(),
                stats::median(samples)
            ),
        });
    }

    /// The p-th percentile of `samples`, noting how many lie beyond it.
    fn percentile(&mut self, name: impl Into<String>, unit: &'static str, samples: &[f64], p: f64) {
        let name = name.into();
        let beyond = stats::beyond(samples, p);
        if beyond < 10 {
            self.problems.push(format!(
                "{name}: only {beyond} samples beyond p{p}, need 10"
            ));
        }
        self.metrics.push(Metric {
            name,
            unit,
            value: stats::percentile(samples, p),
            note: format!("p{p} of n={}, {beyond} beyond it", samples.len()),
        });
    }

    /// Counts a campaign of `rows` rows; all of them fail when it did.
    fn campaign(&mut self, rows: usize, problem: Option<String>) {
        self.attempted += rows as u64;
        if let Some(p) = problem {
            self.failed += rows as u64;
            self.problems.push(p);
        }
    }
}

fn fnv1a64(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv1a64:{hash:016x}")
}

/// The pins of one (workload, seed), as (key, value).
fn pins(workload: &str, seed: u64) -> Vec<(&'static str, &'static str)> {
    PINS.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() == 4 && f[0] == workload && f[1] == seed.to_string()).then(|| (f[2], f[3]))
        })
        .collect()
}

/// The expected report and its deterministic counts, computed in-process.
struct Reference {
    json: String,
    report: CampaignReport,
    rows: usize,
    instructions: u64,
}

/// Compares `measured` (key, value) pairs against the pins of this
/// (workload, seed); returns the mismatches. An unpinned seed has none.
fn check_pins(workload: &str, seed: u64, measured: &[(String, String)]) -> Vec<String> {
    let mut problems = Vec::new();
    for (key, want) in pins(workload, seed) {
        match measured.iter().find(|(k, _)| k == key) {
            Some((_, got)) if got == want => {}
            Some((_, got)) => problems.push(format!(
                "pin {workload} seed {seed} {key}: expected {want}, got {got}"
            )),
            None => problems.push(format!("pin {workload} seed {seed} {key}: not measured")),
        }
    }
    problems
}

/// Builds the reference report in-process, replays the layers for the
/// exact counts, and checks both against the pins (see
/// [`check_reference`]).
fn reference(
    pinned_as: &str,
    smoke: bool,
    seed: u64,
    spec_toml: &str,
    notes: &mut Vec<String>,
) -> Result<(Reference, Vec<String>), String> {
    let (spec, generated) = layers::setup(spec_toml, smoke)?;
    let report = run_generated(
        &spec,
        &layers::options(smoke, SimEngine::EventHorizon),
        &generated,
    );
    let replays = layers::replay_all(&spec, &generated, None);
    Ok(check_reference(
        pinned_as, seed, &generated, report, &replays, notes,
    ))
}

/// Checks an in-process report and its layer replays against the pins of
/// (`pinned_as`, `seed`) and against the trace it was simulated from.
/// Returns the reference with every mismatch found.
fn check_reference(
    pinned_as: &str,
    seed: u64,
    generated: &GeneratedWorkloads,
    report: CampaignReport,
    replays: &layers::Replays,
    notes: &mut Vec<String>,
) -> (Reference, Vec<String>) {
    let json = to_json(&report);
    let counts = layers::exact_counts(&report, replays);
    let mut measured: Vec<(String, String)> =
        vec![("report_digest".into(), fnv1a64(json.as_bytes()))];
    measured.extend(counts.iter().map(|(k, v)| (k.to_string(), v.to_string())));
    for (k, v) in &measured {
        notes.push(format!("{pinned_as} exact {k} = {v}"));
    }
    let mut problems = check_pins(pinned_as, seed, &measured);
    if pins(pinned_as, seed).is_empty() {
        notes.push(format!(
            "{pinned_as} seed {seed} is unpinned: reports are checked against the in-process reference only"
        ));
    }
    let instructions = counts
        .iter()
        .find(|(k, _)| *k == "frontend.instructions")
        .map_or(0, |c| c.1);
    let expected = layers::measured_instructions(generated);
    if instructions != expected {
        problems.push(format!(
            "frontend.instructions {instructions} != {expected} measured trace instructions over the rows"
        ));
    }
    let rows = report.rows.len();
    (
        Reference {
            json,
            report,
            rows,
            instructions,
        },
        problems,
    )
}

/// Whether a CLI report matches the reference (and so the pins).
fn report_problem(
    what: &str,
    report: Option<&[u8]>,
    error: Option<&String>,
    want: &Reference,
    pin_problems: &[String],
) -> Option<String> {
    if let Some(e) = error {
        return Some(format!("{what}: {e}"));
    }
    if report != Some(want.json.as_bytes()) {
        return Some(format!(
            "{what}: report differs from the in-process reference"
        ));
    }
    (!pin_problems.is_empty()).then(|| format!("{what}: misses its pins"))
}

fn build_program(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "campaign",
            "--bin",
            "boomerang-sim",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building boomerang-sim failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |d| root.join(d));
    let bin = target.join("release").join("boomerang-sim");
    if !bin.is_file() {
        return Err(format!("{} was not built", bin.display()));
    }
    Ok(bin)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let bin = build_program(&root)?;
    let bench_dir = root.join(".perfbench");
    let work = bench_dir.join(format!("{}-{}-{}", w.name, args.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;

    // The program receives only generated inputs: the preset's spec with
    // the benchmark's seed as its seed offset.
    let mut spec = presets::find(w.preset).map_err(|e| e.to_string())?;
    spec.seeds = vec![args.seed];
    let spec_toml = spec.to_toml_string();
    let spec_path = work.join("spec.toml");
    std::fs::write(&spec_path, &spec_toml).map_err(|e| e.to_string())?;

    let seconds = Duration::from_secs(args.seconds);
    let mut out = Outcome::default();
    let result = if args.trace {
        traced::run(
            w, args.seed, &bin, &work, &spec_path, &spec_toml, seconds, &mut out, &bench_dir,
        )
    } else {
        match w.mode {
            Mode::Run => run_untraced(
                w, args.seed, &bin, &work, &spec_path, &spec_toml, seconds, &mut out,
            ),
            Mode::Serve => serve_untraced(w, args.seed, &bin, &work, &spec_toml, seconds, &mut out),
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    result?;
    Ok(finish(w, &args, out))
}

/// Prints the summary and the final JSON line; returns the exit code.
fn finish(w: &Workload, args: &Args, out: Outcome) -> ExitCode {
    let mut problems = out.problems;
    for m in &out.metrics {
        if !m.value.is_finite() {
            problems.push(format!("{} is not a finite number", m.name));
        }
    }
    let correct = problems.is_empty() && out.failed == 0;
    println!(
        "perfbench {} seed {} ({}, {} s measured)",
        w.name,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        args.seconds
    );
    for note in &out.notes {
        println!("  note: {note}");
    }
    for p in &problems {
        println!("  PROBLEM: {p}");
    }
    println!(
        "  {:<34} {:>16} {:<6} ({} of {} rows)",
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        out.failed,
        out.attempted
    );
    let mut json = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        println!(
            "  {:<34} {:>16.6} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            m.name,
            value,
            m.unit
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.attempted.max(1),
        out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn err(e: std::io::Error) -> String {
    e.to_string()
}

/// `figure9-full` and `interp-dispatch`: closed-loop `run` campaigns.
#[allow(clippy::too_many_arguments)]
fn run_untraced(
    w: &Workload,
    seed: u64,
    bin: &Path,
    work: &Path,
    spec_path: &Path,
    spec_toml: &str,
    seconds: Duration,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let setup = || -> Result<f64, String> {
        let start = Instant::now();
        let text = std::fs::read_to_string(spec_path).map_err(err)?;
        let generated = layers::setup(&text, w.smoke)?;
        let seconds = start.elapsed().as_secs_f64();
        drop(generated);
        Ok(seconds)
    };
    let name = spec_name(spec_toml)?;
    let started = Instant::now();
    let mut campaigns = Vec::new();
    let mut rows = Vec::new();
    // Rows of a lane group land in the journal together, so the loop also
    // runs until p90 has ten samples beyond it (a cap stops a broken run).
    while started.elapsed() < seconds
        || (stats::beyond(&rows, 90.0) < 10 && campaigns.len() < MAX_EXTRA_CAMPAIGNS)
    {
        // Set-up samples are spread evenly over the run, so that a slow
        // spell of the shared host moves only a few of them.
        let due = SETUP_REPS as f64 * started.elapsed().as_secs_f64() / seconds.as_secs_f64();
        if setup_s.len() < SETUP_REPS && setup_s.len() as f64 <= due {
            setup_s.push(setup()?);
        }
        let dir = work.join(format!("c{:04}", campaigns.len()));
        let c =
            cli::run_campaign(bin, spec_path, &name, &dir, layers::JOBS, w.smoke).map_err(err)?;
        let _ = std::fs::remove_dir_all(&dir);
        rows.extend(c.row_ms.iter().copied());
        campaigns.push(c);
    }
    while setup_s.len() < SETUP_REPS {
        setup_s.push(setup()?);
    }
    let (want, pin_problems) = reference(w.name, w.smoke, seed, spec_toml, &mut out.notes)?;
    out.problems.extend(pin_problems.iter().cloned());
    let mut wall = Vec::new();
    let mut rate = Vec::new();
    let mut rss = Vec::new();
    for (i, c) in campaigns.iter().enumerate() {
        let problem = report_problem(
            &format!("campaign {i}"),
            c.report.as_deref(),
            c.error.as_ref(),
            &want,
            &pin_problems,
        );
        out.campaign(want.rows, problem);
        wall.push(c.wall_s);
        rate.push(want.instructions as f64 / c.wall_s / 1e6);
        rss.push(c.max_rss_kb as f64 / 1024.0);
    }
    out.median("campaign_s", "s", &wall);
    out.median("sim_minstr_per_s", "Minstr/s", &rate);
    out.median("setup_s", "s", &setup_s);
    out.mean("peak_rss_mb", "MB", &rss);
    out.percentile("row_latency_p50_ms", "ms", &rows, 50.0);
    out.percentile("row_latency_p90_ms", "ms", &rows, 90.0);
    Ok(())
}

fn spec_name(spec_toml: &str) -> Result<String, String> {
    Ok(CampaignSpec::from_toml_str(spec_toml)
        .map_err(|e| e.to_string())?
        .name)
}

/// Checks a session's campaigns, counting their rows; returns the
/// drop-to-`.done` seconds of every campaign but the first (which was
/// spooled before `serve` started and so includes its start-up).
fn check_session(
    s: &cli::Session,
    want: &Reference,
    pin_problems: &[String],
    out: &mut Outcome,
) -> Vec<f64> {
    for (i, c) in s.campaigns.iter().enumerate() {
        let problem = report_problem(
            &format!("served campaign {i}"),
            c.report.as_deref(),
            c.error.as_ref(),
            want,
            pin_problems,
        );
        out.campaign(want.rows, problem);
    }
    for p in &s.problems {
        out.problems.push(format!("frame tap: {p}"));
    }
    let frames = cli::frame_stats(&s.frames);
    if frames.rejects > 0 {
        out.failed += frames.rejects;
        out.problems
            .push(format!("{} rows rejected by the broker", frames.rejects));
    }
    s.campaigns
        .iter()
        .skip(1)
        .map(|c| c.finished.duration_since(c.dropped).as_secs_f64())
        .collect()
}

/// `serve-smoke`: closed-loop submissions to `serve --listen`.
fn serve_untraced(
    w: &Workload,
    seed: u64,
    bin: &Path,
    work: &Path,
    spec_toml: &str,
    seconds: Duration,
    out: &mut Outcome,
) -> Result<(), String> {
    let (want, pin_problems) = reference(w.name, w.smoke, seed, spec_toml, &mut out.notes)?;
    out.problems.extend(pin_problems.iter().cloned());
    let name = spec_name(spec_toml)?;
    // Per lifetime, since each reports its own p90.
    let min_campaigns = MIN_SERVED_ROWS.div_ceil(want.rows) + 1;
    // Every statistic but set-up is taken per `serve` lifetime and the
    // median over the lifetimes reported, so a slow spell of the shared
    // host that covers one or two of them does not move it.
    let (mut campaign_s, mut setup_s, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut p50, mut p90) = (Vec::new(), Vec::new());
    let (mut rows, mut least_beyond) = (0, usize::MAX);
    for i in 0..SERVE_SESSIONS {
        let dir = work.join(format!("session{i}"));
        let s = cli::serve_session(
            bin,
            &dir,
            spec_toml,
            &name,
            seed ^ ((i as u64) << 32),
            seconds / SERVE_SESSIONS as u32,
            min_campaigns,
        )
        .map_err(err)?;
        let _ = std::fs::remove_dir_all(&dir);
        // The broker checks for a finished campaign every 50 ms, so served
        // campaign times come in 50 ms steps: their mean moves smoothly
        // with the host's speed where their median jumps a step.
        let times = check_session(&s, &want, &pin_problems, out);
        campaign_s.push(times.iter().sum::<f64>() / times.len() as f64);
        match s.setup_s() {
            Some(t) => setup_s.push(t),
            None => out
                .problems
                .push(format!("session {i}: no Lease frame seen")),
        }
        rss.push(s.max_rss_kb.iter().copied().max().unwrap_or(0) as f64 / 1024.0);
        let row_ms = cli::frame_stats(&s.frames).row_ms;
        rows += row_ms.len();
        least_beyond = least_beyond.min(stats::beyond(&row_ms, 90.0));
        p50.push(stats::percentile(&row_ms, 50.0));
        p90.push(stats::percentile(&row_ms, 90.0));
    }
    if least_beyond < 10 {
        out.problems.push(format!(
            "row_latency_p90_ms: a lifetime has only {least_beyond} samples beyond p90, need 10"
        ));
    }
    out.median("campaign_s", "s", &campaign_s);
    out.metric(
        "sim_minstr_per_s",
        "Minstr/s",
        want.instructions as f64 / stats::median(&campaign_s) / 1e6,
    );
    out.median("setup_s", "s", &setup_s);
    out.mean("peak_rss_mb", "MB", &rss);
    out.median("row_latency_p50_ms", "ms", &p50);
    out.median("row_latency_p90_ms", "ms", &p90);
    out.notes.push(format!(
        "serve medians are over {SERVE_SESSIONS} lifetimes: campaign_s of each lifetime's mean \
         campaign, row latency of each lifetime's percentiles ({rows} rows, at least \
         {least_beyond} beyond p90 in every lifetime)"
    ));
    Ok(())
}
