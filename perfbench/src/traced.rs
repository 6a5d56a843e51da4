//! The traced run: per-layer metrics of the public API, with a span around
//! every timed call.
//!
//! Spans nest campaign → phase → row → layer, and all spans of one campaign
//! share its id. Every workload reports the same metrics on its own spec;
//! the serve layers are measured by serving that spec at smoke length.

use crate::trace::Tracer;
use crate::{
    check_reference, check_session, cli, err, fnv1a64, layers, reference, report_problem,
    spec_name, stats, Outcome, Workload, MIN_SERVED_ROWS, MIN_TRACED_PAIRS,
};
use boomerang::frontend::SimEngine;
use boomerang::workloads::{CodeLayout, Trace};
use campaign::checkpoint::{spec_hash, Journal, JournalReplay};
use campaign::{
    derive_seed, mechanism_token, run_generated, to_csv, to_json, CampaignReport, CampaignSpec,
    GeneratedWorkloads,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// Span names whose self time the traced run reports.
const SELF_TIMED: [&str; 20] = [
    "campaign",
    "setup",
    "simulate",
    "render",
    "checkpoint",
    "checkpoint.append",
    "analysis",
    "workloads.layout",
    "workloads.trace",
    "reference",
    "rows",
    "row",
    "replay",
    "tage",
    "btb",
    "cache",
    "checkpoint.replay",
    "serve.campaign",
    "worker.row",
    "serve.ack",
];

/// What one in-process campaign produced.
struct InProcess {
    spec: CampaignSpec,
    generated: GeneratedWorkloads,
    report: CampaignReport,
    hash: String,
    digest: String,
    wall_s: f64,
    simulate_ms: f64,
    render_ms: f64,
    append_ms: Vec<f64>,
}

/// The campaign `run` performs, as in-process calls: set-up, simulate,
/// render, and one journal append per row. With a tracer, each call is a
/// span; without, the same calls run untraced.
fn in_process_campaign(
    mut t: Option<&mut Tracer>,
    spec_path: &Path,
    smoke: bool,
    journal_dir: &Path,
) -> Result<InProcess, String> {
    let start = Instant::now();
    let campaign = t.as_deref_mut().map(|t| t.begin("campaign"));
    let (setup, _) = layers::time(t.as_deref_mut(), "setup", || {
        let text = std::fs::read_to_string(spec_path).map_err(err)?;
        layers::setup(&text, smoke)
    });
    let (spec, generated) = setup?;
    let (report, simulate_ms) = layers::time(t.as_deref_mut(), "simulate", || {
        run_generated(
            &spec,
            &layers::options(smoke, SimEngine::EventHorizon),
            &generated,
        )
    });
    let ((json, _csv), render_ms) = layers::time(t.as_deref_mut(), "render", || {
        (to_json(&report), to_csv(&report))
    });
    let hash = spec_hash(&spec, generated.effective_run(), smoke);
    let checkpoint = t.as_deref_mut().map(|t| t.begin("checkpoint"));
    let _ = std::fs::remove_dir_all(journal_dir);
    let journal =
        Journal::create(journal_dir, &spec.name, &hash, report.rows.len(), None).map_err(err)?;
    let mut append_ms = Vec::with_capacity(report.rows.len());
    for row in &report.rows {
        let (appended, ms) = layers::time(t.as_deref_mut(), "checkpoint.append", || {
            journal.record(&row.job, &row.stats)
        });
        appended.map_err(err)?;
        append_ms.push(ms);
    }
    drop(journal);
    for id in [checkpoint, campaign].into_iter().flatten() {
        t.as_deref_mut()
            .expect("spans are opened only with a tracer")
            .end(id);
    }
    Ok(InProcess {
        spec,
        generated,
        report,
        hash,
        digest: fnv1a64(json.as_bytes()),
        wall_s: start.elapsed().as_secs_f64(),
        simulate_ms,
        render_ms,
        append_ms,
    })
}

#[allow(clippy::too_many_arguments)]
pub fn run(
    w: &Workload,
    seed: u64,
    bin: &Path,
    work: &Path,
    spec_path: &Path,
    spec_toml: &str,
    seconds: Duration,
    out: &mut Outcome,
    bench_dir: &Path,
) -> Result<(), String> {
    let mut t = Tracer::new();
    let name = spec_name(spec_toml)?;
    let journal_dir = work.join("journal");

    // Each round: the untraced `run` binary, then the same campaign's calls
    // in-process untraced and traced. The traced/untraced in-process ratio
    // is the tracing overhead.
    let (mut cli_s, mut plain_s, mut traced_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut simulate_ms, mut render_ms, mut append_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut cli_runs = Vec::new();
    let mut digests = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while traced_s.len() < MIN_TRACED_PAIRS || started.elapsed() < seconds {
        let dir = work.join(format!("c{:04}", cli_runs.len()));
        let c =
            cli::run_campaign(bin, spec_path, &name, &dir, layers::JOBS, w.smoke).map_err(err)?;
        let _ = std::fs::remove_dir_all(&dir);
        cli_s.push(c.wall_s);
        cli_runs.push(c);

        let plain = in_process_campaign(None, spec_path, w.smoke, &journal_dir)?;
        plain_s.push(plain.wall_s);
        digests.push(plain.digest);

        t.next_campaign();
        let traced = in_process_campaign(Some(&mut t), spec_path, w.smoke, &journal_dir)?;
        traced_s.push(traced.wall_s);
        simulate_ms.push(traced.simulate_ms);
        render_ms.push(traced.render_ms);
        append_ms.extend(traced.append_ms.iter().copied());
        digests.push(traced.digest.clone());
        last = Some(traced);
    }
    let campaign = last.expect("at least one traced campaign ran");
    let (spec, generated) = (&campaign.spec, &campaign.generated);

    // The analysis campaign: each layer called on its own.
    t.next_campaign();
    let analysis = t.begin("analysis");
    let config = spec.configs[0].build();
    let points = layers::points(spec, generated);
    let (mut layout_ms, mut trace_ms) = (0.0, 0.0);
    for (i, data) in points.iter().enumerate() {
        let seeds = spec.seeds.len();
        let profile = &spec.workloads[i / seeds].profile;
        let profile = profile
            .clone()
            .with_seed(derive_seed(profile.seed, spec.seeds[i % seeds]));
        let (layout, ms) = t.timed("workloads.layout", |_| CodeLayout::generate(&profile));
        layout_ms += ms;
        let (trace, ms) = t.timed("workloads.trace", |_| {
            Trace::generate_blocks(&layout, data.trace.len())
        });
        trace_ms += ms;
        if trace != data.trace {
            out.problems.push(format!(
                "workload point {i}: regenerated trace differs from generate_workloads'"
            ));
        }
    }

    let (fast, fast_ms) = t.timed("simulate", |_| {
        run_generated(
            spec,
            &layers::options(w.smoke, SimEngine::EventHorizon),
            generated,
        )
    });
    simulate_ms.push(fast_ms);
    let (slow, slow_ms) = t.timed("reference", |_| {
        run_generated(
            spec,
            &layers::options(w.smoke, SimEngine::PerCycleReference),
            generated,
        )
    });
    let mut mismatched = 0;
    for (a, b) in fast.rows.iter().zip(&slow.rows) {
        if a.stats != b.stats {
            mismatched += 1;
            out.problems.push(format!(
                "engine parity: row {} ({} / {}) differs between the event-horizon and per-cycle reference engines",
                a.job.index,
                a.workload_label,
                mechanism_token(a.job.mechanism)
            ));
        }
    }
    out.campaign(
        slow.rows.len(),
        (mismatched > 0).then(|| format!("{mismatched} rows fail engine parity")),
    );

    // Every mechanism on every workload point, one row at a time.
    let mut row_ms: Vec<Vec<f64>> = vec![Vec::new(); layers::MECHANISMS.len()];
    let mut campaign_row_ms = 0.0;
    t.span("rows", |t| {
        for data in &points {
            for (m, (_, mechanism)) in layers::MECHANISMS.iter().enumerate() {
                let (_, ms) = t.timed("row", |_| {
                    data.run_with_predictor_engine(
                        *mechanism,
                        &config,
                        spec.predictor,
                        SimEngine::EventHorizon,
                    )
                });
                row_ms[m].push(ms);
                if m == 0 || spec.mechanisms.contains(mechanism) {
                    campaign_row_ms += ms;
                }
            }
        }
    });

    let replays = t.span("replay", |t| layers::replay_all(spec, generated, Some(t)));
    let jobs = generated.jobs().to_vec();
    let (replay, replay_ms) = t.timed("checkpoint.replay", |_| {
        JournalReplay::load(&journal_dir, &spec.name, &campaign.hash, &jobs)
    });
    let replay = replay.map_err(|e| e.to_string())?;
    let replayed = replay.completed() == campaign.report.rows.len()
        && campaign
            .report
            .rows
            .iter()
            .all(|r| replay.rows.get(&r.job.index) == Some(&r.stats));
    if !replayed {
        out.problems
            .push("checkpoint replay does not reproduce the journaled rows".into());
    }
    t.end(analysis);

    let (want, pin_problems) =
        check_reference(w.name, seed, generated, fast, &replays, &mut out.notes);
    out.problems.extend(pin_problems.iter().cloned());
    for (i, c) in cli_runs.iter().enumerate() {
        let problem = report_problem(
            &format!("campaign {i}"),
            c.report.as_deref(),
            c.error.as_ref(),
            &want,
            &pin_problems,
        );
        out.campaign(want.rows, problem);
    }
    let want_digest = fnv1a64(want.json.as_bytes());
    for (i, digest) in digests.iter().enumerate() {
        let differs = *digest != want_digest;
        out.campaign(
            want.rows,
            differs.then(|| format!("in-process campaign {i}: report differs")),
        );
    }

    // The serve layers, on the spec at smoke length (pinned as serve-smoke
    // when the spec is figure9's).
    let pinned_as = if w.preset == "figure9" {
        "serve-smoke"
    } else {
        "interp-dispatch-smoke"
    };
    let (smoke_want, smoke_pins) = reference(pinned_as, true, seed, spec_toml, &mut out.notes)?;
    out.problems.extend(smoke_pins.iter().cloned());
    let session = cli::serve_session(
        bin,
        &work.join("session"),
        spec_toml,
        &name,
        seed,
        Duration::ZERO,
        MIN_SERVED_ROWS.div_ceil(smoke_want.rows) + 1,
    )
    .map_err(err)?;
    check_session(&session, &smoke_want, &smoke_pins, out);
    let frames = cli::frame_stats(&session.frames);
    let session_end = session
        .campaigns
        .last()
        .map_or(session.spawned, |c| c.finished);
    t.next_campaign();
    let session_span = t.record("serve.session", None, session.spawned, session_end);
    for (i, c) in session.campaigns.iter().enumerate() {
        t.next_campaign();
        let begin = if i == 0 { session.spawned } else { c.dropped };
        let served = t.record("serve.campaign", Some(session_span), begin, c.finished);
        for &(lease, done, ack) in frames
            .rows
            .iter()
            .filter(|r| r.0 >= begin && r.0 <= c.finished)
        {
            let row = t.record("serve.row", Some(served), lease, ack);
            t.record("worker.row", Some(row), lease, done);
            t.record("serve.ack", Some(row), done, ack);
        }
    }

    let counts = layers::exact_counts(&want.report, &replays);
    let count = |k: &str| counts.iter().find(|c| c.0 == k).map_or(0, |c| c.1) as f64;
    let simulate = stats::median(&simulate_ms);
    out.metric("workloads.layout_ms", "ms", layout_ms);
    out.metric("workloads.trace_ms", "ms", trace_ms);
    out.metric(
        "workloads.trace_blocks",
        "count",
        count("workloads.trace_blocks"),
    );
    out.median("engine.simulate_ms", "ms", &simulate_ms);
    out.metric(
        "frontend.ns_per_cycle",
        "ns",
        simulate * 1e6 / count("frontend.cycles"),
    );
    let base = stats::median(&row_ms[0]);
    for (m, (token, _)) in layers::MECHANISMS.iter().enumerate() {
        out.median(format!("engine.row_ms.{token}"), "ms", &row_ms[m]);
    }
    for (m, (token, _)) in layers::MECHANISMS.iter().enumerate().skip(1) {
        out.metric(
            format!("mech.{token}.overhead_ms"),
            "ms",
            stats::median(&row_ms[m]) - base,
        );
    }
    out.metric(
        "pool.idle_frac",
        "ratio",
        1.0 - campaign_row_ms / (layers::JOBS as f64 * simulate),
    );
    out.metric("engine.reference_ratio", "ratio", slow_ms / fast_ms);
    out.metric("tage.lookups", "count", replays.tage.counted as f64);
    out.metric(
        "tage.mpki",
        "1/kinstr",
        replays.tage.misses as f64 * 1e3 / replays.tage.instructions as f64,
    );
    out.metric(
        "tage.ns_per_op",
        "ns",
        replays.tage_ms * 1e6 / replays.tage.ops as f64,
    );
    out.metric("btb.lookups", "count", replays.btb.counted as f64);
    out.metric(
        "btb.miss_ratio",
        "ratio",
        replays.btb.misses as f64 / replays.btb.counted as f64,
    );
    out.metric(
        "btb.ns_per_lookup",
        "ns",
        replays.btb_ms * 1e6 / replays.btb.ops as f64,
    );
    out.metric(
        "cache.demand_fetches",
        "count",
        replays.cache.counted as f64,
    );
    out.metric(
        "cache.l1i_miss_ratio",
        "ratio",
        replays.cache.misses as f64 / replays.cache.counted as f64,
    );
    out.metric(
        "cache.ns_per_fetch",
        "ns",
        replays.cache_ms * 1e6 / replays.cache.ops as f64,
    );
    for k in [
        "frontend.cycles",
        "frontend.instructions",
        "frontend.fetch_stall_cycles",
        "frontend.squash_stall_cycles",
        "frontend.rob_full_cycles",
    ] {
        out.metric(k, "count", count(k));
    }
    out.median("sink.render_ms", "ms", &render_ms);
    out.median("checkpoint.append_ms", "ms", &append_ms);
    out.metric("checkpoint.replay_ms", "ms", replay_ms);
    out.median("serve.lease_wait_ms", "ms", &frames.lease_wait_ms);
    out.median("serve.ack_rtt_p50_ms", "ms", &frames.ack_ms);
    out.percentile("serve.ack_rtt_p90_ms", "ms", &frames.ack_ms, 90.0);
    out.median("worker.row_ms", "ms", &frames.worker_ms);
    out.metric(
        "serve.nowork_frac",
        "ratio",
        frames.no_work as f64 / frames.lease_requests.max(1) as f64,
    );
    out.metric(
        "proto.bytes_per_row",
        "bytes",
        frames.bytes as f64 / frames.acks.max(1) as f64,
    );
    out.median("trace.campaign_s", "s", &traced_s);
    out.median("trace.untraced_campaign_s", "s", &plain_s);
    out.metric(
        "trace.overhead_frac",
        "ratio",
        stats::median(&traced_s) / stats::median(&plain_s) - 1.0,
    );
    out.median("trace.cli_campaign_s", "s", &cli_s);
    let self_times = t.self_times();
    for span in SELF_TIMED {
        let samples: Vec<f64> = self_times
            .iter()
            .filter(|(n, _)| *n == span)
            .map(|s| s.1)
            .collect();
        if samples.is_empty() {
            out.problems
                .push(format!("no span named {span} was recorded"));
        }
        out.median(format!("self_ms.{span}"), "ms", &samples);
    }

    let traces = bench_dir.join("traces");
    std::fs::create_dir_all(&traces).map_err(err)?;
    let path = traces.join(format!("{}-seed{seed}.json", w.name));
    std::fs::write(&path, t.to_json()).map_err(err)?;
    out.notes
        .push(format!("spans written to {}", path.display()));
    Ok(())
}
