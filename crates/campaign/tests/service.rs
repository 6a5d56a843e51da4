//! End-to-end tests of the campaign service layer: checkpointed
//! interruption + resume (in-process and through the binary), the
//! content-addressed artifact cache across processes, the spec-hash
//! directory guard, and the spool-directory serve mode.
//!
//! The invariant under test everywhere: reports are a pure function of the
//! spec. However a campaign is cut up — killed and resumed, sharded over
//! worker processes, replayed from journals — the merged JSON and CSV bytes
//! must equal an uninterrupted run's.

use boomerang::RunLength;
use campaign::checkpoint::{spec_hash, Journal, JournalReplay};
use campaign::{
    assemble_report, expand, fnv1a64, generate_workloads, presets, run_campaign,
    run_generated_partial, to_csv, to_json, CampaignSpec, EngineOptions, RunPlan,
};
use frontend::SimStats;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const GOLDEN: &str = include_str!("golden/figure9-smoke.json");
const BIN: &str = env!("CARGO_BIN_EXE_boomerang-sim");

const MINI_SPEC: &str = "name = \"service-mini\"
workloads = [\"nutch\", \"zeus\"]
mechanisms = [\"fdip\", \"boomerang\"]
seeds = [0, 1]

[run]
trace_blocks = 2000
warmup_blocks = 400
";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("boomerang-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs a campaign the way the binary does under repeated kills: each
/// "process life" replays the journal, executes at most `chunk` missing
/// rows while checkpointing them, and dies. The last life assembles the
/// report. Returns the rendered (JSON, CSV).
fn run_interrupted(
    spec: &CampaignSpec,
    options: &EngineOptions,
    chunk: usize,
    dir: &Path,
) -> (String, String) {
    let run = if options.smoke {
        RunLength::smoke_test()
    } else {
        spec.run
    };
    let hash = spec_hash(spec, run, options.smoke);
    let jobs = expand(spec);
    let mut lives = 0;
    loop {
        lives += 1;
        assert!(lives < 100, "resume loop did not converge");
        // A fresh "process": everything below rebuilds from disk state only.
        let done: HashMap<usize, SimStats> = JournalReplay::load(dir, &spec.name, &hash, &jobs)
            .expect("journal replays")
            .rows;
        if done.len() == jobs.len() {
            let stats: Vec<SimStats> = (0..jobs.len()).map(|i| done[&i]).collect();
            let report = assemble_report(spec, &jobs, run, options.smoke, stats);
            return (to_json(&report), to_csv(&report));
        }
        let journal = if Journal::path_for(dir, &spec.name, None).exists() {
            Journal::append(dir, &spec.name, None)
        } else {
            Journal::create(dir, &spec.name, &hash, jobs.len(), None)
        }
        .expect("journal opens");
        let generated = campaign::generate_workloads(spec, options).expect("generation");
        let on_row = |job: &campaign::Job, stats: &SimStats| {
            journal.record(job, stats).expect("checkpoint write");
        };
        run_generated_partial(
            spec,
            options,
            &generated,
            &done,
            RunPlan {
                shard: None,
                limit: Some(chunk),
            },
            Some(&on_row),
        );
    }
}

#[test]
fn killed_and_resumed_campaigns_render_identical_bytes_for_any_worker_count() {
    let spec = CampaignSpec::from_toml_str(MINI_SPEC).unwrap();
    let reference = run_campaign(&spec, &EngineOptions::default()).unwrap();
    let (ref_json, ref_csv) = (to_json(&reference), to_csv(&reference));

    for jobs in [1usize, 2, 5] {
        let dir = temp_dir(&format!("kill-{jobs}"));
        let options = EngineOptions {
            jobs,
            ..EngineOptions::default()
        };
        // Chunk of 3: the 24-job campaign dies and resumes 8 times.
        let (json, csv) = run_interrupted(&spec, &options, 3, &dir);
        assert_eq!(json, ref_json, "JSON drifted at --jobs {jobs}");
        assert_eq!(csv, ref_csv, "CSV drifted at --jobs {jobs}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn figure9_smoke_golden_bytes_survive_kill_and_resume() {
    let spec = presets::find("figure9").unwrap();
    let dir = temp_dir("golden-resume");
    let options = EngineOptions {
        jobs: 3,
        smoke: true,
        ..EngineOptions::default()
    };
    let (json, _) = run_interrupted(&spec, &options, 10, &dir);
    assert_eq!(
        json, GOLDEN,
        "figure9 --smoke bytes drifted through the checkpoint/resume path"
    );
    // The smoke digest the bench baseline pins, reproduced through the new
    // path (the full-length digest fnv1a64:64a84925f89018ba is pinned the
    // same way by the committed BENCH_PR6.json entries).
    assert_eq!(
        format!("fnv1a64:{:016x}", fnv1a64(json.as_bytes())),
        "fnv1a64:12d5c5644373b35b"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn row_limited_pass_resumes_to_oneshot_bytes() {
    let spec = presets::find("figure9").unwrap();
    let opts = EngineOptions {
        jobs: 2,
        smoke: true,
        ..EngineOptions::default()
    };
    let generated = generate_workloads(&spec, &opts).unwrap();
    let pass = |done: &HashMap<usize, SimStats>, limit: Option<usize>| {
        run_generated_partial(
            &spec,
            &opts,
            &generated,
            done,
            RunPlan {
                limit,
                ..RunPlan::default()
            },
            None,
        )
    };
    let oneshot = pass(&HashMap::new(), None);
    assert!(oneshot.is_complete());

    // A 5-row limit stops mid-way through the first 7-row (workload, seed)
    // group; the resumed pass fills the holes around the journaled rows.
    let first = pass(&HashMap::new(), Some(5));
    assert_eq!(first.executed, 5);
    let done: HashMap<usize, SimStats> = first
        .stats
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.map(|s| (i, s)))
        .collect();
    assert_eq!(done.len(), 5);
    let resumed = pass(&done, None);
    assert!(resumed.is_complete());

    let report = |stats: Vec<Option<SimStats>>| {
        let stats: Vec<SimStats> = stats.into_iter().map(Option::unwrap).collect();
        to_json(&assemble_report(
            &spec,
            generated.jobs(),
            generated.effective_run(),
            true,
            stats,
        ))
    };
    assert_eq!(
        report(resumed.stats),
        report(oneshot.stats),
        "a resumed pass over a partially journaled group must render the \
         one-shot bytes"
    );
}

#[test]
fn three_way_shard_merge_equals_oneshot_stats() {
    let spec = presets::find("figure9").unwrap();
    let opts = EngineOptions {
        jobs: 2,
        smoke: true,
        ..EngineOptions::default()
    };
    let generated = generate_workloads(&spec, &opts).unwrap();
    let pass = |plan: RunPlan| {
        run_generated_partial(&spec, &opts, &generated, &HashMap::new(), plan, None)
    };
    let oneshot = pass(RunPlan::default());

    // The canonical round-robin scatters every group across the shards.
    let mut merged: Vec<Option<SimStats>> = vec![None; generated.job_count()];
    for shard in 0..3 {
        let stats = pass(RunPlan {
            shard: Some((shard, 3)),
            ..RunPlan::default()
        })
        .stats;
        for (slot, s) in merged.iter_mut().zip(stats) {
            if let Some(s) = s {
                assert!(slot.is_none(), "shards must not overlap");
                *slot = Some(s);
            }
        }
    }
    assert_eq!(
        merged, oneshot.stats,
        "--shard i/3 passes must merge to the one-shot stats"
    );
}

#[test]
fn binary_interrupts_and_resumes_to_identical_reports() {
    let spec_file = temp_dir("bin-kill").join("mini.toml");
    std::fs::write(&spec_file, MINI_SPEC).unwrap();
    let oneshot = temp_dir("bin-kill-oneshot");
    let resumed = temp_dir("bin-kill-resumed");

    let status = Command::new(BIN)
        .args([
            "run",
            spec_file.to_str().unwrap(),
            "--jobs",
            "2",
            "--quiet",
            "--out",
        ])
        .arg(&oneshot)
        .status()
        .unwrap();
    assert!(status.success());

    // Three interrupted lives, then a resume that finishes the campaign.
    for _ in 0..3 {
        let status = Command::new(BIN)
            .args([
                "run",
                spec_file.to_str().unwrap(),
                "--jobs",
                "2",
                "--quiet",
                "--resume",
                "--max-rows",
                "5",
                "--out",
            ])
            .arg(&resumed)
            .status()
            .unwrap();
        assert!(status.success());
    }
    let status = Command::new(BIN)
        .args([
            "resume",
            spec_file.to_str().unwrap(),
            "--jobs",
            "3",
            "--quiet",
            "--out",
        ])
        .arg(&resumed)
        .status()
        .unwrap();
    assert!(status.success());

    for name in ["service-mini.json", "service-mini.csv"] {
        let a = std::fs::read(oneshot.join(name)).unwrap();
        let b = std::fs::read(resumed.join(name)).unwrap();
        assert_eq!(a, b, "{name} differs between one-shot and resumed runs");
    }
    // The streamed rows cover the whole campaign (order-insensitive check).
    let stream = std::fs::read_to_string(resumed.join("service-mini.rows.csv")).unwrap();
    let report = std::fs::read_to_string(resumed.join("service-mini.csv")).unwrap();
    let mut streamed: Vec<&str> = stream.lines().collect();
    let mut canonical: Vec<&str> = report.lines().collect();
    streamed.sort_unstable();
    canonical.sort_unstable();
    assert_eq!(streamed, canonical);

    for dir in [spec_file.parent().unwrap().to_path_buf(), oneshot, resumed] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn artifact_cache_is_warm_across_processes() {
    let spec_file = temp_dir("bin-cache").join("mini.toml");
    std::fs::write(&spec_file, MINI_SPEC).unwrap();
    let cache = temp_dir("bin-cache-store");
    let out_a = temp_dir("bin-cache-a");
    let out_b = temp_dir("bin-cache-b");

    let run_with = |out: &Path| {
        let output = Command::new(BIN)
            .args([
                "run",
                spec_file.to_str().unwrap(),
                "--jobs",
                "2",
                "--artifact-cache",
            ])
            .arg(&cache)
            .arg("--out")
            .arg(out)
            .output()
            .unwrap();
        assert!(output.status.success());
        String::from_utf8_lossy(&output.stderr).into_owned()
    };

    let cold = run_with(&out_a);
    assert!(
        cold.contains("0 cache hits, 4 generated"),
        "first run must generate everything: {cold}"
    );
    let warm = run_with(&out_b);
    assert!(
        warm.contains("4 cache hits, 0 generated"),
        "second run must be served entirely from the cache: {warm}"
    );
    assert_eq!(
        std::fs::read(out_a.join("service-mini.json")).unwrap(),
        std::fs::read(out_b.join("service-mini.json")).unwrap(),
        "cached workloads must reproduce identical reports"
    );

    for dir in [
        spec_file.parent().unwrap().to_path_buf(),
        cache,
        out_a,
        out_b,
    ] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn mismatching_spec_directory_is_refused_without_force() {
    let spec_file = temp_dir("bin-guard").join("mini.toml");
    std::fs::write(&spec_file, MINI_SPEC).unwrap();
    let out = temp_dir("bin-guard-out");

    // Seed the directory with a *smoke* run of the same spec.
    let status = Command::new(BIN)
        .args([
            "run",
            spec_file.to_str().unwrap(),
            "--smoke",
            "--jobs",
            "2",
            "--quiet",
            "--out",
        ])
        .arg(&out)
        .status()
        .unwrap();
    assert!(status.success());

    // Full-length run into the same dir: different spec hash, clear error.
    let output = Command::new(BIN)
        .args([
            "run",
            spec_file.to_str().unwrap(),
            "--jobs",
            "2",
            "--quiet",
            "--out",
        ])
        .arg(&out)
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("does not match") && stderr.contains("--force"),
        "guard must name the mismatch and the override: {stderr}"
    );

    // --force clears the old campaign and succeeds.
    let status = Command::new(BIN)
        .args([
            "run",
            spec_file.to_str().unwrap(),
            "--jobs",
            "2",
            "--quiet",
            "--force",
            "--out",
        ])
        .arg(&out)
        .status()
        .unwrap();
    assert!(status.success());

    for dir in [spec_file.parent().unwrap().to_path_buf(), out] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn serve_processes_a_spool_and_matches_oneshot_bytes() {
    let spool = temp_dir("serve-spool");
    let out = temp_dir("serve-out");
    let oneshot = temp_dir("serve-oneshot");
    std::fs::write(spool.join("mini.toml"), MINI_SPEC).unwrap();

    let status = Command::new(BIN)
        // No --jobs: the workers must run with the binary's own default
        // (serve omits the flag when jobs = 0, it must not pass `--jobs 0`).
        .args(["serve", "--once", "--workers", "3", "--quiet", "--spool"])
        .arg(&spool)
        .arg("--out")
        .arg(&out)
        .status()
        .unwrap();
    assert!(status.success());
    assert!(spool.join("mini.toml.done").exists());

    let spec_file = spool.join("mini.toml.done");
    let copied = spool.join("oneshot.toml");
    std::fs::copy(&spec_file, &copied).unwrap();
    let status = Command::new(BIN)
        .args([
            "run",
            copied.to_str().unwrap(),
            "--jobs",
            "2",
            "--quiet",
            "--out",
        ])
        .arg(&oneshot)
        .status()
        .unwrap();
    assert!(status.success());

    assert_eq!(
        std::fs::read(out.join("mini").join("service-mini.json")).unwrap(),
        std::fs::read(oneshot.join("service-mini.json")).unwrap(),
        "serve's merged report must equal a one-shot run's bytes"
    );
    assert_eq!(
        std::fs::read(out.join("mini").join("service-mini.csv")).unwrap(),
        std::fs::read(oneshot.join("service-mini.csv")).unwrap()
    );
    // Three worker shards, three journals.
    for shard in 0..3 {
        assert!(out
            .join("mini")
            .join(format!("service-mini.journal-{shard}.jsonl"))
            .exists());
    }

    for dir in [spool, out, oneshot] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}
