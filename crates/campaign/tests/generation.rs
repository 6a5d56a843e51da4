//! Pins of the campaign's cold generation phase.
//!
//! * Per-stage digests: a draw-order slip in layout, trace or back-end
//!   latency-class generation changes the digest of the stage that slipped,
//!   so a failure names the stage instead of only moving the campaign
//!   digest. Both profiles are full size (well over 8,192 blocks).
//! * Key order: `generate_workloads` may hand its tasks to the pool in any
//!   order, but every result and warning lands in (workload, seed) key
//!   order, identical for every `jobs`.

use boomerang::{RunLength, WorkloadData};
use campaign::{
    artifact_key, derive_seed, fnv1a64, generate_workloads, presets, ArtifactCache, CampaignSpec,
    EngineOptions,
};
use workloads::codec::{encode_layout, encode_trace};
use workloads::{CodeLayout, Trace, WorkloadProfile};

/// FNV-1a-64 digests of one workload point's three generation stages:
/// encoded layout, encoded trace, latency classes.
fn stage_digests(profile: &WorkloadProfile, run: RunLength) -> [u64; 3] {
    let layout = CodeLayout::generate(profile);
    assert!(
        layout.blocks().len() > 8192,
        "{}: {} blocks is not a full-size layout",
        profile.name(),
        layout.blocks().len()
    );
    let trace = Trace::generate_blocks(&layout, run.trace_blocks + run.warmup_blocks);
    let mut layout_bytes = Vec::new();
    encode_layout(&layout, &mut layout_bytes);
    let mut trace_bytes = Vec::new();
    encode_trace(&layout, &trace, &mut trace_bytes).expect("trace is a path through its layout");
    let classes = profile
        .backend
        .latency_classes(profile.seed, trace.instructions() as usize);
    [
        fnv1a64(&layout_bytes),
        fnv1a64(&trace_bytes),
        fnv1a64(&classes),
    ]
}

/// The profile and run length `preset` generates for its workload point
/// `label` at seed offset 0.
fn preset_point(preset: &str, label: &str) -> (WorkloadProfile, RunLength) {
    let spec = presets::find(preset).expect("preset exists");
    let point = spec
        .workloads
        .iter()
        .find(|w| w.label == label)
        .unwrap_or_else(|| panic!("{preset} has no workload point {label}"));
    let profile = point
        .profile
        .clone()
        .with_seed(derive_seed(point.profile.seed, 0));
    (profile, spec.run)
}

fn assert_stage_digests(preset: &str, label: &str, expected: [u64; 3]) {
    let (profile, run) = preset_point(preset, label);
    let got = stage_digests(&profile, run);
    let drifted: Vec<String> = ["layout", "trace", "latency classes"]
        .iter()
        .zip(got.iter().zip(expected))
        .filter(|(_, (g, e))| **g != *e)
        .map(|(stage, (g, e))| format!("{stage} digest {g:#018x} != pinned {e:#018x}"))
        .collect();
    assert!(drifted.is_empty(), "{preset}/{label}: {drifted:?}");
}

#[test]
fn nutch_generation_stages_are_pinned() {
    assert_stage_digests(
        "figure9",
        "Nutch",
        [0x32b4307a3345136d, 0x3f31e3eae5ccad65, 0x58b3bc07dce423a6],
    );
}

#[test]
fn indirect_heavy_generation_stages_are_pinned() {
    assert_stage_digests(
        "interpreter-dispatch",
        "interp-4194304",
        [0x1cdd77cf08d38ef8, 0xc463aded1d50e656, 0x5d98b9f7e9bdb07f],
    );
}

/// `generate_workloads` deals its tasks largest footprint first; with the
/// footprints listed in descending and in ascending order, at one and two
/// workers, every point must equal an independent generation of its
/// profile and every warning must name its point in (workload, seed) key
/// order.
#[test]
fn generation_results_and_warnings_stay_in_key_order() {
    for footprints in ["[393216, 131072, 65536]", "[65536, 131072, 393216]"] {
        let spec = CampaignSpec::from_toml_str(&format!(
            "name = \"generation-order\"\nmechanisms = [\"fdip\"]\nseeds = [0, 1]\n\
             [run]\ntrace_blocks = 1500\nwarmup_blocks = 300\n\
             [[workload]]\nlabel = \"pt\"\nbase = \"nutch\"\nfootprint_bytes = {footprints}\n"
        ))
        .expect("spec parses");
        let dir = std::env::temp_dir().join(format!(
            "boomerang-generation-{}-{}",
            &footprints[1..6],
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ArtifactCache::open(&dir).unwrap();
        // Key order: workload index, then seed.
        let points: Vec<(usize, u64, WorkloadProfile)> = (0..spec.workloads.len())
            .flat_map(|w| spec.seeds.iter().map(move |&seed| (w, seed)))
            .map(|(w, seed)| {
                let base = &spec.workloads[w].profile;
                (
                    w,
                    seed,
                    base.clone().with_seed(derive_seed(base.seed, seed)),
                )
            })
            .collect();
        for jobs in [1, 2] {
            let plain = EngineOptions {
                jobs,
                ..EngineOptions::default()
            };
            let cached = EngineOptions {
                artifact_cache: Some(dir.clone()),
                ..plain.clone()
            };
            // Populate the cache, then corrupt every artifact so the next
            // cached run warns once per point.
            generate_workloads(&spec, &cached).expect("populating generation");
            let paths: Vec<String> = points
                .iter()
                .map(|(_, _, profile)| {
                    let path = cache.path_for(artifact_key(profile, spec.run));
                    std::fs::write(&path, b"not an artifact").unwrap();
                    path.display().to_string()
                })
                .collect();
            let rewarned = generate_workloads(&spec, &cached).expect("regeneration");
            let warnings = &rewarned.generation().warnings;
            assert_eq!(warnings.len(), paths.len(), "jobs={jobs}: {warnings:?}");
            for (warning, path) in warnings.iter().zip(&paths) {
                assert!(
                    warning.starts_with(&format!("rejected {path}:")),
                    "{footprints} jobs={jobs}: {warning:?} out of key order (expected {path})"
                );
            }
            let generated = generate_workloads(&spec, &plain).expect("generation");
            for (w, seed, profile) in &points {
                let expected = WorkloadData::generate_from_profile(profile, spec.run);
                for got in [&generated, &rewarned] {
                    let got = got.data_for(*w, *seed).expect("every key is generated");
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    encode_layout(&got.layout, &mut a);
                    encode_layout(&expected.layout, &mut b);
                    assert!(
                        a == b && got.trace == expected.trace,
                        "{footprints} jobs={jobs}: point ({w}, {seed}) differs"
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
