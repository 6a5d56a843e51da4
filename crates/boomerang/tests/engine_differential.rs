//! Differential tests for the event-horizon engine.
//!
//! The per-cycle stepper (`run_with_warmup_reference`) is the semantic
//! definition of the simulator; the event-horizon engine
//! (`run_with_warmup`) bulk-advances over provably dead cycles and must
//! produce **bit-identical** `SimStats`. These tests drive both engines over
//! randomized tiny workload profiles for every mechanism of the evaluation
//! and assert exact equality — any divergence means the idle-horizon
//! computation claimed a cycle was dead when it was not. Idle advance is
//! the engine's only fast path; every other cycle is stepped.

use boomerang::{Mechanism, ThrottlePolicy};
use branch_pred::PredictorKind;
use frontend::Simulator;
use sim_core::rng::SimRng;
use sim_core::{MicroarchConfig, NocModel};
use workloads::{CodeLayout, Trace, WorkloadProfile};

/// Every mechanism the campaign engine can run, including both Boomerang
/// throttle extremes.
fn all_mechanisms() -> Vec<Mechanism> {
    vec![
        Mechanism::Baseline,
        Mechanism::NextLine,
        Mechanism::Dip,
        Mechanism::Fdip,
        Mechanism::Pif,
        Mechanism::Shift,
        Mechanism::Confluence,
        Mechanism::Boomerang(ThrottlePolicy::PAPER_DEFAULT),
        Mechanism::Boomerang(ThrottlePolicy::None),
    ]
}

fn assert_engines_agree(
    profile: &WorkloadProfile,
    config: &MicroarchConfig,
    blocks: usize,
    warmup: usize,
    predictor: PredictorKind,
) {
    let layout = CodeLayout::generate(profile);
    let trace = Trace::generate_blocks(&layout, blocks);
    for mechanism in all_mechanisms() {
        let fast = Simulator::with_predictor(
            config.clone(),
            &layout,
            trace.blocks(),
            mechanism.build(),
            predictor,
        )
        .run_with_warmup(warmup);
        let reference = Simulator::with_predictor(
            config.clone(),
            &layout,
            trace.blocks(),
            mechanism.build(),
            predictor,
        )
        .run_with_warmup_reference(warmup);
        assert_eq!(
            fast,
            reference,
            "event-horizon diverged from per-cycle reference: mechanism {:?}, seed {}, footprint {}",
            mechanism,
            profile.seed,
            profile.footprint_bytes,
        );
    }
}

#[test]
fn engines_agree_on_the_paper_configuration() {
    assert_engines_agree(
        &WorkloadProfile::tiny(53),
        &MicroarchConfig::hpca17(),
        4_000,
        500,
        PredictorKind::Tage,
    );
}

#[test]
fn engines_agree_under_btb_pressure_and_slow_llc() {
    // A tiny BTB maximises Boomerang stalls and FDIP sequential walks; a
    // slow NoC stretches every fill latency, widening the dead windows the
    // event-horizon engine skips.
    assert_engines_agree(
        &WorkloadProfile::tiny(7).with_footprint_bytes(128 * 1024),
        &MicroarchConfig::hpca17()
            .with_btb_entries(256)
            .with_noc(NocModel::Fixed(70)),
        4_000,
        500,
        PredictorKind::Tage,
    );
}

#[test]
fn engines_agree_over_randomized_profiles() {
    // Fuzz over randomized tiny profiles: footprint, service roots, call
    // depth, seed, warmup and config all vary, deterministically derived
    // from a fixed RNG seed.
    let mut rng = SimRng::seeded(0x000d_1ffe_7e57);
    for _ in 0..6 {
        let mut profile = WorkloadProfile::tiny(rng.range_u64(0, 1 << 20));
        profile.footprint_bytes = 32 * 1024 + 16 * 1024 * rng.range_u64(0, 8);
        profile.service_roots = 4 + rng.index(24);
        profile.max_call_depth = 4 + rng.index(12);
        let config = MicroarchConfig::hpca17()
            .with_btb_entries(256 << rng.range_u64(0, 4))
            .with_noc(NocModel::Fixed(5 + rng.range_u64(0, 60)));
        let blocks = 1_500 + rng.index(2_000);
        let warmup = rng.index(800);
        assert_engines_agree(&profile, &config, blocks, warmup, PredictorKind::Tage);
    }
}

#[test]
fn engines_agree_without_warmup_and_with_bimodal_predictor() {
    assert_engines_agree(
        &WorkloadProfile::tiny(911),
        &MicroarchConfig::hpca17(),
        2_500,
        0,
        PredictorKind::Bimodal,
    );
}

/// Stall-heavy profiles: a large footprint behind a slow NoC keeps the
/// fetch engine stalled on L1-I fills while the BPU keeps filling the FTQ,
/// so idle advance and stepping interleave at every fill.
#[test]
fn engines_agree_over_stall_heavy_profiles() {
    let mut rng = SimRng::seeded(0x0071_c51e_0b47);
    for _ in 0..4 {
        let mut profile = WorkloadProfile::tiny(rng.range_u64(0, 1 << 20));
        profile.footprint_bytes = 96 * 1024 + 32 * 1024 * rng.range_u64(0, 6);
        profile.hot_callee_fraction = 0.05 + 0.2 * rng.unit();
        // Deep memory: long fill stalls.
        let config = MicroarchConfig::hpca17()
            .with_noc(NocModel::Fixed(30 + rng.range_u64(0, 60)))
            .with_btb_entries(512 << rng.range_u64(0, 3));
        let blocks = 2_000 + rng.index(2_000);
        assert_engines_agree(&profile, &config, blocks, 400, PredictorKind::Tage);
    }
}

/// Streaming-heavy profiles: a small footprint keeps the code
/// L1-I-resident after warmup, long basic blocks and a wide fetch stream
/// many instructions between control-flow events, and the ROB sweeps from
/// the paper's depth down to shallow under slow data-stall profiles, so
/// idle advance also jumps full-ROB back-pressure spans.
#[test]
fn engines_agree_over_streaming_heavy_profiles() {
    let mut rng = SimRng::seeded(0x00b1_0c60_fa57);
    for _ in 0..5 {
        let mut profile = WorkloadProfile::tiny(rng.range_u64(0, 1 << 20));
        // L1-I-resident (stall-light) code with long straight-line blocks.
        profile.footprint_bytes = 16 * 1024 + 16 * 1024 * rng.range_u64(0, 2);
        profile.mean_block_instructions = 8.0 + 6.0 * rng.unit();
        profile.mean_function_blocks = 10.0 + 6.0 * rng.unit();
        // Back-end pressure sweep: from frequent long data stalls (a full
        // ROB) to nearly stall-free streaming.
        profile.backend.load_fraction = 0.1 + 0.3 * rng.unit();
        profile.backend.llc_miss_rate = 0.02 * rng.unit();
        profile.backend.l1d_miss_rate = 0.3 * rng.unit();
        let mut config = MicroarchConfig::hpca17();
        // Wide fetch + a ROB from paper-default down to shallow.
        config.fetch_width = 3 + rng.range_u64(0, 6);
        config.rob_entries = [16, 32, 64, 128][rng.index(4)];
        config.validate().expect("sweep must stay valid");
        let blocks = 2_000 + rng.index(2_000);
        let warmup = rng.index(600);
        assert_engines_agree(&profile, &config, blocks, warmup, PredictorKind::Tage);
    }
}
