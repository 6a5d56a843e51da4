//! In-process calls into the program's public API: workload generation,
//! campaign simulation, and replays of each workload's trace through the
//! TAGE, BTB and instruction-cache layers on their own.
//!
//! Only API that the planned simplifications keep is used here: engine
//! options are built with `..Default::default()`, rows run one at a time
//! through `WorkloadData::run_with_predictor_engine`, and the fast paths are
//! measured only as a whole, against `SimEngine::PerCycleReference`.

use crate::trace::Tracer;
use boomerang::btb::{BasicBlockBtb, BtbEntry};
use boomerang::cache::{HitLevel, InstructionHierarchy};
use boomerang::frontend::SimEngine;
use boomerang::sim_core::{BranchKind, MicroarchConfig};
use boomerang::{Mechanism, ThrottlePolicy, WorkloadData};
use campaign::{
    generate_workloads, CampaignReport, CampaignSpec, EngineOptions, GeneratedWorkloads,
};
use std::time::Instant;

/// Simulation threads: the box has two cores, and the workloads are
/// defined as one user with at most that many threads.
pub const JOBS: usize = 2;

/// Every mechanism of Figure 9, baseline first, as (token, mechanism).
pub const MECHANISMS: [(&str, Mechanism); 7] = [
    ("baseline", Mechanism::Baseline),
    ("next-line", Mechanism::NextLine),
    ("dip", Mechanism::Dip),
    ("fdip", Mechanism::Fdip),
    ("shift", Mechanism::Shift),
    ("confluence", Mechanism::Confluence),
    (
        "boomerang",
        Mechanism::Boomerang(ThrottlePolicy::PAPER_DEFAULT),
    ),
];

pub fn options(smoke: bool, engine: SimEngine) -> EngineOptions {
    EngineOptions {
        jobs: JOBS,
        smoke,
        engine,
        ..Default::default()
    }
}

/// Runs `f`, inside a span when tracing, and returns its wall time in ms.
pub fn time<T>(tracer: Option<&mut Tracer>, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    match tracer {
        Some(t) => t.timed(name, |_| f()),
        None => {
            let start = Instant::now();
            let out = f();
            (out, start.elapsed().as_secs_f64() * 1e3)
        }
    }
}

/// The campaign's set-up as `run` performs it: spec parse, expansion and
/// cold workload generation.
pub fn setup(spec_toml: &str, smoke: bool) -> Result<(CampaignSpec, GeneratedWorkloads), String> {
    let spec = CampaignSpec::from_toml_str(spec_toml).map_err(|e| e.to_string())?;
    let generated = generate_workloads(&spec, &options(smoke, SimEngine::EventHorizon))
        .map_err(|e| e.to_string())?;
    Ok((spec, generated))
}

/// The generated (workload point, seed) data in canonical order.
pub fn points<'a>(spec: &CampaignSpec, generated: &'a GeneratedWorkloads) -> Vec<&'a WorkloadData> {
    (0..spec.workloads.len())
        .flat_map(|w| spec.seeds.iter().map(move |&s| (w, s)))
        .map(|(w, s)| {
            generated
                .data_for(w, s)
                .expect("every axis point was generated")
        })
        .collect()
}

/// What one layer replay counted after the warm-up blocks, and how many
/// operations it performed in total (for the per-operation time).
#[derive(Clone, Copy, Debug, Default)]
pub struct Replay {
    pub counted: u64,
    pub misses: u64,
    pub instructions: u64,
    pub ops: u64,
}

impl Replay {
    fn add(&mut self, other: Replay) {
        self.counted += other.counted;
        self.misses += other.misses;
        self.instructions += other.instructions;
        self.ops += other.ops;
    }
}

/// The trace's conditional branches through `DirectionPredictor`
/// predict + update at the configuration's predictor budget.
pub fn replay_tage(
    data: &WorkloadData,
    spec: &CampaignSpec,
    config: &MicroarchConfig,
    warm: usize,
) -> Replay {
    let mut predictor = spec.predictor.build(config.predictor_budget_bytes);
    let mut r = Replay::default();
    for (i, block) in data.trace.blocks().iter().enumerate() {
        if i >= warm {
            r.instructions += block.instructions();
        }
        let Some(term) = block.block.terminator else {
            continue;
        };
        if term.kind != BranchKind::Conditional {
            continue;
        }
        let predicted = predictor.predict(term.pc);
        predictor.update(term.pc, block.outcome.taken);
        r.ops += 1;
        if i >= warm {
            r.counted += 1;
            r.misses += u64::from(predicted != block.outcome.taken);
        }
    }
    r
}

/// The trace's blocks through a `BasicBlockBtb` of the configuration's
/// geometry: look up each block, insert it on a miss.
pub fn replay_btb(data: &WorkloadData, config: &MicroarchConfig, warm: usize) -> Replay {
    let mut btb = BasicBlockBtb::new(config.btb_entries, config.btb_ways);
    let mut r = Replay::default();
    for (i, block) in data.trace.blocks().iter().enumerate() {
        let Some(term) = block.block.terminator else {
            continue;
        };
        let hit = btb.lookup(block.block.start).is_hit();
        if !hit {
            btb.insert(BtbEntry::from_block(
                block.block.start,
                block.block.instructions,
                term,
            ));
        }
        r.ops += 1;
        if i >= warm {
            r.counted += 1;
            r.misses += u64::from(!hit);
        }
    }
    r
}

/// The trace's cache lines through `InstructionHierarchy::demand_fetch`,
/// one fetch at a time, the clock advancing by each fetch's latency.
pub fn replay_cache(data: &WorkloadData, config: &MicroarchConfig, warm: usize) -> Replay {
    let mut hierarchy = InstructionHierarchy::new(config);
    let geometry = data.layout.geometry();
    let mut now = 0u64;
    let mut r = Replay::default();
    for (i, block) in data.trace.blocks().iter().enumerate() {
        for line in geometry.lines_spanned(block.block.start, block.block.instructions) {
            let outcome = hierarchy.demand_fetch(line, now);
            now += outcome.latency;
            r.ops += 1;
            if i >= warm {
                r.counted += 1;
                r.misses += u64::from(outcome.level != HitLevel::L1);
            }
        }
    }
    r
}

/// Replay totals over every workload point, with each layer's wall time.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replays {
    pub trace_blocks: u64,
    pub tage: Replay,
    pub tage_ms: f64,
    pub btb: Replay,
    pub btb_ms: f64,
    pub cache: Replay,
    pub cache_ms: f64,
}

pub fn replay_all(
    spec: &CampaignSpec,
    generated: &GeneratedWorkloads,
    mut tracer: Option<&mut Tracer>,
) -> Replays {
    let config = spec.configs[0].build();
    let warm = generated.effective_run().warmup_blocks;
    let mut out = Replays::default();
    for data in points(spec, generated) {
        out.trace_blocks += data.trace.len() as u64;
        let (r, ms) = time(tracer.as_deref_mut(), "tage", || {
            replay_tage(data, spec, &config, warm)
        });
        out.tage.add(r);
        out.tage_ms += ms;
        let (r, ms) = time(tracer.as_deref_mut(), "btb", || {
            replay_btb(data, &config, warm)
        });
        out.btb.add(r);
        out.btb_ms += ms;
        let (r, ms) = time(tracer.as_deref_mut(), "cache", || {
            replay_cache(data, &config, warm)
        });
        out.cache.add(r);
        out.cache_ms += ms;
    }
    out
}

/// Deterministic work counts of a campaign: the exact-count gate compares
/// these to the pins, and any change in them is a model change.
pub fn exact_counts(report: &CampaignReport, replays: &Replays) -> Vec<(&'static str, u64)> {
    let sum = |f: fn(&boomerang::frontend::SimStats) -> u64| -> u64 {
        report.rows.iter().map(|r| f(&r.stats)).sum()
    };
    vec![
        ("workloads.trace_blocks", replays.trace_blocks),
        ("tage.lookups", replays.tage.counted),
        ("btb.lookups", replays.btb.counted),
        ("cache.demand_fetches", replays.cache.counted),
        ("frontend.cycles", sum(|s| s.cycles)),
        ("frontend.instructions", sum(|s| s.instructions)),
        ("frontend.fetch_stall_cycles", sum(|s| s.fetch_stall_cycles)),
        (
            "frontend.squash_stall_cycles",
            sum(|s| s.squash_stall_cycles),
        ),
        ("frontend.rob_full_cycles", sum(|s| s.rob_full_cycles)),
    ]
}

/// Instructions of the measured (post-warm-up) part of each row's trace,
/// summed over the campaign's rows: what `frontend.instructions` must equal.
pub fn measured_instructions(generated: &GeneratedWorkloads) -> u64 {
    let warm = generated.effective_run().warmup_blocks;
    generated
        .jobs()
        .iter()
        .map(|j| {
            let data = generated
                .data_for(j.workload, j.seed)
                .expect("every job's workload point was generated");
            let measured = &data.trace.blocks()[warm.min(data.trace.len())..];
            measured.iter().map(|b| b.instructions()).sum::<u64>()
        })
        .sum()
}
