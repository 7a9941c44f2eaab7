//! `voxel_fast`: the `voxel_head` preset (1 mm voxels) on the fast
//! precision tier, `Rayon` with `nproc` threads and about 300 photons per
//! task — the DDA and the batch kernel in the small-task regime.

use crate::layers::{self, Inputs};
use crate::progress::{Recorder, RunShape};
use crate::{replay, stats, tally_digest, Ctx};
use lumen_core::engine::{Backend, Rayon, Scenario};
use lumen_core::{Precision, Tally};
use lumen_tissue::presets::{adult_head, AdultHeadConfig};
use std::time::Instant;

const PHOTONS_PER_TASK: u64 = 300;

fn setup(seed: u64, tasks: u64) -> Result<Scenario, String> {
    let (_, preset) = lumen_bench::throughput_presets()
        .into_iter()
        .find(|(name, _)| *name == "voxel_head")
        .ok_or("no voxel_head preset")?;
    let mut scenario =
        preset.with_tasks(tasks).with_photons(tasks * PHOTONS_PER_TASK).with_seed(seed);
    scenario.options.precision = Precision::Fast;
    scenario.validate().map_err(|e| e.to_string())?;
    Ok(scenario)
}

/// One checked backend run: (wall seconds, tally, completion shape).
fn run_once(ctx: &mut Ctx, scenario: &Scenario) -> Result<(f64, Tally, RunShape), String> {
    let recorder = Recorder::default();
    let started = Instant::now();
    let report = Rayon::with_threads(ctx.nproc)
        .run_with_progress(scenario, &recorder)
        .map_err(|e| format!("voxel run: {e}"))?;
    let ended = Instant::now();
    ctx.ledger.ops("voxel tasks", scenario.tasks, report.requeues);
    ctx.ledger
        .check(report.result.launched() == scenario.photons, "voxel run: launched != photons");
    let shape = recorder.shape(started, ended, ctx.nproc, None);
    Ok(((ended - started).as_secs_f64(), report.result.tally, shape))
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let tasks = if ctx.cfg.smoke { 16 } else { 128 };
    let seed = ctx.cfg.seed;
    let started = Instant::now();
    let (scenario, setup_s) = ctx.timed_setup(|| setup(seed, tasks))?;
    ctx.declare_load(ctx.nproc, 0);
    let photons = scenario.photons as f64;

    let (min_runs, deadline) =
        if ctx.cfg.trace { (2, Instant::now()) } else { (3, started + ctx.budget()) };
    let mut walls = Vec::new();
    let mut reference = None;
    let mut shape = None;
    while walls.len() < min_runs || Instant::now() < deadline {
        let (wall, tally, s) = run_once(ctx, &scenario)?;
        let digest = tally_digest(&tally);
        let first = *reference.get_or_insert(digest);
        ctx.ledger.check(digest == first, "repeated voxel runs gave different tallies");
        walls.push(wall);
        shape = Some(s);
    }
    let wall = stats::median(&walls).expect("at least one run");

    if !ctx.cfg.trace {
        let rates: Vec<f64> = walls.iter().map(|w| photons / w).collect();
        ctx.metrics.set("photons_per_s", stats::median(&rates).expect("rates"));
        ctx.metrics.set("requests_per_s", walls.len() as f64 / walls.iter().sum::<f64>());
        ctx.metrics.set("request_p50_ms", wall * 1e3);
        ctx.metrics.set("setup_s", setup_s);
        ctx.detail_spread("run_wall_s", &walls);
        return Ok(());
    }

    let tracer = ctx.tracer.as_ref().expect("traced run has a tracer");
    let mut replays = Vec::new();
    for _ in 0..min_runs {
        replays.push(replay(tracer, &scenario, ctx.nproc, false)?);
    }
    for r in &replays {
        ctx.ledger.check(
            Some(tally_digest(&r.tally)) == reference,
            "traced replay tally differs from the Rayon backend's",
        );
    }
    let traced_wall = stats::median(&replays.iter().map(|r| r.wall_s).collect::<Vec<_>>())
        .expect("at least one replay");
    ctx.metrics.set("trace.overhead_ratio", traced_wall / wall);
    ctx.detail("photons_per_s.untraced", photons / wall);
    ctx.detail("photons_per_s.traced", photons / traced_wall);

    let head = adult_head(AdultHeadConfig::default());
    let inp = Inputs {
        seed,
        scenario: &scenario,
        layered: &head,
        task_tally: &replays[0].first_task,
        main_run: shape.expect("at least one run"),
        archive: None,
        nproc: ctx.nproc,
        smoke: ctx.cfg.smoke,
    };
    layers::probe(&inp, &mut ctx.metrics, &mut ctx.ledger)
}
