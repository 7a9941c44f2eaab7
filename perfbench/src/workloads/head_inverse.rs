//! `head_inverse`: a forward trace of the adult head that records a
//! detected-only path archive, then a seeded (μa, μs) sweep through
//! `Reweight::query_many` on that archive — the paper's forward model
//! feeding an inverse fit.

use crate::layers::{self, Inputs};
use crate::progress::{Recorder, RunShape};
use crate::{replay, stats, tally_digest, Ctx};
use lumen_core::engine::{Backend, Rayon, Scenario};
use lumen_core::{Detector, OpticalProperties, RecordOptions, Reweight, RunReport, Source};
use lumen_tissue::presets::{adult_head, AdultHeadConfig};
use mcrng::SplitMix64;
use std::time::{Duration, Instant};

const TASKS: u64 = 64;
/// Distinct property sets in the sweep (cycled when the sweep runs longer).
const SWEEP_QUERIES: usize = 4096;

struct Sizes {
    photons: u64,
    min_entries: usize,
    min_sweep: Duration,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes { photons: 4_000, min_entries: 100, min_sweep: Duration::from_millis(50) }
    } else {
        // About 8.3% of launched photons reach the 8 mm ring: 140.8k photons
        // (2200 per task) give ~11.7k entries, 15 standard deviations above
        // the 10^4 floor.
        Sizes { photons: 140_800, min_entries: 10_000, min_sweep: Duration::from_secs(2) }
    }
}

struct HeadInputs {
    scenario: Scenario,
    base: Vec<OpticalProperties>,
    queries: Vec<Vec<OpticalProperties>>,
}

fn setup(seed: u64, photons: u64) -> Result<HeadInputs, String> {
    let mut scenario = Scenario::new(
        adult_head(AdultHeadConfig::default()),
        Source::Delta,
        Detector::ring(8.0, 2.0),
    )
    .with_photons(photons)
    .with_tasks(TASKS)
    .with_seed(seed);
    scenario.options.archive = Some(RecordOptions { detected_only: true });
    scenario.validate().map_err(|e| e.to_string())?;
    let base: Vec<OpticalProperties> =
        (0..scenario.tissue.region_count()).map(|r| *scenario.tissue.optics(r)).collect();
    // μa scaled by 0.7–1.3 and μs by 0.9–1.1: the band reweighting is
    // validated for.
    let mut rng = SplitMix64::new(seed ^ 0x0005_11EE_u64);
    let mut unit = || (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
    let queries = (0..SWEEP_QUERIES)
        .map(|_| {
            let (fa, fs) = (0.7 + 0.6 * unit(), 0.9 + 0.2 * unit());
            base.iter()
                .map(|o| OpticalProperties::new(o.mu_a * fa, o.mu_s * fs, o.g, o.n))
                .collect()
        })
        .collect();
    Ok(HeadInputs { scenario, base, queries })
}

/// The forward trace on `Rayon`, checked; returns the report, its wall
/// time and its completion shape.
fn forward(
    ctx: &mut Ctx,
    inputs: &HeadInputs,
    min_entries: usize,
) -> Result<(RunReport, f64, RunShape), String> {
    let recorder = Recorder::default();
    let started = Instant::now();
    let report = Rayon::with_threads(ctx.nproc)
        .run_with_progress(&inputs.scenario, &recorder)
        .map_err(|e| format!("forward trace: {e}"))?;
    let ended = Instant::now();
    let wall = (ended - started).as_secs_f64();
    let photons = inputs.scenario.photons;
    ctx.ledger.ops("forward-trace tasks", TASKS, report.requeues);
    ctx.ledger.check(report.result.launched() == photons, "forward trace: launched != photons");
    let entries = report.result.tally.archive.as_ref().map_or(0, |a| a.len());
    ctx.ledger.check(
        entries >= min_entries,
        format!("archive has {entries} entries, fewer than {min_entries}"),
    );
    Ok((report, wall, recorder.shape(started, ended, ctx.nproc, None)))
}

/// Query batches of `nproc` property sets (one per worker thread) for at
/// least `min` and until `deadline`; returns each call's wall time and
/// query count.
fn sweep(
    ctx: &mut Ctx,
    reweight: &Reweight,
    queries: &[Vec<OpticalProperties>],
    min: Duration,
    deadline: Instant,
    traced: bool,
) -> Vec<(f64, f64)> {
    let batch = ctx.nproc;
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut failed = 0u64;
    let mut asked = 0u64;
    let mut i = 0usize;
    while walls.is_empty() || started.elapsed() < min || Instant::now() < deadline {
        let lo = (i * batch) % queries.len();
        let chunk = &queries[lo..(lo + batch).min(queries.len())];
        let t = Instant::now();
        let replies = match (&ctx.tracer, traced) {
            (Some(tr), true) => {
                tr.span("core.query_many", None, i as u64, |_| reweight.query_many(chunk))
            }
            _ => reweight.query_many(chunk),
        };
        walls.push((t.elapsed().as_secs_f64(), chunk.len() as f64));
        asked += chunk.len() as u64;
        failed += replies
            .iter()
            .filter(|r| {
                !matches!(r, Ok(r) if r.tally.detected_weight.is_finite()
                    && r.tally.detected_weight > 0.0 && r.ess > 0.0)
            })
            .count() as u64;
        i += 1;
    }
    ctx.ledger.ops("reweight queries", asked, failed);
    walls
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let sz = sizes(ctx.cfg.smoke);
    let seed = ctx.cfg.seed;
    let started = Instant::now();
    let (inputs, setup_s) = ctx.timed_setup(|| setup(seed, sz.photons))?;
    ctx.declare_load(ctx.nproc, 0);

    let (report, wall, shape) = forward(ctx, &inputs, sz.min_entries)?;
    let photons = inputs.scenario.photons as f64;
    let archive = report.result.tally.archive.clone().ok_or("forward trace recorded no archive")?;
    let entries = archive.len();
    let reweight = Reweight::new(archive);

    // An identity query replays the recording's detected weight bit for bit.
    let identity = reweight.query(&inputs.base).map_err(|e| format!("identity query: {e}"))?;
    ctx.ledger.check(
        identity.tally.detected_weight.to_bits() == report.result.tally.detected_weight.to_bits(),
        "identity reweight does not reproduce the recorded detected weight bit for bit",
    );
    ctx.detail("archive_entries", entries as f64);

    if !ctx.cfg.trace {
        let deadline = started + ctx.budget();
        let calls = sweep(ctx, &reweight, &inputs.queries, sz.min_sweep, deadline, false);
        let walls: Vec<f64> = calls.iter().map(|c| c.0).collect();
        // The median call's rate: whole-run totals swing with how often a
        // co-tenant holds one of the cores while a call waits on both.
        let rate = stats::median_rate(&calls).unwrap_or(0.0);
        ctx.metrics.set("photons_per_s", photons / wall);
        ctx.metrics.set("requests_per_s", rate);
        ctx.metrics.set("request_p50_ms", stats::median(&walls).unwrap_or(0.0) * 1e3);
        ctx.metrics.set("setup_s", setup_s);
        ctx.detail("forward_wall_s", wall);
        ctx.detail_spread("query_many_wall_s", &walls);
        ctx.detail("archive_evals_per_s", entries as f64 * rate);
        if let Some(p) = stats::highest_supported(&walls) {
            ctx.detail(format!("request_p{}_ms", p.p), p.value * 1e3);
        }
        return Ok(());
    }

    // Traced run: replay the forward trace from outside and compare bytes.
    let tracer = ctx.tracer.as_ref().expect("traced run has a tracer");
    let replayed = replay(tracer, &inputs.scenario, ctx.nproc, false)?;
    ctx.ledger.check(
        tally_digest(&replayed.tally) == tally_digest(&report.result.tally),
        "traced replay tally differs from the Rayon backend's",
    );
    ctx.metrics.set("trace.overhead_ratio", replayed.wall_s / wall);
    ctx.detail("photons_per_s.untraced", photons / wall);
    ctx.detail("photons_per_s.traced", photons / replayed.wall_s);

    let short = sz.min_sweep / 2;
    let plain = sweep(ctx, &reweight, &inputs.queries, short, Instant::now(), false);
    let traced = sweep(ctx, &reweight, &inputs.queries, short, Instant::now(), true);
    let rate = |c: &[(f64, f64)]| stats::median_rate(c).unwrap_or(0.0);
    ctx.detail("sweep_overhead_ratio", rate(&plain) / rate(&traced));

    let inp = Inputs {
        seed,
        scenario: &inputs.scenario,
        layered: inputs.scenario.tissue.as_layered().ok_or("the head is a layered stack")?,
        task_tally: &replayed.first_task,
        main_run: shape,
        archive: Some(&reweight.archive),
        nproc: ctx.nproc,
        smoke: ctx.cfg.smoke,
    };
    layers::probe(&inp, &mut ctx.metrics, &mut ctx.ledger)
}
