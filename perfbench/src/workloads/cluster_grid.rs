//! `cluster_grid`: a loopback cluster server with `nproc` in-process
//! clients tracing the Fig 3 banana (white matter, 50³ path grid) in 256
//! small tasks, so every task ships a ~1 MB tally over the wire and the
//! server folds a grid per task.

use crate::layers::{self, Inputs};
use crate::progress::{Recorder, RunShape};
use crate::{replay, stats, tally_digest, Ctx};
use lumen_cluster::{run_client, serve_with_options, NetReport, ServeOptions};
use lumen_core::engine::Scenario;
use lumen_core::{Simulation, Tally};
use std::net::TcpListener;
use std::time::{Duration, Instant};

struct Sizes {
    tasks: u64,
    photons_per_task: u64,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes { tasks: 8, photons_per_task: 16 }
    } else {
        Sizes { tasks: 256, photons_per_task: 64 }
    }
}

struct Setup {
    sim: Simulation,
    listener: TcpListener,
}

fn setup() -> Result<Setup, String> {
    let sim = lumen_bench::fig3_scenario(6.0, 50);
    sim.validate().map_err(|e| e.to_string())?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    Ok(Setup { sim, listener })
}

/// One served run: `clients` in-process `run_client` loops against a
/// server on `listener`, under spans when `traced`. Returns the report,
/// its wall time and shape.
fn serve_once(
    ctx: &mut Ctx,
    sim: &Simulation,
    listener: TcpListener,
    sz: &Sizes,
    traced: bool,
) -> Result<(NetReport, f64, RunShape), String> {
    let clients = ctx.nproc;
    let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
    let seed = ctx.cfg.seed;
    let tracer = ctx.tracer.as_ref().filter(|_| traced);
    let recorder = Recorder::default();
    let photons = sz.tasks * sz.photons_per_task;
    let options =
        ServeOptions::default().with_min_clients(clients).with_join_grace(Duration::from_secs(30));
    let (served, started, ended, joined) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.as_str();
                scope.spawn(move || {
                    let call = || run_client(addr, sim, seed).map_err(|e| e.to_string());
                    match tracer {
                        Some(t) => t.span("cluster.run_client", None, c as u64, |_| call()),
                        None => call(),
                    }
                })
            })
            .collect();
        let started = Instant::now();
        let call = || serve_with_options(listener, sim, photons, sz.tasks, options, &recorder);
        let served = match tracer {
            Some(t) => t.span("cluster.serve", None, 0, |_| call()),
            None => call(),
        };
        let ended = Instant::now();
        let joined: Vec<Result<u64, String>> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
            .collect();
        (served, started, ended, joined)
    });
    let report = served.map_err(|e| format!("serve: {e}"))?;
    let client_failures = joined.iter().filter(|r| r.is_err()).count() as u64;
    ctx.ledger.ops("cluster clients", clients as u64, client_failures);
    ctx.ledger.ops("cluster tasks (requeues count as failures)", sz.tasks, report.requeues);
    ctx.ledger.check(report.result.launched() == photons, "cluster run: launched != photons");
    ctx.ledger.check(
        report.clients_served == clients,
        format!("{} clients served, expected {clients}", report.clients_served),
    );
    let per_worker: Vec<u64> = report.worker_stats.iter().map(|w| w.tasks_completed).collect();
    let shape = recorder.shape(started, ended, clients, Some(&per_worker));
    Ok((report, (ended - started).as_secs_f64(), shape))
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let sz = sizes(ctx.cfg.smoke);
    let seed = ctx.cfg.seed;
    let started = Instant::now();
    let (first, setup_s) = ctx.timed_setup(setup)?;
    ctx.declare_load(ctx.nproc, ctx.nproc);
    let sim = first.sim.clone();
    let photons = (sz.tasks * sz.photons_per_task) as f64;

    // At least two runs; a traced invocation serves exactly two without
    // spans, a warm-up and then the reference the spanned run is compared
    // with.
    let min_runs = 2;
    let deadline = if ctx.cfg.trace { Instant::now() } else { started + ctx.budget() };
    let mut listener = Some(first.listener);
    let mut walls = Vec::new();
    let mut reference: Option<[u8; 32]> = None;
    let mut joins = Vec::new();
    let mut last: Option<(Tally, RunShape)> = None;
    while walls.len() < min_runs || Instant::now() < deadline {
        let l = match listener.take() {
            Some(l) => l,
            None => TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?,
        };
        let (report, wall, shape) = serve_once(ctx, &sim, l, &sz, false)?;
        let digest = tally_digest(&report.result.tally);
        let first = *reference.get_or_insert(digest);
        ctx.ledger.check(digest == first, "repeated cluster runs gave different tallies");
        walls.push(wall);
        joins.extend(shape.join_s);
        last = Some((report.result.tally, shape));
    }
    let (served_tally, shape) = last.expect("at least one served run");
    let wall = stats::median(&walls).expect("at least one run");
    if let Some(join) = stats::median(&joins) {
        ctx.detail("cluster.join_s", join);
    }
    ctx.detail("cluster.task_gap_ms.p50", shape.gap_p50_ms);
    ctx.detail("cluster.client_task_share_min", shape.worker_share_min);

    if !ctx.cfg.trace {
        let rates: Vec<f64> = walls.iter().map(|w| photons / w).collect();
        ctx.metrics.set("photons_per_s", stats::median(&rates).expect("rates"));
        ctx.metrics.set("requests_per_s", walls.len() as f64 / walls.iter().sum::<f64>());
        ctx.metrics.set("request_p50_ms", wall * 1e3);
        ctx.metrics.set("setup_s", setup_s);
        ctx.detail_spread("run_wall_s", &walls);
        return Ok(());
    }

    // Traced: the same served run under spans, against the warm untraced
    // one, then the backend replayed from outside through the wire codec
    // to split its cost by layer.
    let reference_wall = walls[walls.len() - 1];
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let (traced_report, traced_wall, _) = serve_once(ctx, &sim, listener, &sz, true)?;
    ctx.ledger.check(
        tally_digest(&traced_report.result.tally) == tally_digest(&served_tally),
        "spanned served run gave a different tally",
    );
    ctx.metrics.set("trace.overhead_ratio", traced_wall / reference_wall);
    ctx.detail("photons_per_s.untraced", photons / reference_wall);
    ctx.detail("photons_per_s.traced", photons / traced_wall);

    let scenario =
        Scenario::from_simulation(&sim, sz.tasks * sz.photons_per_task, seed).with_tasks(sz.tasks);
    let tracer = ctx.tracer.as_ref().expect("traced run has a tracer");
    let replayed = replay(tracer, &scenario, ctx.nproc, true)?;
    ctx.ledger.check(
        tally_digest(&replayed.tally) == tally_digest(&served_tally),
        "wire replay tally differs from the served tally",
    );
    ctx.detail("replay_photons_per_s", photons / replayed.wall_s);
    let inp = Inputs {
        seed,
        scenario: &scenario,
        layered: sim.tissue.as_layered().ok_or("white matter is a layered stack")?,
        task_tally: &replayed.first_task,
        main_run: shape,
        archive: None,
        nproc: ctx.nproc,
        smoke: ctx.cfg.smoke,
    };
    layers::probe(&inp, &mut ctx.metrics, &mut ctx.ledger)
}
