//! The lumen benchmark: four workloads, each run untraced for the
//! end-to-end metrics or traced for the per-layer ones. It drives the
//! system only through public functions of the layer crates and times
//! each call from outside. README.md gives each workload's rationale and
//! the layer → end-to-end table.

pub mod layers;
pub mod progress;
pub mod report;
pub mod stats;
pub mod trace;
mod workloads;

use lumen_cluster::wire;
use lumen_core::engine::Scenario;
use lumen_core::Tally;
use mcrng::StreamFactory;
use report::{Host, Ledger, Metrics};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups timed per run (smoke runs: 11); `setup_s` is their median.
const SETUP_REPS: usize = 201;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 4] = ["head_inverse", "voxel_fast", "cluster_grid", "lumend_mix"];

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Traced run: report the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Tiny sizes for the benchmark's own tests; thresholds scale down too.
    pub smoke: bool,
}

/// Everything a run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    pub ledger: Ledger,
    pub metrics: Metrics,
    /// Record-only figures (name, value): printed and written to the
    /// record, but not on the result line.
    pub details: Vec<(String, f64)>,
    pub tracer: Option<Tracer>,
    pub host: Host,
    /// Threads and connections of load the benchmark itself drove.
    pub load_threads: usize,
    pub load_connections: usize,
}

/// Shared state of a running workload.
pub(crate) struct Ctx {
    pub cfg: Config,
    pub nproc: usize,
    pub ledger: Ledger,
    pub metrics: Metrics,
    pub details: Vec<(String, f64)>,
    pub tracer: Option<Tracer>,
    pub load_threads: usize,
    pub load_connections: usize,
}

impl Ctx {
    pub fn detail(&mut self, name: impl Into<String>, value: f64) {
        self.details.push((name.into(), value));
    }

    /// Record the median, quartiles and count of repeated timings.
    pub fn detail_spread(&mut self, name: &str, samples: &[f64]) {
        if let Some(s) = stats::spread(samples) {
            self.detail(format!("{name}.q1"), s.q1);
            self.detail(format!("{name}.median"), s.median);
            self.detail(format!("{name}.q3"), s.q3);
            self.detail(format!("{name}.samples"), s.samples as f64);
        }
    }

    /// Declare the load this workload drives; it may not exceed `nproc`.
    pub fn declare_load(&mut self, threads: usize, connections: usize) {
        self.load_threads = self.load_threads.max(threads);
        self.load_connections = self.load_connections.max(connections);
        let nproc = self.nproc;
        self.ledger.check(
            threads <= nproc && connections <= nproc,
            format!("load of {threads} threads / {connections} connections exceeds nproc {nproc}"),
        );
    }

    /// Run `make` [`SETUP_REPS`] times. Keeps the last value and returns it
    /// with the median duration of one call in seconds; the record gets
    /// the quartiles.
    pub fn timed_setup<T>(
        &mut self,
        mut make: impl FnMut() -> Result<T, String>,
    ) -> Result<(T, f64), String> {
        let reps = if self.cfg.smoke { 11 } else { SETUP_REPS };
        let mut walls = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            // Drop the previous value first, so every set-up meets the
            // allocator in the same state. Keeping it alive makes the heap
            // alternate between two layouts, and the timings with it.
            drop(last.take());
            let started = Instant::now();
            let value = make()?;
            walls.push(started.elapsed().as_secs_f64());
            last = Some(value);
        }
        self.detail_spread("setup_wall_s", &walls);
        let value = last.expect("at least one setup repetition");
        Ok((value, stats::median(&walls).expect("at least one setup timing")))
    }

    /// The measured phase's length.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.cfg.seconds.max(0.0))
    }
}

/// Run one workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let host = Host::probe();
    let mut ctx = Ctx {
        cfg: cfg.clone(),
        nproc: host.nproc,
        ledger: Ledger::default(),
        metrics: Metrics::default(),
        details: Vec::new(),
        tracer: cfg.trace.then(Tracer::default),
        load_threads: 0,
        load_connections: 0,
    };
    match cfg.workload.as_str() {
        "head_inverse" => workloads::head_inverse::run(&mut ctx)?,
        "voxel_fast" => workloads::voxel_fast::run(&mut ctx)?,
        "cluster_grid" => workloads::cluster_grid::run(&mut ctx)?,
        "lumend_mix" => workloads::lumend_mix::run(&mut ctx)?,
        other => {
            return Err(format!("unknown workload `{other}` (known: {})", WORKLOADS.join(", ")))
        }
    }
    if !cfg.trace {
        ctx.metrics.set("peak_rss_mb", report::peak_rss_mb()?);
    }
    if let Some(tracer) = &ctx.tracer {
        let spans = tracer.spans().len() as f64;
        ctx.metrics.set("trace.spans", spans);
        let self_times: Vec<(String, f64)> = tracer
            .self_times()
            .into_iter()
            .flat_map(|(name, t)| {
                [
                    (format!("self_s.{name}"), t.self_s),
                    (format!("total_s.{name}"), t.total_s),
                    (format!("count.{name}"), t.count as f64),
                ]
            })
            .collect();
        ctx.details.extend(self_times);
    }
    Ok(Outcome {
        ledger: ctx.ledger,
        metrics: ctx.metrics,
        details: ctx.details,
        tracer: ctx.tracer,
        host,
        load_threads: ctx.load_threads,
        load_connections: ctx.load_connections,
    })
}

/// sha256 of a tally's wire encoding: the bytes every backend must agree on.
pub(crate) fn tally_digest(t: &Tally) -> [u8; 32] {
    lumen_service::sha256::digest(&wire::encode_tally(t))
}

/// A backend replayed from outside under spans.
pub(crate) struct Replay {
    pub tally: Tally,
    /// Task 0's tally as the worker produced it.
    pub first_task: Tally,
    pub wall_s: f64,
}

/// Replay a scenario's tasks as every backend runs them, with a span per
/// call: per task a `StreamFactory::stream` and a `run_stream` (on
/// `threads` threads, handed out on demand), then `Tally::merge` in task
/// order. With `wire`, each task tally also goes through
/// `wire::encode_tally` on its worker and `decode_tally` before the merge,
/// as in the cluster runtime.
pub(crate) fn replay(
    tracer: &Tracer,
    scenario: &Scenario,
    threads: usize,
    wire: bool,
) -> Result<Replay, String> {
    enum Payload {
        Tally(Box<Tally>),
        Bytes(Vec<u8>),
    }
    let sim = scenario.simulation();
    let factory = StreamFactory::new(scenario.seed);
    let sizes = scenario.batches();
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Payload>>> = Mutex::new((0..sizes.len()).map(|_| None).collect());
    let started = Instant::now();
    let (tally, first_task) = tracer.span("replay", None, 0, |root| {
        std::thread::scope(|scope| {
            for _ in 0..threads.max(1) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&batch) = sizes.get(i) else { break };
                    let req = i as u64;
                    let stream = scenario.task_offset + req;
                    let out = tracer.span("task", Some(root), req, |task| {
                        let mut rng = tracer
                            .span("mcrng.stream", Some(task), req, |_| factory.stream(stream));
                        let mut tally =
                            tracer.span("core.new_tally", Some(task), req, |_| sim.new_tally());
                        tracer.span("core.run_stream", Some(task), req, |_| {
                            sim.run_stream(batch, &mut rng, &mut tally, None)
                        });
                        if let Some(a) = tally.archive.as_mut() {
                            a.stamp_task(stream);
                        }
                        if wire {
                            Payload::Bytes(tracer.span(
                                "cluster.encode_tally",
                                Some(task),
                                req,
                                |_| wire::encode_tally(&tally),
                            ))
                        } else {
                            Payload::Tally(Box::new(tally))
                        }
                    });
                    slots.lock().expect("replay slots")[i] = Some(out);
                });
            }
        });
        let mut acc = sim.new_tally();
        let mut first = None;
        let slots = slots.into_inner().expect("replay slots");
        for (i, slot) in slots.into_iter().enumerate() {
            let req = i as u64;
            let t = match slot.ok_or_else(|| format!("replay task {i} produced nothing"))? {
                Payload::Tally(t) => *t,
                Payload::Bytes(b) => tracer
                    .span("cluster.decode_tally", Some(root), req, |_| wire::decode_tally(&b))
                    .map_err(|e| format!("replay task {i}: {e}"))?,
            };
            tracer.span("core.merge", Some(root), req, |_| acc.merge(&t));
            if first.is_none() {
                first = Some(t);
            }
        }
        Ok::<_, String>((acc, first.ok_or("scenario has no tasks")?))
    })?;
    Ok(Replay { tally, first_task, wall_s: started.elapsed().as_secs_f64() })
}
