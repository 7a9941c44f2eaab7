//! `lumend_mix`: an in-process `ServiceServer` on an ephemeral port,
//! queried in a closed loop by `nproc` `ServiceClient` connections. Each
//! client follows a seeded schedule of cold, warm (repeat) and top-up
//! (doubled budget) queries on small semi-infinite-phantom chunks, over a
//! key set no other client touches, so every reply's `Served` kind is
//! known before it is sent. The untraced run is a sequence of sessions,
//! each a fresh daemon and [`SESSION_QUERIES`] queries per client, so the
//! cache at its largest holds a number of keys the schedule sets, not one
//! that grows with the host's speed.

use crate::layers::{self, Inputs};
use crate::progress::Recorder;
use crate::trace::Tracer;
use crate::{stats, tally_digest, Ctx};
use lumen_cluster::wire;
use lumen_core::engine::{Backend, Rayon, Scenario};
use lumen_core::{Detector, Source};
use lumen_service::{
    proto, scenario_key, Served, ServiceClient, ServiceOptions, ServiceServer, SimulationService,
};
use lumen_tissue::presets::semi_infinite_phantom;
use mcrng::{McRng, SplitMix64, StreamFactory};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CHUNK_TASKS: u64 = 4;
/// Schedule mix: the share of cold and top-up queries; the rest are warm.
/// Equal thirds, as `lumen-load` sends one cold, one warm and one top-up
/// query per key.
const P_COLD: f64 = 1.0 / 3.0;
const P_TOPUP: f64 = 1.0 / 3.0;
/// Rates are medians over windows of this length.
const WINDOW: Duration = Duration::from_secs(1);
/// Queries per client in one session of the untraced run: about 160
/// cold keys in the cache at the session's end (a few seconds on two
/// cores). A run as long as the host allows would cache as many keys as it
/// had time for, and `peak_rss_mb` would step with the cache map's growth
/// (it doubles at about 900 keys).
const SESSION_QUERIES: u64 = 240;

fn chunk_photons(smoke: bool) -> u64 {
    if smoke {
        200
    } else {
        2_000
    }
}

fn options(nproc: usize, smoke: bool) -> ServiceOptions {
    ServiceOptions::default()
        .with_backend("sequential")
        .with_chunk_photons(chunk_photons(smoke))
        .with_chunk_tasks(CHUNK_TASKS)
        .with_workers(nproc)
}

/// The phantom every query asks about, `lumen-load`'s; keys differ by seed
/// only.
fn base_scenario() -> Scenario {
    Scenario::new(
        semi_infinite_phantom(0.1, 10.0, 0.0, 1.37),
        Source::Delta,
        Detector::new(1.0, 0.5),
    )
}

struct Daemon {
    service: Arc<SimulationService>,
    // Field order matters: clients hang up before the server (held only to
    // keep it running) shuts down.
    clients: Vec<ServiceClient>,
    _server: ServiceServer,
}

fn setup(nproc: usize, smoke: bool) -> Result<Daemon, String> {
    let service =
        Arc::new(SimulationService::new(options(nproc, smoke)).map_err(|e| e.to_string())?);
    let server =
        ServiceServer::bind("127.0.0.1:0", Arc::clone(&service)).map_err(|e| e.to_string())?;
    let clients = (0..nproc)
        .map(|_| ServiceClient::connect(server.local_addr()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Daemon { service, clients, _server: server })
}

/// One scheduled query: what to ask and what must come back.
struct Op {
    kind: Served,
    key: usize,
    scenario: Scenario,
    /// Photons the reply must cover.
    photons_done: u64,
}

struct Key {
    seed: u64,
    chunks: u64,
    digest: Option<[u8; 32]>,
}

/// A client's seeded schedule over its own keys.
struct Schedule {
    rng: SplitMix64,
    keys: Vec<Key>,
    /// Keys cached at one chunk: the top-up candidates.
    single: Vec<usize>,
    seed_base: u64,
    client: u64,
    clients: u64,
    chunk: u64,
}

impl Schedule {
    /// Client `client`'s schedule in mix number `epoch`; each epoch starts
    /// on fresh keys.
    fn new(seed: u64, epoch: u64, client: usize, clients: usize, chunk: u64) -> Self {
        let seed = seed ^ (epoch << 48);
        Self {
            rng: SplitMix64::new(seed ^ (0xC11E_0000 + client as u64)),
            keys: Vec::new(),
            single: Vec::new(),
            seed_base: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            client: client as u64,
            clients: clients as u64,
            chunk,
        }
    }

    fn next(&mut self) -> Op {
        let u = self.rng.next_f64();
        let base = base_scenario();
        if self.keys.is_empty() || u < P_COLD {
            // Scenario seeds `seed_base ^ (k·clients + client)` are distinct
            // across keys and disjoint across clients.
            let k = self.keys.len() as u64;
            let seed = self.seed_base ^ (k * self.clients + self.client);
            self.keys.push(Key { seed, chunks: 1, digest: None });
            self.single.push(self.keys.len() - 1);
            let scenario = base.with_seed(seed).with_photons(self.chunk);
            return Op {
                kind: Served::Cold,
                key: self.keys.len() - 1,
                scenario,
                photons_done: self.chunk,
            };
        }
        if u < P_COLD + P_TOPUP && !self.single.is_empty() {
            let pick = (self.rng.next() % self.single.len() as u64) as usize;
            let key = self.single.swap_remove(pick);
            self.keys[key].chunks = 2;
            let scenario = base.with_seed(self.keys[key].seed).with_photons(2 * self.chunk);
            return Op { kind: Served::TopUp, key, scenario, photons_done: 2 * self.chunk };
        }
        let key = (self.rng.next() % self.keys.len() as u64) as usize;
        let chunks = self.keys[key].chunks;
        let budget = self.chunk * (1 + self.rng.next() % chunks);
        let scenario = base.with_seed(self.keys[key].seed).with_photons(budget);
        Op { kind: Served::Warm, key, scenario, photons_done: chunks * self.chunk }
    }
}

/// One answered query.
struct Answer {
    kind: Served,
    /// When the reply arrived.
    at: Instant,
    latency_s: f64,
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    /// Queries sent.
    issued: u64,
    answers: Vec<Answer>,
    /// Errors plus replies that differ from the schedule.
    failed: u64,
    /// The first top-up: its scenario and reply tally bytes.
    topup: Option<(Scenario, Vec<u8>)>,
}

/// Drive one client's schedule until `deadline` or `quota` queries (at
/// least one query).
fn drive(
    client: &mut ServiceClient,
    schedule: &mut Schedule,
    log: &mut ClientLog,
    deadline: Instant,
    quota: u64,
    tracer: Option<&Tracer>,
) {
    let mut first = true;
    while first || (log.issued < quota && Instant::now() < deadline) {
        first = false;
        let request = (schedule.client << 32) | log.issued;
        log.issued += 1;
        let op = schedule.next();
        let started = Instant::now();
        let reply = match tracer {
            Some(t) => t.span_labelled("service.client_query", None, request, |_| {
                (client.query(&op.scenario), Some(op.kind.as_str()))
            }),
            None => client.query(&op.scenario),
        };
        let at = Instant::now();
        let latency_s = (at - started).as_secs_f64();
        let Ok(reply) = reply else {
            log.failed += 1;
            continue;
        };
        let digest = tally_digest(&reply.tally);
        let key = &mut schedule.keys[op.key];
        let same_tally = match op.kind {
            Served::Warm => key.digest == Some(digest),
            Served::Cold | Served::TopUp => {
                key.digest = Some(digest);
                true
            }
        };
        if op.kind == Served::TopUp && log.topup.is_none() {
            log.topup = Some((op.scenario.clone(), wire::encode_tally(&reply.tally)));
        }
        if reply.served != op.kind || reply.photons_done != op.photons_done || !same_tally {
            log.failed += 1;
        }
        log.answers.push(Answer { kind: op.kind, at, latency_s });
    }
}

/// Run every client's schedule concurrently until `deadline` or `quota`
/// queries per client; returns the logs and when the mix started.
fn mix(
    ctx: &Ctx,
    daemon: &mut Daemon,
    epoch: u64,
    deadline: Instant,
    quota: u64,
    traced: bool,
) -> (Vec<ClientLog>, Instant) {
    let n = daemon.clients.len();
    let chunk = chunk_photons(ctx.cfg.smoke);
    let tracer = ctx.tracer.as_ref().filter(|_| traced);
    let mut logs: Vec<ClientLog> = (0..n).map(|_| ClientLog::default()).collect();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for ((c, client), log) in daemon.clients.iter_mut().enumerate().zip(&mut logs) {
            scope.spawn(move || {
                let mut schedule = Schedule::new(ctx.cfg.seed, epoch, c, n, chunk);
                drive(client, &mut schedule, log, deadline, quota, tracer);
            });
        }
    });
    (logs, started)
}

/// Per [`WINDOW`] that lies wholly inside the mix (a smoke run's mix is
/// one window): (seconds from the first to the last reply, replies after
/// the first), and (cold and top-up latency, photons traced). Their
/// median rates are queries answered per second and photons traced per
/// second of latency (the tracing rate a client sees); a stall that hits
/// a few windows does not move them.
type Windows = (Vec<(f64, f64)>, Vec<(f64, f64)>);

fn windows(logs: &[ClientLog], started: Instant, chunk: u64) -> Windows {
    let answers: Vec<&Answer> = logs.iter().flat_map(|l| &l.answers).collect();
    let end = answers.iter().map(|a| a.at).max().unwrap_or(started);
    let windows = ((end - started).as_secs_f64() / WINDOW.as_secs_f64()) as usize;
    // Per window: (first reply, last reply, replies) and (tracing latency,
    // photons traced), times in seconds since the mix started.
    let mut replies = vec![(f64::INFINITY, 0.0f64, 0.0); windows.max(1)];
    let mut tracing = vec![(0.0, 0.0); windows.max(1)];
    for a in answers {
        let t = (a.at - started).as_secs_f64();
        let w = (t / WINDOW.as_secs_f64()) as usize;
        let w = if windows == 0 {
            0
        } else if w < windows {
            w
        } else {
            continue;
        };
        let r = &mut replies[w];
        (r.0, r.1, r.2) = (r.0.min(t), r.1.max(t), r.2 + 1.0);
        if a.kind != Served::Warm {
            tracing[w].0 += a.latency_s;
            tracing[w].1 += chunk as f64;
        }
    }
    let gaps: Vec<(f64, f64)> = replies.iter().map(|r| (r.1 - r.0, r.2 - 1.0)).collect();
    (gaps, tracing)
}

/// Queries per second over the whole mix.
fn total_rate(logs: &[&ClientLog], started: Instant) -> f64 {
    let answers = || logs.iter().flat_map(|l| &l.answers);
    let end = answers().map(|a| a.at).max().unwrap_or(started);
    answers().count() as f64 / (end - started).as_secs_f64()
}

/// Check the mix against its daemon's own counters and account for it.
fn audit(ctx: &mut Ctx, daemon: &Daemon, logs: &[&ClientLog]) {
    let count = |k: Served| logs.iter().flat_map(|l| &l.answers).filter(|a| a.kind == k).count();
    let (cold, warm, topup) = (count(Served::Cold), count(Served::Warm), count(Served::TopUp));
    let answered = (cold + warm + topup) as u64;
    let issued: u64 = logs.iter().map(|l| l.issued).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    ctx.ledger.ops(
        "service queries (an error, or a kind, budget or tally off the schedule)",
        issued,
        failed,
    );
    let s = daemon.service.stats();
    ctx.ledger.check(
        (s.queries, s.cold, s.warm, s.topup) == (answered, cold as u64, warm as u64, topup as u64),
        format!(
            "ServiceStats {}/{}/{}/{} queries/cold/warm/topup, schedule {answered}/{cold}/{warm}/{topup}",
            s.queries, s.cold, s.warm, s.topup
        ),
    );
    ctx.ledger.check(s.cold + s.warm + s.topup == s.queries, "cold + warm + top-up != queries");
    ctx.ledger.check(s.evictions == 0, format!("{} cache evictions", s.evictions));
    ctx.ledger.check(s.cancelled == 0, format!("{} cancelled queries", s.cancelled));
    ctx.ledger.check(
        s.chunks_traced == (cold + topup) as u64,
        format!("{} chunks traced, schedule needs {}", s.chunks_traced, cold + topup),
    );
}

/// A top-up reply is byte-identical to a cold query at the doubled budget;
/// checked on the first top-up in `logs`.
fn check_topup(ctx: &mut Ctx, logs: &[&ClientLog]) -> Result<(), String> {
    let Some((scenario, bytes)) = logs.iter().find_map(|l| l.topup.as_ref()) else {
        ctx.ledger.check(ctx.cfg.smoke, "the mix made no top-up query");
        return Ok(());
    };
    let fresh =
        SimulationService::new(options(ctx.nproc, ctx.cfg.smoke)).map_err(|e| e.to_string())?;
    let cold = fresh.query(scenario).map_err(|e| e.to_string())?;
    ctx.ledger.check(
        cold.served == Served::Cold && wire::encode_tally(&cold.tally) == *bytes,
        "top-up reply differs from a cold query at the doubled budget",
    );
    Ok(())
}

fn latencies(logs: &[&ClientLog], kind: Option<Served>) -> Vec<f64> {
    logs.iter()
        .flat_map(|l| &l.answers)
        .filter(|a| kind.is_none_or(|k| a.kind == k))
        .map(|a| a.latency_s)
        .collect()
}

/// Replay a prefix of client 0's schedule against an in-process service,
/// with `scenario_key` and `encode_reply` child spans per request.
fn replay_inproc(ctx: &mut Ctx, ops: usize) -> Result<(), String> {
    let service =
        SimulationService::new(options(ctx.nproc, ctx.cfg.smoke)).map_err(|e| e.to_string())?;
    let tracer = ctx.tracer.as_ref().expect("traced run has a tracer");
    let mut schedule = Schedule::new(ctx.cfg.seed, 0, 0, ctx.nproc, chunk_photons(ctx.cfg.smoke));
    let mut failed = 0u64;
    for i in 0..ops as u64 {
        let op = schedule.next();
        let ok = tracer.span_labelled("service.request", None, i, |id| {
            tracer.span("service.scenario_key", Some(id), i, |_| scenario_key(&op.scenario));
            let reply = tracer.span("service.query", Some(id), i, |_| service.query(&op.scenario));
            let ok = match &reply {
                Ok(r) => {
                    tracer.span("service.encode_reply", Some(id), i, |_| proto::encode_reply(r));
                    r.served == op.kind
                }
                Err(_) => false,
            };
            (ok, Some(op.kind.as_str()))
        });
        failed += u64::from(!ok);
    }
    ctx.ledger.ops("in-process replay queries", ops as u64, failed);
    Ok(())
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let (nproc, smoke, seed) = (ctx.nproc, ctx.cfg.smoke, ctx.cfg.seed);
    let started = Instant::now();
    let (mut daemon, setup_s) = ctx.timed_setup(|| setup(nproc, smoke))?;
    ctx.declare_load(nproc, nproc);

    if !ctx.cfg.trace {
        let deadline = started + ctx.budget();
        let mut next = Some(daemon);
        let mut all: Vec<ClientLog> = Vec::new();
        let (mut gaps, mut tracing) = (Vec::new(), Vec::new());
        let (mut sessions, mut cached_bytes) = (0u64, 0u64);
        while sessions == 0 || Instant::now() < deadline {
            let mut daemon = match next.take() {
                Some(d) => d,
                None => setup(nproc, smoke)?,
            };
            let (logs, mix_started) =
                mix(ctx, &mut daemon, sessions, deadline, SESSION_QUERIES, false);
            audit(ctx, &daemon, &logs.iter().collect::<Vec<_>>());
            let (g, t) = windows(&logs, mix_started, chunk_photons(smoke));
            gaps.extend(g);
            tracing.extend(t);
            cached_bytes = cached_bytes.max(daemon.service.stats().cached_bytes);
            all.extend(logs);
            sessions += 1;
        }
        let logs: Vec<&ClientLog> = all.iter().collect();
        check_topup(ctx, &logs)?;
        let rate = |v: &[(f64, f64)]| stats::median_rate(v).unwrap_or(0.0);
        ctx.metrics.set("photons_per_s", rate(&tracing));
        ctx.metrics.set("requests_per_s", rate(&gaps));
        ctx.detail("sessions", sessions as f64);
        // The gated latency is the warm one, whatever the mix: the request
        // a cache exists to answer fast. Cold and top-up latency per
        // photon is `photons_per_s`.
        let warm = latencies(&logs, Some(Served::Warm));
        ctx.metrics.set("request_p50_ms", stats::median(&warm).unwrap_or(0.0) * 1e3);
        let all = latencies(&logs, None);
        ctx.detail("all_p50_ms", stats::median(&all).unwrap_or(0.0) * 1e3);
        ctx.metrics.set("setup_s", setup_s);
        for kind in [Served::Cold, Served::Warm, Served::TopUp] {
            let l = latencies(&logs, Some(kind));
            ctx.detail(format!("{}_queries", kind.as_str()), l.len() as f64);
            if let Some(p50) = stats::percentile(&l, 50.0) {
                ctx.detail(format!("{}_p50_ms", kind.as_str()), p50.value * 1e3);
            }
            if let Some(tail) = stats::highest_supported(&l).filter(|p| p.p > 50.0) {
                ctx.detail(format!("{}_p{}_ms", kind.as_str(), tail.p), tail.value * 1e3);
            }
        }
        ctx.detail("cached_bytes.max", cached_bytes as f64);
        return Ok(());
    }

    // Traced: an untraced and a traced mix of equal length, then an
    // in-process replay, then the per-layer probe.
    let phase = Duration::from_secs_f64((ctx.cfg.seconds / 3.0).max(0.2));
    let (plain, plain_started) = mix(ctx, &mut daemon, 0, Instant::now() + phase, u64::MAX, false);
    let (traced, traced_started) = mix(ctx, &mut daemon, 1, Instant::now() + phase, u64::MAX, true);
    let (plain, traced): (Vec<&ClientLog>, Vec<&ClientLog>) =
        (plain.iter().collect(), traced.iter().collect());
    let both = [plain.as_slice(), traced.as_slice()].concat();
    audit(ctx, &daemon, &both);
    check_topup(ctx, &both)?;
    let (plain_qps, traced_qps) =
        (total_rate(&plain, plain_started), total_rate(&traced, traced_started));
    ctx.metrics.set("trace.overhead_ratio", plain_qps / traced_qps);
    ctx.detail("requests_per_s.untraced", plain_qps);
    ctx.detail("requests_per_s.traced", traced_qps);
    let cached_bytes = daemon.service.stats().cached_bytes as f64;
    drop(daemon);
    replay_inproc(ctx, if smoke { 50 } else { 300 })?;

    let chunk = chunk_photons(smoke);
    let scenario = base_scenario().with_seed(seed).with_photons(chunk).with_tasks(CHUNK_TASKS);
    let wide = scenario.clone().with_photons(16 * chunk).with_tasks(16 * CHUNK_TASKS);
    // The service's own backend calls expose no task completions, so the
    // run shape comes from a `Rayon` run of 16 chunks' worth.
    let recorder = Recorder::default();
    let t0 = Instant::now();
    Rayon::with_threads(nproc).run_with_progress(&wide, &recorder).map_err(|e| e.to_string())?;
    let shape = recorder.shape(t0, Instant::now(), nproc, None);
    let sim = scenario.simulation();
    let mut task_tally = sim.new_tally();
    let task = scenario.batches()[0];
    sim.run_stream(task, &mut StreamFactory::new(seed).stream(0), &mut task_tally, None);
    let inp = Inputs {
        seed,
        scenario: &scenario,
        layered: scenario.tissue.as_layered().ok_or("the phantom is a layered stack")?,
        task_tally: &task_tally,
        main_run: shape,
        archive: None,
        nproc,
        smoke,
    };
    layers::probe(&inp, &mut ctx.metrics, &mut ctx.ledger)?;
    // On this workload the cache that matters is the mix's.
    ctx.metrics.set("service.cached_bytes", cached_bytes);
    Ok(())
}
