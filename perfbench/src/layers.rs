//! The per-layer probe: timed calls to each layer's public functions on a
//! workload's own inputs. Every traced run calls [`probe`], so every
//! workload reports the same per-layer metric names.

use crate::progress::RunShape;
use crate::report::{Ledger, Metrics};
use crate::stats;
use lumen_cluster::wire;
use lumen_core::engine::{Backend, Rayon, Scenario, Sequential};
use lumen_core::{OpticalProperties, PathArchive, Precision, RecordOptions, Tally};
use lumen_net::frame::{encode_frame, FrameDecoder};
use lumen_net::{EventLoop, Flow, Handler, Ops, Token};
use lumen_photon::approx::{fast_exp, fast_ln, sincos_unit};
use lumen_photon::{fresnel_reflectance, spin, Photon, Vec3};
use lumen_service::SimulationService;
use lumen_service::{proto, scenario_key, Served, ServiceClient, ServiceOptions, ServiceServer};
use lumen_tissue::presets::voxelized;
use lumen_tissue::{Geometry, LayeredTissue, TissueGeometry, VoxelTissue};
use mcrng::distributions::uniform_sphere;
use mcrng::{McRng, SplitMix64, StreamFactory};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the probe measures on.
pub struct Inputs<'a> {
    pub seed: u64,
    /// The workload's scenario, at the tier the workload runs it.
    pub scenario: &'a Scenario,
    /// The layered stack of the workload (for a voxel workload, the stack
    /// it was voxelized from).
    pub layered: &'a LayeredTissue,
    /// One task's tally as the workload's workers produce it.
    pub task_tally: &'a Tally,
    /// The workload's main backend call.
    pub main_run: RunShape,
    /// The workload's own path archive, if it records one.
    pub archive: Option<&'a PathArchive>,
    pub nproc: usize,
    pub smoke: bool,
}

/// Sampling effort: the floor on each measurement's wall time.
struct Effort {
    micro: Duration,
    kernel: Duration,
    parallel: Duration,
    roundtrips: usize,
}

impl Effort {
    fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                micro: Duration::from_millis(2),
                kernel: Duration::from_millis(5),
                parallel: Duration::from_millis(10),
                roundtrips: 20,
            }
        } else {
            Self {
                micro: Duration::from_millis(40),
                kernel: Duration::from_millis(300),
                parallel: Duration::from_millis(600),
                roundtrips: 400,
            }
        }
    }
}

/// Median seconds of one `f()` call, sampled at least `min_samples` times
/// and for at least `floor`.
fn median_call_s(floor: Duration, min_samples: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_samples || started.elapsed() < floor {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    stats::median(&samples).expect("at least one sample")
}

/// Median nanoseconds per call of `f(i)` over batches of `inputs` calls.
fn ns_per_call(floor: Duration, inputs: usize, mut f: impl FnMut(usize)) -> f64 {
    median_call_s(floor, 5, || {
        for i in 0..inputs {
            f(i)
        }
    }) * 1e9
        / inputs as f64
}

/// Uniform draws in the open interval (0, 1).
fn uniforms(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.next_f64_open()).collect()
}

/// Random points and directions inside `geom`, each with its region.
fn boundary_queries(
    rng: &mut SplitMix64,
    n: usize,
    half_width: f64,
    depth: f64,
    region_of: impl Fn(Vec3, Vec3) -> Option<usize>,
) -> Vec<(Vec3, Vec3, usize)> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let pos = Vec3::new(
            (2.0 * rng.next_f64() - 1.0) * half_width,
            (2.0 * rng.next_f64() - 1.0) * half_width,
            rng.next_f64_open() * depth,
        );
        let (x, y, z) = uniform_sphere(rng);
        let dir = Vec3::new(x, y, z);
        if let Some(region) = region_of(pos, dir) {
            out.push((pos, dir, region));
        }
    }
    out
}

/// Mean boundary-query cost in ns.
fn boundary_ns<G: TissueGeometry>(floor: Duration, geom: &G, q: &[(Vec3, Vec3, usize)]) -> f64 {
    ns_per_call(floor, q.len(), |i| {
        let (pos, dir, region) = q[i];
        black_box(geom.boundary_hit(black_box(pos), dir, region));
    })
}

/// ns per photon of `sim` over whole tasks of `task` photons on one
/// thread, run back to back from consecutive streams for at least `floor`.
fn ns_per_photon(scenario: &Scenario, task: u64, floor: Duration) -> f64 {
    let sim = scenario.simulation();
    let factory = StreamFactory::new(scenario.seed);
    let started = Instant::now();
    let mut photons = 0u64;
    let mut stream = 0;
    while photons == 0 || started.elapsed() < floor {
        let mut rng = factory.stream(stream);
        let mut tally = sim.new_tally();
        sim.run_stream(task, &mut rng, &mut tally, None);
        black_box(&tally);
        photons += task;
        stream += 1;
    }
    started.elapsed().as_secs_f64() * 1e9 / photons as f64
}

/// Measure every per-layer metric on `inp`.
pub fn probe(inp: &Inputs, m: &mut Metrics, ledger: &mut Ledger) -> Result<(), String> {
    let effort = Effort::new(inp.smoke);
    let mut rng = SplitMix64::new(inp.seed ^ 0x5EED_1A7E_u64);
    let geometry = &inp.scenario.tissue;
    let entry = geometry.entry_region(Vec3::ZERO).unwrap_or(0);
    let optics = *geometry.optics(entry);

    // mcrng
    let mut stream = StreamFactory::new(inp.seed).stream(0);
    m.set(
        "mcrng.next_f64_ns",
        ns_per_call(effort.micro, 4096, |_| {
            black_box(stream.next_f64());
        }),
    );

    // photon
    let mut photon = Photon::launch(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0), entry);
    m.set(
        "photon.spin_ns",
        ns_per_call(effort.micro, 4096, |_| spin(&mut photon, optics.g, &mut stream)),
    );
    black_box(photon);
    let u = uniforms(&mut rng, 4096);
    let n_out = geometry.ambient_n();
    m.set(
        "photon.fresnel_ns",
        ns_per_call(effort.micro, u.len(), |i| {
            black_box(fresnel_reflectance(optics.n, n_out, black_box(u[i])));
        }),
    );
    // One closure per function so each call inlines as it does in the kernels.
    macro_rules! per_input {
        ($name:literal, |$x:ident| $body:expr) => {
            m.set(
                $name,
                ns_per_call(effort.micro, u.len(), |i| {
                    let $x = black_box(u[i]);
                    black_box($body);
                }),
            )
        };
    }
    per_input!("photon.libm_ln_ns", |x| x.ln());
    per_input!("photon.libm_sincos_ns", |x| (std::f64::consts::TAU * x).sin_cos());
    per_input!("photon.libm_exp_ns", |x| (-8.0 * x).exp());
    per_input!("photon.fast_ln_ns", |x| fast_ln(x));
    per_input!("photon.sincos_unit_ns", |x| sincos_unit(x));
    per_input!("photon.fast_exp_ns", |x| fast_exp(-8.0 * x));

    // tissue
    let depth = inp.layered.total_depth().min(25.0);
    let q = boundary_queries(&mut rng, 4096, 8.0, depth, |p, _| inp.layered.layer_at(p.z));
    m.set("tissue.layered_boundary_hit_ns", boundary_ns(effort.micro, inp.layered, &q));
    let voxels: VoxelTissue = match geometry {
        Geometry::Voxel(v) => v.clone(),
        Geometry::Layered(l) => voxelized(l, 1.0, 8.0, depth).map_err(|e| e.to_string())?,
    };
    let (lo, hi) = voxels.bounds();
    let q = boundary_queries(&mut rng, 4096, hi.x.min(-lo.x), hi.z, |p, d| {
        voxels.voxel_of(p, d).map(|(x, y, z)| usize::from(voxels.material_at(x, y, z)))
    });
    m.set("tissue.voxel_boundary_hit_ns", boundary_ns(effort.micro, &voxels, &q));

    // core: kernels
    let task = inp.scenario.batches().first().copied().unwrap_or(1).max(1);
    let mut exact = inp.scenario.clone();
    exact.options.precision = Precision::Exact;
    let mut fast = inp.scenario.clone();
    fast.options.precision = Precision::Fast;
    fast.options.path_grid = None;
    fast.options.record_paths = 0;
    fast.options.archive = None;
    let exact_ns = ns_per_photon(&exact, task, effort.kernel);
    let fast_task_ns = ns_per_photon(&fast, task, effort.kernel);
    let fast_long_ns = ns_per_photon(&fast, 16 * task, effort.kernel);
    m.set("core.exact_ns_per_photon", exact_ns);
    m.set("core.fast_ns_per_photon.task", fast_task_ns);
    m.set("core.fast_ns_per_photon.long", fast_long_ns);
    m.set("core.fast_tail_ratio", fast_task_ns / fast_long_ns);
    m.set("core.fast_vs_exact", exact_ns / fast_task_ns);

    // core: merge and the main run's shape
    let mut acc = inp.task_tally.clone();
    let merge_s = median_call_s(effort.micro, 20, || acc.merge(black_box(inp.task_tally)));
    m.set("core.tally_merge_us", merge_s * 1e6);
    let shape = inp.main_run;
    m.set("core.fold_s", shape.fold_s);
    m.set("core.tail_idle_s", shape.tail_idle_s);
    m.set("core.task_gap_ms.p50", shape.gap_p50_ms);
    m.set("core.worker_task_share_min", shape.worker_share_min);

    // core: Sequential against Rayon on a budget sized for `effort.parallel`
    let own_ns = match inp.scenario.options.precision {
        Precision::Exact => exact_ns,
        Precision::Fast => fast_task_ns,
    };
    let tasks = inp.scenario.tasks;
    let photons = ((effort.parallel.as_secs_f64() * 1e9 / own_ns) as u64)
        .clamp(tasks * 4, inp.scenario.photons.max(tasks * 4));
    let reduced = inp.scenario.clone().with_photons(photons);
    let started = Instant::now();
    let seq = Sequential.run(&reduced).map_err(|e| e.to_string())?;
    let seq_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let par = Rayon::with_threads(inp.nproc).run(&reduced).map_err(|e| e.to_string())?;
    let par_s = started.elapsed().as_secs_f64();
    ledger.check(seq.result.tally == par.result.tally, "Sequential and Rayon tallies differ");
    m.set("core.parallel_efficiency", seq_s / par_s / inp.nproc as f64);

    // core: archive evaluation
    let recorded;
    let archive = match inp.archive {
        Some(a) => a,
        None => {
            recorded = record_archive(&exact, task, effort.kernel)?;
            &recorded
        }
    };
    ledger.check(!archive.is_empty(), "the probe archive recorded no entries");
    let query: Vec<OpticalProperties> = archive
        .base
        .iter()
        .map(|o| OpticalProperties::new(o.mu_a * 1.1, o.mu_s * 0.95, o.g, o.n))
        .collect();
    let (mut calls, mut failed) = (0, 0);
    let eval_s = median_call_s(effort.micro, 5, || {
        calls += 1;
        failed += u64::from(black_box(archive.evaluate(&query)).is_err());
    });
    ledger.ops("archive evaluations", calls, failed);
    m.set("core.archive_entries", archive.len() as f64);
    m.set("core.archive_evaluate_us", eval_s * 1e6);
    m.set("core.archive_evals_per_s", archive.len() as f64 / eval_s);

    // cluster: the wire
    let bytes = wire::encode_tally(inp.task_tally);
    let enc_s = median_call_s(effort.micro, 5, || {
        black_box(wire::encode_tally(black_box(inp.task_tally)));
    });
    let mut decoded = None;
    let dec_s = median_call_s(effort.micro, 5, || decoded = Some(wire::decode_tally(&bytes)));
    let round_trips = matches!(&decoded, Some(Ok(t)) if t == inp.task_tally);
    ledger.check(round_trips, "wire::decode_tally did not reproduce the task tally");
    m.set("cluster.wire_tally_bytes", bytes.len() as f64);
    m.set("cluster.wire_encode_tally_mb_s", bytes.len() as f64 / enc_s / 1e6);
    m.set("cluster.wire_decode_tally_mb_s", bytes.len() as f64 / dec_s / 1e6);
    let scen_s = median_call_s(effort.micro, 5, || {
        black_box(wire::encode_scenario(black_box(inp.scenario)));
    });
    m.set("cluster.wire_encode_scenario_us", scen_s * 1e6);

    // net
    net_layer(&mut rng, &effort, m, ledger)?;

    // service
    service_layer(inp, &effort, m, ledger)
}

/// Record a full (not detected-only) archive from `scenario` on one
/// thread, task by task, for at least `floor`.
fn record_archive(scenario: &Scenario, task: u64, floor: Duration) -> Result<PathArchive, String> {
    let mut s = scenario.clone();
    s.options.archive = Some(RecordOptions { detected_only: false });
    let sim = s.simulation();
    let factory = StreamFactory::new(s.seed);
    let mut acc = sim.new_tally();
    let started = Instant::now();
    let mut i = 0;
    while i == 0 || started.elapsed() < floor {
        let mut tally = sim.new_tally();
        sim.run_stream(task, &mut factory.stream(i), &mut tally, None);
        if let Some(a) = tally.archive.as_mut() {
            a.stamp_task(i);
        }
        acc.merge(&tally);
        i += 1;
    }
    acc.archive.ok_or_else(|| "archive recording returned no archive".into())
}

/// Echoes every frame back; stops once its connections are gone.
struct Echo {
    served: usize,
    deadline: Instant,
}

impl Handler for Echo {
    fn on_open(&mut self, _ops: &mut Ops<'_>, _token: Token) {
        self.served += 1;
    }

    fn on_frame(&mut self, ops: &mut Ops<'_>, token: Token, kind: u8, payload: Vec<u8>) {
        ops.send(token, kind, &payload);
    }

    fn on_close(&mut self, _ops: &mut Ops<'_>, _token: Token) {}

    fn on_tick(&mut self, ops: &mut Ops<'_>, now: Instant) -> Flow {
        if (self.served > 0 && ops.is_empty()) || now > self.deadline {
            Flow::Stop
        } else {
            Flow::Continue
        }
    }
}

/// One blocking request/reply through the echo loop.
fn echo_roundtrip(
    stream: &mut TcpStream,
    frame: &[u8],
    dec: &mut FrameDecoder,
) -> Result<usize, String> {
    stream.write_all(frame).map_err(|e| e.to_string())?;
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        if let Some((_, payload)) = dec.next_frame().map_err(|e| e.to_string())? {
            return Ok(payload.len());
        }
        let n = stream.read(&mut buf).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("echo loop closed mid-frame".into());
        }
        dec.extend(&buf[..n]);
    }
}

fn net_layer(
    rng: &mut SplitMix64,
    effort: &Effort,
    m: &mut Metrics,
    ledger: &mut Ledger,
) -> Result<(), String> {
    const MB: usize = 1 << 20;
    let payload: Vec<u8> = (0..MB).map(|_| rng.next() as u8).collect();
    let frame = encode_frame(0x42, &payload).map_err(|e| e.to_string())?;
    let enc_s = median_call_s(effort.micro, 5, || {
        black_box(encode_frame(0x42, black_box(&payload)).ok());
    });
    let mut ok = true;
    let dec_s = median_call_s(effort.micro, 5, || {
        let mut dec = FrameDecoder::new();
        dec.extend(&frame);
        ok &= matches!(dec.next_frame(), Ok(Some((0x42, p))) if p.len() == MB);
    });
    ledger.check(ok, "FrameDecoder did not return the 1 MiB frame");
    m.set("net.frame_encode_gb_s", frame.len() as f64 / enc_s / 1e9);
    m.set("net.frame_decode_gb_s", frame.len() as f64 / dec_s / 1e9);

    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let mut events = EventLoop::new(listener).map_err(|e| e.to_string())?;
    let server = std::thread::spawn(move || {
        let mut echo = Echo { served: 0, deadline: Instant::now() + Duration::from_secs(120) };
        events.run(&mut echo)
    });
    let measured = (|| {
        let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut dec = FrameDecoder::new();
        let small = encode_frame(0x42, &payload[..64]).map_err(|e| e.to_string())?;
        let mut result = Vec::new();
        for (frame, n) in [(&small, effort.roundtrips), (&frame, effort.roundtrips / 20)] {
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n.max(3) {
                let t = Instant::now();
                let got = echo_roundtrip(&mut stream, frame, &mut dec)?;
                samples.push(t.elapsed().as_secs_f64() * 1e6);
                if got + 5 != frame.len() {
                    return Err(format!("echo returned {got} payload bytes"));
                }
            }
            result.push(stats::median(&samples).expect("round-trip samples"));
        }
        Ok::<_, String>(result)
    })();
    let served = server.join().map_err(|_| "echo loop panicked".to_string())?;
    served.map_err(|e| e.to_string())?;
    let rt = measured?;
    m.set("net.roundtrip_us.small", rt[0]);
    m.set("net.roundtrip_us.mb", rt[1]);
    Ok(())
}

fn service_layer(
    inp: &Inputs,
    effort: &Effort,
    m: &mut Metrics,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let task = inp.scenario.batches().first().copied().unwrap_or(1).max(1);
    let options = ServiceOptions::default()
        .with_backend("sequential")
        .with_chunk_photons(task)
        .with_chunk_tasks(1)
        .with_workers(1);
    let service = Arc::new(SimulationService::new(options).map_err(|e| e.to_string())?);
    let request = inp.scenario.clone().with_photons(task);
    let key_s = median_call_s(effort.micro, 5, || {
        black_box(scenario_key(black_box(&request)));
    });
    m.set("service.scenario_key_us", key_s * 1e6);

    let started = Instant::now();
    let cold = service.query(&request).map_err(|e| e.to_string())?;
    m.set("service.inproc_cold_ms", started.elapsed().as_secs_f64() * 1e3);
    ledger.check(cold.served == Served::Cold, "probe cold query was not served cold");

    let mut warm_ok = true;
    let warm_s = median_call_s(effort.micro, 20, || {
        warm_ok &= matches!(service.query(&request), Ok(r) if r.served == Served::Warm);
    });
    ledger.check(warm_ok, "probe warm query was not served warm");
    m.set("service.inproc_warm_us", warm_s * 1e6);

    let encoded = proto::encode_reply(&cold);
    let enc_s = median_call_s(effort.micro, 5, || {
        black_box(proto::encode_reply(black_box(&cold)));
    });
    let mut same = true;
    let dec_s = median_call_s(effort.micro, 5, || {
        same &= matches!(proto::decode_reply(&encoded), Ok(r) if r == cold);
    });
    ledger.check(same, "proto::decode_reply did not reproduce the reply");
    m.set("service.reply_encode_us", enc_s * 1e6);
    m.set("service.reply_decode_us", dec_s * 1e6);

    let server =
        ServiceServer::bind("127.0.0.1:0", Arc::clone(&service)).map_err(|e| e.to_string())?;
    let socket = (|| {
        let mut client = ServiceClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
        let mut samples = Vec::new();
        for _ in 0..effort.roundtrips.max(20) {
            let t = Instant::now();
            let reply = client.query(&request).map_err(|e| e.to_string())?;
            samples.push(t.elapsed().as_secs_f64());
            if reply.served != Served::Warm {
                return Err("socket warm query was not served warm".to_string());
            }
        }
        Ok(stats::median(&samples).expect("socket samples"))
    })();
    server.shutdown();
    let socket_s = socket?;
    m.set("service.transport_us", (socket_s - warm_s) * 1e6);
    m.set("service.cached_bytes", service.stats().cached_bytes as f64);
    Ok(())
}
