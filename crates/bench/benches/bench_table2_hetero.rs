//! Criterion bench for experiment T2: the discrete-event simulator on the
//! Table 2 heterogeneous pool (40 000 task events per run) and on a large
//! synthetic pool, plus the `ThreadedCluster` backend (the poll-loop
//! master with loopback worker threads).

use criterion::{criterion_group, criterion_main, Criterion};
use lumen_cluster::{
    AvailabilityModel, ClusterSim, FailurePlan, JobSpec, NetworkModel, ThreadedCluster,
};
use lumen_core::engine::{Backend, Scenario};
use lumen_core::{Detector, Source};
use lumen_tissue::presets::semi_infinite_phantom;
use std::hint::black_box;

fn bench_des_table2(c: &mut Criterion) {
    let sim = ClusterSim {
        pool: lumen_cluster::table2_pool(),
        network: NetworkModel::lan_2006(),
        availability: AvailabilityModel::semi_idle(),
        seed: 150,
    };
    let job = JobSpec::paper_job();
    c.bench_function("table2_des_run", |b| b.iter(|| black_box(&sim).run(black_box(&job))));
}

fn bench_threaded_executor(c: &mut Criterion) {
    let scenario = Scenario::new(
        semi_infinite_phantom(0.1, 10.0, 0.0, 1.0),
        Source::Delta,
        Detector::new(1.0, 0.5),
    )
    .with_photons(20_000)
    .with_tasks(16)
    .with_seed(5);
    let mut group = c.benchmark_group("threaded_executor");
    group.sample_size(10);
    group.bench_function("4workers_16tasks_20k_photons", |b| {
        let backend = ThreadedCluster::new(4);
        b.iter(|| backend.run(black_box(&scenario)).expect("valid scenario"))
    });
    group.bench_function("4workers_with_10pct_failures", |b| {
        let backend = ThreadedCluster::new(4).with_failure_plan(FailurePlan::Random { rate: 0.1 });
        b.iter(|| backend.run(black_box(&scenario)).expect("valid scenario"))
    });
    group.finish();
}

criterion_group!(benches, bench_des_table2, bench_threaded_executor);
criterion_main!(benches);
