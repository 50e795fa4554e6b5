//! Criterion micro-benchmarks for the hot paths of the SSR stack:
//! duration sampling, the Algorithm-1 completion handler, the analytical
//! model, and a small end-to-end simulation. Event-queue operations and
//! resource-offer rounds are timed in `scheduler.rs`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use ssr_analytics::straggler::mitigation_study;
use ssr_analytics::tradeoff::{deadline_for_isolation, utilization_bound_for_isolation};
use ssr_cluster::{ClusterSpec, LocalityModel};
use ssr_dag::{JobSpecBuilder, Priority};
use ssr_scheduler::{FifoPriority, TaskScheduler};
use ssr_sim::{OrderConfig, PolicyConfig, SimConfig, Simulation};
use ssr_simcore::dist::{constant, pareto, Distribution, Pareto};
use ssr_simcore::rng::SimRng;
use ssr_simcore::{SimDuration, SimTime};

fn bench_sampling(c: &mut Criterion) {
    let p = Pareto::new(1.0, 1.6).expect("valid");
    c.bench_function("dist/pareto_sample_10k", |b| {
        let mut rng = SimRng::seed_from_u64(1);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..10_000 {
                acc += p.sample(&mut rng);
            }
            black_box(acc)
        })
    });
}

fn bench_analytics(c: &mut Criterion) {
    c.bench_function("analytics/eq4_curve_1k_points", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..1000 {
                let p = i as f64 / 1000.0;
                acc += utilization_bound_for_isolation(black_box(p), 1.6, 200).expect("valid");
                acc += deadline_for_isolation(black_box(p * 0.99), 2.0, 1.6, 200).expect("valid");
            }
            black_box(acc)
        })
    });
    c.bench_function("analytics/mitigation_study_n100_r50", |b| {
        b.iter(|| black_box(mitigation_study(1.6, 100, 50, 7).expect("valid")))
    });
}

/// The Algorithm-1 seam: a full submit/offer/finish cycle under SSR on a
/// mid-size cluster.
fn bench_ssr_cycle(c: &mut Criterion) {
    c.bench_function("scheduler/ssr_two_phase_cycle_64slots", |b| {
        b.iter_batched(
            || {
                let policy = ssr_core::SpeculativeReservation::with_config(
                    ssr_core::SsrConfig::builder().isolation_target(0.9).build().expect("valid"),
                );
                let mut sched = TaskScheduler::new(
                    ClusterSpec::new(16, 4).expect("valid"),
                    LocalityModel::paper_simulation().with_wait(SimDuration::ZERO),
                    Box::new(policy),
                    Box::new(FifoPriority),
                );
                let job = JobSpecBuilder::new("p")
                    .priority(Priority::new(5))
                    .stage("up", 64, constant(1.0))
                    .stage("down", 64, constant(1.0))
                    .chain()
                    .build()
                    .expect("valid");
                sched.submit(job, SimTime::ZERO);
                sched
            },
            |mut sched| {
                let a = sched.resource_offers(SimTime::ZERO);
                let t1 = SimTime::from_secs(1);
                for x in &a {
                    sched.task_finished(x.slot, t1);
                }
                let b2 = sched.resource_offers(t1);
                let t2 = SimTime::from_secs(2);
                for x in &b2 {
                    sched.task_finished(x.slot, t2);
                }
                black_box(sched.has_unfinished_jobs())
            },
            criterion::BatchSize::LargeInput,
        )
    });
}

/// End-to-end: a contended simulation of a 5-phase foreground job vs a
/// batch job on 16 slots.
fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim/end_to_end_16slots");
    for (name, policy) in [
        ("work_conserving", PolicyConfig::WorkConserving),
        ("ssr", PolicyConfig::ssr_strict()),
        ("ssr_stragglers", PolicyConfig::ssr_strict_with_stragglers()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let fg = JobSpecBuilder::new("fg")
                    .priority(Priority::new(10))
                    .stage("p0", 16, pareto(1.0, 1.6))
                    .stage("p1", 16, pareto(1.0, 1.6))
                    .stage("p2", 16, pareto(1.0, 1.6))
                    .stage("p3", 16, pareto(1.0, 1.6))
                    .stage("p4", 16, pareto(1.0, 1.6))
                    .chain()
                    .build()
                    .expect("valid");
                let bg = JobSpecBuilder::new("bg")
                    .priority(Priority::new(0))
                    .stage("map", 64, constant(10.0))
                    .build()
                    .expect("valid");
                let report = Simulation::new(
                    SimConfig::new(ClusterSpec::new(4, 4).expect("valid")).with_seed(3),
                    policy.clone(),
                    OrderConfig::FifoPriority,
                    vec![fg, bg],
                )
                .run();
                black_box(report.makespan_secs)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sampling,
    bench_analytics,
    bench_ssr_cycle,
    bench_end_to_end
);
criterion_main!(benches);
