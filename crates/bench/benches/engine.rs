//! Benchmarks for the long-lived [`ExchangeEngine`]'s ingestion path — the
//! `chase/engine_ingest` group committed as `bench-baselines/BENCH_engine.json`.
//!
//! Three shapes of the same paper-scale workload:
//!
//! * `batch/<n>` — one atomic batch through a deterministic threaded
//!   engine, pumped to quiescence: the engine-ingest analogue of the
//!   reference scheduler, so regressions here are submit/publish/answer
//!   overhead, not chase cost.
//! * `staggered/<wave>` — the same updates arriving in closed-loop waves,
//!   measuring the admission + wake-up cost a live deployment pays per wave.
//! * `submit_wait/<n>` — one update at a time through a persistent engine
//!   (submit → wait), the `UpdateExchange` serving pattern; dominated by the
//!   cross-thread handoff per update, which is exactly what this group
//!   guards.
//! * `admission/<clients>` — the same workload pushed through a small
//!   admission cap by several clients of mixed priority, retrying every
//!   rejection: the fair-share bookkeeping plus the rejection/retry
//!   round-trip a saturated deployment pays.
//!
//! The engine spawns an OS chase thread, so single-core CI medians include
//! scheduler noise — the group is exempt from the hard regression tier the
//! way `chase/free_running/*` is, and guarded by the soft tier.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use youtopia_concurrency::{
    ClientId, EngineBuilder, ExchangeEngine, Priority, ResolverPump, SubmitError, TrackerKind,
};
use youtopia_core::RandomResolver;
use youtopia_workload::{build_fixture, generate_workload, ExperimentConfig, WorkloadKind};

fn bench_engine_ingest(c: &mut Criterion) {
    let mut config = ExperimentConfig::quick();
    config.initial_tuples = 200;
    config.workload_updates = 24;
    let fixture = build_fixture(&config).expect("fixture builds");
    let first_number = config.initial_tuples as u64 + 1_000;
    let ops = generate_workload(
        &config,
        &fixture.schema,
        &fixture.initial_db,
        &fixture.mappings,
        WorkloadKind::Mixed,
        0,
    );
    let builder =
        || EngineBuilder::new().tracker(TrackerKind::Coarse).first_update_number(first_number);
    let start = |builder: EngineBuilder| -> ExchangeEngine {
        builder
            .build(fixture.initial_db.clone(), fixture.mappings.clone())
            .expect("non-durable engines build infallibly")
    };

    let mut group = c.benchmark_group("chase/engine_ingest");
    group.sample_size(10);

    group.bench_with_input(BenchmarkId::new("batch", ops.len()), &(), |b, ()| {
        b.iter_batched(
            || start(builder()),
            |engine| {
                engine.submit_batch(ops.clone()).unwrap();
                let mut resolver = RandomResolver::seeded(7);
                ResolverPump::new(&engine, &mut resolver).run_until_quiescent().unwrap();
                black_box(engine.metrics().steps)
            },
            criterion::BatchSize::LargeInput,
        )
    });

    for wave in [4usize, 8] {
        group.bench_with_input(BenchmarkId::new("staggered", wave), &wave, |b, &wave| {
            b.iter_batched(
                || start(builder()),
                |engine| {
                    let mut resolver = RandomResolver::seeded(7);
                    for chunk in ops.chunks(wave) {
                        engine.submit_batch(chunk.to_vec()).unwrap();
                        ResolverPump::new(&engine, &mut resolver).run_until_quiescent().unwrap();
                    }
                    black_box(engine.metrics().steps)
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }

    // The fair-share admission path: a small cap shared by eight clients of
    // mixed priority, every rejection retried after draining to quiescence
    // (the closed-loop spelling of the `retry_after` contract). Regressions
    // here are the per-submission admission bookkeeping — the share check,
    // the deficit scan, and the rejection/retry round-trip.
    group.bench_with_input(BenchmarkId::new("admission", 8), &(), |b, ()| {
        b.iter_batched(
            || start(builder().admission_cap(4)),
            |engine| {
                let mut resolver = RandomResolver::seeded(7);
                let mut rejections = 0usize;
                for (i, op) in ops.iter().enumerate() {
                    let client = ClientId(i as u64 % 8);
                    let priority = match client.0 % 4 {
                        0 => Priority::High,
                        3 => Priority::Low,
                        _ => Priority::Normal,
                    };
                    loop {
                        match engine.submit_as(op.clone(), client, priority) {
                            Ok(_) => break,
                            Err(SubmitError::Saturated { .. }) => {
                                rejections += 1;
                                ResolverPump::new(&engine, &mut resolver)
                                    .run_until_quiescent()
                                    .unwrap();
                            }
                            Err(e) => panic!("unexpected submit error: {e}"),
                        }
                    }
                }
                ResolverPump::new(&engine, &mut resolver).run_until_quiescent().unwrap();
                black_box((engine.metrics().steps, rejections))
            },
            criterion::BatchSize::LargeInput,
        )
    });

    group.bench_with_input(BenchmarkId::new("submit_wait", ops.len()), &(), |b, ()| {
        b.iter_batched(
            || start(builder()),
            |engine| {
                let mut resolver = RandomResolver::seeded(7);
                for op in &ops {
                    engine.submit(op.clone()).unwrap();
                    ResolverPump::new(&engine, &mut resolver).run_until_quiescent().unwrap();
                }
                black_box(engine.metrics().steps)
            },
            criterion::BatchSize::LargeInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_engine_ingest);
criterion_main!(benches);
