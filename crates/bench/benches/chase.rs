//! Benchmarks for the cooperative chase itself: forward-chase throughput on
//! the travel schema, backward-chase cascades, the effect of the user's
//! unify-versus-expand behaviour on chase length (an ablation the paper's
//! design discussion motivates but does not measure), and end-to-end chase
//! wall-clock under long-lived violation queues — the delta-driven
//! (`Incremental`) queue against the pre-optimisation `FullRecheck` reference
//! path, so `BENCH_chase.json` records the step-cost-vs-queue-size win.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use youtopia_concurrency::{
    ConcurrentRun, EngineBuilder, ResolverPump, SchedulerConfig, TrackerKind, UpdateExchange,
};
use youtopia_core::{ChaseMode, InitialOp, RandomResolver, UnifyResolver, UpdateExecution};
use youtopia_mappings::MappingSet;
use youtopia_storage::{Database, UpdateId, Value};
use youtopia_workload::{build_fixture, generate_workload, ExperimentConfig, WorkloadKind};

fn travel(rows: usize) -> (Database, MappingSet) {
    let mut db = Database::new();
    db.add_relation("C", ["city"]).unwrap();
    db.add_relation("S", ["code", "location", "city_served"]).unwrap();
    db.add_relation("A", ["location", "name"]).unwrap();
    db.add_relation("T", ["attraction", "company", "tour_start"]).unwrap();
    db.add_relation("R", ["company", "attraction", "review"]).unwrap();
    let mut mappings = MappingSet::new();
    mappings
        .add_parsed_many(
            db.catalog(),
            "
            sigma1: C(c) -> exists a, l. S(a, l, c)
            sigma2: S(a, c, c2) -> C(c) & C(c2)
            sigma3: A(l, n) & T(n, c, cs) -> exists r. R(c, n, r)
            ",
        )
        .unwrap();
    let u = UpdateId(0);
    for i in 0..rows {
        db.insert_by_name("A", &[&format!("loc{i}"), &format!("attr{i}")], u);
        db.insert_by_name("T", &[&format!("attr{i}"), &format!("co{i}"), &format!("city{i}")], u);
        db.insert_by_name("R", &[&format!("co{i}"), &format!("attr{i}"), "ok"], u);
    }
    (db, mappings)
}

fn bench_forward_chase_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("chase/forward_insert_tour");
    group.sample_size(15);
    for rows in [50usize, 200, 800] {
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, &rows| {
            b.iter_batched(
                || {
                    let (db, mappings) = travel(rows);
                    UpdateExchange::new(db, mappings)
                },
                |mut exchange| {
                    let mut user = RandomResolver::seeded(1);
                    exchange
                        .insert_constants("T", &["attr1", "brand-new-co", "somewhere"], &mut user)
                        .unwrap();
                    black_box(exchange.db().total_visible(UpdateId::OMNISCIENT))
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_backward_chase_delete(c: &mut Criterion) {
    let mut group = c.benchmark_group("chase/backward_delete_review");
    group.sample_size(15);
    for rows in [50usize, 200] {
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, &rows| {
            b.iter_batched(
                || {
                    let (db, mappings) = travel(rows);
                    let r = db.relation_id("R").unwrap();
                    let victim = db.scan(r, UpdateId::OMNISCIENT)[rows / 2].0;
                    (UpdateExchange::new(db, mappings), r, victim)
                },
                |(mut exchange, r, victim)| {
                    let mut user = RandomResolver::seeded(3);
                    exchange
                        .run_update(InitialOp::Delete { relation: r, tuple: victim }, &mut user)
                        .unwrap();
                    black_box(exchange.db().visible_count(r, UpdateId::OMNISCIENT))
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_resolver_ablation(c: &mut Criterion) {
    // How much chase work does the user's behaviour cause? A unifying user
    // keeps the cyclic C/S mappings tight; a random user sometimes expands,
    // lengthening the chase.
    let mut group = c.benchmark_group("chase/resolver_ablation_city_insert");
    group.sample_size(15);
    group.bench_function("unify_resolver", |b| {
        b.iter_batched(
            || {
                let (db, mappings) = travel(50);
                UpdateExchange::new(db, mappings)
            },
            |mut exchange| {
                let mut user = UnifyResolver;
                for i in 0..5 {
                    exchange
                        .insert("C", vec![Value::constant(&format!("city{i}"))], &mut user)
                        .unwrap();
                }
                black_box(exchange.db().total_visible(UpdateId::OMNISCIENT))
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.bench_function("random_resolver", |b| {
        b.iter_batched(
            || {
                let (db, mappings) = travel(50);
                UpdateExchange::new(db, mappings)
            },
            |mut exchange| {
                let mut user = RandomResolver::seeded(11);
                for i in 0..5 {
                    exchange
                        .insert("C", vec![Value::constant(&format!("city{i}"))], &mut user)
                        .unwrap();
                }
                black_box(exchange.db().total_visible(UpdateId::OMNISCIENT))
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Hub(x) → Spokeᵢ(x) fan-out: a single insert into `Hub` discovers `spokes`
/// violations in one step, and every later step deterministically repairs
/// exactly one, so the violation queue stays ~`spokes` long for ~`spokes`
/// steps. The reference path re-runs `still_violated` over the whole queue
/// every step — O(queue²) query evaluations per update — while the
/// delta-driven queue only revisits violations whose read relations were
/// written.
fn hub_spokes(spokes: usize) -> (Database, MappingSet) {
    let mut db = Database::new();
    db.add_relation("Hub", ["k"]).unwrap();
    let mut rules = String::new();
    for i in 0..spokes {
        db.add_relation(format!("Spoke{i}"), ["k"]).unwrap();
        rules.push_str(&format!("m{i}: Hub(x) -> Spoke{i}(x)\n"));
    }
    let mut mappings = MappingSet::new();
    mappings.add_parsed_many(db.catalog(), &rules).unwrap();
    (db, mappings)
}

/// C₀(x) → C₁(x) → … → C_d(x): a single insert cascades `d` steps deep with a
/// short queue — the per-step overhead case.
fn chain(depth: usize) -> (Database, MappingSet) {
    let mut db = Database::new();
    let mut rules = String::new();
    for i in 0..=depth {
        db.add_relation(format!("C{i}"), ["k"]).unwrap();
    }
    for i in 0..depth {
        rules.push_str(&format!("c{i}: C{i}(x) -> C{}(x)\n", i + 1));
    }
    let mut mappings = MappingSet::new();
    mappings.add_parsed_many(db.catalog(), &rules).unwrap();
    (db, mappings)
}

/// Drives one update to termination with the given queue-maintenance mode.
/// The fixtures are frontier-free (copy mappings, fresh constants), so no
/// resolver is needed.
fn run_single_update(
    db: &Database,
    mappings: &MappingSet,
    op: InitialOp,
    mode: ChaseMode,
) -> usize {
    let mut db = db.clone();
    let mut exec = UpdateExecution::with_mode(UpdateId(1), op, mode);
    while !exec.is_terminated() {
        exec.step(&mut db, mappings).expect("frontier-free chase");
    }
    exec.stats().steps
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("chase/end_to_end");
    group.sample_size(10);

    // A single shallow update: the fixed per-update overhead both modes pay.
    {
        let (db, mappings) = hub_spokes(4);
        let hub = db.relation_id("Hub").unwrap();
        group.bench_function("single_update", |b| {
            b.iter(|| {
                let op =
                    InitialOp::Insert { relation: hub, values: vec![Value::constant("fresh")] };
                black_box(run_single_update(&db, &mappings, op, ChaseMode::Incremental))
            })
        });
    }

    // Deep cascade with a long-lived queue: the case the delta-driven queue
    // exists for. `incremental` versus the pre-change `full_recheck` path is
    // the ≥2× acceptance comparison recorded in BENCH_chase.json.
    for spokes in [32usize, 96] {
        let (db, mappings) = hub_spokes(spokes);
        let hub = db.relation_id("Hub").unwrap();
        for (label, mode) in
            [("incremental", ChaseMode::Incremental), ("full_recheck", ChaseMode::FullRecheck)]
        {
            group.bench_with_input(
                BenchmarkId::new(format!("deep_cascade/{spokes}"), label),
                &mode,
                |b, &mode| {
                    b.iter(|| {
                        let op = InitialOp::Insert {
                            relation: hub,
                            values: vec![Value::constant("fresh")],
                        };
                        black_box(run_single_update(&db, &mappings, op, mode))
                    })
                },
            );
        }
    }

    // Deep chain, short queue: per-step bookkeeping must not regress.
    {
        let (db, mappings) = chain(64);
        let c0 = db.relation_id("C0").unwrap();
        for (label, mode) in
            [("incremental", ChaseMode::Incremental), ("full_recheck", ChaseMode::FullRecheck)]
        {
            group.bench_with_input(BenchmarkId::new("chain/64", label), &mode, |b, &mode| {
                b.iter(|| {
                    let op =
                        InitialOp::Insert { relation: c0, values: vec![Value::constant("fresh")] };
                    black_box(run_single_update(&db, &mappings, op, mode))
                })
            });
        }
    }

    group.finish();
}

/// End-to-end chase over the paper-scale generated mapping graph: a slice of
/// the deep-cascade workload run one update at a time (a one-op
/// `ConcurrentRun` per update, numbered in submission order), under both
/// queue-maintenance modes.
fn bench_end_to_end_mapping_graph(c: &mut Criterion) {
    let mut config = ExperimentConfig::quick();
    config.initial_tuples = 200;
    config.workload_updates = 12;
    let fixture = build_fixture(&config).expect("fixture builds");
    let ops = generate_workload(
        &config,
        &fixture.schema,
        &fixture.initial_db,
        &fixture.mappings,
        WorkloadKind::DeepCascade,
        0,
    );

    let mut group = c.benchmark_group("chase/end_to_end/mapping_graph");
    group.sample_size(10);
    for (label, mode) in
        [("incremental", ChaseMode::Incremental), ("full_recheck", ChaseMode::FullRecheck)]
    {
        let scheduler = SchedulerConfig::default().with_chase_mode(mode);
        group.bench_with_input(BenchmarkId::from_parameter(label), &scheduler, |b, &scheduler| {
            b.iter_batched(
                || (fixture.initial_db.clone(), fixture.mappings.clone()),
                |(mut db, mut mappings)| {
                    let mut user = RandomResolver::seeded(9);
                    for (number, op) in (1..).zip(&ops) {
                        let mut run =
                            ConcurrentRun::new(db, mappings, vec![op.clone()], number, scheduler);
                        run.run(&mut user).unwrap();
                        (db, mappings, _) = run.into_parts();
                    }
                    black_box(db.total_visible(UpdateId::OMNISCIENT))
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// The free-running schedule: one batch of updates through a free-running
/// engine (the pump driving the sequencer past published frontiers and
/// answering them on the bench thread), on the two workloads that stress it
/// from opposite ends —
/// `DeepCascade` (long chases, long-lived violation queues, little
/// inter-update conflict) and `Skewed` (80% of operations on one hot
/// relation, so validation and rollbacks contend).
fn bench_free_running(c: &mut Criterion) {
    let mut config = ExperimentConfig::quick();
    config.initial_tuples = 200;
    config.workload_updates = 24;
    let fixture = build_fixture(&config).expect("fixture builds");
    let first_number = config.initial_tuples as u64 + 1_000;

    let mut group = c.benchmark_group("chase/free_running");
    group.sample_size(10);
    for (kind, label) in
        [(WorkloadKind::DeepCascade, "deep_cascade"), (WorkloadKind::Skewed, "skewed")]
    {
        let ops = generate_workload(
            &config,
            &fixture.schema,
            &fixture.initial_db,
            &fixture.mappings,
            kind,
            0,
        );
        group.bench_function(label, |b| {
            b.iter_batched(
                || {
                    EngineBuilder::new()
                        .tracker(TrackerKind::Coarse)
                        .free_running()
                        .first_update_number(first_number)
                        .build(fixture.initial_db.clone(), fixture.mappings.clone())
                        .expect("non-durable engines build infallibly")
                },
                |engine| {
                    engine.submit_batch(ops.clone()).unwrap();
                    ResolverPump::new(&engine, &mut RandomResolver::seeded(7))
                        .run_until_quiescent()
                        .unwrap();
                    black_box(engine.shutdown().2.steps)
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// `chains` disjoint copy chains R{j}_0(x) → R{j}_1(x) → … → R{j}_depth(x):
/// updates on different chains share no relations, so any cross-update cost
/// is pure violation-detection bookkeeping, not real conflict.
fn disjoint_chains(chains: usize, depth: usize) -> (Database, MappingSet) {
    let mut db = Database::new();
    let mut rules = String::new();
    for j in 0..chains {
        for i in 0..=depth {
            db.add_relation(format!("R{j}x{i}"), ["k"]).unwrap();
        }
        for i in 0..depth {
            rules.push_str(&format!("r{j}x{i}: R{j}x{i}(x) -> R{j}x{}(x)\n", i + 1));
        }
    }
    let mut mappings = MappingSet::new();
    mappings.add_parsed_many(db.catalog(), &rules).unwrap();
    (db, mappings)
}

/// Dirty checks under concurrent live updates: 16 disjoint chain cascades
/// submitted to a deterministic engine in waves of 1, 4 or 16, so every
/// configuration performs the *same* chase steps and only the number of
/// concurrently live updates differs. Each step compares the write epoch of
/// every relation its own queue watches against the watermark it stored
/// there, so its detection cost depends on its own queue, not on the other
/// chains' writes, and the three medians must stay flat (the acceptance bar
/// is 16 within 1.5× of 1).
fn bench_shared_index(c: &mut Criterion) {
    const CHAINS: usize = 16;
    const DEPTH: usize = 24;
    let (db, mappings) = disjoint_chains(CHAINS, DEPTH);
    let ops: Vec<InitialOp> = (0..CHAINS)
        .map(|j| InitialOp::Insert {
            relation: db.relation_id(&format!("R{j}x0")).unwrap(),
            values: vec![Value::constant("fresh")],
        })
        .collect();

    let mut group = c.benchmark_group("chase/shared_index");
    group.sample_size(10);
    for batch in [1usize, 4, 16] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{batch}_concurrent_updates")),
            &batch,
            |b, &batch| {
                b.iter_batched(
                    || {
                        let engine = EngineBuilder::new()
                            .build(db.clone(), mappings.clone())
                            .expect("non-durable engines build infallibly");
                        (engine, ops.clone())
                    },
                    |(engine, ops)| {
                        let mut resolver = RandomResolver::seeded(5);
                        for wave in ops.chunks(batch) {
                            engine.submit_batch(wave.to_vec()).unwrap();
                            ResolverPump::new(&engine, &mut resolver)
                                .run_until_quiescent()
                                .unwrap();
                        }
                        let (_db, _mappings, metrics) = engine.shutdown();
                        black_box(metrics.steps)
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_forward_chase_insert,
    bench_backward_chase_delete,
    bench_resolver_ablation,
    bench_end_to_end,
    bench_end_to_end_mapping_graph,
    bench_free_running,
    bench_shared_index
);
criterion_main!(benches);
