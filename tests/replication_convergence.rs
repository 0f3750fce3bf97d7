//! Convergence tests for replicated engines
//! ([`youtopia::replication`]): N nodes exchanging state-vector deltas over
//! faulty links must render **byte-identical** databases once they hold the
//! same events — regardless of topology, submission interleaving, duplicate
//! or reordered delivery, and partition-and-heal histories.
//!
//! The harness answers stalled frontier questions on one node at a time (the
//! lowest-indexed asker), so the tests also pin the paper-level guarantee
//! that a question answered on one node is *resolved*, not re-asked, on every
//! other.

use proptest::prelude::*;
use youtopia::replication::{LinkFaults, ReplicaSet, Topology};
use youtopia::storage::wal::serialize_database;
use youtopia::{Database, InitialOp, MappingSet, TupleId, UpdateId, Value};

/// The Example 3.1 fragment, doubled: two (attraction, tour, review) triples
/// so several independent deletes can stall on negative frontiers.
fn genesis() -> (Database, MappingSet) {
    let mut db = Database::new();
    db.add_relation("A", ["location", "name"]).unwrap();
    db.add_relation("T", ["attraction", "company", "tour_start"]).unwrap();
    db.add_relation("R", ["company", "attraction", "review"]).unwrap();
    let mut mappings = MappingSet::new();
    mappings
        .add_parsed(db.catalog(), "sigma3: A(l, n) & T(n, c, cs) -> exists r. R(c, n, r)")
        .unwrap();
    let u = UpdateId(0);
    db.insert_by_name("A", &["Geneva", "Geneva Winery"], u);
    db.insert_by_name("T", &["Geneva Winery", "XYZ", "Syracuse"], u);
    db.insert_by_name("R", &["XYZ", "Geneva Winery", "Great!"], u);
    db.insert_by_name("A", &["Niagara", "Maid of the Mist"], u);
    db.insert_by_name("T", &["Maid of the Mist", "ABC", "Toronto"], u);
    db.insert_by_name("R", &["ABC", "Maid of the Mist", "Wow"], u);
    (db, mappings)
}

/// The submission vocabulary, indexed by the proptest schedule. Tuple ids are
/// taken from the genesis, which every replica shares byte-for-byte.
fn op_pool(db: &Database) -> Vec<InitialOp> {
    let a = db.relation_id("A").unwrap();
    let t = db.relation_id("T").unwrap();
    let r = db.relation_id("R").unwrap();
    let reviews: Vec<TupleId> =
        db.scan(r, UpdateId::OMNISCIENT).into_iter().map(|(id, _)| id).collect();
    vec![
        // Forward chase: a new tour derives a review with a labeled null.
        InitialOp::Insert {
            relation: t,
            values: vec![
                Value::constant("Geneva Winery"),
                Value::constant("NewCo"),
                Value::constant("Ithaca"),
            ],
        },
        // Trivial: a new attraction violates nothing on its own.
        InitialOp::Insert {
            relation: a,
            values: vec![Value::constant("Rome"), Value::constant("Colosseum")],
        },
        // Backward chase: deleting a review stalls on a negative frontier
        // (delete the attraction or the tour?).
        InitialOp::Delete { relation: r, tuple: reviews[0] },
        InitialOp::Delete { relation: r, tuple: reviews[1] },
        // Forward chase on the other attraction.
        InitialOp::Insert {
            relation: t,
            values: vec![
                Value::constant("Maid of the Mist"),
                Value::constant("DEF"),
                Value::constant("Buffalo"),
            ],
        },
    ]
}

fn build_set(n: usize, topology: Topology, faults: LinkFaults, seed: u64) -> ReplicaSet {
    let (db, mappings) = genesis();
    ReplicaSet::new(n, topology, faults, seed, db, mappings)
}

/// Deterministic smoke: two nodes edit concurrently (a genuine conflict —
/// both sides extend their fold before hearing from each other), sync, and
/// land on the same bytes. At least one side must have rebuilt: that is what
/// "concurrent" means under a canonical total order.
#[test]
fn conflicting_concurrent_edits_converge_via_rebuild() {
    let mut set = build_set(2, Topology::FullMesh, LinkFaults::default(), 11);
    let (db, _) = genesis();
    let ops = op_pool(&db);
    set.submit(0, ops[2].clone()).unwrap(); // delete review 0 (stalls on n0)
    set.submit(1, ops[0].clone()).unwrap(); // new tour (terminates on n1)
    let rounds = set.converge(7, 64).unwrap();
    assert!(rounds >= 1);
    assert!(set.total_rebuilds() >= 1, "concurrent folds must have collided");
    set.assert_identical();
    assert_eq!(set.state_vectors().unwrap()[0], set.state_vectors().unwrap()[1]);
}

/// A question answered at its origin node is folded — not re-asked — at a
/// node that receives the submit and the answer together.
#[test]
fn answers_replicate_so_questions_are_never_reasked() {
    let mut set = build_set(2, Topology::FullMesh, LinkFaults::default(), 3);
    set.partition(0, 1); // node 1 hears nothing until the full story exists
    let (db, _) = genesis();
    let ops = op_pool(&db);
    set.submit(0, ops[2].clone()).unwrap();
    assert!(
        !set.node(0).engine().pending_frontiers().is_empty(),
        "the delete must stall on its negative frontier"
    );
    let mut resolver = youtopia::RandomResolver::seeded(5);
    set.node_mut(0).answer_pending(&mut resolver).unwrap();
    assert!(set.node(0).settled().unwrap());

    set.heal();
    let report = set.sync_round().unwrap();
    assert!(report.appended >= 2, "submit and answer both travel");
    assert!(
        set.node(1).engine().pending_frontiers().is_empty(),
        "node 1 folded the recorded answer instead of re-asking"
    );
    assert!(set.node(1).settled().unwrap());
    set.assert_identical();
}

/// A refold renders what a fresh replica renders. A seeded history of
/// submits and answers on two replicas (both sides asking and answering the
/// same questions, so answers also compete) is delivered to a third replica
/// one event at a time, origin 1's log before origin 0's, so origin 0's
/// canonically smaller events land behind the fold. After every delivery the
/// third replica must agree with a replica built fresh and given the same
/// event set in one batch: rendered bytes, the update id of every submit and
/// the workload size of its metrics.
#[test]
fn a_refold_renders_what_a_fresh_replica_renders() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use youtopia::chase::replication::DeltaEntry;
    use youtopia::replication::{DeltaBatch, NodeId, ReplicaNode, ReplicationEvent, StateVector};

    let mut rng = StdRng::seed_from_u64(0x4ef0);
    let mut set = build_set(2, Topology::FullMesh, LinkFaults::default(), 17);
    let (db, _) = genesis();
    let ops = op_pool(&db);
    let answer = |set: &mut ReplicaSet, node: usize, seed: u64| {
        let mut resolver = youtopia::RandomResolver::seeded(seed);
        set.node_mut(node).answer_pending(&mut resolver).unwrap();
    };
    for round in 0..6 {
        for node in 0..2 {
            set.submit(node, ops[rng.gen_range(0..ops.len())].clone()).unwrap();
            if rng.gen_bool(0.3) {
                answer(&mut set, node, rng.gen());
            }
        }
        if round % 2 == 1 {
            // Both sides now hold the same events and stall on the same
            // question: answering it on both makes the answers compete.
            set.sync_round().unwrap();
            for node in 0..2 {
                answer(&mut set, node, rng.gen());
            }
        }
    }
    set.sync_round().unwrap();
    let history = set.node(0).deltas_since(&StateVector::new()).unwrap();
    assert_eq!(history.entries.len(), 2, "node 0 holds both origins' logs");
    let submits: Vec<_> = history
        .entries
        .iter()
        .flat_map(|e| {
            e.events
                .iter()
                .filter(|ev| matches!(ev, ReplicationEvent::Submit { .. }))
                .map(|ev| ev.stamp(e.origin))
        })
        .collect();
    let mut questions: Vec<_> = history
        .entries
        .iter()
        .flat_map(|e| &e.events)
        .filter_map(|ev| match ev {
            ReplicationEvent::Answer { target, position, .. } => Some((*target, *position)),
            ReplicationEvent::Submit { .. } => None,
        })
        .collect();
    let answers = questions.len();
    questions.sort();
    questions.dedup();
    assert!(questions.len() < answers, "some question was answered on both sides");

    let fresh_replica = || {
        let (db, mappings) = genesis();
        ReplicaNode::new(NodeId(2), db, mappings)
    };
    let mut third = fresh_replica();
    let mut delivered = StateVector::new();
    let mut refolds = 0;
    for entry in history.entries.iter().rev() {
        for (seq, event) in entry.events.iter().enumerate() {
            let one = DeltaEntry {
                origin: entry.origin,
                first_seq: seq as u64,
                events: vec![event.clone()],
            };
            let report = third.apply(&DeltaBatch { entries: vec![one] }).unwrap();
            assert_eq!(report.appended, 1);
            refolds += usize::from(report.rebuilt);
            delivered.set(entry.origin, seq as u64 + 1);

            let prefix = history.entries.iter().map(|e| DeltaEntry {
                origin: e.origin,
                first_seq: 0,
                events: e.events[..delivered.get(e.origin) as usize].to_vec(),
            });
            let mut fresh = fresh_replica();
            fresh.apply(&DeltaBatch { entries: prefix.collect() }).unwrap();
            assert_eq!(fresh.rebuilds(), 0, "one batch never lands behind its own fold");
            assert_eq!(third.state_vector().unwrap(), delivered);
            assert_eq!(fresh.state_vector().unwrap(), delivered);
            assert_eq!(third.rendered(), fresh.rendered(), "after {delivered:?}");
            for &stamp in &submits {
                assert_eq!(
                    third.engine().replicated_update_id(stamp).unwrap(),
                    fresh.engine().replicated_update_id(stamp).unwrap(),
                    "submit {stamp:?} after {delivered:?}"
                );
            }
            assert_eq!(
                third.engine().metrics().workload_size,
                fresh.engine().metrics().workload_size
            );
            fresh.shutdown();
        }
    }
    assert!(refolds >= 1, "origin 0's events must land behind the fold");
    assert_eq!(third.rebuilds(), refolds);
    third.shutdown();
}

// Convergence survives the full fault matrix: any node count, topology,
// schedule interleaving, hostile links (reorder + duplicates), and an
// optional partition across the first half of the schedule.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn replica_sets_converge_from_any_schedule(
        n in 2usize..5,
        topo_pick in 0u8..3,
        seed in 0u64..1_000,
        schedule in prop::collection::vec((0u8..4, 0u8..5), 1..6),
        hostile in 0u8..2,
        partitioned in 0u8..2,
    ) {
        let topology = match topo_pick {
            0 => Topology::FullMesh,
            1 => Topology::Star,
            _ => Topology::Chain,
        };
        let faults = if hostile == 1 { LinkFaults::hostile() } else { LinkFaults::default() };
        let mut set = build_set(n, topology, faults, seed);
        let (db, _) = genesis();
        let ops = op_pool(&db);
        if partitioned == 1 {
            set.partition(0, 1);
        }
        let half = schedule.len() / 2;
        for (i, (node, op)) in schedule.iter().enumerate() {
            if i == half {
                set.heal();
            }
            set.submit(*node as usize % n, ops[*op as usize % ops.len()].clone()).unwrap();
            // Interleave gossip with submissions so deltas of different ages
            // coexist in flight.
            if i % 2 == 0 {
                set.sync_round().unwrap();
            }
        }
        set.heal();
        set.converge(seed ^ 0x5eed, 128).unwrap();
        set.assert_identical();
        let svs = set.state_vectors().unwrap();
        for sv in &svs[1..] {
            prop_assert_eq!(sv, &svs[0]);
        }
    }
}

/// Partition storm: repeatedly sever a random link, edit on both sides of the
/// cut, heal, and require byte-identical convergence every time.
#[test]
fn partition_storm_converges_every_generation() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xda7a);
    let mut set = build_set(4, Topology::FullMesh, LinkFaults::hostile(), 99);
    let (db, _) = genesis();
    let ops = op_pool(&db);
    for generation in 0..10u64 {
        let a = rng.gen_range(0usize..4);
        let b = (a + rng.gen_range(1usize..4)) % 4;
        set.partition(a, b);
        // Both sides of the cut keep editing: inserts only after the first
        // generation (the genesis deletes are gone by then).
        let insert_ops = [0usize, 1, 4];
        let pick = |rng: &mut StdRng| insert_ops[rng.gen_range(0usize..3)];
        if generation == 0 {
            set.submit(a, ops[2].clone()).unwrap();
            set.submit(b, ops[3].clone()).unwrap();
        } else {
            let (i, j) = (pick(&mut rng), pick(&mut rng));
            set.submit(a, ops[i].clone()).unwrap();
            set.submit(b, ops[j].clone()).unwrap();
        }
        for _ in 0..2 {
            set.sync_round().unwrap();
        }
        set.heal();
        set.converge(generation, 256).unwrap();
        set.assert_identical();
    }
    assert!(set.total_rebuilds() >= 1);
    // Final sanity: the rendered bytes really are a serialized database.
    let bytes = set.node(0).rendered();
    let db = youtopia::storage::wal::deserialize_database(&bytes).unwrap();
    assert_eq!(serialize_database(&db), bytes);
}
