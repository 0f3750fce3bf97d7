//! Two replicated engines converging through state-vector delta sync.
//!
//! Each Youtopia node runs its own [`ExchangeEngine`] over a copy of the
//! Example 3.1 travel fragment. The nodes edit **concurrently while
//! partitioned** — node 0 deletes a review (its backward chase stalls on a
//! negative frontier question, answered locally), node 1 inserts a new tour
//! (its forward chase derives a review with a labeled null) — then the
//! partition heals and gossip rounds exchange exactly the events each side is
//! missing, computed from the peer's state vector.
//!
//! Two guarantees are on display:
//!
//! 1. the frontier question answered on node 0 is *folded* on node 1, never
//!    re-asked — answers travel as replication events alongside submits;
//! 2. after the same events are delivered (in whatever order), both nodes
//!    render **byte-identical** databases. Node 1's fold admitted its tour
//!    before hearing about node 0's concurrent, canonically earlier delete,
//!    so healing makes its engine refold in place from genesis onto the
//!    canonical Lamport order — visible in the rebuild count.
//!
//! Run with `cargo run --example two_node_sync`.

use youtopia::replication::{LinkFaults, ReplicaSet, Topology};
use youtopia::{Database, InitialOp, MappingSet, RandomResolver, UpdateId, Value};

fn travel_fragment() -> (Database, MappingSet) {
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
    (db, mappings)
}

fn main() {
    let (db, mappings) = travel_fragment();
    let review_rel = db.relation_id("R").unwrap();
    let tour_rel = db.relation_id("T").unwrap();
    let review =
        db.scan(review_rel, UpdateId::OMNISCIENT).into_iter().map(|(id, _)| id).next().unwrap();

    // Two nodes over identical genesis bytes, faultless full-mesh links.
    let mut set = ReplicaSet::new(2, Topology::FullMesh, LinkFaults::default(), 7, db, mappings);

    // Sever the link: both sides keep editing, neither hears the other.
    set.partition(0, 1);
    println!("partitioned: node 0 <-x-> node 1");

    // Node 0: delete the XYZ review. sigma3 still derives it, so the
    // backward chase stalls on a negative frontier (drop the attraction or
    // the tour?) — answered locally, recorded as a replication event.
    let stamp0 = set.submit(0, InitialOp::Delete { relation: review_rel, tuple: review }).unwrap();
    println!("node 0 submitted delete as {stamp0}");
    let questions = set.node(0).engine().pending_frontiers().len();
    println!("node 0 stalled on {questions} frontier question(s); answering locally");
    let mut resolver = RandomResolver::seeded(41);
    set.node_mut(0).answer_pending(&mut resolver).unwrap();
    assert!(set.node(0).settled().unwrap());

    // Node 1, concurrently: a new tour of the winery. The forward chase
    // derives a review with a labeled null — no question to ask.
    let stamp1 = set
        .submit(
            1,
            InitialOp::Insert {
                relation: tour_rel,
                values: vec![
                    Value::constant("Geneva Winery"),
                    Value::constant("NewCo"),
                    Value::constant("Ithaca"),
                ],
            },
        )
        .unwrap();
    println!("node 1 submitted insert as {stamp1}");

    let svs = set.state_vectors().unwrap();
    println!("diverged state vectors: node 0 {}, node 1 {}", svs[0], svs[1]);

    // Heal and gossip until settled. Node 1 receives node 0's submit AND its
    // recorded answer in one batch: the question is folded, never re-asked.
    set.heal();
    println!("healed; gossiping...");
    let rounds = set.converge(99, 32).unwrap();
    assert!(
        set.node(1).engine().pending_frontiers().is_empty(),
        "node 1 must fold the recorded answer, not re-ask"
    );

    set.assert_identical();
    let svs = set.state_vectors().unwrap();
    assert_eq!(svs[0], svs[1]);
    println!(
        "converged in {rounds} round(s): state vector {}, {} rebuild(s), {} identical bytes",
        svs[0],
        set.total_rebuilds(),
        set.node(0).rendered().len()
    );
}
