//! A live engine session: the service-shaped API the paper's cooperative
//! model implies.
//!
//! The batch scheduler takes every update up front and a callback answers
//! frontiers synchronously. Real Youtopia traffic is not like that: updates
//! arrive continuously, and the humans who answer frontier questions do so
//! minutes later, while other updates keep chasing. This example drives that
//! lifecycle end to end on the Example 3.1 scenario:
//!
//! 1. `submit` u1 (delete the XYZ review) — its backward chase blocks on a
//!    negative frontier question;
//! 2. `submit` u2 (the Math Conf convention) *while u1 is blocked* — the
//!    free-running engine's sequencer skips the blocked u1 and steps u2;
//! 3. poll `pending_frontiers`, show the question, `answer` it through the
//!    token (delete the tour);
//! 4. watch the optimistic machinery repair u2's premature excursion
//!    suggestion, and read the final state through `engine.read`.
//!
//! Run with `cargo run --example live_session`.

use youtopia::{
    satisfies_all, Database, EngineBuilder, FrontierDecision, FrontierRequest, InitialOp,
    MappingSet, TrackerKind, UpdateId, UpdateStatus, Value,
};

fn figure2_fragment() -> (Database, MappingSet) {
    let mut db = Database::new();
    db.add_relation("A", ["location", "name"]).unwrap();
    db.add_relation("T", ["attraction", "company", "tour_start"]).unwrap();
    db.add_relation("R", ["company", "attraction", "review"]).unwrap();
    db.add_relation("V", ["city", "convention"]).unwrap();
    db.add_relation("E", ["convention", "attraction"]).unwrap();
    let mut mappings = MappingSet::new();
    mappings
        .add_parsed_many(
            db.catalog(),
            "
            sigma3: A(l, n) & T(n, c, cs) -> exists r. R(c, n, r)
            sigma4: V(cv, x) & T(n, c, cv) -> E(x, n)
            ",
        )
        .unwrap();
    let u = UpdateId(0);
    db.insert_by_name("A", &["Geneva", "Geneva Winery"], u);
    db.insert_by_name("T", &["Geneva Winery", "XYZ", "Syracuse"], u);
    db.insert_by_name("R", &["XYZ", "Geneva Winery", "Great!"], u);
    db.insert_by_name("V", &["Syracuse", "Science Conf"], u);
    db.insert_by_name("E", &["Science Conf", "Geneva Winery"], u);
    (db, mappings)
}

fn print_table(db: &Database, name: &str) {
    let rel = db.relation_id(name).unwrap();
    println!("  {name}:");
    for (_, data) in db.scan(rel, UpdateId::OMNISCIENT) {
        let row: Vec<String> = data.iter().map(|v| v.to_string()).collect();
        println!("    ({})", row.join(", "));
    }
}

fn main() {
    let (db, mappings) = figure2_fragment();
    let r = db.relation_id("R").unwrap();
    let v = db.relation_id("V").unwrap();
    let review = db.scan(r, UpdateId::OMNISCIENT)[0].0;

    println!("== A live engine session (Example 3.1 as a service) ==\n");
    let engine = EngineBuilder::new()
        .tracker(TrackerKind::Precise)
        .free_running()
        .build(db, mappings)
        .expect("non-durable engines build infallibly");

    // u1: XYZ discontinues its Geneva Winery tours; the review's deletion
    // blocks on a question only a human can answer.
    let u1 = engine.submit(InitialOp::Delete { relation: r, tuple: review }).unwrap();
    println!("submitted u1 = {} (delete the XYZ review)", u1.id());
    // Run the chase on this thread until it needs a human.
    engine.drive().unwrap();
    let pending = engine.pending_frontiers();
    println!("u1 status: {:?}", u1.status());
    assert_eq!(u1.status(), UpdateStatus::AwaitingFrontier);

    // u2 arrives while u1 waits for its human — the engine keeps serving.
    let u2 = engine
        .submit(InitialOp::Insert {
            relation: v,
            values: vec![Value::constant("Syracuse"), Value::constant("Math Conf")],
        })
        .unwrap();
    println!("submitted u2 = {} (Math Conf is scheduled in Syracuse)\n", u2.id());

    // The pull-based frontier queue: each entry is (token, owner, question).
    for pf in &pending {
        println!("pending question for {}: {}", pf.update, pf.request);
    }
    let pf = &pending[0];
    let FrontierRequest::Negative(nf) = &pf.request else {
        panic!("u1's backward chase asks a negative frontier question")
    };
    let tour = nf
        .candidates
        .iter()
        .find(|(_, _, data)| data.len() == 3)
        .map(|(_, id, _)| *id)
        .expect("the tour is a candidate");
    println!("answering {} -> delete the tour (Example 3.1, step 4)\n", pf.token);
    engine.answer(pf.token, FrontierDecision::Negative(vec![tour])).unwrap();

    // Both updates run to completion; handle-side waiting is all we need
    // because no further frontier question can arise in this scenario.
    let r1 = u1.wait().unwrap();
    let r2 = u2.wait().unwrap();
    println!(
        "u1 terminated after {} steps, {} frontier op(s)",
        r1.stats.steps, r1.stats.frontier_ops
    );
    println!(
        "u2 terminated after {} steps, {} restart(s) — a restart here means the\n\
         engine caught u2's premature excursion suggestion and redid it\n",
        r2.stats.steps, r2.stats.restarts
    );

    // Snapshot reads of committed state — the serving path of a live system.
    engine.read(|db| {
        print_table(db, "T");
        print_table(db, "V");
        print_table(db, "E");
        assert!(satisfies_all(&db.snapshot(UpdateId::OMNISCIENT), engine.mappings()));
        let e = db.relation_id("E").unwrap();
        let premature = db
            .scan(e, UpdateId::OMNISCIENT)
            .into_iter()
            .filter(|(_, d)| d[0] == Value::constant("Math Conf"))
            .count();
        assert_eq!(premature, 0, "no excursion may recommend the deleted tour");
    });

    let (_db, _mappings, metrics) = engine.shutdown();
    println!(
        "\nengine metrics: {} updates, {} steps, {} frontier op(s), {} abort(s)",
        metrics.workload_size, metrics.steps, metrics.frontier_ops, metrics.aborts
    );
    println!("final database satisfies all mappings: true");
}
