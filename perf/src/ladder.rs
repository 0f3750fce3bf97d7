//! The layer ladder: the traced pass re-runs a prefix of the workload's own
//! operations against each layer *alone*, from the outside, so the per-layer
//! numbers are measured where the work happens and not inferred.
//!
//! * **core rung** — the operations chased serially, one update at a time,
//!   with `UpdateExecution::step` / `resolve_frontier` and a same-seeded
//!   resolver: the chase without any concurrency layer around it.
//! * **mappings rung** — each operation's initial write applied, its
//!   violation queries planned and evaluated against a [`CountingView`] that
//!   records every storage read beneath them, then rolled back.
//! * **storage rung** — the final state through the snapshot codec, and (for
//!   a durable workload) the WAL's own records re-appended to a scratch log
//!   with the same group-commit window.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use youtopia_core::{FrontierResolver, InitialOp, RandomResolver, UpdateExecution, UpdateState};
use youtopia_mappings::{find_violations, violation_queries_for_change, MappingSet};
use youtopia_storage::{
    deserialize_database, read_wal, serialize_database, Catalog, DataView, Database, NullId,
    RelationId, TupleData, TupleId, UpdateId, Value, WalWriter,
};

use crate::stats::Summary;
use crate::trace::Tracer;
use crate::Res;

/// A chase that has not terminated after this many steps is reported as a
/// failure of the ladder instead of hanging the benchmark.
const MAX_STEPS_PER_UPDATE: usize = 100_000;
/// The mappings rung rolls every operation back, which costs a pass over the
/// database each time; it replays this many of the operations, the core rung
/// all of them.
const MAPPINGS_RUNG_OPS: usize = 1_500;

/// What the ladder runs on.
pub struct LadderInput<'a> {
    pub initial: &'a Database,
    pub mappings: &'a MappingSet,
    pub first_update: u64,
    /// The operations the workload's engine ran, in order, from the fixture.
    pub ops: &'a [InitialOp],
    pub resolver_seed: u64,
    pub final_db: &'a Database,
    /// A durable workload's log file and group-commit window.
    pub wal: Option<(PathBuf, usize)>,
    pub scratch: &'a Path,
    /// Called between operations: takes a speedometer reading when one is due.
    pub tick: &'a dyn Fn(),
}

/// A [`DataView`] that forwards to `inner`, recording a child span and the
/// rows returned for every read.
pub struct CountingView<'a, V: DataView> {
    tr: &'a Tracer,
    inner: V,
    rows: Cell<u64>,
}

impl<'a, V: DataView> CountingView<'a, V> {
    pub fn new(tr: &'a Tracer, inner: V) -> Self {
        CountingView { tr, inner, rows: Cell::new(0) }
    }

    pub fn rows(&self) -> u64 {
        self.rows.get()
    }

    fn read<R>(&self, f: impl FnOnce(&V) -> R, rows_of: impl FnOnce(&R) -> usize) -> R {
        let out = self.tr.call("storage.read", 0, || f(&self.inner));
        self.rows.set(self.rows.get() + rows_of(&out) as u64);
        out
    }
}

impl<V: DataView> DataView for CountingView<'_, V> {
    fn catalog(&self) -> &Catalog {
        self.inner.catalog()
    }

    fn tuple(&self, relation: RelationId, tuple: TupleId) -> Option<TupleData> {
        self.read(|v| v.tuple(relation, tuple), |r| usize::from(r.is_some()))
    }

    fn scan(&self, relation: RelationId) -> Vec<(TupleId, TupleData)> {
        self.read(|v| v.scan(relation), Vec::len)
    }

    fn candidates(
        &self,
        relation: RelationId,
        column: usize,
        value: Value,
    ) -> Vec<(TupleId, TupleData)> {
        self.read(|v| v.candidates(relation, column, value), Vec::len)
    }

    fn null_occurrences(&self, null: NullId) -> Vec<(RelationId, TupleId, TupleData)> {
        self.read(|v| v.null_occurrences(null), Vec::len)
    }

    fn relation_size(&self, relation: RelationId) -> usize {
        self.read(|v| v.relation_size(relation), |_| 0)
    }
}

/// Runs the three rungs and returns the per-layer metrics they produce, keyed
/// by metric name.
pub fn run_ladder(tr: &Tracer, input: &LadderInput<'_>) -> Res<BTreeMap<&'static str, f64>> {
    let mut out = BTreeMap::new();
    core_rung(tr, input, &mut out)?;
    mappings_rung(tr, input, &mut out)?;
    storage_rung(tr, input, &mut out)?;
    Ok(out)
}

fn core_rung(
    tr: &Tracer,
    input: &LadderInput<'_>,
    out: &mut BTreeMap<&'static str, f64>,
) -> Res<()> {
    let mut db = input.initial.clone();
    let mut resolver = RandomResolver::seeded(input.resolver_seed);
    let mut step_us: Vec<f64> = Vec::new();
    let mut requests = 0u64;
    for (i, op) in input.ops.iter().enumerate() {
        (input.tick)();
        let id = UpdateId(input.first_update + i as u64);
        let mut exec = UpdateExecution::new(id, op.clone());
        let mut steps = 0usize;
        loop {
            match exec.state() {
                UpdateState::Terminated => break,
                UpdateState::Ready => {
                    let (step, ns) =
                        tr.timed("core.step", id.0, || exec.step(&mut db, input.mappings));
                    step?;
                    step_us.push(ns as f64 / 1e3);
                    steps += 1;
                    if steps > MAX_STEPS_PER_UPDATE {
                        return Err(format!("core rung: update {id} did not terminate").into());
                    }
                }
                UpdateState::AwaitingFrontier => {
                    let request =
                        exec.pending_frontier().cloned().ok_or("awaiting without a request")?;
                    let decision = resolver.resolve(&db.snapshot(id), &request);
                    requests += 1;
                    tr.call("core.resolve_frontier", id.0, || {
                        exec.resolve_frontier(input.mappings, decision)
                    })?;
                }
            }
        }
    }
    let steps = Summary::of(&step_us);
    out.insert("core.chase_ms", tr.total_ms("core.step"));
    out.insert("core.steps", steps.n as f64);
    out.insert("core.steps_per_update", steps.n as f64 / input.ops.len().max(1) as f64);
    out.insert("core.step_us_p50", steps.p50);
    out.insert("core.step_us_p99", steps.p99);
    out.insert("core.resolve_ms", tr.total_ms("core.resolve_frontier"));
    out.insert("core.frontier_requests", requests as f64);
    Ok(())
}

fn mappings_rung(
    tr: &Tracer,
    input: &LadderInput<'_>,
    out: &mut BTreeMap<&'static str, f64>,
) -> Res<()> {
    let mut db = input.initial.clone();
    let (mut queries, mut violations, mut rows, mut writes) = (0u64, 0u64, 0u64, 0u64);
    let ops = &input.ops[..input.ops.len().min(MAPPINGS_RUNG_OPS)];
    for (i, op) in ops.iter().enumerate() {
        (input.tick)();
        let id = UpdateId(input.first_update + i as u64);
        let write = op.to_write();
        let changes = tr.call("storage.apply", id.0, || db.apply(&write, id))?;
        writes += 1;
        for change in &changes {
            let planned = tr.call("mappings.plan", id.0, || {
                violation_queries_for_change(input.mappings, change)
            });
            let view = CountingView::new(tr, db.snapshot(id));
            for query in &planned {
                violations += tr
                    .call("mappings.eval", id.0, || query.evaluate(&view, input.mappings))
                    .len() as u64;
            }
            queries += planned.len() as u64;
            rows += view.rows();
        }
        tr.call("storage.rollback", id.0, || db.rollback_update(id));
    }
    let remaining = tr.call("mappings.full_check", 0, || {
        find_violations(&input.final_db.snapshot(UpdateId::OMNISCIENT), input.mappings)
    });
    if !remaining.is_empty() {
        return Err(format!("final state violates {} mapping instance(s)", remaining.len()).into());
    }
    out.insert("storage.apply_ms", tr.total_ms("storage.apply"));
    out.insert("storage.apply_writes", writes as f64);
    out.insert("storage.rollback_ms", tr.total_ms("storage.rollback"));
    out.insert("storage.read_ms", tr.total_ms("storage.read"));
    out.insert("storage.read_calls", tr.calls("storage.read"));
    out.insert("storage.rows_returned", rows as f64);
    out.insert("mappings.plan_ms", tr.total_ms("mappings.plan"));
    // Self time: the storage reads are children of the evaluation spans.
    out.insert("mappings.eval_ms", tr.total_ms("mappings.eval") - tr.total_ms("storage.read"));
    out.insert("mappings.queries", queries as f64);
    out.insert("mappings.violations", violations as f64);
    out.insert("mappings.rows_per_violation", rows as f64 / violations.max(1) as f64);
    out.insert("mappings.full_check_ms", tr.total_ms("mappings.full_check"));
    Ok(())
}

fn storage_rung(
    tr: &Tracer,
    input: &LadderInput<'_>,
    out: &mut BTreeMap<&'static str, f64>,
) -> Res<()> {
    let bytes = tr.call("storage.serialize", 0, || serialize_database(input.final_db));
    let back = tr.call("storage.deserialize", 0, || deserialize_database(&bytes))?;
    let live = input.final_db.total_visible(UpdateId::OMNISCIENT);
    if back.total_visible(UpdateId::OMNISCIENT) != live {
        return Err("snapshot round trip changed the visible tuple count".into());
    }
    out.insert("storage.serialize_ms", tr.total_ms("storage.serialize"));
    out.insert("storage.deserialize_ms", tr.total_ms("storage.deserialize"));
    out.insert("storage.snapshot_bytes", bytes.len() as f64);
    out.insert("storage.bytes_per_live_tuple", bytes.len() as f64 / live.max(1) as f64);

    let (mut records, mut wal_bytes, mut syncs) = (0u64, 0u64, 0u64);
    if let Some((path, window)) = &input.wal {
        let contents = read_wal(path)?;
        let scratch = input.scratch.join(format!("ladder-{}.wal", std::process::id()));
        let mut writer = WalWriter::create(&scratch)?;
        writer.set_group_commit(*window);
        for record in &contents.records {
            tr.call("storage.wal_append", 0, || writer.append(record))?;
        }
        tr.call("storage.wal_append", 0, || writer.flush())?;
        records = contents.records.len() as u64;
        wal_bytes = writer.position();
        syncs = records.div_ceil(*window as u64);
        drop(writer);
        std::fs::remove_file(&scratch)?;
    }
    out.insert("storage.wal_append_ms", tr.total_ms("storage.wal_append"));
    out.insert("storage.wal_records", records as f64);
    out.insert("storage.wal_bytes", wal_bytes as f64);
    out.insert("storage.wal_syncs", syncs as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_workload::{build_fixture, generate_workload, ExperimentConfig, WorkloadKind};

    #[test]
    fn ladder_reports_every_rung_on_a_tiny_fixture() {
        let config = ExperimentConfig::tiny();
        let fixture = build_fixture(&config).unwrap();
        let ops = generate_workload(
            &config,
            &fixture.schema,
            &fixture.initial_db,
            &fixture.mappings,
            WorkloadKind::Mixed,
            0,
        );
        let tr = Tracer::new(true);
        let scratch = std::env::temp_dir();
        let input = LadderInput {
            initial: &fixture.initial_db,
            mappings: &fixture.mappings,
            first_update: 10_000,
            ops: &ops,
            resolver_seed: 5,
            final_db: &fixture.initial_db,
            wal: None,
            scratch: &scratch,
            tick: &|| {},
        };
        let (m, _) = tr.phase("ladder", || run_ladder(&tr, &input));
        let m = m.unwrap();
        assert!(m["core.steps"] >= ops.len() as f64, "every update takes at least one step");
        assert_eq!(m["storage.apply_writes"], ops.len() as f64);
        assert!(m["mappings.queries"] > 0.0);
        assert_eq!(m["storage.read_calls"], tr.calls("storage.read"));
        assert!(m["mappings.eval_ms"] >= 0.0, "reads are nested inside evaluations");
        assert!(m["storage.snapshot_bytes"] > 0.0);
        assert_eq!(m["storage.wal_records"], 0.0);
    }
}
