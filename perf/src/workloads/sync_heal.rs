//! `sync_heal` — three replicas in a chain, mixed updates submitted
//! round-robin, the link between nodes 0 and 1 cut for the first half of the
//! schedule, a gossip round every second submission, then heal and gossip to
//! byte-identical convergence. The harness is the transport: per edge and
//! direction it ships `encode_delta_batch(src.deltas_since(dst.state_vector()))`
//! as bytes, sometimes twice. Genesis rebuilds and delta catch-up are on no
//! other workload's path. Repeated over corpus blocks on fresh replica sets.

use youtopia_concurrency::RunMetrics;
use youtopia_core::{decode_delta_batch, encode_delta_batch, InitialOp, RandomResolver};
use youtopia_replication::{NodeId, ReplicaNode};
use youtopia_storage::{deserialize_database, serialize_database};
use youtopia_workload::WorkloadKind;

use super::{consistent, Ctx, EngineCounts, Outcome, Workload};
use crate::inputs::{derive, fingerprint_db, unit_f64};
use crate::trace::Tracer;
use crate::Res;

const NODES: usize = 3;
/// The chain's links; the first is the one that gets cut.
const EDGES: [(usize, usize); 2] = [(0, 1), (1, 2)];
const BLOCK: usize = 200;
const BLOCKS_PER_SECOND: f64 = 3.6;
/// Every how many blocks the converged state gets the full mapping check
/// (byte-identity of the replicas is checked on every block).
const CHECK_EVERY: u64 = 5;
const GOSSIP_EVERY: usize = 2;
/// Probability that a shipped message is delivered twice.
const DUPLICATE_PROB: f64 = 0.2;
const MAX_CONVERGE_ROUNDS: usize = 256;
/// The ladder replays this many blocks, one after the other.
const LADDER_BLOCKS: usize = 5;

pub const WORKLOAD: Workload = Workload {
    name: "sync_heal",
    kind: WorkloadKind::Mixed,
    block: BLOCK,
    setup,
    run,
    baseline: None,
    deterministic: true,
};

/// Every replica starts from the same genesis *bytes*.
fn build_nodes(ctx: &Ctx<'_>, genesis: &[u8], request: u64) -> Res<Vec<ReplicaNode>> {
    let tr = ctx.tr;
    (0..NODES)
        .map(|i| {
            let db = tr.call("deserialize_database", request, || deserialize_database(genesis))?;
            Ok(tr.call("build", request, || {
                ReplicaNode::new(NodeId(i as u32), db, ctx.fixture.mappings.clone())
            }))
        })
        .collect()
}

fn setup(ctx: &Ctx<'_>) -> Res<()> {
    let genesis = serialize_database(&ctx.fixture.initial_db);
    for node in build_nodes(ctx, &genesis, 0)? {
        node.shutdown();
    }
    Ok(())
}

/// A replica set with the harness as its network.
struct Net<'a> {
    tr: &'a Tracer,
    nodes: Vec<ReplicaNode>,
    cut: bool,
    faults: u64,
    messages: u64,
    bytes_shipped: u64,
    appended: u64,
    duplicates: u64,
    rebuilds: u64,
    /// Executions of engines a rebuild discarded.
    retired: EngineCounts,
    /// When each submission of the block was made (ns).
    submitted_ns: Vec<u64>,
}

impl Net<'_> {
    /// Runs `f` on node `i`; if the node rebuilt, the discarded engine's
    /// counters (sampled before the call) are kept.
    fn on_node<R>(&mut self, i: usize, f: impl FnOnce(&mut ReplicaNode) -> R) -> R {
        let before: RunMetrics = self.nodes[i].engine().metrics();
        let rebuilds = self.nodes[i].rebuilds();
        let out = f(&mut self.nodes[i]);
        let rebuilt = (self.nodes[i].rebuilds() - rebuilds) as u64;
        if rebuilt > 0 {
            self.retired.add(&before);
            self.rebuilds += rebuilt;
        }
        out
    }

    fn submit(&mut self, i: usize, op: InitialOp, request: u64) -> Res<()> {
        let tr = self.tr;
        self.submitted_ns.push(tr.now_ns());
        self.on_node(i, |node| tr.call("submit", request, || node.submit(op)))?;
        Ok(())
    }

    /// One gossip round over the un-cut links, both directions, every request
    /// computed against the pre-round state.
    fn gossip(&mut self) -> Res<()> {
        let tr = self.tr;
        let mut wire: Vec<(usize, Vec<u8>)> = Vec::new();
        for (k, (a, b)) in EDGES.into_iter().enumerate() {
            if self.cut && k == 0 {
                continue;
            }
            for (src, dst) in [(a, b), (b, a)] {
                let want =
                    tr.call("state_vector", dst as u64, || self.nodes[dst].state_vector())?;
                let batch =
                    tr.call("deltas_since", src as u64, || self.nodes[src].deltas_since(&want))?;
                if batch.is_empty() {
                    continue;
                }
                let bytes = tr.call("encode", src as u64, || encode_delta_batch(&batch));
                if unit_f64(&mut self.faults) < DUPLICATE_PROB {
                    wire.push((dst, bytes.clone()));
                }
                wire.push((dst, bytes));
            }
        }
        for (dst, bytes) in wire {
            self.messages += 1;
            self.bytes_shipped += bytes.len() as u64;
            let batch = tr.call("decode", dst as u64, || decode_delta_batch(&bytes))?;
            let report =
                self.on_node(dst, |node| tr.call("apply", dst as u64, || node.apply(&batch)))?;
            self.appended += report.appended as u64;
            self.duplicates += report.duplicates as u64;
        }
        Ok(())
    }

    /// The lowest-indexed node with a question pending answers all of its
    /// questions (its answers travel to the others as events).
    fn answer(&mut self, resolver: &mut RandomResolver) -> Res<()> {
        let tr = self.tr;
        let asking = self.nodes.iter().position(|n| !n.engine().pending_frontiers().is_empty());
        if let Some(i) = asking {
            tr.call("answer_pending", i as u64, || self.nodes[i].answer_pending(resolver))?;
        }
        Ok(())
    }

    /// Whether every replica holds the same events and has folded them all.
    fn converged(&self) -> Res<bool> {
        let tr = self.tr;
        let first = self.nodes[0].state_vector()?;
        for (i, node) in self.nodes.iter().enumerate() {
            if node.state_vector()? != first || !tr.call("settled", i as u64, || node.settled())? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

fn run(ctx: &Ctx<'_>) -> Res<Outcome> {
    let tr = ctx.tr;
    let blocks = ctx.blocks(BLOCKS_PER_SECOND);
    let ((corpus, genesis), _) = tr.phase("gen", || {
        let corpus: Vec<_> = (0..blocks).map(|b| ctx.corpus(&WORKLOAD, b, 1)).collect();
        (corpus, serialize_database(&ctx.fixture.initial_db))
    });
    let mut out = Outcome { replicas: NODES as u64, ..Outcome::default() };
    let mut rounds_to_converge = 0u64;
    let mut net_totals = [0u64; 5];
    let mut last_db = None;
    for (b, ops) in corpus.iter().enumerate() {
        let b = b as u64;
        let mut resolver = RandomResolver::seeded(derive(ctx.seed, b));
        ctx.tick();
        let (built, secs) = tr.phase("run", || -> Res<Net<'_>> {
            Ok(Net {
                tr,
                nodes: build_nodes(ctx, &genesis, b)?,
                cut: true,
                faults: derive(ctx.seed, 0xD0_0000 + b),
                messages: 0,
                bytes_shipped: 0,
                appended: 0,
                duplicates: 0,
                rebuilds: 0,
                retired: EngineCounts::default(),
                submitted_ns: Vec::new(),
            })
        });
        let mut net = built?;
        out.run_s += secs;
        let (result, secs) = tr.phase("run", || -> Res<()> {
            for (i, op) in ops.iter().enumerate() {
                if i == ops.len() / 2 {
                    net.cut = false;
                }
                net.submit(i % NODES, op.clone(), i as u64)?;
                if i % GOSSIP_EVERY == 0 {
                    net.gossip()?;
                }
            }
            Ok(())
        });
        result?;
        out.run_s += secs;
        // Heal (the link is already up unless the block was tiny) and gossip
        // until every replica holds the same events and has folded them.
        // Nobody answered a question while the schedule ran; now the
        // lowest-indexed asking node does, one node per round.
        net.cut = false;
        let (result, secs) = tr.phase("converge", || -> Res<u64> {
            for round in 1..=MAX_CONVERGE_ROUNDS as u64 {
                net.gossip()?;
                net.answer(&mut resolver)?;
                if net.converged()? {
                    return Ok(round);
                }
            }
            Err(format!("block {b}: no convergence within {MAX_CONVERGE_ROUNDS} rounds").into())
        });
        rounds_to_converge += result?;
        out.restore_samples.push(secs);
        out.run_s += secs;

        // Nothing is answered before the heal, so an update is terminal on
        // every replica exactly when the set has converged: that moment ends
        // every latency sample of the block.
        let converged_ns = tr.now_ns();
        out.attempted += ops.len() as u64;
        out.terminated += ops.len() as u64;
        out.latency_ms.extend(net.submitted_ns.iter().map(|at| (converged_ns - at) as f64 / 1e6));
        out.engine.workload_size += net.retired.workload_size;
        out.engine.aborts += net.retired.aborts;
        for node in &net.nodes {
            out.engine.add(&node.engine().metrics());
        }
        let totals = [net.messages, net.bytes_shipped, net.appended, net.duplicates, net.rebuilds];
        for (sum, v) in net_totals.iter_mut().zip(totals) {
            *sum += v;
        }
        let (identical, _) = tr.phase("check", || {
            let rendered: Vec<Vec<u8>> = net.nodes.iter().map(ReplicaNode::rendered).collect();
            rendered.iter().all(|bytes| bytes == &rendered[0])
        });
        out.check(identical, || format!("block {b}: replicas are not byte-identical"));
        let mut dbs: Vec<_> = net.nodes.into_iter().map(ReplicaNode::shutdown).collect();
        let db = dbs.swap_remove(0);
        if b.is_multiple_of(CHECK_EVERY) || b + 1 == blocks {
            let (ok, _) = tr.phase("check", || consistent(&db, ctx));
            out.check(ok, || format!("block {b}: converged state violates a mapping"));
        }
        last_db = Some(db);
    }
    let [messages, bytes_shipped, appended, duplicates, rebuilds] = net_totals;
    // Blocks converge in one rebuild round or in several — two clusters a
    // median would hop between.
    out.restore_s = crate::stats::mean(&out.restore_samples);
    out.persist_bytes = bytes_shipped;
    out.counts.insert("replication.messages", messages as f64);
    out.counts.insert("replication.bytes_shipped", bytes_shipped as f64);
    out.counts.insert("replication.events_appended", appended as f64);
    out.counts.insert("replication.events_duplicate", duplicates as f64);
    out.counts.insert("replication.rebuilds", rebuilds as f64);
    out.counts.insert("replication.rounds_to_converge", rounds_to_converge as f64);
    let db = last_db.expect("at least one block ran");
    out.state_fp = fingerprint_db(&db);
    out.ladder_ops = corpus.iter().take(LADDER_BLOCKS).flatten().cloned().collect();
    out.ladder_seed = derive(ctx.seed, 0);
    out.final_db = Some(db);
    Ok(out)
}
