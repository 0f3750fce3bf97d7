//! Durability for the [`ExchangeEngine`](crate::ExchangeEngine): write-ahead
//! log records, engine snapshots and the recovery decoder.
//!
//! The engine's only sources of externally-visible nondeterminism are the
//! operations users submit (with the `UpdateId`s assigned at admission) and
//! the frontier answers they give. Everything else — chase order, conflict
//! aborts, token assignment, metrics — is a deterministic function of those
//! two streams and the points between sequencer actions where they entered,
//! under either frontier policy. The WAL therefore logs
//! exactly submissions and answers, each stamped with the sequencer's *action
//! counter* at the moment the event was admitted, so recovery can interleave
//! replayed events with re-executed chase work at exactly the original
//! points. A header record carries a fingerprint of the engine configuration,
//! the mapping set and the schedule revision (replaying against a different
//! configuration or older sequencer rules would silently diverge) plus the
//! number of records already folded into the newest snapshot.
//!
//! Snapshots are taken at quiescence only, which is what keeps them small and
//! simple: every retained slot is terminal (terminated or failed), so a slot
//! serializes as its id, initial operation, counters and terminal state — no
//! mid-chase violation queues, no pending writes. The database itself uses
//! [`youtopia_storage::wal::serialize_database`].

use std::path::PathBuf;

use youtopia_core::{
    decode_chase_error, decode_decision, decode_initial_op, encode_chase_error, encode_decision,
    encode_initial_op, ChaseError, FrontierDecision, InitialOp, ResolutionOrigin, UpdateStats,
};
use youtopia_mappings::MappingSet;
use youtopia_storage::wal::{ByteReader, ByteWriter, Fnv64, WalError, WalWriter};
use youtopia_storage::{deserialize_database, serialize_database, Database};

use crate::engine::EngineConfig;
use crate::metrics::RunMetrics;

const WAL_MAGIC: u32 = 0x4C41_5759; // "YWAL" little-endian
const SNAPSHOT_MAGIC: u32 = 0x504E_5359; // "YSNP" little-endian

// Version 2: `Answer` records carry a `ResolutionOrigin` byte (after the
// stamp, so stamp-scrubbing tooling is unaffected) and snapshots persist the
// replay-stable `auto_resolutions` counter.
const FORMAT_VERSION: u32 = 2;

/// Where and how often a durable engine persists its state.
///
/// Passed to [`EngineBuilder::durable`](crate::EngineBuilder::durable). The
/// directory holds two files: `wal.log` (the record log) and `snapshot.bin`
/// (the newest quiescence snapshot).
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding the log and snapshot files (created if missing).
    pub dir: PathBuf,
    /// Snapshot cadence: once at least this many WAL records have accumulated
    /// past the newest snapshot, the next quiescence point writes a new
    /// snapshot and truncates the log. Lower values bound recovery time;
    /// higher values bound snapshot I/O.
    pub snapshot_every: u64,
    /// Group-commit window: how many WAL appends may share one `fdatasync`.
    /// The default of 1 syncs every record (strict durability); a larger
    /// window amortises the flush and bounds crash loss to the last
    /// `group_commit − 1` records plus one torn tail — recovery's prefix rule
    /// handles both identically. Excluded from the config fingerprint: it
    /// changes when records hit disk, never what replay computes.
    pub group_commit: usize,
}

impl DurabilityConfig {
    /// Durability under `dir` with the default snapshot cadence (256 records)
    /// and fsync-per-record durability.
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig { dir: dir.into(), snapshot_every: 256, group_commit: 1 }
    }

    /// Replaces the snapshot cadence.
    pub fn with_snapshot_every(mut self, records: u64) -> DurabilityConfig {
        self.snapshot_every = records.max(1);
        self
    }

    /// Replaces the group-commit window (clamped to at least 1; 1 restores
    /// fsync-per-record).
    pub fn with_group_commit(mut self, window: usize) -> DurabilityConfig {
        self.group_commit = window.max(1);
        self
    }

    /// Path of the record log.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    /// Path of the newest snapshot.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.bin")
    }
}

/// Why recovery (or durable construction) failed.
#[derive(Debug)]
pub enum RecoveryError {
    /// A log or snapshot file could not be read, written or decoded.
    Wal(WalError),
    /// The snapshot or log was written by an engine with a different
    /// configuration or mapping set; replaying would silently diverge.
    ConfigMismatch {
        /// Fingerprint of the recovering engine's configuration.
        expected: u64,
        /// Fingerprint found in the durable state.
        found: u64,
    },
    /// The durable state is internally inconsistent (missing header, records
    /// out of order, snapshot behind the log's base).
    Corrupt(String),
    /// Deterministic replay could not reproduce the logged run (the strongest
    /// sign the files belong to a different history).
    Replay(String),
    /// Durability and replication are mutually exclusive for now: a replica's
    /// history is a function of its replicated event logs, not of a local
    /// WAL, and recovering one without the other would desynchronise the
    /// node. WAL-shipping (one log serving both roles) is the planned
    /// follow-on.
    ReplicatedUnsupported,
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Wal(e) => write!(f, "durable state unreadable: {e}"),
            RecoveryError::ConfigMismatch { expected, found } => write!(
                f,
                "config fingerprint mismatch: engine {expected:#018x}, durable state {found:#018x}"
            ),
            RecoveryError::Corrupt(msg) => write!(f, "durable state inconsistent: {msg}"),
            RecoveryError::Replay(msg) => write!(f, "deterministic replay diverged: {msg}"),
            RecoveryError::ReplicatedUnsupported => {
                write!(f, "durability and replication are mutually exclusive (WAL-shipping is the planned marriage)")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<WalError> for RecoveryError {
    fn from(e: WalError) -> RecoveryError {
        RecoveryError::Wal(e)
    }
}

impl From<std::io::Error> for RecoveryError {
    fn from(e: std::io::Error) -> RecoveryError {
        RecoveryError::Wal(WalError::Io(e))
    }
}

/// Fingerprint of everything replay determinism depends on: the tracker,
/// frontier delay and step valve that steer the sequencer, the id assignment
/// base, the per-update budget, the frontier escalation policy (a system
/// auto-resolution in the log only replays correctly against the policy that
/// produced it), the skipping frontier policy and the mapping set. The
/// leading salt names the schedule revision: a change to the sequencer's
/// rules (which update acts when, what counts as one action) bumps it, so a
/// log or snapshot written under older rules is rejected instead of
/// replaying divergently. `v2`: a revived victim sits out under both
/// policies, and stepping past a published slot is one action. Deliberately
/// excludes the admission cap and client fair-share state (rejected
/// submissions never reach the log) and the retention horizon (eviction
/// changes lookups, never chase behaviour).
pub(crate) fn config_fingerprint(config: &EngineConfig, mappings: &MappingSet) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("youtopia-engine-wal-v2");
    h.write_str(&format!("{:?}", config.tracker));
    // The interleaving policy and the chase mode are fixed now; hashing the
    // spellings of their old defaults keeps existing logs recoverable.
    h.write_str("StepRoundRobin");
    h.write_str("Incremental");
    h.write_u64(config.frontier_delay_rounds as u64);
    h.write_u64(config.max_total_steps as u64);
    h.write_u64(config.first_update_number);
    h.write_u64(config.max_steps_per_update as u64);
    h.write_str(&format!("{:?}", config.escalation));
    if config.free_running {
        h.write_str("free_running");
    }
    h.write_str(&format!("{mappings:?}"));
    h.finish()
}

/// The engine-side durable state, part of the engine's `Core`.
pub(crate) struct DurableEngineState {
    pub(crate) config: DurabilityConfig,
    pub(crate) fingerprint: u64,
    pub(crate) wal: WalWriter,
    /// Records ever logged (including those folded into snapshots).
    pub(crate) records: u64,
    /// Records covered by the newest snapshot.
    pub(crate) last_snapshot: u64,
    /// The sequencer's action counter: bumped once per sequencer action (a
    /// step, a publish, a visit sat out or stepped past, a round boundary).
    /// Submissions and answers are stamped with it so replay reproduces the
    /// original interleaving of logged events and re-executed chase work.
    pub(crate) actions: u64,
    /// Set during recovery replay: suppresses snapshot writing (the log is
    /// being read) — replayed events are injected directly and never
    /// re-appended.
    pub(crate) replaying: bool,
}

// ---------------------------------------------------------------------------
// WAL records
// ---------------------------------------------------------------------------

/// One decoded WAL record. Exposed (with [`decode_record`]) so external
/// tooling and tests can inspect or re-feed a log's contents; the engine's
/// recovery path consumes the same representation.
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// First record of every log file.
    Header {
        /// The writing engine's configuration fingerprint.
        fingerprint: u64,
        /// Records folded into the snapshot that was newest when this log was
        /// (re)started; the following record is number `base_records`.
        base_records: u64,
    },
    /// A submitted batch: consecutive ids starting at `first`.
    Submit {
        /// Priority number assigned to the first update of the batch.
        first: u64,
        /// Sequencer action counter at admission.
        stamp: u64,
        /// The batch's initial operations, in submission order.
        ops: Vec<InitialOp>,
    },
    /// A frontier answer.
    Answer {
        /// The raw frontier token the answer resolved.
        token: u64,
        /// Sequencer action counter at application.
        stamp: u64,
        /// The decision that was applied.
        decision: FrontierDecision,
        /// Who decided: a human (`answer`) or the lifecycle sweeper
        /// (`AutoResolve` escalation). Replay applies the decision
        /// identically either way — the origin keeps reports honest and
        /// makes the `auto_resolutions` counter replay-stable.
        origin: ResolutionOrigin,
    },
}

const REC_HEADER: u8 = 0;
const REC_SUBMIT: u8 = 1;
const REC_ANSWER: u8 = 2;

pub(crate) fn encode_header(fingerprint: u64, base_records: u64) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(REC_HEADER);
    w.put_u32(WAL_MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u64(fingerprint);
    w.put_u64(base_records);
    w.into_bytes()
}

pub(crate) fn encode_submit(first: u64, stamp: u64, ops: &[InitialOp]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(REC_SUBMIT);
    w.put_u64(first);
    w.put_u64(stamp);
    w.put_u32(ops.len() as u32);
    for op in ops {
        encode_initial_op(op, &mut w);
    }
    w.into_bytes()
}

pub(crate) fn encode_answer(
    token: u64,
    stamp: u64,
    decision: &FrontierDecision,
    origin: ResolutionOrigin,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(REC_ANSWER);
    w.put_u64(token);
    w.put_u64(stamp);
    // Origin sits after the stamp: byte offsets 9..17 of an answer payload
    // stay the stamp, which stamp-scrubbing comparison tooling relies on.
    w.put_u8(match origin {
        ResolutionOrigin::Human => 0,
        ResolutionOrigin::System => 1,
    });
    encode_decision(decision, &mut w);
    w.into_bytes()
}

/// Decodes one WAL record payload (as returned by
/// `youtopia_storage::wal::read_wal`) into its [`WalRecord`] form.
pub fn decode_record(payload: &[u8]) -> Result<WalRecord, RecoveryError> {
    let mut r = ByteReader::new(payload);
    let record = match r.take_u8()? {
        REC_HEADER => {
            if r.take_u32()? != WAL_MAGIC {
                return Err(RecoveryError::Corrupt("bad wal magic".into()));
            }
            let version = r.take_u32()?;
            if version != FORMAT_VERSION {
                return Err(RecoveryError::Corrupt(format!("unsupported wal version {version}")));
            }
            WalRecord::Header { fingerprint: r.take_u64()?, base_records: r.take_u64()? }
        }
        REC_SUBMIT => {
            let first = r.take_u64()?;
            let stamp = r.take_u64()?;
            let count = r.take_count()?;
            let mut ops = Vec::with_capacity(count);
            for _ in 0..count {
                ops.push(decode_initial_op(&mut r)?);
            }
            WalRecord::Submit { first, stamp, ops }
        }
        REC_ANSWER => {
            let token = r.take_u64()?;
            let stamp = r.take_u64()?;
            let origin = match r.take_u8()? {
                0 => ResolutionOrigin::Human,
                1 => ResolutionOrigin::System,
                tag => {
                    return Err(RecoveryError::Corrupt(format!("unknown origin tag {tag}")));
                }
            };
            WalRecord::Answer { token, stamp, decision: decode_decision(&mut r)?, origin }
        }
        tag => return Err(RecoveryError::Corrupt(format!("unknown wal record tag {tag}"))),
    };
    r.expect_done()?;
    Ok(record)
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// What a snapshot retains about one slot. Snapshots happen at quiescence, so
/// every summarised slot is terminal; `failed` is `None` for terminated slots
/// and holds the budget error otherwise.
pub(crate) struct SlotSummary {
    pub(crate) id: u64,
    pub(crate) initial: InitialOp,
    pub(crate) stats: UpdateStats,
    pub(crate) terminated: bool,
    pub(crate) failed: Option<ChaseError>,
}

/// Engine state alongside the database in a snapshot.
pub(crate) struct SnapshotMeta {
    pub(crate) fingerprint: u64,
    /// WAL records folded into this snapshot.
    pub(crate) records: u64,
    /// The sequencer action counter at snapshot time.
    pub(crate) actions: u64,
    pub(crate) next_token: u64,
    /// Slots evicted by compaction before the snapshot (restored lookups
    /// below this index report `SlotEvicted`).
    pub(crate) slot_base: u64,
    pub(crate) slots: Vec<SlotSummary>,
    pub(crate) metrics: RunMetrics,
}

fn encode_stats(stats: &UpdateStats, w: &mut ByteWriter) {
    w.put_u64(stats.steps as u64);
    w.put_u64(stats.frontier_ops as u64);
    w.put_u64(stats.changes as u64);
    w.put_u64(stats.violations_seen as u64);
    w.put_u64(stats.restarts as u64);
}

fn decode_stats(r: &mut ByteReader<'_>) -> Result<UpdateStats, WalError> {
    Ok(UpdateStats {
        steps: r.take_u64()? as usize,
        frontier_ops: r.take_u64()? as usize,
        changes: r.take_u64()? as usize,
        violations_seen: r.take_u64()? as usize,
        restarts: r.take_u64()? as usize,
    })
}

pub(crate) fn encode_snapshot(meta: &SnapshotMeta, db: &Database) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(SNAPSHOT_MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u64(meta.fingerprint);
    w.put_u64(meta.records);
    w.put_u64(meta.actions);
    w.put_u64(meta.next_token);
    w.put_u64(meta.slot_base);
    let m = &meta.metrics;
    for counter in [
        m.workload_size,
        m.aborts,
        m.direct_conflict_requests,
        m.cascading_abort_requests,
        m.steps,
        m.frontier_ops,
        m.changes,
        // Replay-stable (recounted from logged answer origins), unlike
        // `re_asks`, which restarts at zero.
        m.auto_resolutions,
    ] {
        w.put_u64(counter as u64);
    }
    w.put_u32(meta.slots.len() as u32);
    for slot in &meta.slots {
        w.put_u64(slot.id);
        encode_initial_op(&slot.initial, &mut w);
        encode_stats(&slot.stats, &mut w);
        w.put_u8(slot.terminated as u8);
        match &slot.failed {
            None => w.put_u8(0),
            Some(error) => {
                w.put_u8(1);
                encode_chase_error(error, &mut w);
            }
        }
    }
    let db_bytes = serialize_database(db);
    w.put_u64(db_bytes.len() as u64);
    w.put_raw(&db_bytes);
    w.into_bytes()
}

pub(crate) fn decode_snapshot(bytes: &[u8]) -> Result<(SnapshotMeta, Database), RecoveryError> {
    let mut r = ByteReader::new(bytes);
    if r.take_u32()? != SNAPSHOT_MAGIC {
        return Err(RecoveryError::Corrupt("bad snapshot magic".into()));
    }
    let version = r.take_u32()?;
    if version != FORMAT_VERSION {
        return Err(RecoveryError::Corrupt(format!("unsupported snapshot version {version}")));
    }
    let fingerprint = r.take_u64()?;
    let records = r.take_u64()?;
    let actions = r.take_u64()?;
    let next_token = r.take_u64()?;
    let slot_base = r.take_u64()?;
    let mut counters = [0usize; 8];
    for c in counters.iter_mut() {
        *c = r.take_u64()? as usize;
    }
    let metrics = RunMetrics {
        workload_size: counters[0],
        aborts: counters[1],
        direct_conflict_requests: counters[2],
        cascading_abort_requests: counters[3],
        steps: counters[4],
        frontier_ops: counters[5],
        changes: counters[6],
        auto_resolutions: counters[7],
        wall_time: std::time::Duration::ZERO,
        // `re_asks` is live observability, not replayed state: like
        // wall_time it restarts at zero after a recovery.
        ..RunMetrics::default()
    };
    let slot_count = r.take_count()?;
    let mut slots = Vec::with_capacity(slot_count);
    for _ in 0..slot_count {
        let id = r.take_u64()?;
        let initial = decode_initial_op(&mut r)?;
        let stats = decode_stats(&mut r)?;
        let terminated = r.take_u8()? != 0;
        let failed = match r.take_u8()? {
            0 => None,
            1 => Some(decode_chase_error(&mut r)?),
            tag => return Err(RecoveryError::Corrupt(format!("unknown failure tag {tag}"))),
        };
        slots.push(SlotSummary { id, initial, stats, terminated, failed });
    }
    let db_len = r.take_u64()? as usize;
    if r.remaining() != db_len {
        return Err(RecoveryError::Corrupt(format!(
            "database section is {} bytes, header says {db_len}",
            r.remaining()
        )));
    }
    let db = deserialize_database(&bytes[bytes.len() - db_len..])?;
    let meta =
        SnapshotMeta { fingerprint, records, actions, next_token, slot_base, slots, metrics };
    Ok((meta, db))
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_storage::{RelationId, UpdateId, Value};

    #[test]
    fn wal_records_roundtrip() {
        let ops = vec![
            InitialOp::Insert { relation: RelationId(1), values: vec![Value::constant("a")] },
            InitialOp::Delete { relation: RelationId(0), tuple: youtopia_storage::TupleId(4) },
        ];
        let bytes = encode_submit(100, 42, &ops);
        match decode_record(&bytes).unwrap() {
            WalRecord::Submit { first, stamp, ops: decoded } => {
                assert_eq!(first, 100);
                assert_eq!(stamp, 42);
                assert_eq!(decoded, ops);
            }
            _ => panic!("wrong record kind"),
        }

        let decision = FrontierDecision::Negative(vec![youtopia_storage::TupleId(9)]);
        let bytes = encode_answer(7, 13, &decision, ResolutionOrigin::Human);
        match decode_record(&bytes).unwrap() {
            WalRecord::Answer { token, stamp, decision: decoded, origin } => {
                assert_eq!(token, 7);
                assert_eq!(stamp, 13);
                assert_eq!(decoded, decision);
                assert_eq!(origin, ResolutionOrigin::Human);
            }
            _ => panic!("wrong record kind"),
        }
        let bytes = encode_answer(8, 21, &decision, ResolutionOrigin::System);
        match decode_record(&bytes).unwrap() {
            WalRecord::Answer { origin, .. } => assert_eq!(origin, ResolutionOrigin::System),
            _ => panic!("wrong record kind"),
        }

        let bytes = encode_header(0xFEED, 31);
        match decode_record(&bytes).unwrap() {
            WalRecord::Header { fingerprint, base_records } => {
                assert_eq!(fingerprint, 0xFEED);
                assert_eq!(base_records, 31);
            }
            _ => panic!("wrong record kind"),
        }
        assert!(decode_record(&[99]).is_err());
    }

    /// A one-tuple database under a snapshot header with one terminated and
    /// one failed slot.
    fn sample_snapshot() -> (SnapshotMeta, Database) {
        let mut db = Database::new();
        db.add_relation("R", ["a"]).unwrap();
        db.insert_by_name("R", &["v"], UpdateId(5));
        let meta = SnapshotMeta {
            fingerprint: 0xABCD,
            records: 17,
            actions: 99,
            next_token: 3,
            slot_base: 2,
            slots: vec![
                SlotSummary {
                    id: 7,
                    initial: InitialOp::Insert {
                        relation: RelationId(0),
                        values: vec![Value::constant("x")],
                    },
                    stats: UpdateStats { steps: 4, restarts: 1, ..UpdateStats::default() },
                    terminated: true,
                    failed: None,
                },
                SlotSummary {
                    id: 8,
                    initial: InitialOp::Delete {
                        relation: RelationId(0),
                        tuple: youtopia_storage::TupleId(0),
                    },
                    stats: UpdateStats::default(),
                    terminated: false,
                    failed: Some(ChaseError::StepLimitExceeded { update: UpdateId(8), limit: 5 }),
                },
            ],
            metrics: RunMetrics {
                steps: 11,
                aborts: 2,
                auto_resolutions: 3,
                re_asks: 5,
                ..RunMetrics::default()
            },
        };
        (meta, db)
    }

    #[test]
    fn snapshot_roundtrip() {
        let (meta, db) = sample_snapshot();
        let bytes = encode_snapshot(&meta, &db);
        let (decoded, db2) = decode_snapshot(&bytes).unwrap();
        assert_eq!(decoded.fingerprint, 0xABCD);
        assert_eq!(decoded.records, 17);
        assert_eq!(decoded.actions, 99);
        assert_eq!(decoded.next_token, 3);
        assert_eq!(decoded.slot_base, 2);
        assert_eq!(decoded.metrics.steps, 11);
        assert_eq!(decoded.metrics.aborts, 2);
        assert_eq!(decoded.metrics.auto_resolutions, 3, "auto-resolutions survive the snapshot");
        assert_eq!(decoded.metrics.re_asks, 0, "re-asks restart at zero");
        assert_eq!(decoded.slots.len(), 2);
        assert_eq!(decoded.slots[0].id, 7);
        assert!(decoded.slots[0].terminated);
        assert_eq!(decoded.slots[0].stats.steps, 4);
        assert!(matches!(
            decoded.slots[1].failed,
            Some(ChaseError::StepLimitExceeded { limit: 5, .. })
        ));
        assert_eq!(
            serialize_database(&db2),
            serialize_database(&db),
            "database survives the snapshot byte-identically"
        );
        assert!(decode_snapshot(&bytes[..bytes.len() - 2]).is_err());
    }

    /// Hostile input: every collection count a decoder reads off the wire or
    /// the disk is attacker-controlled (CRC32 is integrity, not
    /// authentication). Each row takes a buffer the real encoder produced,
    /// overwrites one count field with `0xFFFF_FFFF` (re-sealing the checksum
    /// where there is one) and expects a typed `Corrupt` — not a
    /// multi-gigabyte `Vec::with_capacity` that aborts the process.
    #[test]
    fn oversized_counts_are_typed_errors_in_every_decoder() {
        use youtopia_core::replication::{
            decode_delta_batch, encode_delta_batch, DeltaBatch, DeltaEntry, NodeId,
            ReplicationEvent,
        };
        use youtopia_core::{decode_decision, encode_decision, encode_initial_op, PositiveAction};
        use youtopia_storage::{crc32, deserialize_database, ByteWriter, TupleId, WalError};

        type Decode = fn(&[u8]) -> Result<(), RecoveryError>;

        let insert =
            InitialOp::Insert { relation: RelationId(0), values: vec![Value::constant("v")] };
        let mut db = Database::new();
        db.add_relation("R", ["a"]).unwrap();
        db.insert_by_name("R", &["v"], UpdateId(5));
        let db_bytes = serialize_database(&db);
        let op_bytes = {
            let mut w = ByteWriter::new();
            encode_initial_op(&insert, &mut w);
            w.into_bytes()
        };
        let decision_bytes = |decision: FrontierDecision| {
            let mut w = ByteWriter::new();
            encode_decision(&decision, &mut w);
            w.into_bytes()
        };
        let batch_bytes = encode_delta_batch(&DeltaBatch {
            entries: vec![DeltaEntry {
                origin: NodeId(0),
                first_seq: 0,
                events: vec![ReplicationEvent::Submit { lamport: 1, op: insert.clone() }],
            }],
        });
        let snapshot_bytes = encode_snapshot(
            &SnapshotMeta {
                fingerprint: 1,
                records: 1,
                actions: 0,
                next_token: 0,
                slot_base: 0,
                slots: vec![SlotSummary {
                    id: 7,
                    initial: insert.clone(),
                    stats: UpdateStats::default(),
                    terminated: true,
                    failed: None,
                }],
                metrics: RunMetrics::default(),
            },
            &db,
        );

        let database: Decode = |b| Ok(deserialize_database(b).map(drop)?);
        let initial_op: Decode = |b| Ok(decode_initial_op(&mut ByteReader::new(b)).map(drop)?);
        let decision: Decode = |b| Ok(decode_decision(&mut ByteReader::new(b)).map(drop)?);
        let delta_batch: Decode = |b| Ok(decode_delta_batch(b).map(drop)?);
        let record: Decode = |b| decode_record(b).map(drop);
        let snapshot: Decode = |b| decode_snapshot(b).map(drop);

        // (what, well-formed bytes, offset of the u32 count, checksummed, decoder)
        let table: Vec<(&str, Vec<u8>, usize, bool, Decode)> = vec![
            ("snapshot relation count", db_bytes.clone(), 0, false, database),
            ("snapshot attribute count", db_bytes.clone(), 9, false, database),
            ("snapshot tuple value count", db_bytes, 79, false, database),
            ("initial-op value count", op_bytes, 5, false, initial_op),
            (
                "positive decision action count",
                decision_bytes(FrontierDecision::Positive(vec![PositiveAction::Expand])),
                1,
                false,
                decision,
            ),
            (
                "negative decision tuple count",
                decision_bytes(FrontierDecision::Negative(vec![TupleId(9)])),
                1,
                false,
                decision,
            ),
            ("delta batch entry count", batch_bytes.clone(), 12, true, delta_batch),
            ("delta batch event count", batch_bytes, 28, true, delta_batch),
            ("wal submit op count", encode_submit(100, 42, &[insert]), 17, false, record),
            ("engine snapshot slot count", snapshot_bytes, 112, false, snapshot),
        ];
        for (what, mut bytes, at, checksummed, decode) in table {
            decode(&bytes).unwrap_or_else(|e| panic!("{what}: pristine buffer must decode: {e}"));
            assert_eq!(bytes[at..at + 4], 1u32.to_le_bytes(), "{what}: offset names the count");
            bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            if checksummed {
                let crc = crc32(&bytes[12..]);
                bytes[8..12].copy_from_slice(&crc.to_le_bytes());
            }
            match decode(&bytes) {
                Err(RecoveryError::Wal(WalError::Corrupt { reason, .. })) => {
                    assert!(reason.contains("exceeds"), "{what}: rejected by the bound: {reason}")
                }
                other => panic!("{what}: expected a typed Corrupt error, got {other:?}"),
            }
        }
    }

    /// Well-formed buffers for every decoder, rich enough (several value
    /// kinds, every op, both decision shapes, a failed slot) that a mutated
    /// byte lands in every branch of the grammar.
    fn pristine_buffers() -> Vec<(&'static str, Vec<u8>)> {
        use youtopia_core::replication::{
            encode_delta_batch, encode_state_vector, DeltaBatch, DeltaEntry, EventStamp, NodeId,
            ReplicationEvent, StateVector,
        };
        use youtopia_core::PositiveAction;
        use youtopia_storage::{ByteWriter, NullId, TupleId, Write};

        // A second relation holding a null and a deleted version, so the
        // database decoder's value tags and version chains are all present.
        let (meta, mut db) = sample_snapshot();
        let s = db.add_relation("S", ["c", "d"]).unwrap();
        let with_null = vec![Value::constant("k"), Value::Null(db.fresh_null())];
        let doomed = db.insert_by_name("S", &["x", "y"], UpdateId(6));
        db.apply(&Write::Insert { relation: s, values: with_null.clone() }, UpdateId(6)).unwrap();
        db.apply(&Write::Delete { relation: s, tuple: doomed }, UpdateId(7)).unwrap();
        let ops = vec![
            InitialOp::Insert { relation: s, values: with_null },
            InitialOp::Delete { relation: RelationId(1), tuple: TupleId(1) },
            InitialOp::NullReplace { null: NullId(0), replacement: Value::constant("k") },
        ];
        let positive = FrontierDecision::Positive(vec![
            PositiveAction::Expand,
            PositiveAction::Unify { with: TupleId(3) },
        ]);
        let negative = FrontierDecision::Negative(vec![TupleId(9), TupleId(11)]);
        let answer = ReplicationEvent::Answer {
            lamport: 6,
            target: EventStamp { lamport: 1, origin: NodeId(0) },
            position: 1,
            decision: positive.clone(),
            origin: ResolutionOrigin::System,
        };
        let submits =
            ops.iter().map(|op| ReplicationEvent::Submit { lamport: 1, op: op.clone() }).collect();
        let batch = encode_delta_batch(&DeltaBatch {
            entries: vec![
                DeltaEntry { origin: NodeId(0), first_seq: 0, events: submits },
                DeltaEntry { origin: NodeId(2), first_seq: 4, events: vec![answer] },
            ],
        });
        let mut sv = StateVector::new();
        sv.set(NodeId(0), 3);
        sv.set(NodeId(2), 5);
        let mut state_vector = ByteWriter::new();
        encode_state_vector(&sv, &mut state_vector);
        vec![
            ("wal header", encode_header(0xFEED, 31)),
            ("wal submit", encode_submit(100, 42, &ops)),
            ("wal answer (positive)", encode_answer(7, 13, &positive, ResolutionOrigin::Human)),
            ("wal answer (negative)", encode_answer(8, 21, &negative, ResolutionOrigin::System)),
            ("engine snapshot", encode_snapshot(&meta, &db)),
            ("database", serialize_database(&db)),
            ("delta batch", batch),
            ("state vector", state_vector.into_bytes()),
        ]
    }

    /// Decodes `bytes` with the decoder that `what` names; the typed error is
    /// flattened to a string (the property under test is "no panic").
    fn decode_named(what: &str, bytes: &[u8]) -> Result<(), String> {
        use youtopia_core::replication::{decode_delta_batch, decode_state_vector};
        match what {
            "engine snapshot" => decode_snapshot(bytes).map(drop).map_err(|e| e.to_string()),
            "database" => {
                youtopia_storage::deserialize_database(bytes).map(drop).map_err(|e| e.to_string())
            }
            "delta batch" => decode_delta_batch(bytes).map(drop).map_err(|e| e.to_string()),
            "state vector" => decode_state_vector(&mut ByteReader::new(bytes))
                .map(drop)
                .map_err(|e| e.to_string()),
            _ => decode_record(bytes).map(drop).map_err(|e| e.to_string()),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(20_000))]

        /// Hostile input, the general case: take an encoder-produced buffer
        /// for any decoder, flip / overwrite / truncate / extend random bytes
        /// (re-sealing the delta batch's CRC so the mutation reaches the
        /// payload decoder), and decode. The result is `Ok` or a typed error
        /// — a panic (slice out of range, arithmetic overflow, capacity
        /// overflow) fails the test.
        #[test]
        fn mutated_buffers_never_panic_any_decoder(
            which in 0usize..8,
            mutations in proptest::collection::vec((0u8..5, 0usize..4096, 0u16..256), 1..5),
            reseal in 0u8..4,
        ) {
            let (what, mut bytes) = pristine_buffers().swap_remove(which);
            decode_named(what, &bytes).expect("pristine buffer decodes");
            for (kind, at, byte) in mutations {
                let (at, byte) = (at % (bytes.len() + 1), byte as u8);
                match kind {
                    0 if at < bytes.len() => bytes[at] ^= byte | 1,
                    1 if at < bytes.len() => bytes[at] = byte,
                    // The extreme values a length or count field can take.
                    2 if at + 4 <= bytes.len() => {
                        let extreme = if byte % 2 == 0 { u32::MAX } else { u32::MAX / 2 + 1 };
                        bytes[at..at + 4].copy_from_slice(&extreme.to_le_bytes());
                    }
                    3 => bytes.truncate(at),
                    _ => bytes.extend(std::iter::repeat(byte).take(at % 24 + 1)),
                }
            }
            if what == "delta batch" && reseal > 0 && bytes.len() >= 12 {
                let crc = youtopia_storage::crc32(&bytes[12..]);
                bytes[8..12].copy_from_slice(&crc.to_le_bytes());
            }
            let _ = decode_named(what, &bytes);
        }
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let mappings = MappingSet::default();
        let a = config_fingerprint(&EngineConfig::default(), &mappings);
        let renumbered = EngineConfig { first_update_number: 50, ..EngineConfig::default() };
        let b = config_fingerprint(&renumbered, &mappings);
        assert_ne!(a, b);
        // Pinned: the value moves only with the schedule-revision salt. The
        // `v1` value (0x0701_cf65_945a_8a06) belongs to logs whose revived
        // victims did not sit out under blocking; those are rejected.
        assert_eq!(a, 0xba6d_7583_e918_effb, "fingerprint is stable");
        let skipping = EngineConfig { free_running: true, ..EngineConfig::default() };
        assert_ne!(
            a,
            config_fingerprint(&skipping, &mappings),
            "a skipping log is not a blocking one"
        );
    }

    #[test]
    fn fingerprint_distinguishes_escalation_policies() {
        use youtopia_core::{AutoDecision, EscalationPolicy};
        let mappings = MappingSet::default();
        let with = |escalation| {
            config_fingerprint(&EngineConfig { escalation, ..EngineConfig::default() }, &mappings)
        };
        let wait = with(EscalationPolicy::Wait);
        let re_ask = with(EscalationPolicy::ReAsk { after: 3 });
        let auto = with(EscalationPolicy::AutoResolve {
            after: 3,
            decision: AutoDecision::ExpandOrDeleteFirst,
        });
        assert_ne!(wait, re_ask, "a re-ask log is not a wait log");
        assert_ne!(wait, auto);
        assert_ne!(re_ask, auto);
    }
}
