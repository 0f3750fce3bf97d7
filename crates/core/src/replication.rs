//! The replication vocabulary: origin-stamped events, state vectors and the
//! delta codec the engine-to-engine sync protocol ships over.
//!
//! Replication in Youtopia is **event shipping**, not tuple shipping. Every
//! node keeps one append-only event log per origin node; an event is either a
//! submitted update ([`ReplicationEvent::Submit`]) or a frontier answer
//! ([`ReplicationEvent::Answer`]). A [`StateVector`] summarises how much of
//! each origin's log a node holds, and a [`DeltaBatch`] — the y-crdt
//! `encode_state_as_update(state_vector)` move — carries exactly the per-origin
//! log suffixes the receiver is missing.
//!
//! Convergence rests on a total **canonical order**: every event carries a
//! Lamport timestamp, and events are ordered by `(lamport, origin)`
//! ([`EventStamp`]). A replica's rendered database is defined as the
//! deterministic serial fold of its event set in canonical order — so two
//! replicas holding the same event set render byte-identical databases no
//! matter which topology or delivery schedule got the events there.
//!
//! The byte encoding reuses the engine WAL's framing idioms: tagged
//! little-endian fields via [`ByteWriter`]/[`ByteReader`], the op/decision
//! payload codecs from [`crate::codec`], and a magic + version + CRC32 header
//! on every batch so a corrupted or foreign payload is rejected instead of
//! misapplied.

use std::collections::BTreeMap;
use std::fmt;

use youtopia_storage::wal::{crc32, ByteReader, ByteWriter, WalError};

use crate::codec::{decode_decision, decode_initial_op, encode_decision, encode_initial_op};
use crate::frontier::{FrontierDecision, ResolutionOrigin};
use crate::update::InitialOp;

/// Identifies one replica in a multi-node deployment (the
/// `youtopia-replication` crate's `ReplicaSet` assigns them densely).
///
/// Node ids are assigned by the operator (in tests: the harness) and must be
/// unique across the replica set; they break Lamport ties, so they also define
/// the canonical priority between genuinely concurrent events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The canonical identity of one replication event: its Lamport timestamp
/// plus the node that produced it.
///
/// The derived ordering (lamport first, origin second) **is** the canonical
/// order of the replicated fold — field order matters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventStamp {
    /// Lamport timestamp: strictly greater than every stamp the producing
    /// node had observed when it created the event.
    pub lamport: u64,
    /// The producing node.
    pub origin: NodeId,
}

impl fmt::Display for EventStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.origin, self.lamport)
    }
}

/// One entry in a node's replicated event log.
///
/// The log position (origin node, index) addresses the event for the delta
/// protocol; the embedded `lamport` timestamp places it in the canonical
/// order. Submits carry the update's initial operation; answers carry the
/// frontier decision for the `position`-th question asked by the `target`
/// update, tagged with the [`ResolutionOrigin`] it was decided under so a
/// replayed answer is never re-asked (nor re-decided) on a peer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplicationEvent {
    /// A locally submitted update entering the exchange.
    Submit {
        /// Lamport timestamp of the submission.
        lamport: u64,
        /// The update's initial operation.
        op: InitialOp,
    },
    /// A frontier answer for a replicated update.
    Answer {
        /// Lamport timestamp of the answer.
        lamport: u64,
        /// Stamp of the `Submit` event this answer belongs to.
        target: EventStamp,
        /// Which question of the target update this answers: the decision is
        /// applied to the `position`-th frontier the update surfaces under
        /// the canonical fold (0-based).
        position: u32,
        /// The decision itself.
        decision: FrontierDecision,
        /// Who decided — replayed verbatim so peers account an auto-resolved
        /// answer as [`ResolutionOrigin::System`] too.
        origin: ResolutionOrigin,
    },
}

impl ReplicationEvent {
    /// The event's Lamport timestamp.
    pub fn lamport(&self) -> u64 {
        match self {
            ReplicationEvent::Submit { lamport, .. } => *lamport,
            ReplicationEvent::Answer { lamport, .. } => *lamport,
        }
    }

    /// The event's canonical stamp given the log it sits in.
    pub fn stamp(&self, log_origin: NodeId) -> EventStamp {
        EventStamp { lamport: self.lamport(), origin: log_origin }
    }
}

/// Per-origin log lengths: "how much of each node's event log I hold".
///
/// The replication handshake is exactly y-crdt's: a node sends its state
/// vector, the peer answers with a [`DeltaBatch`] of every log suffix the
/// vector is missing. Missing origins read as 0.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StateVector(BTreeMap<NodeId, u64>);

impl StateVector {
    /// The empty vector (knows nothing). `encode_deltas_since(&empty)` is a
    /// full log transfer.
    pub fn new() -> StateVector {
        StateVector::default()
    }

    /// Events held from `origin`'s log (its next expected sequence number).
    pub fn get(&self, origin: NodeId) -> u64 {
        self.0.get(&origin).copied().unwrap_or(0)
    }

    /// Records that `len` events of `origin`'s log are held.
    pub fn set(&mut self, origin: NodeId, len: u64) {
        if len == 0 {
            self.0.remove(&origin);
        } else {
            self.0.insert(origin, len);
        }
    }

    /// Pointwise maximum with `other` — the vector of a node that holds
    /// everything both vectors cover.
    pub fn merge(&mut self, other: &StateVector) {
        for (&origin, &len) in &other.0 {
            let mine = self.0.entry(origin).or_insert(0);
            *mine = (*mine).max(len);
        }
    }

    /// `true` when this vector holds at least everything `other` does.
    pub fn dominates(&self, other: &StateVector) -> bool {
        other.0.iter().all(|(&origin, &len)| self.get(origin) >= len)
    }

    /// Iterates `(origin, held_len)` pairs in origin order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.0.iter().map(|(&origin, &len)| (origin, len))
    }

    /// Total events held across all origins.
    pub fn total(&self) -> u64 {
        self.0.values().sum()
    }
}

impl fmt::Display for StateVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (origin, len)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{origin}:{len}")?;
        }
        write!(f, "}}")
    }
}

/// One origin's missing log suffix inside a [`DeltaBatch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaEntry {
    /// Whose log this suffix belongs to.
    pub origin: NodeId,
    /// Log index of the first event in `events`.
    pub first_seq: u64,
    /// The consecutive events `origin`'s log holds from `first_seq` on.
    pub events: Vec<ReplicationEvent>,
}

/// "Everything you're missing": per-origin log suffixes computed against a
/// peer's [`StateVector`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    /// The suffixes, one per origin the receiver trails on (origin order).
    pub entries: Vec<DeltaEntry>,
}

impl DeltaBatch {
    /// `true` when the batch carries no events.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(|e| e.events.is_empty())
    }

    /// Total events across all entries.
    pub fn event_count(&self) -> usize {
        self.entries.iter().map(|e| e.events.len()).sum()
    }
}

// ---------------------------------------------------------------------------
// Byte codec — WAL-framing idioms: magic, version, CRC32 over the payload.
// ---------------------------------------------------------------------------

/// Magic prefix of an encoded [`DeltaBatch`] ("YSYN").
const SYNC_MAGIC: u32 = 0x5953_594E;
/// Bumped on any incompatible layout change.
const SYNC_VERSION: u32 = 1;

const EV_SUBMIT: u8 = 0;
const EV_ANSWER: u8 = 1;

fn corrupt(reason: impl Into<String>) -> WalError {
    WalError::Corrupt { offset: 0, reason: reason.into() }
}

fn encode_event(event: &ReplicationEvent, out: &mut ByteWriter) {
    match event {
        ReplicationEvent::Submit { lamport, op } => {
            out.put_u8(EV_SUBMIT);
            out.put_u64(*lamport);
            encode_initial_op(op, out);
        }
        ReplicationEvent::Answer { lamport, target, position, decision, origin } => {
            out.put_u8(EV_ANSWER);
            out.put_u64(*lamport);
            out.put_u64(target.lamport);
            out.put_u32(target.origin.0);
            out.put_u32(*position);
            out.put_u8(match origin {
                ResolutionOrigin::Human => 0,
                ResolutionOrigin::System => 1,
            });
            encode_decision(decision, out);
        }
    }
}

fn decode_event(r: &mut ByteReader<'_>) -> Result<ReplicationEvent, WalError> {
    match r.take_u8()? {
        EV_SUBMIT => {
            let lamport = r.take_u64()?;
            let op = decode_initial_op(r)?;
            Ok(ReplicationEvent::Submit { lamport, op })
        }
        EV_ANSWER => {
            let lamport = r.take_u64()?;
            let target = EventStamp { lamport: r.take_u64()?, origin: NodeId(r.take_u32()?) };
            let position = r.take_u32()?;
            let origin = match r.take_u8()? {
                0 => ResolutionOrigin::Human,
                1 => ResolutionOrigin::System,
                tag => return Err(corrupt(format!("unknown resolution-origin tag {tag}"))),
            };
            let decision = decode_decision(r)?;
            Ok(ReplicationEvent::Answer { lamport, target, position, decision, origin })
        }
        tag => Err(corrupt(format!("unknown replication-event tag {tag}"))),
    }
}

/// Encodes a [`StateVector`] (length-prefixed origin/len pairs).
pub fn encode_state_vector(sv: &StateVector, out: &mut ByteWriter) {
    let pairs: Vec<(NodeId, u64)> = sv.iter().collect();
    out.put_u32(pairs.len() as u32);
    for (origin, len) in pairs {
        out.put_u32(origin.0);
        out.put_u64(len);
    }
}

/// Decodes a [`StateVector`] written by [`encode_state_vector`].
pub fn decode_state_vector(r: &mut ByteReader<'_>) -> Result<StateVector, WalError> {
    let count = r.take_u32()?;
    let mut sv = StateVector::new();
    for _ in 0..count {
        let origin = NodeId(r.take_u32()?);
        let len = r.take_u64()?;
        sv.set(origin, len);
    }
    Ok(sv)
}

/// Encodes a [`DeltaBatch`] into a self-checking byte message:
/// `magic · version · crc32(payload) · payload`.
pub fn encode_delta_batch(batch: &DeltaBatch) -> Vec<u8> {
    let mut payload = ByteWriter::new();
    payload.put_u32(batch.entries.len() as u32);
    for entry in &batch.entries {
        payload.put_u32(entry.origin.0);
        payload.put_u64(entry.first_seq);
        payload.put_u32(entry.events.len() as u32);
        for event in &entry.events {
            encode_event(event, &mut payload);
        }
    }
    let payload = payload.into_bytes();
    let mut out = ByteWriter::new();
    out.put_u32(SYNC_MAGIC);
    out.put_u32(SYNC_VERSION);
    out.put_u32(crc32(&payload));
    out.put_raw(&payload);
    out.into_bytes()
}

/// Decodes a message written by [`encode_delta_batch`], verifying magic,
/// version and checksum.
pub fn decode_delta_batch(bytes: &[u8]) -> Result<DeltaBatch, WalError> {
    let mut header = ByteReader::new(bytes);
    if header.take_u32()? != SYNC_MAGIC {
        return Err(corrupt("bad sync magic"));
    }
    let version = header.take_u32()?;
    if version != SYNC_VERSION {
        return Err(corrupt(format!("unsupported sync version {version}")));
    }
    let crc = header.take_u32()?;
    let payload = &bytes[12..];
    if crc32(payload) != crc {
        return Err(corrupt("sync payload checksum mismatch"));
    }
    let mut r = ByteReader::new(payload);
    let entry_count = r.take_count()?;
    let mut entries = Vec::with_capacity(entry_count);
    for _ in 0..entry_count {
        let origin = NodeId(r.take_u32()?);
        let first_seq = r.take_u64()?;
        let event_count = r.take_count()?;
        let mut events = Vec::with_capacity(event_count);
        for _ in 0..event_count {
            events.push(decode_event(&mut r)?);
        }
        entries.push(DeltaEntry { origin, first_seq, events });
    }
    r.expect_done()?;
    Ok(DeltaBatch { entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::PositiveAction;
    use youtopia_storage::{RelationId, TupleId, Value};

    fn sample_batch() -> DeltaBatch {
        DeltaBatch {
            entries: vec![
                DeltaEntry {
                    origin: NodeId(0),
                    first_seq: 2,
                    events: vec![
                        ReplicationEvent::Submit {
                            lamport: 7,
                            op: InitialOp::Insert {
                                relation: RelationId(1),
                                values: vec![Value::constant("x")],
                            },
                        },
                        ReplicationEvent::Answer {
                            lamport: 9,
                            target: EventStamp { lamport: 7, origin: NodeId(0) },
                            position: 0,
                            decision: FrontierDecision::Positive(vec![
                                PositiveAction::Expand,
                                PositiveAction::Unify { with: TupleId(4) },
                            ]),
                            origin: ResolutionOrigin::Human,
                        },
                    ],
                },
                DeltaEntry {
                    origin: NodeId(3),
                    first_seq: 0,
                    events: vec![ReplicationEvent::Answer {
                        lamport: 11,
                        target: EventStamp { lamport: 7, origin: NodeId(0) },
                        position: 1,
                        decision: FrontierDecision::Negative(vec![TupleId(8)]),
                        origin: ResolutionOrigin::System,
                    }],
                },
            ],
        }
    }

    #[test]
    fn canonical_order_is_lamport_then_origin() {
        let a = EventStamp { lamport: 3, origin: NodeId(9) };
        let b = EventStamp { lamport: 4, origin: NodeId(0) };
        let c = EventStamp { lamport: 4, origin: NodeId(1) };
        assert!(a < b, "lower lamport wins regardless of origin");
        assert!(b < c, "origin breaks lamport ties");
    }

    #[test]
    fn state_vector_merge_and_dominance() {
        let mut a = StateVector::new();
        a.set(NodeId(0), 5);
        a.set(NodeId(1), 2);
        let mut b = StateVector::new();
        b.set(NodeId(1), 4);
        b.set(NodeId(2), 1);
        assert!(!a.dominates(&b));
        a.merge(&b);
        assert_eq!(a.get(NodeId(0)), 5);
        assert_eq!(a.get(NodeId(1)), 4);
        assert_eq!(a.get(NodeId(2)), 1);
        assert!(a.dominates(&b));
        assert_eq!(a.total(), 10);
        assert_eq!(a.to_string(), "{n0:5, n1:4, n2:1}");
    }

    #[test]
    fn delta_batch_roundtrips() {
        let batch = sample_batch();
        let bytes = encode_delta_batch(&batch);
        assert_eq!(decode_delta_batch(&bytes).unwrap(), batch);
        assert_eq!(batch.event_count(), 3);
        assert!(!batch.is_empty());
        assert!(DeltaBatch::default().is_empty());
    }

    #[test]
    fn state_vector_roundtrips() {
        let mut sv = StateVector::new();
        sv.set(NodeId(2), 17);
        sv.set(NodeId(0), 1);
        let mut w = ByteWriter::new();
        encode_state_vector(&sv, &mut w);
        let bytes = w.into_bytes();
        let decoded = decode_state_vector(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(decoded, sv);
    }

    #[test]
    fn corruption_is_rejected_not_misapplied() {
        let mut bytes = encode_delta_batch(&sample_batch());
        // Flip one payload byte: the checksum must catch it.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(decode_delta_batch(&bytes).is_err());
        // Truncations and foreign magic are rejected too.
        assert!(decode_delta_batch(&bytes[..8]).is_err());
        assert!(decode_delta_batch(&[0u8; 16]).is_err());
    }
}
