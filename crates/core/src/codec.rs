//! Durable byte encoding for the core vocabulary: initial operations,
//! frontier decisions and terminal chase errors.
//!
//! These are the payload fragments the `ExchangeEngine`'s write-ahead log and
//! snapshots are built from (see `youtopia_storage::wal` for the framing and
//! the [`ByteWriter`] / [`ByteReader`] codec itself). Everything here is a
//! plain tagged little-endian encoding; constants travel as strings because
//! the symbol interner is process-global.

use youtopia_storage::wal::{decode_value, encode_value, ByteReader, ByteWriter, WalError};
use youtopia_storage::{NullId, RelationId, TupleId, UpdateId};

use crate::error::ChaseError;
use crate::frontier::{FrontierDecision, PositiveAction};
use crate::update::InitialOp;

fn corrupt(reason: impl Into<String>) -> WalError {
    WalError::Corrupt { offset: 0, reason: reason.into() }
}

/// Encodes an [`InitialOp`].
pub fn encode_initial_op(op: &InitialOp, out: &mut ByteWriter) {
    match op {
        InitialOp::Insert { relation, values } => {
            out.put_u8(0);
            out.put_u32(relation.0);
            out.put_u32(values.len() as u32);
            for value in values {
                encode_value(value, out);
            }
        }
        InitialOp::Delete { relation, tuple } => {
            out.put_u8(1);
            out.put_u32(relation.0);
            out.put_u64(tuple.0);
        }
        InitialOp::NullReplace { null, replacement } => {
            out.put_u8(2);
            out.put_u64(null.0);
            encode_value(replacement, out);
        }
    }
}

/// Decodes an [`InitialOp`] written by [`encode_initial_op`].
pub fn decode_initial_op(r: &mut ByteReader<'_>) -> Result<InitialOp, WalError> {
    match r.take_u8()? {
        0 => {
            let relation = RelationId(r.take_u32()?);
            let count = r.take_count()?;
            let mut values = Vec::with_capacity(count);
            for _ in 0..count {
                values.push(decode_value(r)?);
            }
            Ok(InitialOp::Insert { relation, values })
        }
        1 => Ok(InitialOp::Delete {
            relation: RelationId(r.take_u32()?),
            tuple: TupleId(r.take_u64()?),
        }),
        2 => Ok(InitialOp::NullReplace {
            null: NullId(r.take_u64()?),
            replacement: decode_value(r)?,
        }),
        tag => Err(corrupt(format!("unknown initial-op tag {tag}"))),
    }
}

/// Encodes a [`FrontierDecision`].
pub fn encode_decision(decision: &FrontierDecision, out: &mut ByteWriter) {
    match decision {
        FrontierDecision::Positive(actions) => {
            out.put_u8(0);
            out.put_u32(actions.len() as u32);
            for action in actions {
                match action {
                    PositiveAction::Expand => out.put_u8(0),
                    PositiveAction::Unify { with } => {
                        out.put_u8(1);
                        out.put_u64(with.0);
                    }
                }
            }
        }
        FrontierDecision::Negative(tuples) => {
            out.put_u8(1);
            out.put_u32(tuples.len() as u32);
            for tuple in tuples {
                out.put_u64(tuple.0);
            }
        }
    }
}

/// Decodes a [`FrontierDecision`] written by [`encode_decision`].
pub fn decode_decision(r: &mut ByteReader<'_>) -> Result<FrontierDecision, WalError> {
    match r.take_u8()? {
        0 => {
            let count = r.take_count()?;
            let mut actions = Vec::with_capacity(count);
            for _ in 0..count {
                actions.push(match r.take_u8()? {
                    0 => PositiveAction::Expand,
                    1 => PositiveAction::Unify { with: TupleId(r.take_u64()?) },
                    tag => return Err(corrupt(format!("unknown positive-action tag {tag}"))),
                });
            }
            Ok(FrontierDecision::Positive(actions))
        }
        1 => {
            let count = r.take_count()?;
            let mut tuples = Vec::with_capacity(count);
            for _ in 0..count {
                tuples.push(TupleId(r.take_u64()?));
            }
            Ok(FrontierDecision::Negative(tuples))
        }
        tag => Err(corrupt(format!("unknown decision tag {tag}"))),
    }
}

/// Encodes the terminal error of a failed execution for snapshots.
///
/// [`ChaseError::StepLimitExceeded`] — the only error a healthy engine
/// produces — roundtrips exactly; other variants are preserved as their
/// display string (wrapped in [`ChaseError::InvalidDecision`] on decode),
/// which is enough for the diagnostics they feed.
pub fn encode_chase_error(error: &ChaseError, out: &mut ByteWriter) {
    match error {
        ChaseError::StepLimitExceeded { update, limit } => {
            out.put_u8(0);
            out.put_u64(update.0);
            out.put_u64(*limit as u64);
        }
        other => {
            out.put_u8(1);
            out.put_str(&other.to_string());
        }
    }
}

/// Decodes an error written by [`encode_chase_error`].
pub fn decode_chase_error(r: &mut ByteReader<'_>) -> Result<ChaseError, WalError> {
    match r.take_u8()? {
        0 => Ok(ChaseError::StepLimitExceeded {
            update: UpdateId(r.take_u64()?),
            limit: r.take_u64()? as usize,
        }),
        1 => Ok(ChaseError::InvalidDecision(r.take_str()?)),
        tag => Err(corrupt(format!("unknown chase-error tag {tag}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_storage::Value;

    fn roundtrip_op(op: InitialOp) {
        let mut w = ByteWriter::new();
        encode_initial_op(&op, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(decode_initial_op(&mut r).unwrap(), op);
        assert!(r.is_done());
    }

    fn roundtrip_decision(d: FrontierDecision) {
        let mut w = ByteWriter::new();
        encode_decision(&d, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(decode_decision(&mut r).unwrap(), d);
        assert!(r.is_done());
    }

    #[test]
    fn initial_ops_roundtrip() {
        roundtrip_op(InitialOp::Insert {
            relation: RelationId(3),
            values: vec![Value::constant("NYC"), Value::Null(NullId(17))],
        });
        roundtrip_op(InitialOp::Delete { relation: RelationId(0), tuple: TupleId(99) });
        roundtrip_op(InitialOp::NullReplace {
            null: NullId(5),
            replacement: Value::constant("Ithaca"),
        });
        roundtrip_op(InitialOp::NullReplace {
            null: NullId(5),
            replacement: Value::Null(NullId(6)),
        });
    }

    #[test]
    fn decisions_roundtrip() {
        roundtrip_decision(FrontierDecision::Positive(vec![
            PositiveAction::Expand,
            PositiveAction::Unify { with: TupleId(12) },
        ]));
        roundtrip_decision(FrontierDecision::Positive(vec![]));
        roundtrip_decision(FrontierDecision::Negative(vec![TupleId(1), TupleId(2)]));
    }

    #[test]
    fn chase_errors_roundtrip() {
        let mut w = ByteWriter::new();
        encode_chase_error(
            &ChaseError::StepLimitExceeded { update: UpdateId(7), limit: 1000 },
            &mut w,
        );
        let bytes = w.into_bytes();
        let decoded = decode_chase_error(&mut ByteReader::new(&bytes)).unwrap();
        assert!(matches!(
            decoded,
            ChaseError::StepLimitExceeded { update: UpdateId(7), limit: 1000 }
        ));

        let mut w = ByteWriter::new();
        encode_chase_error(&ChaseError::NotReady(UpdateId(3)), &mut w);
        let bytes = w.into_bytes();
        let decoded = decode_chase_error(&mut ByteReader::new(&bytes)).unwrap();
        assert!(decoded.to_string().contains("u3"), "display string preserved: {decoded}");
    }

    #[test]
    fn garbage_tags_are_rejected() {
        let mut r = ByteReader::new(&[9]);
        assert!(decode_initial_op(&mut r).is_err());
        let mut r = ByteReader::new(&[9]);
        assert!(decode_decision(&mut r).is_err());
    }
}
