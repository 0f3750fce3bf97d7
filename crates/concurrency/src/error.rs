//! The unified engine error surface.
//!
//! The engine historically reported failures through two independent enums:
//! [`SubmitError`] (admission) and [`LookupError`] (keyed queries against the
//! retained slot table). Callers that drive a whole submit → poll → report
//! round trip had to thread both. [`EngineError`] is the union: every
//! admission and lookup failure converts into it (`From` impls below, so `?`
//! just works), and it is `#[non_exhaustive]` so later engine facilities can
//! add failure kinds without a breaking release.
//!
//! Chase-side failures remain [`ChaseError`](youtopia_core::ChaseError):
//! those describe the *update's* fate (and are returned by its handle), not
//! the engine call that asked.

use youtopia_core::LookupError;
use youtopia_storage::UpdateId;

use crate::engine::{RetryAfter, SubmitError};

/// Any failure of an engine API call — admission, durability, or keyed
/// lookup. See the [module docs](self) for how this relates to the older
/// per-surface enums.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// Admission denied: the engine is at its cap (or the client over its
    /// fair share). Carries the same typed backoff hint as
    /// [`SubmitError::Saturated`].
    Saturated {
        /// In-flight updates at rejection time.
        active: usize,
        /// The configured admission cap.
        cap: usize,
        /// Typed backoff hint: completions to wait for before retrying.
        retry_after: RetryAfter,
    },
    /// The engine has been shut down or has failed fatally.
    ShutDown,
    /// A write-ahead-log append failed; the submission was not admitted.
    Durability(String),
    /// The update terminated but its slot was evicted by the retention
    /// horizon; per-update state is no longer available.
    SlotEvicted(UpdateId),
    /// The update id was never assigned by this engine.
    UnknownUpdate(UpdateId),
    /// The engine is a replica: plain submission is refused, work enters
    /// through `submit_replicated` / `apply_remote_deltas`.
    Replicated,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Saturated { active, cap, retry_after } => {
                write!(
                    f,
                    "engine saturated: {active} in-flight updates at cap {cap}; {retry_after}"
                )
            }
            EngineError::ShutDown => write!(f, "engine is shut down"),
            EngineError::Durability(msg) => write!(f, "write-ahead log append failed: {msg}"),
            EngineError::SlotEvicted(u) => {
                write!(f, "update {u} was evicted by the retention horizon")
            }
            EngineError::UnknownUpdate(u) => write!(f, "update {u} was never submitted"),
            EngineError::Replicated => {
                write!(f, "engine is a replica: submit through submit_replicated")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SubmitError> for EngineError {
    fn from(e: SubmitError) -> EngineError {
        match e {
            SubmitError::Saturated { active, cap, retry_after } => {
                EngineError::Saturated { active, cap, retry_after }
            }
            SubmitError::ShutDown => EngineError::ShutDown,
            SubmitError::Durability(msg) => EngineError::Durability(msg),
            SubmitError::Replicated => EngineError::Replicated,
        }
    }
}

impl From<LookupError> for EngineError {
    fn from(e: LookupError) -> EngineError {
        match e {
            LookupError::SlotEvicted(u) => EngineError::SlotEvicted(u),
            LookupError::UnknownUpdate(u) => EngineError::UnknownUpdate(u),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_every_field() {
        let sub = SubmitError::Saturated {
            active: 7,
            cap: 4,
            retry_after: RetryAfter { completions: 3 },
        };
        assert_eq!(
            EngineError::from(sub.clone()),
            EngineError::Saturated {
                active: 7,
                cap: 4,
                retry_after: RetryAfter { completions: 3 }
            }
        );
        // Display stays word-for-word compatible with the per-surface enums,
        // so log scrapers keyed on the old messages keep matching.
        assert_eq!(EngineError::from(sub.clone()).to_string(), sub.to_string());
        assert_eq!(EngineError::from(SubmitError::ShutDown), EngineError::ShutDown);
        assert_eq!(
            EngineError::from(LookupError::SlotEvicted(UpdateId(9))),
            EngineError::SlotEvicted(UpdateId(9))
        );
        assert_eq!(
            EngineError::from(LookupError::UnknownUpdate(UpdateId(2))),
            EngineError::UnknownUpdate(UpdateId(2))
        );
    }
}
