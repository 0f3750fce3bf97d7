//! The harness's own driver loop for an inline engine: drive, observe which
//! updates became terminal, answer the outstanding frontier question, repeat
//! until quiescent. Every call into the engine is a span.

use youtopia_concurrency::{AnswerOutcome, ExchangeEngine, UpdateHandle, UpdateStatus};
use youtopia_core::{FrontierResolver, RandomResolver};

use crate::trace::Tracer;
use crate::Res;

/// One submitted update the driver is timing.
pub struct Watched {
    pub handle: UpdateHandle,
    pub submitted_ns: u64,
    /// When the update was last observed to *become* terminal. A cascading
    /// abort can revive a terminated update, which clears this again, so at
    /// quiescence it holds the moment the update finished for good.
    pub done_ns: Option<u64>,
    pub failed: bool,
}

impl Watched {
    pub fn new(handle: UpdateHandle, submitted_ns: u64) -> Watched {
        Watched { handle, submitted_ns, done_ns: None, failed: false }
    }

    pub fn latency_ms(&self) -> Option<f64> {
        self.done_ns.map(|done| done.saturating_sub(self.submitted_ns) as f64 / 1e6)
    }
}

/// Counters one pump keeps beside the spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PumpCounts {
    pub answers: u64,
    pub stale_answers: u64,
    pub max_active: u64,
}

impl PumpCounts {
    pub fn absorb(&mut self, other: PumpCounts) {
        self.answers += other.answers;
        self.stale_answers += other.stale_answers;
        self.max_active = self.max_active.max(other.max_active);
    }
}

fn observe(tr: &Tracer, watched: &mut [Watched]) {
    let now = tr.now_ns();
    tr.call("status", 0, || {
        for w in watched.iter_mut() {
            match w.handle.status() {
                UpdateStatus::Terminated => {
                    w.done_ns.get_or_insert(now);
                }
                UpdateStatus::Failed => {
                    w.done_ns.get_or_insert(now);
                    w.failed = true;
                }
                UpdateStatus::Running | UpdateStatus::AwaitingFrontier => w.done_ns = None,
            }
        }
    });
}

/// Drives `engine` until it is quiescent. A frontier question is answered by
/// `resolver` once it has survived `answer_after` sweeps (0 = at the next
/// poll); while one waits, the loop sweeps instead. `after_write` runs after
/// every call that can write to a durable engine's log (a drive may fold it
/// into a snapshot, an answer appends to it).
pub fn pump_until_quiescent(
    tr: &Tracer,
    engine: &ExchangeEngine,
    resolver: &mut RandomResolver,
    answer_after: u64,
    watched: &mut [Watched],
    after_write: &mut dyn FnMut(),
) -> Res<PumpCounts> {
    let mut counts = PumpCounts::default();
    loop {
        tr.call("drive", 0, || engine.drive())?;
        after_write();
        counts.max_active = counts.max_active.max(engine.active_updates() as u64);
        observe(tr, watched);
        let pending = tr.call("pending_frontiers", 0, || engine.pending_frontiers());
        if pending.is_empty() {
            if tr.call("is_quiescent", 0, || engine.is_quiescent()) {
                return Ok(counts);
            }
            continue;
        }
        let mut answered = false;
        for pf in pending.into_iter().filter(|pf| pf.age >= answer_after) {
            let decision = tr.call("read", pf.update.0, || {
                engine.read(|db| resolver.resolve(&db.snapshot(pf.update), &pf.request))
            });
            match tr.call("answer", pf.update.0, || engine.answer(pf.token, decision))? {
                AnswerOutcome::Applied => counts.answers += 1,
                AnswerOutcome::Stale => counts.stale_answers += 1,
            }
            after_write();
            answered = true;
        }
        if !answered {
            tr.call("sweep", 0, || engine.sweep());
        }
    }
}
