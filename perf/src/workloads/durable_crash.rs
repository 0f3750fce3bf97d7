//! `durable_crash` — mixed waves of eight through a durable inline engine;
//! partway the engine is dropped without `shutdown()`, the harness discards
//! the unflushed tail of the log itself, recovers, resubmits what was lost
//! and carries on. WAL append + fsync, snapshot write, snapshot decode and
//! deterministic replay are on no other workload's path.
//!
//! Flush policy (the same before and after every crash): `group_commit` 8,
//! `snapshot_every` 128 records.

use std::fs::OpenOptions;
use std::path::{Path, PathBuf};

use youtopia_concurrency::{DurabilityConfig, EngineBuilder, ExchangeEngine};
use youtopia_core::{InitialOp, RandomResolver};
use youtopia_storage::read_wal;
use youtopia_workload::WorkloadKind;

use super::{consistent, Ctx, Outcome, Workload};
use crate::inputs::{derive, fingerprint_db};
use crate::pump::{pump_until_quiescent, Watched};
use crate::Res;

const WAVE: usize = 8;
const BLOCK: usize = 64 * WAVE;
const BLOCKS_PER_SECOND: f64 = 6.0;
const GROUP_COMMIT: usize = 8;
const SNAPSHOT_EVERY: u64 = 128;
/// One crash per second of work, evenly spaced, at least one: `restore_s` is
/// the mean over them (recoveries get slower as the database grows).
const SECONDS_PER_CRASH: f64 = 1.0;
/// A scheduled crash waits for the first wave boundary at which the log is
/// this long (about half way between two snapshots), so every recovery
/// replays a comparable tail — right after a snapshot there would be nothing
/// to replay or to lose, right before one five times as much.
const CRASH_WAL_BYTES: std::ops::Range<u64> = 12_000..13_500;

pub const WORKLOAD: Workload = Workload {
    name: "durable_crash",
    kind: WorkloadKind::Mixed,
    block: BLOCK,
    setup,
    run,
    baseline: None,
    deterministic: true,
};

fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig::new(dir).with_snapshot_every(SNAPSHOT_EVERY).with_group_commit(GROUP_COMMIT)
}

fn builder(ctx: &Ctx<'_>, dir: &Path) -> EngineBuilder {
    EngineBuilder::new().inline().first_update_number(ctx.first_update()).durable(durability(dir))
}

fn fresh_dir(ctx: &Ctx<'_>, tag: &str) -> Res<PathBuf> {
    let dir = ctx.scratch.join(format!("durable_crash-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    Ok(dir)
}

fn setup(ctx: &Ctx<'_>) -> Res<()> {
    let dir = fresh_dir(ctx, "setup")?;
    builder(ctx, &dir)
        .build(ctx.fixture.initial_db.clone(), ctx.fixture.mappings.clone())?
        .shutdown();
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}

/// Where to cut a log so that its last `whole` records vanish and the record
/// before them is torn in half — what a crash inside a group-commit window
/// can leave on disk. Record 0 (the header) is never touched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TailCut {
    /// New file length.
    pub len: u64,
    /// Records that stay readable.
    pub kept: usize,
}

/// Computes the cut from the payload lengths of a log's valid records (each
/// is framed by an 8-byte header on disk). `None` when only the header exists.
pub fn torn_tail_cut(payload_lens: &[usize], whole: usize) -> Option<TailCut> {
    const FRAME_HEADER: usize = 8;
    let droppable = payload_lens.len().saturating_sub(1);
    if droppable == 0 {
        return None;
    }
    let torn = payload_lens.len() - (whole + 1).min(droppable);
    let start: usize = payload_lens[..torn].iter().map(|len| FRAME_HEADER + len).sum();
    let len = start + (FRAME_HEADER + payload_lens[torn]) / 2;
    Some(TailCut { len: len as u64, kept: torn })
}

/// Counts the bytes appended to a log file from the outside: its length is
/// read after every call that can append (growth is new bytes) or restart the
/// log behind a snapshot (the shorter file is all new bytes).
struct WalMeter {
    path: PathBuf,
    last_len: u64,
    appended: u64,
}

impl WalMeter {
    fn len(&self) -> u64 {
        std::fs::metadata(&self.path).map_or(0, |m| m.len())
    }

    fn observe(&mut self) {
        let len = self.len();
        self.appended += if len >= self.last_len { len - self.last_len } else { len };
        self.last_len = len;
    }
}

fn run(ctx: &Ctx<'_>) -> Res<Outcome> {
    let tr = ctx.tr;
    let (ops, _) = tr.phase("gen", || ctx.corpus(&WORKLOAD, 0, ctx.blocks(BLOCKS_PER_SECOND)));
    let waves: Vec<&[InitialOp]> = ops.chunks(WAVE).collect();
    let crashes = ((ctx.seconds / SECONDS_PER_CRASH).round() as usize).max(1);
    let mut crash_after: Vec<usize> =
        (1..=crashes).rev().map(|k| k * waves.len() / (crashes + 1)).collect();

    let dir = fresh_dir(ctx, if tr.is_on() { "traced" } else { "untraced" })?;
    let config = durability(&dir);
    let mut meter = WalMeter { path: config.wal_path(), last_len: 0, appended: 0 };
    let mut resolver = RandomResolver::seeded(derive(ctx.seed, 0));
    let mut out = Outcome { replicas: 1, attempted: ops.len() as u64, ..Outcome::default() };
    let mut lost_waves_max = 0usize;

    // Submits one wave and pumps it to quiescence; returns the watched
    // updates (first submissions are timed, resubmissions only checked).
    let submit_wave = |engine: &ExchangeEngine,
                       w: usize,
                       resolver: &mut RandomResolver,
                       meter: &mut WalMeter,
                       out: &mut Outcome|
     -> Res<Vec<Watched>> {
        let batch = waves[w].to_vec();
        let submitted = tr.now_ns();
        let handles = tr.call("submit_batch", w as u64, || engine.submit_batch(batch))?;
        meter.observe();
        let mut watched: Vec<Watched> =
            handles.into_iter().map(|h| Watched::new(h, submitted)).collect();
        let pump =
            pump_until_quiescent(tr, engine, resolver, 0, &mut watched, &mut || meter.observe())?;
        out.pump.absorb(pump);
        Ok(watched)
    };

    let (first, secs) = tr.phase("run", || -> Res<ExchangeEngine> {
        let db = tr.call("clone_db", 0, || ctx.fixture.initial_db.clone());
        tr.call("build", 0, || Ok(builder(ctx, &dir).build(db, ctx.fixture.mappings.clone())?))
    });
    let mut engine = first?;
    out.run_s += secs;
    meter.observe();

    let mut w = 0usize;
    while w < waves.len() {
        ctx.tick();
        let (result, secs) = tr.phase("run", || -> Res<()> {
            let watched = submit_wave(&engine, w, &mut resolver, &mut meter, &mut out)?;
            out.record(&watched, None);
            Ok(())
        });
        result?;
        out.run_s += secs;
        w += 1;

        let due = crash_after.last().is_some_and(|&at| w >= at);
        if !(due && CRASH_WAL_BYTES.contains(&meter.last_len) && w < waves.len()) {
            continue;
        }
        crash_after.pop();
        // The crash: no shutdown, so the open group-commit window is never
        // flushed. The page cache would keep those records readable, so the
        // harness discards them itself, at real record boundaries.
        tr.phase("crash", || drop(engine));
        let lens: Vec<usize> = read_wal(&meter.path)?.records.iter().map(Vec::len).collect();
        if let Some(cut) = torn_tail_cut(&lens, GROUP_COMMIT - 1) {
            OpenOptions::new().write(true).open(&meter.path)?.set_len(cut.len)?;
        }
        let (recovered, secs) = tr.phase("recover", || -> Res<ExchangeEngine> {
            let engine = tr.call("recover", w as u64, || {
                builder(ctx, &dir).recover(ctx.fixture.mappings.clone())
            })?;
            // Replay stops at the last surviving record; the questions whose
            // answers were lost are asked again.
            let pump = pump_until_quiescent(tr, &engine, &mut resolver, 0, &mut [], &mut || {})?;
            out.pump.absorb(pump);
            Ok(engine)
        });
        engine = recovered?;
        out.restore_samples.push(secs);
        out.run_s += secs;
        meter.last_len = meter.len();

        let admitted = engine.metrics().workload_size;
        let lost = (w * WAVE).saturating_sub(admitted);
        out.check(admitted <= w * WAVE && lost % WAVE == 0 && lost / WAVE <= GROUP_COMMIT, || {
            format!(
                "recovery kept {admitted} of {} updates: outside the group-commit allowance",
                w * WAVE
            )
        });
        lost_waves_max = lost_waves_max.max(lost / WAVE);
        let (result, secs) = tr.phase("run", || -> Res<()> {
            for again in admitted / WAVE..w {
                let watched = submit_wave(&engine, again, &mut resolver, &mut meter, &mut out)?;
                out.failed += watched.iter().filter(|w| w.failed).count() as u64;
            }
            Ok(())
        });
        result?;
        out.run_s += secs;
    }
    out.check(crash_after.is_empty(), || {
        format!(
            "{} scheduled crash(es) never found a log of {CRASH_WAL_BYTES:?} bytes",
            crash_after.len()
        )
    });

    let metrics = tr.call("metrics", 0, || engine.metrics());
    let quiescent = engine.is_quiescent();
    let retained = engine.retained_slots();
    let ((db, _, _), secs) = tr.phase("run", || tr.call("shutdown", 0, || engine.shutdown()));
    out.run_s += secs;
    meter.observe();
    out.engine.add(&metrics);
    let (admitted, attempted) = (out.engine.workload_size, out.attempted);
    out.check(quiescent && admitted == attempted, || {
        format!("{admitted} of {attempted} updates are in the final history")
    });
    out.counts.insert("concurrency.retained_slots", retained as f64);
    out.counts.insert("harness.lost_submissions_max", lost_waves_max as f64);
    let (ok, _) = tr.phase("check", || consistent(&db, ctx));
    out.check(ok, || "final state violates a mapping".into());
    out.restore_s = crate::stats::mean(&out.restore_samples);
    out.persist_bytes = meter.appended;
    out.state_fp = fingerprint_db(&db);
    out.ladder_ops = ops.clone();
    out.ladder_seed = derive(ctx.seed, 0);
    out.final_db = Some(db);
    out.wal = Some((meter.path.clone(), GROUP_COMMIT));
    out.cleanup.push(dir);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use youtopia_storage::WalWriter;

    #[test]
    fn tail_discard_cuts_at_real_record_boundaries() {
        let dir = std::env::temp_dir().join(format!("perf-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut writer = WalWriter::create(&path).unwrap();
        writer.set_group_commit(8);
        // Records of different lengths, so a cut computed from the wrong
        // boundaries cannot pass by accident.
        let payloads: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 5 + 3 * i as usize]).collect();
        for p in &payloads {
            writer.append(p).unwrap();
        }
        writer.flush().unwrap();
        drop(writer);

        let lens: Vec<usize> = read_wal(&path).unwrap().records.iter().map(Vec::len).collect();
        assert_eq!(lens.len(), 20);
        let cut = torn_tail_cut(&lens, 7).unwrap();
        assert_eq!(cut.kept, 12, "seven whole records and the torn one are gone");
        OpenOptions::new().write(true).open(&path).unwrap().set_len(cut.len).unwrap();
        let after = read_wal(&path).unwrap();
        assert_eq!(after.records, payloads[..12].to_vec());
        assert!(after.file_len > after.valid_len, "the thirteenth record is torn, not absent");
        assert!(after.file_len < after.valid_len + 8 + lens[12] as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tail_discard_never_touches_the_header() {
        assert_eq!(torn_tail_cut(&[], 7), None);
        assert_eq!(torn_tail_cut(&[30], 7), None);
        // Header + 3 records: all three are affected, the first of them torn.
        let cut = torn_tail_cut(&[30, 10, 10, 10], 7).unwrap();
        assert_eq!(cut.kept, 1);
        assert_eq!(cut.len, 38 + 9);
        // whole = 0 tears just the last record.
        assert_eq!(torn_tail_cut(&[30, 10, 10, 10], 0).unwrap().kept, 3);
    }
}
