//! Per-layer figures for traced rounds: what the service reports about
//! each applied batch (`Applied`, `BatchTrace`, `WalStats`,
//! `CheckpointStats`, pool counters), plus replays that time the
//! benchmark's own calls into `mmv_core`, the WAL codec, checkpoints
//! and the snapshot read path over the same stream.

use crate::util::{dir_bytes, fresh_dir, mean, quantile, time_us, Round};
use mmv_constraints::{Constraint, DomainResolver, Lit, SolverConfig, Value};
use mmv_core::batch::{DeleteStats, UpdateBatch};
use mmv_core::tp::{fixpoint, FixpointConfig, Operator};
use mmv_core::{
    dred_delete_batch, insert_batch, parse_wal_payload, render_wal_payload, stdel_delete_batch,
    ConstrainedDatabase, MaterializedView, SupportMode, WalPayload,
};
use mmv_service::checkpoint::{load_newest, write_checkpoint};
use mmv_service::{Applied, BatchTrace, ServiceSnapshot, Stage, ViewService};
use std::path::Path;

/// Sums the maintenance counters of the timed batches.
#[derive(Debug, Default)]
pub struct Collector {
    batches: u64,
    solver_calls: u64,
    tp_derivations: u64,
    tp_candidates: u64,
    tp_probes: u64,
    dred_pout: u64,
    dred_rederived: u64,
    dred_candidates: u64,
    stdel_replacements: u64,
    insert_propagated: u64,
    pages_copied: u64,
    keys_copied: u64,
    publish_us: Vec<f64>,
}

impl Collector {
    pub fn add(&mut self, a: &Applied) {
        self.batches += 1;
        let fx = &a.stats.inserts.fixpoint;
        self.tp_derivations += fx.derivations_tried as u64;
        self.tp_candidates += fx.candidates_scanned as u64;
        self.tp_probes += fx.index_probes as u64;
        self.insert_propagated += a.stats.inserts.propagated as u64;
        match a.stats.deletes {
            DeleteStats::None => {}
            DeleteStats::Dred(d) => {
                self.solver_calls += d.solver_calls as u64;
                self.dred_pout += d.pout_atoms as u64;
                self.dred_rederived += d.rederived as u64;
                self.dred_candidates += d.candidates_scanned as u64;
            }
            DeleteStats::StDel(s) => {
                self.solver_calls += s.solver_calls as u64;
                self.stdel_replacements +=
                    (s.direct_replacements + s.propagated_replacements) as u64;
            }
        }
        self.pages_copied += a.publish.entry_pages_copied;
        self.keys_copied += a.publish.by_const_keys_copied + a.publish.slot_keys_copied;
        self.publish_us
            .push(a.publish.publish_latency.as_secs_f64() * 1e6);
    }

    /// Per-batch means of the counters, and the publish p50.
    pub fn report(&self, r: &mut Round) {
        let per = |x: u64| x as f64 / self.batches.max(1) as f64;
        r.layer("constraints.solver_calls_per_batch", per(self.solver_calls));
        r.layer("core.tp.derivations_per_batch", per(self.tp_derivations));
        r.layer("core.tp.candidates_per_batch", per(self.tp_candidates));
        r.layer("core.tp.index_probes_per_batch", per(self.tp_probes));
        r.layer("core.dred.pout_atoms_per_batch", per(self.dred_pout));
        r.layer("core.dred.rederived_per_batch", per(self.dred_rederived));
        r.layer("core.dred.candidates_per_batch", per(self.dred_candidates));
        r.layer(
            "core.stdel.replacements_per_batch",
            per(self.stdel_replacements),
        );
        r.layer(
            "core.insert.propagated_per_batch",
            per(self.insert_propagated),
        );
        r.layer(
            "core.store.entry_pages_copied_per_batch",
            per(self.pages_copied),
        );
        r.layer(
            "core.store.index_keys_copied_per_batch",
            per(self.keys_copied),
        );
        r.layer("core.store.publish_us", quantile(&self.publish_us, 0.5));
    }
}

/// Pool task and steal counters, read before and after the timed phase.
pub fn pool_counts(svc: &ViewService) -> (u64, u64) {
    svc.pool().map_or((0, 0), |p| {
        (
            p.metrics().tasks_total.get(),
            p.metrics().steals_total.get(),
        )
    })
}

/// Stage p50s (and the lock-wait p99) over the traces of the timed
/// epochs `(after, upto]`.
pub fn stage_layers(r: &mut Round, traces: &[BatchTrace], after: u64, upto: u64) {
    let timed: Vec<&BatchTrace> = traces
        .iter()
        .filter(|t| t.epoch > after && t.epoch <= upto)
        .collect();
    let us = |s: Stage| -> Vec<f64> {
        timed
            .iter()
            .map(|t| t.stage(s).as_secs_f64() * 1e6)
            .collect()
    };
    r.layer("service.traced_batches", timed.len() as f64);
    r.layer("service.split_us", quantile(&us(Stage::Split), 0.5));
    r.layer("service.lock_wait_us", quantile(&us(Stage::LockWait), 0.5));
    r.layer(
        "service.lock_wait_p99_us",
        quantile(&us(Stage::LockWait), 0.99),
    );
    r.layer("service.apply_us", quantile(&us(Stage::Apply), 0.5));
    r.layer("service.publish_us", quantile(&us(Stage::Publish), 0.5));
    r.layer("wal.render_us", quantile(&us(Stage::WalRender), 0.5));
    r.layer("wal.append_us", quantile(&us(Stage::WalAppend), 0.5));
    r.layer("wal.fsync_wait_us", quantile(&us(Stage::FsyncWait), 0.5));
}

/// WAL and checkpoint counters of the whole round. Under
/// `FsyncPolicy::Never` no batch waits for a flush: the fsync wait is
/// then what one flush of the newest WAL segment costs, and the batches
/// per flush are all the frames.
pub fn storage_layers(r: &mut Round, svc: &ViewService, dir: &Path) {
    let wal = svc.wal_stats().unwrap_or_default();
    let records = wal.records.max(1) as f64;
    if wal.fsync_batches == 0 {
        r.set_layer("wal.fsync_wait_us", fsync_replay_us(dir));
        r.layer("wal.batches_per_fsync", records);
    } else {
        r.layer("wal.batches_per_fsync", records / wal.fsync_batches as f64);
    }
    r.layer("wal.bytes_per_batch", wal.bytes_written as f64 / records);
    let chk = svc.checkpoint_stats().unwrap_or_default();
    r.layer("checkpoint.checkpoints", chk.checkpoints as f64);
    if chk.checkpoints > 0 {
        r.layer(
            "checkpoint.write_ms",
            chk.total_micros as f64 / chk.checkpoints as f64 / 1e3,
        );
    }
}

/// Checkpoint write (when the service wrote none) and load of the
/// final snapshot into a side directory, timed around the public calls.
pub fn checkpoint_replay(r: &mut Round, base: &Path, snap: &ServiceSnapshot, op: Operator) {
    let dir = fresh_dir(base, "checkpoint-replay");
    let (written, write_us) = time_us(|| write_checkpoint(&dir, snap, 0, op));
    written.expect("checkpoint replay writes");
    if !r.layers.iter().any(|(k, _)| k == "checkpoint.write_ms") {
        r.layer("checkpoint.write_ms", write_us / 1e3);
    }
    let (loaded, load_us) = time_us(|| load_newest(&dir));
    let loaded = loaded
        .expect("checkpoint replay loads")
        .expect("one checkpoint");
    let entries: usize = loaded.shards.iter().map(|(_, e)| e.len()).sum();
    assert_eq!(entries, snap.len(), "checkpoint load returns every entry");
    r.layer("checkpoint.load_ms", load_us / 1e3);
    r.layer("checkpoint.bytes", dir_bytes(&dir) as f64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// p50 of `sync_data` on the newest WAL segment in `dir`, in
/// microseconds.
fn fsync_replay_us(dir: &Path) -> f64 {
    let newest = std::fs::read_dir(dir)
        .expect("read the storage directory")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .max()
        .expect("the service wrote a WAL segment");
    let file = std::fs::OpenOptions::new()
        .append(true)
        .open(&newest)
        .expect("open the WAL segment");
    let times: Vec<f64> = (0..20)
        .map(|_| time_us(|| file.sync_data().expect("fsync the WAL segment")).1)
        .collect();
    quantile(&times, 0.5)
}

/// Literal count of a constraint, `not(·)` bodies included.
fn lits(c: &Constraint) -> usize {
    c.lits
        .iter()
        .map(|l| match l {
            Lit::Not(inner) => 1 + lits(inner),
            _ => 1,
        })
        .sum()
}

/// End-of-run store figures: dead slab slots, the largest live
/// constraint, and the update log's retained records.
pub fn store_layers(r: &mut Round, svc: &ViewService) {
    let snap = svc.snapshot();
    let mut dead = 0usize;
    let mut max_lits = 0usize;
    for s in 0..snap.shard_count() {
        let view = snap.shard(s).view();
        dead += view.entry_slots() - view.len();
        for (_, e) in view.live_entries() {
            max_lits = max_lits.max(lits(&e.atom.constraint));
        }
    }
    r.layer("core.store.dead_slots", dead as f64);
    r.layer("constraints.max_entry_lits", max_lits as f64);
    r.layer("log.records_retained", svc.log().len() as f64);
}

/// The stream a replay re-applies: every batch in apply order, and the
/// index of the first timed one.
pub struct Stream<'a> {
    pub db: &'a ConstrainedDatabase,
    pub resolver: &'a dyn DomainResolver,
    pub op: Operator,
    pub batches: &'a [UpdateBatch],
    pub timed_from: usize,
}

/// Per-batch replay costs of the core maintenance entry points.
pub struct Replay {
    pub build_s: f64,
    pub delete_us: Vec<f64>,
    pub insert_us: Vec<f64>,
    /// Entry pages copied per timed batch against the previous batch's
    /// frozen clone, at pool width 1.
    pub pages_copied: f64,
}

/// Re-applies `stream` to a standalone view built in `mode`, freezing a
/// clone after every batch as the service's publish does, and times the
/// deletion and insertion entry points around each timed batch.
pub fn replay(stream: &Stream<'_>, mode: SupportMode) -> Replay {
    let cfg = FixpointConfig::default();
    let ((view, _), build_us) = time_us(|| {
        fixpoint(stream.db, stream.resolver, stream.op, mode, &cfg).expect("replay fixpoint")
    });
    let mut view: MaterializedView = view;
    let mut _frozen = view.clone();
    let (mut delete_us, mut insert_us) = (Vec::new(), Vec::new());
    let mut copied = 0u64;
    for (i, b) in stream.batches.iter().enumerate() {
        let before = view.share_stats();
        let (_, del) = time_us(|| {
            if b.deletes.is_empty() {
                return;
            }
            match mode {
                SupportMode::Plain => {
                    dred_delete_batch(stream.db, &mut view, &b.deletes, stream.resolver, &cfg)
                        .map(drop)
                        .expect("replayed DRed");
                }
                SupportMode::WithSupports => {
                    stdel_delete_batch(&mut view, &b.deletes, stream.resolver, &cfg.solver)
                        .map(drop)
                        .expect("replayed StDel");
                }
            }
        });
        let (_, ins) = time_us(|| {
            insert_batch(
                stream.db,
                &mut view,
                &b.inserts,
                stream.resolver,
                stream.op,
                &cfg,
            )
            .expect("replayed insert")
        });
        if i >= stream.timed_from {
            delete_us.push(del);
            insert_us.push(ins);
            copied += view.share_stats().copied_since(&before).0;
        }
        _frozen = view.clone();
    }
    let timed = (stream.batches.len() - stream.timed_from).max(1) as f64;
    Replay {
        build_s: build_us / 1e6,
        delete_us,
        insert_us,
        pages_copied: copied as f64 / timed,
    }
}

/// Renders every timed batch as a WAL payload and times its parse.
pub fn wal_parse_us(batches: &[UpdateBatch]) -> f64 {
    let frames: Vec<String> = batches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            render_wal_payload(&WalPayload::Batch {
                epoch: i as u64 + 1,
                ticket_base: 0,
                batch: b.clone(),
            })
        })
        .collect();
    let times: Vec<f64> = frames
        .iter()
        .map(|f| time_us(|| parse_wal_payload(f).expect("rendered frame parses")).1)
        .collect();
    mean(&times)
}

/// One snapshot-read probe: the predicate, the `ask` arguments and the
/// `query` pattern.
pub type Probe = (String, Vec<Value>, Vec<Option<Value>>);

/// Single-thread `ask`/`query` latency on one fixed snapshot, over 200
/// probes drawn by `probe`.
pub fn snapshot_reads(
    r: &mut Round,
    snap: &ServiceSnapshot,
    resolver: &dyn DomainResolver,
    mut probe: impl FnMut() -> Probe,
) -> Result<(), String> {
    let scfg = SolverConfig::default();
    let (mut asks, mut queries) = (Vec::new(), Vec::new());
    for _ in 0..200 {
        let (pred, args, pattern) = probe();
        let (got, us) = time_us(|| snap.ask(&pred, &args, resolver, &scfg));
        got.map_err(|e| format!("snapshot ask: {e}"))?;
        asks.push(us);
        let (got, us) = time_us(|| snap.query(&pred, &pattern, resolver, &scfg));
        got.map_err(|e| format!("snapshot query: {e}"))?;
        queries.push(us);
    }
    r.layer("snapshot.ask_us", quantile(&asks, 0.5));
    r.layer("snapshot.query_us", quantile(&queries, 0.5));
    Ok(())
}
