//! `mediated_reads`: a large `W_P` view whose sensor facts call the
//! benchmark's own external source (`s{i}(V) <- in(V, sensors:read(i))`),
//! joined with a sliding window of zone intervals
//! (`a{i}(X, V) <- || zone(X), s{i}(V)`). One client thread slides the
//! zone window closed-loop; after every batch it asks and queries the
//! view a fixed number of times and, between reads, changes sensor
//! readings: external updates that need no maintenance under `W_P`
//! (Theorem 4). The reference model pairs the current sensor readings
//! with the points of the zones live at the snapshot's epoch.
//!
//! Two choices keep the figures steady on a small shared host. Reads
//! share the writer's thread: with a separate reader thread on two
//! cores, read p50 moved twofold between identical runs. The writer is
//! closed-loop rather than open-loop at a fixed rate: timed from when
//! each batch was due, every host stall delayed all the batches due
//! during it, and write_p99_ms moved by three quarters of its median
//! between runs.
//!
//! The reading and the zone point are separate arguments on purpose:
//! deletion maintenance tests whether a derived entry overlaps the
//! deleted region with the solver, which calls the external source as it
//! is at that moment. Joined on one variable, an entry whose sensor has
//! no reading inside the retired zone would fail that test and outlive
//! its zone. Readings are never empty, so here the test depends on the
//! zone intervals alone.
//!
//! The writer also keeps one bounded run of overlapping inserts on a
//! predicate of its own (`oz`), which only its post-batch probes read:
//! each insert's `Add` constraint carries every earlier one's `not(·)`,
//! and once the solver's DNF budget is exceeded the probe fails with
//! `InstanceError::Unknown`. Those probes count as failed operations.

use crate::layers::{self, Collector, Stream};
use crate::util::{
    final_checkpoint, quantile, recover_checked, secs, status_kb, timed_build, Rng, Round,
};
use crate::Opts;
use mmv_constraints::{
    CmpOp, Constraint, DomainResolver, SolverConfig, Term, Value, ValueSet, Var,
};
use mmv_core::batch::UpdateBatch;
use mmv_core::parser::parse_program;
use mmv_core::tp::Operator;
use mmv_core::{ConstrainedAtom, ConstrainedDatabase, InstanceError, SupportMode};
use mmv_service::{
    Applied, Durability, FsyncPolicy, ServiceSnapshot, ViewService, ViewServiceBuilder,
};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

struct Params {
    sensors: usize,
    zones: i64,
    warmup: usize,
    timed: usize,
    tail: usize,
    /// Closed-loop reads after each batch.
    reads_per_batch: usize,
    checkpoint_every: u64,
}

fn params(quick: bool) -> Params {
    if quick {
        Params {
            sensors: 8,
            zones: 8,
            warmup: 8,
            timed: 64,
            tail: 4,
            reads_per_batch: 4,
            checkpoint_every: 16,
        }
    } else {
        Params {
            sensors: 16,
            zones: 32,
            warmup: 50,
            timed: 500,
            tail: 64,
            reads_per_batch: 15,
            checkpoint_every: 256,
        }
    }
}

/// Zone `k` is `[k*ZONE_STRIDE, k*ZONE_STRIDE + ZONE_WIDTH]`; after epoch
/// `e` the live zones are `e .. e + zones`.
const ZONE_STRIDE: i64 = 10;
const ZONE_WIDTH: i64 = 5;
/// Overlapping inserts per run, and the run's interval shape
/// (`1000 + 10k <= X <= 1050 + 10k`).
const OVERLAPS: i64 = 7;
/// A sensor is changed after every this many reads.
const CHANGE_EVERY: usize = 4;

/// The external source: sensor `i`'s current readings. Counts the calls
/// made on each thread, so the domain calls of reads are measured apart
/// from those of maintenance.
struct Sensors {
    readings: RwLock<Vec<Vec<i64>>>,
}

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

impl Sensors {
    fn set(&self, i: usize, values: Vec<i64>) {
        self.readings.write().expect("sensor lock")[i] = values;
    }

    fn get(&self, i: usize) -> Vec<i64> {
        self.readings.read().expect("sensor lock")[i].clone()
    }
}

impl DomainResolver for Sensors {
    fn resolve(&self, domain: &str, func: &str, args: &[Value]) -> ValueSet {
        CALLS.with(|c| c.set(c.get() + 1));
        if domain != "sensors" || func != "read" {
            return ValueSet::Empty;
        }
        let r = self.readings.read().expect("sensor lock");
        match args
            .first()
            .and_then(Value::as_int)
            .and_then(|i| r.get(usize::try_from(i).ok()?))
        {
            Some(vals) => ValueSet::finite(vals.iter().map(|&v| Value::Int(v))),
            None => ValueSet::Empty,
        }
    }
}

fn x() -> Term {
    Term::var(Var(0))
}

fn interval(pred: &str, lo: i64, hi: i64) -> ConstrainedAtom {
    ConstrainedAtom::new(
        pred,
        vec![x()],
        Constraint::cmp(x(), CmpOp::Ge, Term::int(lo)).and(Constraint::cmp(
            x(),
            CmpOp::Le,
            Term::int(hi),
        )),
    )
}

fn zone(k: i64) -> ConstrainedAtom {
    interval("zone", k * ZONE_STRIDE, k * ZONE_STRIDE + ZONE_WIDTH)
}

fn in_live_zone(v: i64, epoch: u64, zones: i64) -> bool {
    let k = v.div_euclid(ZONE_STRIDE);
    let e = epoch as i64;
    k >= e && k < e + zones && v - k * ZONE_STRIDE <= ZONE_WIDTH
}

/// Readings are drawn from `0..=READING_MAX`.
const READING_MAX: i64 = 1000;

fn program(p: &Params) -> ConstrainedDatabase {
    let mut src = String::new();
    for i in 0..p.sensors {
        src.push_str(&format!("s{i}(V) <- in(V, sensors:read({i})).\n"));
        src.push_str(&format!("a{i}(X, V) <- || zone(X), s{i}(V).\n"));
    }
    for k in 0..p.zones {
        let lo = k * ZONE_STRIDE;
        src.push_str(&format!(
            "zone(X) <- X >= {lo} & X <= {}.\n",
            lo + ZONE_WIDTH
        ));
    }
    src.push_str("op(X) <- || oz(X).\n");
    parse_program(&src).expect("generated program parses").db
}

fn builder(
    opts: &Opts,
    dir: &std::path::Path,
    p: &Params,
    sensors: &Arc<Sensors>,
    batches: usize,
) -> ViewServiceBuilder {
    ViewService::builder()
        .operator(Operator::Wp)
        .mode(SupportMode::Plain)
        .resolver(sensors.clone())
        .pool_threads(1)
        .observability(opts.obs(batches))
        .durability(
            Durability::durable(dir)
                .fsync(FsyncPolicy::Never)
                .checkpoint_every(p.checkpoint_every),
        )
}

/// The writer's stream: batch `j` (epoch `j`) slides the zone window by
/// one; the batches at `overlap_at` also add one overlapping `oz`
/// interval.
struct Writer {
    zones: i64,
    next: u64,
    overlap_at: Vec<u64>,
}

impl Writer {
    fn batch(&mut self) -> (UpdateBatch, Option<i64>) {
        self.next += 1;
        let e = self.next as i64;
        let mut b = UpdateBatch::deleting(vec![zone(e - 1)]).insert(zone(e - 1 + self.zones));
        let k = self.overlap_at.iter().position(|&j| j == self.next);
        if let Some(k) = k {
            let k = k as i64;
            b = b.insert(interval("oz", 1000 + 10 * k, 1050 + 10 * k));
        }
        (b, k.map(|k| 1025 + 10 * k as i64))
    }
}

/// The writer's outcome: per-batch latency, probe failures, and the
/// batches it applied.
#[derive(Default)]
struct WriterOut {
    write_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    col: Collector,
    stream: Vec<UpdateBatch>,
}

fn apply_and_probe(
    svc: &ViewService,
    w: &mut Writer,
    out: &mut WriterOut,
) -> Result<Applied, String> {
    let (batch, probe) = w.batch();
    out.stream.push(batch.clone());
    let applied = svc
        .apply(batch)
        .map_err(|e| format!("batch {}: {e}", w.next))?;
    out.attempted += 1;
    if let Some(pt) = probe {
        out.attempted += 1;
        let got = svc.snapshot().ask(
            "op",
            &[Value::int(pt)],
            svc.resolver().as_ref(),
            &SolverConfig::default(),
        );
        match got {
            Ok(true) => {}
            Err(InstanceError::Unknown(_)) => out.failed += 1,
            other => return Err(format!("overlap probe op({pt}) = {other:?}, model true")),
        }
    }
    Ok(applied)
}

/// The reader's outcome.
#[derive(Default)]
struct ReaderOut {
    read_ns: Vec<u64>,
    attempted: u64,
    calls: u64,
}

struct Reader<'a> {
    svc: &'a ViewService,
    sensors: &'a Sensors,
    rng: Rng,
    zones: i64,
    n_sensors: usize,
}

impl Reader<'_> {
    /// Sets a random sensor to 1–3 new readings.
    fn change_sensor(&mut self) {
        let i = self.rng.below(self.n_sensors as u64) as usize;
        let n = 1 + self.rng.below(3);
        let vals = (0..n).map(|_| self.rng.range(0, READING_MAX)).collect();
        self.sensors.set(i, vals);
    }

    /// A zone point to read at: around the live window, so both live and
    /// retired zones come up.
    fn point(&mut self) -> i64 {
        let e = self.svc.epoch() as i64;
        self.rng
            .range((e - 5) * ZONE_STRIDE, (e + self.zones + 5) * ZONE_STRIDE)
    }

    /// One checked read; returns its latency.
    fn read(&mut self) -> Result<Duration, String> {
        let i = self.rng.below(self.n_sensors as u64) as usize;
        let pred = format!("a{i}");
        let readings = self.sensors.get(i);
        let x = self.point();
        let scfg = SolverConfig::default();
        if self.rng.below(4) == 0 {
            let t = Instant::now();
            let snap = self.svc.snapshot();
            let got = snap.query(&pred, &[Some(Value::int(x)), None], self.sensors, &scfg);
            let lat = t.elapsed();
            let want: BTreeSet<Vec<Value>> = if in_live_zone(x, snap.epoch(), self.zones) {
                readings
                    .iter()
                    .map(|&v| vec![Value::int(x), Value::int(v)])
                    .collect()
            } else {
                BTreeSet::new()
            };
            match got {
                Ok(got) if got == want => Ok(lat),
                other => Err(format!("query {pred}({x}, _) = {other:?}, model {want:?}")),
            }
        } else {
            let v = if self.rng.below(2) == 0 {
                readings[self.rng.below(readings.len() as u64) as usize]
            } else {
                self.rng.range(0, READING_MAX)
            };
            let t = Instant::now();
            let snap = self.svc.snapshot();
            let got = snap.ask(&pred, &[Value::int(x), Value::int(v)], self.sensors, &scfg);
            let lat = t.elapsed();
            let want = readings.contains(&v) && in_live_zone(x, snap.epoch(), self.zones);
            match got {
                Ok(got) if got == want => Ok(lat),
                other => Err(format!("ask {pred}({x}, {v}) = {other:?}, model {want}")),
            }
        }
    }

    fn run(&mut self, n: usize, out: &mut ReaderOut, timed: bool) -> Result<(), String> {
        let calls0 = CALLS.with(Cell::get);
        for j in 0..n {
            if j % CHANGE_EVERY == 0 {
                self.change_sensor();
            }
            let lat = self.read()?;
            out.attempted += 1;
            if timed {
                out.read_ns.push(lat.as_nanos() as u64);
            }
        }
        if timed {
            out.calls += CALLS.with(Cell::get) - calls0;
        }
        Ok(())
    }
}

/// Every `a{i}`'s instance set equals live zone points × readings.
fn check_all(snap: &ServiceSnapshot, sensors: &Sensors, p: &Params) -> Result<(), String> {
    let scfg = SolverConfig::default();
    for i in 0..p.sensors {
        let got = snap
            .query(&format!("a{i}"), &[None, None], sensors, &scfg)
            .map_err(|e| format!("a{i}: {e}"))?;
        let e = snap.epoch() as i64;
        let points: Vec<i64> = (e..e + p.zones)
            .flat_map(|k| k * ZONE_STRIDE..=k * ZONE_STRIDE + ZONE_WIDTH)
            .collect();
        let want: BTreeSet<Vec<Value>> = sensors
            .get(i)
            .into_iter()
            .flat_map(|v| {
                points
                    .iter()
                    .map(move |&x| vec![Value::int(x), Value::int(v)])
            })
            .collect();
        if got != want {
            return Err(format!("a{i}: instances differ from readings x live zones"));
        }
    }
    Ok(())
}

pub fn run(opts: &Opts) -> Result<Round, String> {
    let p = params(opts.quick);
    let db = program(&p);
    let mut init = Rng::new(opts.seed, 30);
    let sensors = Arc::new(Sensors {
        readings: RwLock::new(
            (0..p.sensors)
                .map(|_| vec![init.range(0, READING_MAX)])
                .collect(),
        ),
    });
    let total = p.warmup + p.timed + p.tail;
    let mut r = Round::default();

    let (svc, dir) = timed_build(&mut r.setup_s, &opts.dir, "mediated_reads", |dir| {
        builder(opts, dir, &p, &sensors, total).build(db.clone())
    })?;

    // The overlap run sits in the untimed warm-up, so the timed phase
    // measures the zone stream alone; its last inserts take hundreds of
    // milliseconds each.
    let gap = (p.warmup as u64 / (OVERLAPS as u64 + 1)).max(1);
    let mut writer = Writer {
        zones: p.zones,
        next: 0,
        overlap_at: (1..=OVERLAPS as u64).map(|m| m * gap).collect(),
    };
    let mut reader = Reader {
        svc: &svc,
        sensors: &sensors,
        rng: Rng::new(opts.seed, 31),
        zones: p.zones,
        n_sensors: p.sensors,
    };

    let mut wout = WriterOut::default();
    let mut rout = ReaderOut::default();
    for _ in 0..p.warmup {
        apply_and_probe(&svc, &mut writer, &mut wout)?;
        reader.run(p.reads_per_batch, &mut rout, false)?;
    }
    let rss_warm = status_kb("VmRSS");
    let t0 = Instant::now();
    for _ in 0..p.timed {
        let t = Instant::now();
        let applied = apply_and_probe(&svc, &mut writer, &mut wout)?;
        wout.write_ns.push(t.elapsed().as_nanos() as u64);
        wout.col.add(&applied);
        reader.run(p.reads_per_batch, &mut rout, true)?;
    }
    r.write_wall_s = secs(t0);
    let rss_end = status_kb("VmRSS");
    r.write_ns = std::mem::take(&mut wout.write_ns);
    r.read_ns = std::mem::take(&mut rout.read_ns);
    let (after, upto) = (p.warmup as u64, (p.warmup + p.timed) as u64);

    // Checkpoint what was applied, then a short tail for recovery.
    final_checkpoint(&svc, upto)?;
    for _ in 0..p.tail {
        apply_and_probe(&svc, &mut writer, &mut wout)?;
    }
    r.attempted = wout.attempted + rout.attempted;
    r.failed = wout.failed;

    let served = svc.snapshot();
    check_all(&served, &sensors, &p)?;

    if opts.trace {
        wout.col.report(&mut r);
        r.layer("core.pool.tasks_per_batch", 0.0);
        r.layer("core.pool.steals_per_batch", 0.0);
        layers::stage_layers(&mut r, &svc.recent_traces(), after, upto);
        layers::storage_layers(&mut r, &svc, &dir);
        layers::store_layers(&mut r, &svc);
        r.layer(
            "log.rss_growth_kb_per_kbatch",
            (rss_end as f64 - rss_warm as f64) / (p.timed as f64 / 1000.0),
        );
        r.layer(
            "domains.calls_per_read",
            rout.calls as f64 / (p.reads_per_batch * p.timed).max(1) as f64,
        );
    }
    drop(svc);

    recover_checked(
        &mut r,
        opts.trace,
        &served,
        || builder(opts, &dir, &p, &sensors, total).recover(db.clone()),
        |snap| check_all(snap, &sensors, &p),
    )?;

    if opts.trace {
        let timed_from = p.warmup;
        r.layer(
            "wal.parse_us",
            layers::wal_parse_us(&wout.stream[timed_from..p.warmup + p.timed]),
        );
        layers::checkpoint_replay(&mut r, &opts.dir, &served, Operator::Wp);
        let batches = &wout.stream[..p.warmup + p.timed];
        let s = Stream {
            db: &db,
            resolver: sensors.as_ref(),
            op: Operator::Wp,
            batches,
            timed_from,
        };
        let dred = layers::replay(&s, SupportMode::Plain);
        r.layer("core.tp.build_s", dred.build_s);
        r.layer("core.dred.delete_us", quantile(&dred.delete_us, 0.5));
        r.layer("core.insert.insert_us", quantile(&dred.insert_us, 0.5));
        r.layer(
            "core.store.entry_pages_copied_per_batch_w1",
            dred.pages_copied,
        );
        let stdel = layers::replay(&s, SupportMode::WithSupports);
        r.layer("core.stdel.delete_us", quantile(&stdel.delete_us, 0.5));
        let mut rng = Rng::new(opts.seed, 32);
        let e = served.epoch() as i64;
        layers::snapshot_reads(&mut r, &served, sensors.as_ref(), || {
            let pred = format!("a{}", rng.below(p.sensors as u64));
            let x = Value::int(rng.range(e * ZONE_STRIDE, (e + p.zones) * ZONE_STRIDE));
            let v = Value::int(rng.range(0, READING_MAX));
            (pred, vec![x.clone(), v], vec![Some(x), None])
        })?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    r.rss_peak_mb = status_kb("VmHWM") as f64 / 1024.0;
    Ok(r)
}
