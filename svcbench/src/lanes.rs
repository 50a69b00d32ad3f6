//! `interval_lanes`: many independent non-ground chains
//! (`c{i}_0(X) <- lo <= X <= hi` facts, `c{i}_k(X) <- || c{i}_{k-1}(X)`)
//! spread over four writer lanes, maintained by StDel (a view with
//! supports). A closed-loop writer reaches every lane. Each batch inserts
//! a fresh window interval into one chain, deletes the interval that
//! expired, and carves a point out of a live one. Every eighth batch does
//! this on two chains in two lanes at once. The reference model is, per
//! chain, the integer points of the live intervals minus the carved
//! points.

use crate::layers::{self, Collector, Stream};
use crate::util::{
    final_checkpoint, quantile, recover_checked, secs, status_kb, timed_build, Rng, Round,
};
use crate::Opts;
use mmv_constraints::{CmpOp, Constraint, NoDomains, SolverConfig, Term, Value, Var};
use mmv_core::batch::UpdateBatch;
use mmv_core::parser::parse_program;
use mmv_core::tp::Operator;
use mmv_core::{ConstrainedAtom, ConstrainedDatabase, ShardSpec, SupportMode};
use mmv_service::{Durability, FsyncPolicy, ServiceSnapshot, ViewService, ViewServiceBuilder};
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::time::Instant;

struct Params {
    chains: usize,
    depth: usize,
    window: usize,
    /// Batches per writer thread.
    warmup: usize,
    timed: usize,
    /// Batches applied after the final checkpoint: recovery's WAL tail.
    tail: usize,
    checkpoint_every: u64,
}

fn params(quick: bool) -> Params {
    if quick {
        Params {
            chains: 8,
            depth: 2,
            window: 4,
            warmup: 8,
            timed: 40,
            tail: 4,
            checkpoint_every: 16,
        }
    } else {
        Params {
            chains: 64,
            depth: 4,
            window: 16,
            warmup: 64,
            timed: 1000,
            tail: 200,
            checkpoint_every: 512,
        }
    }
}

const LANES: usize = 4;
/// Start-to-start distance and width of consecutive window intervals:
/// intervals of one chain never overlap, so no insert meets an existing
/// instance.
const STRIDE: i64 = 100;
const WIDTH: i64 = 60;

fn base(c: usize) -> String {
    format!("c{c}_0")
}

fn top(c: usize, depth: usize) -> String {
    format!("c{c}_{depth}")
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

fn point(pred: &str, p: i64) -> ConstrainedAtom {
    ConstrainedAtom::new(pred, vec![x()], Constraint::eq(x(), Term::int(p)))
}

/// One chain's live intervals (by window index) and carved points.
#[derive(Clone)]
struct Chain {
    id: usize,
    next: i64,
    live: VecDeque<i64>,
    carved: HashSet<i64>,
}

impl Chain {
    fn new(id: usize, window: usize) -> Self {
        Chain {
            id,
            next: window as i64,
            live: (0..window as i64).collect(),
            carved: HashSet::new(),
        }
    }

    fn bounds(k: i64) -> (i64, i64) {
        (k * STRIDE, k * STRIDE + WIDTH)
    }

    fn contains(&self, p: i64) -> bool {
        !self.carved.contains(&p)
            && self.live.iter().any(|&k| {
                let (lo, hi) = Self::bounds(k);
                (lo..=hi).contains(&p)
            })
    }

    fn points(&self) -> BTreeSet<Vec<Value>> {
        self.live
            .iter()
            .flat_map(|&k| {
                let (lo, hi) = Self::bounds(k);
                lo..=hi
            })
            .filter(|p| !self.carved.contains(p))
            .map(|p| vec![Value::int(p)])
            .collect()
    }

    /// Adds one window step to `batch`: carve a point out of an interval
    /// that stays live, retire the oldest interval, insert the next.
    fn step(&mut self, rng: &mut Rng, batch: UpdateBatch) -> UpdateBatch {
        let pred = base(self.id);
        let old = self.live.pop_front().expect("window is never empty");
        let (lo, hi) = Self::bounds(old);
        self.carved.retain(|&p| p > hi);
        let k = self.live[rng.below(self.live.len() as u64) as usize];
        let (clo, chi) = Self::bounds(k);
        let p = loop {
            let p = rng.range(clo, chi);
            if self.carved.insert(p) {
                break p;
            }
        };
        let (nlo, nhi) = Self::bounds(self.next);
        self.live.push_back(self.next);
        self.next += 1;
        batch
            .delete(interval(&pred, lo, hi))
            .delete(point(&pred, p))
            .insert(interval(&pred, nlo, nhi))
    }

    /// A probe point somewhere around the live window.
    fn probe(&self, rng: &mut Rng) -> i64 {
        let (lo, _) = Self::bounds(*self.live.front().expect("live"));
        let (_, hi) = Self::bounds(*self.live.back().expect("live"));
        rng.range(lo - STRIDE, hi + STRIDE)
    }
}

fn program(p: &Params) -> ConstrainedDatabase {
    let mut src = String::new();
    for c in 0..p.chains {
        for k in 0..p.window as i64 {
            let (lo, hi) = Chain::bounds(k);
            src.push_str(&format!("c{c}_0(X) <- X >= {lo} & X <= {hi}.\n"));
        }
        for d in 1..=p.depth {
            src.push_str(&format!("c{c}_{d}(X) <- || c{c}_{}(X).\n", d - 1));
        }
    }
    parse_program(&src).expect("generated program parses").db
}

fn builder(opts: &Opts, dir: &std::path::Path, p: &Params, batches: usize) -> ViewServiceBuilder {
    ViewService::builder()
        .mode(SupportMode::WithSupports)
        .shards(ShardSpec::at_most(LANES))
        .pool_threads(1)
        .observability(opts.obs(batches))
        .durability(
            Durability::durable(dir)
                .fsync(FsyncPolicy::Never)
                .checkpoint_every(p.checkpoint_every),
        )
}

/// What the writer did.
#[derive(Default)]
struct Writer {
    write_ns: Vec<u64>,
    read_ns: Vec<u64>,
    attempted: u64,
    col: Collector,
    /// Every batch it applied, in order.
    stream: Vec<UpdateBatch>,
}

/// Applies `n` batches on `chains`, closed-loop; records their latencies
/// when `timed`.
#[allow(clippy::too_many_arguments)]
fn drive(
    svc: &ViewService,
    chains: &mut [Chain],
    lane_of: &[usize],
    rng: &mut Rng,
    depth: usize,
    n: usize,
    timed: bool,
    w: &mut Writer,
) -> Result<(), String> {
    let scfg = SolverConfig::default();
    for i in 0..n {
        let a = rng.below(chains.len() as u64) as usize;
        let mut batch = chains[a].step(rng, UpdateBatch::new());
        let mut touched = vec![a];
        if i % 8 == 7 {
            let b = (0..chains.len())
                .map(|j| (a + 1 + j) % chains.len())
                .find(|&j| lane_of[chains[j].id] != lane_of[chains[a].id])
                .expect("a writer's chains span several lanes");
            batch = chains[b].step(rng, batch);
            touched.push(b);
        }
        w.stream.push(batch.clone());
        let t = Instant::now();
        let applied = svc.apply(batch).map_err(|e| format!("batch: {e}"))?;
        let lat = t.elapsed();
        w.attempted += 1;
        if timed {
            w.write_ns.push(lat.as_nanos() as u64);
            w.col.add(&applied);
        }
        for &c in &touched {
            let chain = &chains[c];
            let pt = chain.probe(rng);
            let t = Instant::now();
            let got =
                svc.snapshot()
                    .ask(&top(chain.id, depth), &[Value::int(pt)], &NoDomains, &scfg);
            let read = t.elapsed();
            w.attempted += 1;
            let want = chain.contains(pt);
            match got {
                Ok(got) if got == want => {}
                other => {
                    return Err(format!(
                        "chain {}: ask({pt}) = {other:?}, model {want}",
                        chain.id
                    ))
                }
            }
            if timed {
                w.read_ns.push(read.as_nanos() as u64);
            }
        }
    }
    Ok(())
}

/// Every chain's top-layer instance set equals its model.
fn check_tops(snap: &ServiceSnapshot, chains: &[Chain], depth: usize) -> Result<(), String> {
    let scfg = SolverConfig::default();
    for c in chains {
        let got = snap
            .query(&top(c.id, depth), &[None], &NoDomains, &scfg)
            .map_err(|e| format!("chain {}: {e}", c.id))?;
        if got != c.points() {
            return Err(format!(
                "chain {}: top-layer instances differ from the model",
                c.id
            ));
        }
    }
    Ok(())
}

pub fn run(opts: &Opts) -> Result<Round, String> {
    let p = params(opts.quick);
    let db = program(&p);
    let total = p.warmup + p.timed + p.tail;
    let mut r = Round::default();

    let (svc, dir) = timed_build(&mut r.setup_s, &opts.dir, "interval_lanes", |dir| {
        builder(opts, dir, &p, total).build(db.clone())
    })?;

    let lane_of: Vec<usize> = (0..p.chains)
        .map(|c| svc.shard_map().shard_of(&base(c)))
        .collect();
    let mut chains: Vec<Chain> = (0..p.chains).map(|c| Chain::new(c, p.window)).collect();
    let mut rng = Rng::new(opts.seed, 10);
    let mut w = Writer::default();
    let mut run_batches = |n: usize, timed: bool, w: &mut Writer| {
        drive(&svc, &mut chains, &lane_of, &mut rng, p.depth, n, timed, w)
    };
    run_batches(p.warmup, false, &mut w)?;
    let after = svc.epoch();
    let rss_warm = status_kb("VmRSS");
    let t0 = Instant::now();
    run_batches(p.timed, true, &mut w)?;
    r.write_wall_s = secs(t0);
    let upto = svc.epoch();
    let rss_end = status_kb("VmRSS");

    // Checkpoint everything applied so far, then a short tail: recovery
    // loads the checkpoint and replays the tail.
    final_checkpoint(&svc, upto)?;
    run_batches(p.tail, false, &mut w)?;
    r.write_ns = std::mem::take(&mut w.write_ns);
    r.read_ns = std::mem::take(&mut w.read_ns);
    r.attempted = w.attempted;

    let served = svc.snapshot();
    check_tops(&served, &chains, p.depth)?;

    if opts.trace {
        w.col.report(&mut r);
        r.layer("core.pool.tasks_per_batch", 0.0);
        r.layer("core.pool.steals_per_batch", 0.0);
        layers::stage_layers(&mut r, &svc.recent_traces(), after, upto);
        layers::storage_layers(&mut r, &svc, &dir);
        layers::store_layers(&mut r, &svc);
        r.layer(
            "log.rss_growth_kb_per_kbatch",
            (rss_end as f64 - rss_warm as f64) / (p.timed as f64 / 1000.0),
        );
        r.layer("domains.calls_per_read", 0.0);
    }
    drop(svc);

    recover_checked(
        &mut r,
        opts.trace,
        &served,
        || builder(opts, &dir, &p, total).recover(db.clone()),
        |snap| check_tops(snap, &chains, p.depth),
    )?;

    if opts.trace {
        let stream = &w.stream[..p.warmup + p.timed];
        let timed_from = p.warmup;
        r.layer("wal.parse_us", layers::wal_parse_us(&stream[timed_from..]));
        layers::checkpoint_replay(&mut r, &opts.dir, &served, Operator::Tp);
        let s = Stream {
            db: &db,
            resolver: &NoDomains,
            op: Operator::Tp,
            batches: stream,
            timed_from,
        };
        let stdel = layers::replay(&s, SupportMode::WithSupports);
        r.layer("core.tp.build_s", stdel.build_s);
        r.layer("core.stdel.delete_us", quantile(&stdel.delete_us, 0.5));
        r.layer("core.insert.insert_us", quantile(&stdel.insert_us, 0.5));
        r.layer(
            "core.store.entry_pages_copied_per_batch_w1",
            stdel.pages_copied,
        );
        let dred = layers::replay(&s, SupportMode::Plain);
        r.layer("core.dred.delete_us", quantile(&dred.delete_us, 0.5));
        let mut rng = Rng::new(opts.seed, 20);
        layers::snapshot_reads(&mut r, &served, &NoDomains, || {
            let c = &chains[rng.below(chains.len() as u64) as usize];
            let pt = c.probe(&mut rng);
            (top(c.id, p.depth), vec![Value::int(pt)], vec![None])
        })?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    r.rss_peak_mb = status_kb("VmHWM") as f64 / 1024.0;
    Ok(r)
}
