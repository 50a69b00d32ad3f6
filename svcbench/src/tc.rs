//! `tc_window`: transitive closure over a random DAG whose edge set is a
//! sliding window. Each batch deletes the oldest live edge and inserts
//! a fresh one, so the edge count is constant and the closure size is
//! stationary. Extended DRed (a `Plain` view) maintains one recursive
//! dependency component in one lane, on an intra-lane pool of width 2.
//! The reference model is breadth-first reachability over the live
//! edges.

use crate::layers::{self, Collector, Stream};
use crate::util::{quantile, recover_checked, secs, status_kb, timed_build, Rng, Round};
use crate::Opts;
use mmv_constraints::{NoDomains, SolverConfig, Value};
use mmv_core::batch::UpdateBatch;
use mmv_core::parser::parse_program;
use mmv_core::tp::Operator;
use mmv_core::{ConstrainedAtom, ConstrainedDatabase, ShardSpec, SupportMode};
use mmv_service::{Durability, FsyncPolicy, ServiceSnapshot, ViewService, ViewServiceBuilder};
use std::collections::{BTreeSet, HashSet};
use std::time::Instant;

struct Params {
    /// Independent node groups; edges stay within a group.
    groups: i64,
    group_size: i64,
    warmup: usize,
    timed: usize,
    reads_per_batch: usize,
}

fn params(quick: bool) -> Params {
    if quick {
        Params {
            groups: 2,
            group_size: 6,
            warmup: 10,
            timed: 40,
            reads_per_batch: 2,
        }
    } else {
        Params {
            groups: 12,
            group_size: 12,
            warmup: 100,
            timed: 500,
            reads_per_batch: 2,
        }
    }
}

fn edge(u: i64, v: i64) -> ConstrainedAtom {
    ConstrainedAtom::fact("edge", vec![Value::int(u), Value::int(v)])
}

/// The live edges and the stream that re-draws them. Nodes form
/// independent groups; every node but the last of its group (the sink)
/// has one out-edge to a uniformly random later node of its group, so
/// the graph is acyclic. Batch `j` retires the edge of the `j`-th
/// non-sink node, round robin, and gives it a fresh one. Out-degrees
/// never change and the closure is a sum over independent groups, so
/// its size, and the cost of each node's batches, are stationary.
struct Window {
    rng: Rng,
    nodes: i64,
    group_size: i64,
    /// Per node, its target (`None` for sinks).
    out: Vec<Option<i64>>,
    sources: Vec<i64>,
    turn: usize,
}

impl Window {
    fn new(seed: u64, p: &Params) -> Self {
        let nodes = p.groups * p.group_size;
        let mut w = Window {
            rng: Rng::new(seed, 1),
            nodes,
            group_size: p.group_size,
            out: Vec::new(),
            sources: (0..nodes).filter(|u| (u + 1) % p.group_size != 0).collect(),
            turn: 0,
        };
        w.out = (0..nodes).map(|u| w.target(u)).collect();
        w
    }

    /// A random later node of `u`'s group, `None` for a sink.
    fn target(&mut self, u: i64) -> Option<i64> {
        let last = (u / self.group_size + 1) * self.group_size - 1;
        (u < last).then(|| self.rng.range(u + 1, last))
    }

    /// The next batch: retire one node's edge, add a fresh one.
    fn slide(&mut self) -> UpdateBatch {
        let u = self.sources[self.turn];
        self.turn = (self.turn + 1) % self.sources.len();
        let old = self.out[u as usize].expect("sources have an edge");
        let new = self.target(u).expect("sources have an edge");
        self.out[u as usize] = Some(new);
        UpdateBatch::deleting(vec![edge(u, old)]).insert(edge(u, new))
    }

    /// The nodes reachable from `a`: its path to the sink.
    fn reachable_from(&self, a: i64) -> HashSet<i64> {
        std::iter::successors(self.out[a as usize], |&v| self.out[v as usize]).collect()
    }

    fn closure(&self) -> BTreeSet<Vec<Value>> {
        (0..self.nodes)
            .flat_map(|a| {
                self.reachable_from(a)
                    .into_iter()
                    .map(move |b| vec![Value::int(a), Value::int(b)])
            })
            .collect()
    }

    fn program(&self, recursive: bool) -> ConstrainedDatabase {
        let mut src = String::new();
        if recursive {
            src.push_str("tc(X,Y) <- || edge(X,Y).\ntc(X,Z) <- || edge(X,Y), tc(Y,Z).\n");
        }
        for (u, v) in self
            .out
            .iter()
            .enumerate()
            .filter_map(|(u, v)| Some((u, (*v)?)))
        {
            src.push_str(&format!("edge({u},{v}).\n"));
        }
        parse_program(&src).expect("generated program parses").db
    }

    /// A probe pair: a random source and a random later node of its
    /// group, so both reachable and unreachable pairs come up.
    fn probe(&mut self) -> (i64, i64) {
        let a = self.sources[self.rng.below(self.sources.len() as u64) as usize];
        let last = (a / self.group_size + 1) * self.group_size - 1;
        (a, self.rng.range(a + 1, last))
    }
}

fn builder(opts: &Opts, dir: &std::path::Path, total: usize) -> ViewServiceBuilder {
    ViewService::builder()
        .mode(SupportMode::Plain)
        .shards(ShardSpec::single_lane())
        .pool_threads(2)
        .observability(opts.obs(total))
        .durability(
            Durability::durable(dir)
                .fsync(FsyncPolicy::Never)
                .checkpoint_every(0),
        )
}

pub fn run(opts: &Opts) -> Result<Round, String> {
    let p = params(opts.quick);
    let scfg = SolverConfig::default();
    let mut win = Window::new(opts.seed, &p);
    let db = win.program(true);
    let base_db = win.program(false);
    let total = p.warmup + p.timed;
    let mut r = Round::default();

    let (svc, dir) = timed_build(&mut r.setup_s, &opts.dir, "tc_window", |dir| {
        builder(opts, dir, total).build(db.clone())
    })?;

    let mut stream = Vec::with_capacity(total);
    let mut col = Collector::default();
    let mut rss_warm = 0;
    let mut pool0 = (0, 0);
    let mut timed_t0 = Instant::now();
    for i in 0..total {
        if i == p.warmup {
            rss_warm = status_kb("VmRSS");
            pool0 = layers::pool_counts(&svc);
            timed_t0 = Instant::now();
        }
        let batch = win.slide();
        stream.push(batch.clone());
        let t = Instant::now();
        let applied = svc.apply(batch).map_err(|e| format!("batch {i}: {e}"))?;
        let lat = t.elapsed();
        r.attempted += 1;
        for _ in 0..p.reads_per_batch {
            let (a, b) = win.probe();
            let t = Instant::now();
            let got = svc
                .snapshot()
                .ask("tc", &[Value::int(a), Value::int(b)], &NoDomains, &scfg);
            let read = t.elapsed();
            r.attempted += 1;
            let want = win.reachable_from(a).contains(&b);
            match got {
                Ok(got) if got == want => {}
                other => return Err(format!("batch {i}: tc({a},{b}) = {other:?}, model {want}")),
            }
            if i >= p.warmup {
                r.read_ns.push(read.as_nanos() as u64);
            }
        }
        if i >= p.warmup {
            r.write_ns.push(lat.as_nanos() as u64);
            col.add(&applied);
        }
    }
    r.write_wall_s = secs(timed_t0);
    let rss_end = status_kb("VmRSS");

    let served = svc.snapshot();

    if opts.trace {
        col.report(&mut r);
        let pool1 = layers::pool_counts(&svc);
        let n = p.timed as f64;
        r.layer("core.pool.tasks_per_batch", (pool1.0 - pool0.0) as f64 / n);
        r.layer("core.pool.steals_per_batch", (pool1.1 - pool0.1) as f64 / n);
        layers::stage_layers(&mut r, &svc.recent_traces(), p.warmup as u64, total as u64);
        layers::storage_layers(&mut r, &svc, &dir);
        layers::store_layers(&mut r, &svc);
        r.layer(
            "log.rss_growth_kb_per_kbatch",
            (rss_end as f64 - rss_warm as f64) / (n / 1000.0),
        );
        r.layer("domains.calls_per_read", 0.0);
    }
    drop(svc);

    let closure = win.closure();
    let check = |snap: &ServiceSnapshot| {
        let got = snap
            .query("tc", &[None, None], &NoDomains, &scfg)
            .map_err(|e| format!("closure: {e}"))?;
        if got != closure {
            return Err("tc instance set differs from BFS closure".to_string());
        }
        Ok(())
    };
    check(&served)?;
    recover_checked(
        &mut r,
        opts.trace,
        &served,
        || builder(opts, &dir, total).recover(db.clone()),
        check,
    )?;

    if opts.trace {
        let timed = &stream[p.warmup..];
        r.layer("wal.parse_us", layers::wal_parse_us(timed));
        layers::checkpoint_replay(&mut r, &opts.dir, &served, Operator::Tp);
        let s = Stream {
            db: &db,
            resolver: &NoDomains,
            op: Operator::Tp,
            batches: &stream,
            timed_from: p.warmup,
        };
        let dred = layers::replay(&s, SupportMode::Plain);
        r.layer("core.tp.build_s", dred.build_s);
        r.layer("core.dred.delete_us", quantile(&dred.delete_us, 0.5));
        r.layer("core.insert.insert_us", quantile(&dred.insert_us, 0.5));
        r.layer(
            "core.store.entry_pages_copied_per_batch_w1",
            dred.pages_copied,
        );
        // Supports enumerate every derivation path of the closure, so
        // StDel replays the stream's base-fact layer only.
        let edges = Stream { db: &base_db, ..s };
        let stdel = layers::replay(&edges, SupportMode::WithSupports);
        r.layer("core.stdel.delete_us", quantile(&stdel.delete_us, 0.5));
        layers::snapshot_reads(&mut r, &served, &NoDomains, || {
            let (a, b) = win.probe();
            (
                "tc".into(),
                vec![Value::int(a), Value::int(b)],
                vec![Some(Value::int(a)), None],
            )
        })?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    r.rss_peak_mb = status_kb("VmHWM") as f64 / 1024.0;
    Ok(r)
}
