//! Shared plumbing: the seeded generator, process memory readings,
//! quantiles, timed set-up and checked recovery, a minimal JSON writer
//! and the per-round record every workload fills in.

use mmv_service::{RecoveryReport, ServiceSnapshot, ViewService};
use std::fmt::{Display, Write as _};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// SplitMix64: small, seedable and identical on every platform, so a
/// seed names exactly one input stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }
}

/// One `/proc/self/status` field in KiB (`VmHWM`, `VmRSS`).
pub fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// The `q`-quantile of `xs` by nearest rank (`xs` need not be sorted).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with the wall time in microseconds.
pub fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_secs_f64() * 1e6)
}

/// Builds the service at least `SETUP_REPEATS` times, then until
/// `SETUP_BUDGET_S` seconds of builds or `SETUP_MAX` builds, recording
/// each build's wall time, and keeps the last one with its directory. Each build gets a fresh
/// directory `base/name`, made before its timer starts: only `build`
/// itself is timed, not the benchmark's own file-system cleanup nor the
/// drop of the previous service.
pub fn timed_build<S, E: Display>(
    setup_s: &mut Vec<f64>,
    base: &Path,
    name: &str,
    mut build: impl FnMut(&Path) -> Result<S, E>,
) -> Result<(S, PathBuf), String> {
    let mut spent = 0.0;
    let mut n = 0;
    loop {
        let dir = fresh_dir(base, name);
        let t0 = Instant::now();
        let svc = build(&dir).map_err(|e| format!("build: {e}"))?;
        let s = secs(t0);
        setup_s.push(s);
        spent += s;
        n += 1;
        if n >= SETUP_REPEATS && (spent >= SETUP_BUDGET_S || n >= SETUP_MAX) {
            return Ok((svc, dir));
        }
    }
}

/// Set-up is short next to a round, so a round builds the service
/// many times and the median build is what a run reports. A build of a
/// few milliseconds is one sample of a noisy host; a quarter second of
/// them is not.
const SETUP_REPEATS: usize = 5;
const SETUP_BUDGET_S: f64 = 0.25;
const SETUP_MAX: usize = 100;

/// Asks for checkpoints until one covers epoch `upto`.
pub fn final_checkpoint(svc: &ViewService, upto: u64) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    while svc.checkpoint_stats().map_or(0, |c| c.last_epoch) < upto {
        if Instant::now() > deadline {
            return Err("final checkpoint never completed".into());
        }
        svc.request_checkpoint();
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

/// Recovers the round's final directory, then checks the recovered
/// service: it reached the served epoch, its view is syntactically equal
/// to the served one, and `check` (the workload's model) holds on it.
///
/// Recovery repeats until `RECOVER_REPEATS` recoveries or
/// `RECOVER_BUDGET_S` seconds of them, each one's wall time recorded, so
/// that a short recovery's median is not one sample; a long one (a full
/// WAL replay) runs once. Traced rounds also get
/// `recovery.replay_us_per_record`.
pub fn recover_checked<E: Display>(
    r: &mut Round,
    trace: bool,
    served: &ServiceSnapshot,
    mut recover: impl FnMut() -> Result<(ViewService, RecoveryReport), E>,
    check: impl FnOnce(&ServiceSnapshot) -> Result<(), String>,
) -> Result<(), String> {
    let (rec, report) = loop {
        let t0 = Instant::now();
        let out = recover().map_err(|e| format!("recover: {e}"))?;
        r.recover_s.push(secs(t0));
        if r.recover_s.len() >= RECOVER_REPEATS
            || r.recover_s.iter().sum::<f64>() >= RECOVER_BUDGET_S
        {
            break out;
        }
    };
    if report.recovered_epoch != served.epoch() {
        return Err(format!(
            "recovered epoch {} != served {}",
            report.recovered_epoch,
            served.epoch()
        ));
    }
    let recovered = rec.snapshot();
    if !recovered
        .merged_view()
        .syntactically_equal(&served.merged_view())
    {
        return Err("recovered view differs from the served view".into());
    }
    check(&recovered).map_err(|e| format!("recovered view: {e}"))?;
    if trace {
        r.layer(
            "recovery.replay_us_per_record",
            quantile(&r.recover_s, 0.5) * 1e6 / report.replayed_records.max(1) as f64,
        );
    }
    Ok(())
}

const RECOVER_REPEATS: usize = 5;
const RECOVER_BUDGET_S: f64 = 1.0;

/// A fresh, empty directory `base/name`.
pub fn fresh_dir(base: &Path, name: &str) -> PathBuf {
    let dir = base.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the round's storage directory");
    dir
}

/// Total size of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// What one round of a workload measured. Latencies are kept raw so the
/// runner can pool them across rounds before taking quantiles.
#[derive(Debug, Default)]
pub struct Round {
    /// Each timed build of the service over the starting database.
    pub setup_s: Vec<f64>,
    /// Per timed batch: caller-seen `apply` latency in nanoseconds.
    pub write_ns: Vec<u64>,
    /// Wall seconds of the timed phase (all writer threads).
    pub write_wall_s: f64,
    /// Per read: latency in nanoseconds, snapshot acquisition included.
    pub read_ns: Vec<u64>,
    /// Each timed recovery of the round's final directory.
    pub recover_s: Vec<f64>,
    pub rss_peak_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer figures (traced rounds only), by metric name.
    pub layers: Vec<(String, f64)>,
}

impl Round {
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((name.to_string(), value));
    }

    /// Sets a per-layer figure, replacing an earlier value of that name.
    pub fn set_layer(&mut self, name: &str, value: f64) {
        self.layers.retain(|(k, _)| k != name);
        self.layer(name, value);
    }

    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"setup_s\":[{}],\"write_wall_s\":{},\"recover_s\":[{}],\"rss_peak_mb\":{},\
             \"attempted\":{},\"failed\":{},",
            self.setup_s
                .iter()
                .map(|&x| num(x))
                .collect::<Vec<_>>()
                .join(","),
            num(self.write_wall_s),
            self.recover_s
                .iter()
                .map(|&x| num(x))
                .collect::<Vec<_>>()
                .join(","),
            num(self.rss_peak_mb),
            self.attempted,
            self.failed
        );
        let ints = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        let _ = write!(
            s,
            "\"write_ns\":[{}],\"read_ns\":[{}],\"layers\":{{",
            ints(&self.write_ns),
            ints(&self.read_ns)
        );
        let layers: Vec<String> = self
            .layers
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
            .collect();
        s.push_str(&layers.join(","));
        s.push_str("}}");
        s
    }
}

/// A JSON number (non-finite values, which JSON cannot carry, as 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}
