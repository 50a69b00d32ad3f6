//! One round of one workload of the view-service benchmark.
//!
//! Usage: `mmv-svcbench --workload <tc_window|interval_lanes|mediated_reads>
//! --seed <n> [--round <k>] --trace <0|1> --dir <scratch dir> [--quick]`
//!
//! A round builds the service over the workload's starting database,
//! applies an untimed warm-up and then a fixed number of timed batches
//! with reads in between, checks every answer against a reference model
//! computed apart from the program, recovers the durable directory and
//! checks the recovered view against the served one. It prints one JSON
//! line of raw measurements; `run.py` pools rounds into the metrics.
//! Observability is off (`ObsOptions::disabled`) unless `--trace 1`,
//! which also collects the per-layer figures. Round `k` of a run draws
//! its inputs from the run's seed and `k`, so the rounds of one run
//! measure different streams of the same make-up.
#![forbid(unsafe_code)]

mod lanes;
mod layers;
mod mediated;
mod tc;
mod util;

use mmv_service::ObsOptions;
use std::path::{Path, PathBuf};

pub struct Opts {
    /// The round's seed: the run's seed mixed with the round index.
    pub seed: u64,
    pub trace: bool,
    pub quick: bool,
    pub dir: PathBuf,
}

impl Opts {
    /// Disabled for timing rounds; for traced rounds, on with a trace
    /// ring that holds every batch of the round.
    pub fn obs(&self, batches: usize) -> ObsOptions {
        if self.trace {
            ObsOptions::default().trace_capacity(batches + 64)
        } else {
            ObsOptions::disabled()
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let usage = "usage: mmv-svcbench --workload <tc_window|interval_lanes|mediated_reads> \
                 --seed <n> [--round <k>] --trace <0|1> --dir <path> [--quick]";
    let (Some(workload), Some(seed), Some(dir)) =
        (value("--workload"), value("--seed"), value("--dir"))
    else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let (Ok(seed), Ok(round)) = (
        seed.parse::<u64>(),
        value("--round").map_or(Ok(0), |k| k.parse::<u64>()),
    ) else {
        eprintln!("--seed and --round must be non-negative integers\n{usage}");
        std::process::exit(2);
    };
    let opts = Opts {
        seed: seed ^ round.wrapping_mul(0xD1B5_4A32_D192_ED03),
        trace: value("--trace").as_deref() == Some("1"),
        quick: args.iter().any(|a| a == "--quick"),
        dir: Path::new(&dir).to_path_buf(),
    };
    let result = match workload.as_str() {
        "tc_window" => tc::run(&opts),
        "interval_lanes" => lanes::run(&opts),
        "mediated_reads" => mediated::run(&opts),
        _ => {
            eprintln!("unknown workload {workload:?}\n{usage}");
            std::process::exit(2);
        }
    };
    match result {
        Ok(round) => println!("{}", round.to_json()),
        Err(e) => {
            eprintln!("{workload} (seed {seed}, round {round}): {e}");
            std::process::exit(1);
        }
    }
}
