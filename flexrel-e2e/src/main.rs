//! `flexrel-e2e` — the statement-lifecycle benchmark of the flexrel
//! reproduction.  See the README beside this package for the glossary of
//! workloads and metrics; `BENCHMARK.json` at the repository root is the
//! machine-readable contract.
//!
//! ```text
//! flexrel-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` runs the closed-loop windows and prints the end-to-end
//! metrics; `--trace 1` runs the traced pass and prints the per-layer
//! metrics.  The last line of standard output is one JSON object.

mod gen;
mod layers;
mod load;
mod ops;
mod run;
mod setup;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use gen::{Kind, Mix};
use ops::Counts;

/// Seeded `wide` tuples; chosen so analytic statements cost milliseconds
/// while per-statement overhead still shows on point statements.
const N: usize = 20_000;
/// Seeded tuples under `--smoke` (the package's own test).
const N_SMOKE: usize = 2_000;

/// Which path a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// Loopback TCP into an in-process `Server` over an in-memory database.
    Wire,
    /// Embedded calls into a durable database; no sockets.
    Durable,
}

/// One workload: names are normative (`BENCHMARK.json`, README).
pub struct Workload {
    pub name: &'static str,
    pub path: Path,
    pub mix: Mix<'static>,
    /// The kind whose median is reported as `light_p50_us`: the cheapest
    /// statement of the mix, where fixed per-statement cost shows.
    pub light: Kind,
    /// The kind whose median is reported as `heavy_p50_us`: the dearest
    /// statement of the mix, where the work itself shows.
    pub heavy: Kind,
}

impl Workload {
    /// Whether writers run beside the readers (counts may exceed the seed).
    pub fn writes(&self) -> bool {
        self.mix.iter().any(|(k, _)| k.is_write())
    }

    pub fn counts(&self) -> Counts {
        if self.writes() {
            Counts::AtLeast
        } else {
            Counts::Exact
        }
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "point_wire",
        path: Path::Wire,
        mix: &[(Kind::Lookup, 100)],
        light: Kind::Lookup,
        heavy: Kind::Lookup,
    },
    Workload {
        name: "analytic_wire",
        path: Path::Wire,
        mix: &[
            (Kind::Agg, 35),
            (Kind::Scan, 25),
            (Kind::Group, 25),
            (Kind::Join, 15),
        ],
        light: Kind::Agg,
        heavy: Kind::Scan,
    },
    Workload {
        name: "mixed_wire",
        path: Path::Wire,
        mix: &[
            (Kind::Lookup, 50),
            (Kind::Join, 10),
            (Kind::Agg, 10),
            (Kind::Insert, 15),
            (Kind::Delete, 15),
        ],
        light: Kind::Lookup,
        heavy: Kind::Delete,
    },
    Workload {
        name: "write_durable",
        path: Path::Durable,
        mix: &[(Kind::Insert, 50), (Kind::Delete, 50)],
        light: Kind::Insert,
        heavy: Kind::Delete,
    },
];

/// The run's parameters.
pub struct Config {
    pub n: usize,
    pub seed: u64,
    pub seconds: f64,
    /// A directory of this run's own, under the build's target directory.
    pub scratch: PathBuf,
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count or other context, for the human-readable table only.
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// What a run produced.
pub struct Outcome {
    /// Every post-run check held (seeded count restored, invariants green,
    /// server counters clean, reopen check) and no operation failed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 11u64;
    let mut seconds = 28.0f64;
    let mut trace = false;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{} needs a value", flag))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {}", value))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {}", value))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .ok_or_else(|| format!("bad seconds {}", value))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {}", value)),
                }
            }
            _ => return Err(format!("unknown flag {}", flag)),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// `<target dir>/flexrel-e2e`: run directories and trace files live beside
/// the build output, inside the checkout and ignored by git.
fn output_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("flexrel-e2e")))
        .unwrap_or_else(|| PathBuf::from("target/flexrel-e2e"))
}

fn json_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flexrel-e2e: {}", e);
            eprintln!(
                "usage: flexrel-e2e --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = output_dir();
    let cfg = Config {
        n: if args.smoke { N_SMOKE } else { N },
        seed: args.seed,
        seconds: args.seconds,
        scratch: out_dir.join(format!("run-{}", std::process::id())),
    };
    std::fs::create_dir_all(&cfg.scratch).expect("creating the run directory");

    let outcome = if args.trace {
        layers::traced(args.workload, &cfg, &out_dir)
    } else {
        run::measured(args.workload, &cfg)
    };
    // Best effort: a leftover run directory only wastes space.
    let _ = std::fs::remove_dir_all(&cfg.scratch);

    println!(
        "workload {}  seed {}  n {}  clients {}  ops_attempted {}  ops_failed {}",
        args.workload.name,
        cfg.seed,
        cfg.n,
        setup::clients(),
        outcome.attempted,
        outcome.failed
    );
    for m in &outcome.metrics {
        println!("{:<40} {:>16.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    println!("{}", json_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
