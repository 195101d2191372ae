//! The experiment harness: regenerates every experiment table of
//! EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p flexrel-bench --release --bin harness [scale] [--json [DIR]]
//! ```
//!
//! `scale` is the base tuple count for the data-heavy experiments
//! (default 10 000).  With `--json`, one machine-readable
//! `BENCH_<ID>.json` file per experiment (id, title, scale, wall-clock
//! `elapsed_ms`, and the full table) is written to `DIR` (default: the
//! current directory) in addition to the printed tables;
//! `scripts/check_bench_json.sh DIR` checks their exact facts.

use std::path::PathBuf;

use flexrel_bench::experiments;
use flexrel_bench::report;

struct Args {
    scale: usize,
    json_dir: Option<PathBuf>,
}

fn usage_exit() -> ! {
    eprintln!("usage: harness [scale] [--json [DIR]]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 10_000,
        json_dir: None,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--json" => {
                // Optional directory operand: next arg unless it is a flag or
                // an all-numeric token (`harness --json 500` means scale 500
                // with JSON to the current directory, not a directory "500").
                let dir = match argv.peek() {
                    Some(next) if !next.starts_with("--") && next.parse::<usize>().is_err() => {
                        PathBuf::from(argv.next().unwrap())
                    }
                    _ => PathBuf::from("."),
                };
                args.json_dir = Some(dir);
            }
            "--help" | "-h" => usage_exit(),
            other => match other.parse() {
                // The data-heavy experiments divide the scale by up to 10 and
                // need at least one tuple each, so tiny scales are rejected
                // rather than panicking deep inside an experiment.
                Ok(n) if n >= 10 => args.scale = n,
                Ok(n) => {
                    eprintln!("error: scale must be at least 10 tuples, got {}", n);
                    std::process::exit(2);
                }
                Err(_) => {
                    eprintln!("error: unrecognized argument {:?}", other);
                    usage_exit();
                }
            },
        }
    }
    args
}

fn main() {
    let args = parse_args();
    println!(
        "flexrel experiment harness (scale = {} tuples)\n",
        args.scale
    );
    let timed = experiments::run_all_timed(args.scale);
    for (_, table, _) in &timed {
        println!("{}", table);
    }
    if let Some(dir) = &args.json_dir {
        match report::write_json_reports(dir, args.scale, &timed) {
            Ok(written) => {
                for path in written {
                    println!("wrote {}", path.display());
                }
            }
            Err(e) => {
                eprintln!("error: writing JSON reports to {}: {}", dir.display(), e);
                std::process::exit(1);
            }
        }
    }
    println!("done.");
}
