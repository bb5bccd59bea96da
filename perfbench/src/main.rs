//! The repository benchmark. One command replays one seeded workload
//! through the library's public API, checks every output, and prints the
//! metrics by name and unit; its last line is one JSON object.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_chat --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing off;
//! `--trace 1` runs the traced variant and prints the per-layer metrics.
//! See README.md for the workloads and every metric's definition.

mod longdoc;
mod progress;
mod report;
mod rng;
mod serve;
mod spans;
mod stats;

use report::{Outcome, EXACT};
use std::path::PathBuf;

const USAGE: &str =
    "usage: perfbench --workload <serve_chat|serve_stack|longdoc> --seed <n> --seconds <s> --trace <0|1>";
const WORKLOADS: [&str; 3] = ["serve_chat", "serve_stack", "longdoc"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| bad("unknown workload"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

/// Files the benchmark writes live under its own directory.
fn out_dir(sub: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(sub)
}

/// FNV-1a of this executable: one build of one commit, one key.
fn build_key() -> String {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// The exact counters must repeat across every run of one build with one
/// seed: compare with what earlier runs recorded, then record the union.
fn gate_across_runs(args: &Args, out: &mut Outcome) {
    let path = out_dir("runs").join(format!(
        "{}-{}-seed{}.txt",
        build_key(),
        args.workload,
        args.seed
    ));
    let mut known: Vec<(String, u64)> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect();
    for name in EXACT {
        let Some(&now) = out.counters.get(name) else {
            continue;
        };
        match known.iter().find(|(k, _)| k == name) {
            Some((_, before)) if *before != now => out.errors.push(format!(
                "exact counter {name} drifted across runs of this build and seed: {before} then {now}"
            )),
            Some(_) => {}
            None => known.push((name.to_string(), now)),
        }
    }
    let text: String = known.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    let written =
        std::fs::create_dir_all(out_dir("runs")).and_then(|_| std::fs::write(&path, text));
    if let Err(e) = written {
        out.errors
            .push(format!("recording counters in {}: {e}", path.display()));
    }
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} | {} engine threads, {cores} cores available",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        serve::THREADS
    );
    let mut out = Outcome::default();
    match args.workload {
        "serve_chat" => serve::run(
            serve::Kind::Chat,
            args.seed,
            args.seconds,
            args.traced,
            &mut out,
        ),
        "serve_stack" => serve::run(
            serve::Kind::Stack,
            args.seed,
            args.seconds,
            args.traced,
            &mut out,
        ),
        _ => longdoc::run(args.seed, args.seconds, args.traced, &mut out),
    }
    if !args.traced {
        out.set("peak_rss_mb", stats::peak_rss_mb(), "VmHWM of this process");
    }
    gate_across_runs(&args, &mut out);
    if let Some(trace) = out.trace.take() {
        let path = out_dir("traces").join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match trace.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                trace.spans().len(),
                path.display()
            ),
            Err(e) => out.errors.push(format!("writing {}: {e}", path.display())),
        }
    }
    report::print(args.workload, args.traced, &out);
    std::process::exit(if out.correct() { 0 } else { 1 });
}
