//! `perfbench` — the repository benchmark.
//!
//! Boots the real serving stack in this one process and drives it over
//! loopback with one of three workloads, checking every release it
//! gets back:
//!
//! ```text
//! perfbench --workload hc_cold|hg_sweep|mixed_open --seed N --seconds S --trace 0|1
//!           --state-dir DIR --out-dir DIR
//! perfbench --calibrate --seed N --seconds S --state-dir DIR
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A correctness
//! failure exits 1 after that line; an error exits 2 without it.
//! `run.py` builds this binary and supplies the directories.

mod closed;
mod gate;
mod metrics;
mod open;
mod stack;
mod trace;
mod traced;

use std::path::{Path, PathBuf};

use metrics::{Report, END_TO_END, PER_LAYER};
use stack::{Inputs, Res, Size, Stack, StateDir};
use trace::WireSample;

/// The workloads the binary runs. `BENCHMARK.json` scores the two
/// closed loops; `mixed_open` is run by hand (see the README).
pub const WORKLOADS: [&str; 3] = ["hc_cold", "hg_sweep", "mixed_open"];

/// Runs `workload`'s wire phase, returning the still-open stack and the
/// load generator's view of every request.
pub fn run_wire(
    workload: &str,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    state: &StateDir,
    report: &mut Report,
) -> Res<(Stack, Vec<WireSample>)> {
    match workload {
        "hc_cold" => closed::hc_cold(inputs, seed, seconds, report),
        "hg_sweep" => closed::hg_sweep(inputs, seed, seconds, state, report),
        "mixed_open" => open::mixed_open(inputs, seed, seconds, state, report),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join("|")
        )),
    }
}

/// One run: the untimed inputs, then the workload (or its traced run).
/// Returns the result line and the report, whose gate failures decide
/// the exit code.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    state_dir: &Path,
    out_dir: &Path,
) -> Res<(String, Report)> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {})",
            WORKLOADS.join("|")
        ));
    }
    let inputs = Inputs::new(size);
    let state = StateDir::create(state_dir)?;
    let mut report = Report::default();
    if trace {
        std::fs::create_dir_all(out_dir)
            .map_err(|e| format!("create {}: {e}", out_dir.display()))?;
        let path = out_dir.join(format!("trace-{workload}.json"));
        traced::traced(workload, &inputs, seed, seconds, &state, &path, &mut report)?;
    } else {
        let (stack, _) = run_wire(workload, &inputs, seed, seconds, &state, &mut report)?;
        let store = stack.store.clone();
        stack.close()?;
        let more = inputs.size.setups.saturating_sub(1);
        Stack::time_boots(&inputs, store.as_deref(), more, &mut report)?;
        report.set("setup_s", metrics::median(&report.boots_s));
    }
    let line = report.result_line(if trace { PER_LAYER } else { END_TO_END });
    Ok((line, report))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    calibrate: bool,
    state_dir: Option<PathBuf>,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Res<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        calibrate: false,
        state_dir: None,
        out_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--calibrate" {
            args.calibrate = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--state-dir" => args.state_dir = Some(PathBuf::from(value)),
            "--out-dir" => args.out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if args.state_dir.is_none() {
        return Err("--state-dir is required".into());
    }
    if args.trace && args.out_dir.is_none() {
        return Err("--trace 1 needs --out-dir for its trace file".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let state_dir = args.state_dir.unwrap_or_default();
    if args.calibrate {
        let inputs = Inputs::new(Size::full());
        let outcome = StateDir::create(&state_dir)
            .and_then(|state| open::calibrate(&inputs, args.seed, args.seconds, &state));
        match outcome {
            Ok(capacity) => println!("mixed_open closed-loop capacity: {capacity:.1} arrivals/s"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    match run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Size::full(),
        &state_dir,
        args.out_dir.as_deref().unwrap_or(&state_dir),
    ) {
        Ok((line, report)) => {
            for f in &report.gate_failures {
                eprintln!("perfbench: CORRECTNESS FAILURE: {f}");
            }
            println!("{line}");
            if !report.gate_failures.is_empty() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join("selftest")
            .join(name)
    }

    /// A tiny run of every workload, untraced and traced, passes the
    /// gate and prints every metric of its table by name with its unit.
    #[test]
    fn tiny_runs_print_every_metric() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let dir = scratch(&format!("{workload}-{trace}"));
                let (line, report) = run(
                    workload,
                    7,
                    1.0,
                    trace,
                    Size::tiny(),
                    &dir.join("state"),
                    &dir,
                )
                .unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
                assert!(
                    report.gate_failures.is_empty(),
                    "{workload} trace={trace}: {:?}",
                    report.gate_failures
                );
                assert!(line.starts_with("{\"correct\": true"), "{line}");
                let table = if trace { PER_LAYER } else { END_TO_END };
                for (name, unit) in table {
                    let entry = format!("\"{name}\": {{\"value\": ");
                    assert!(line.contains(&entry), "{workload}: {name} missing: {line}");
                    let unit = format!("\"unit\": \"{unit}\"");
                    assert!(line.contains(&unit), "{workload}: unit {unit} missing");
                }
                if trace {
                    assert!(dir.join(format!("trace-{workload}.json")).exists());
                }
            }
        }
    }

    /// `BENCHMARK.json` scores only workloads the binary runs, and
    /// declares exactly the metrics it prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
        let section = |key: &str| -> String {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let rest = &text[start..];
            rest[..rest.find(']').expect("section closes")].to_string()
        };
        let names = |s: &str| -> Vec<String> {
            s.split("\"name\": \"")
                .skip(1)
                .map(|t| t[..t.find('"').expect("quoted")].to_string())
                .collect()
        };
        let units = |s: &str| -> Vec<String> {
            s.split("\"unit\": \"")
                .skip(1)
                .map(|t| t[..t.find('"').expect("quoted")].to_string())
                .collect()
        };
        // `mixed_open` runs but is not scored; see the README.
        let scored = names(&section("workloads"));
        assert!(!scored.is_empty());
        assert!(scored.iter().all(|w| WORKLOADS.contains(&w.as_str())));
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let s = section(key);
            let want: Vec<String> = table.iter().map(|(n, _)| n.to_string()).collect();
            assert_eq!(names(&s), want, "{key} names");
            let want: Vec<String> = table.iter().map(|(_, u)| u.to_string()).collect();
            assert_eq!(units(&s), want, "{key} units");
        }
    }
}
