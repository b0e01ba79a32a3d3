//! The rtem benchmark: end-to-end and per-layer metrics of three workloads
//! driven through the `rtem` facade. See `perfbench/README.md`.
//!
//! ```bash
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload long --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones of
//! a separate traced run. The line before it records the machine, the
//! repeats and the checks.

mod clock;
mod env;
mod fidelity;
mod gauge;
mod layers;
mod run;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::Workload;

/// Every end-to-end metric, with its unit, in output order.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("report_s", "s"),
    ("device_ticks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("billed_frac", "fraction"),
    ("clean_window_frac", "fraction"),
    ("gap_in_band_frac", "fraction"),
    ("seal_latency_p50_s", "sim_s"),
    ("seal_latency_p99_s", "sim_s"),
    ("thandshake_p50_s", "sim_s"),
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(value).ok_or(format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(30),
            trace: trace.unwrap_or(false),
        })
    }

    /// Repeats that fit `--seconds` at the workload's nominal cost, at
    /// least three. A function of the arguments only, so two runs of one
    /// command line fold the same number of repeats.
    fn repeats(&self) -> usize {
        let nominal = self.workload.shape().nominal_repeat_s;
        ((self.seconds as f64 / nominal).round() as usize).max(3)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload fleet|long|roam --seed N --seconds N --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match measure(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn measure(args: &Args) -> Result<(), String> {
    let machine = env::Fingerprint::read();
    let repeats = args.repeats();
    let mut details = String::new();
    write!(
        details,
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"repeats\":{repeats},\"machine\":{{\"nproc\":{},\"cpu\":{},\"rustc\":{},\"git_rev\":{}}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        machine.nproc,
        json_string(&machine.cpu_model),
        json_string(&machine.rustc),
        json_string(&machine.git_rev),
    )
    .expect("writing to a String never fails");

    let mut outcome = if args.trace {
        per_layer(args, repeats, &mut details)?
    } else {
        end_to_end(args, repeats, &mut details)?
    };
    for ((name, _), value) in outcome.metrics.iter().zip(&outcome.values) {
        if !value.is_finite() {
            outcome.failures.push(format!("{name} is not finite"));
        }
    }
    let failures: Vec<String> = outcome.failures.iter().map(|f| json_string(f)).collect();
    println!("{details},\"failures\":[{}]}}", failures.join(","));

    let body: Vec<String> = outcome
        .metrics
        .iter()
        .zip(&outcome.values)
        .map(|((name, unit), value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    Ok(())
}

/// What one invocation measured.
struct Outcome {
    /// The metric list the values follow, with units.
    metrics: &'static [(&'static str, &'static str)],
    /// One value per metric.
    values: Vec<f64>,
    /// Failed checks; empty means correct.
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

/// The end-to-end metrics (`--trace 0`). Attempted operations are the
/// records due for billing by the horizon; failed ones, those unbilled.
fn end_to_end(args: &Args, repeats: usize, details: &mut String) -> Result<Outcome, String> {
    let e2e = run::end_to_end(args.workload, args.seed, repeats)?;
    let f = e2e.fidelity;
    let peak_rss_mb = env::peak_rss_mb().ok_or("cannot read VmHWM")?;
    write!(
        details,
        ",\"digest\":\"{}\",\"raw_cpu_s\":{{\"setup\":{:?},\"run\":{:?},\"wall_run\":{:?},\"report\":{:?},\"run_slice\":{:?},\"finish_slice\":{:?}}},\"device_ticks\":{},\"handshakes\":{},\"memberships\":{},\"due_records\":{},\"unbilled_due\":{},\"windows_verified\":{},\"windows_anomalous\":{},\"settled_windows\":{},\"settled_out_of_band\":{},\"mean_gap_percent\":{},\"sealed_entries\":{}",
        e2e.digest,
        e2e.raw.setup_s,
        e2e.raw.run_s,
        e2e.raw.wall_run_s,
        e2e.raw.report_s,
        e2e.raw.run_slice_s,
        e2e.raw.finish_slice_s,
        f.device_ticks,
        f.handshakes,
        f.memberships,
        f.due_records,
        f.unbilled_due,
        f.windows_verified,
        f.windows_anomalous,
        f.settled_windows,
        f.settled_out_of_band,
        f.mean_gap_percent,
        f.sealed_entries,
    )
    .expect("writing to a String never fails");
    Ok(Outcome {
        metrics: &END_TO_END,
        values: vec![
            e2e.setup_s,
            e2e.run_s,
            e2e.report_s,
            f.device_ticks as f64 / e2e.run_s,
            peak_rss_mb,
            f.billed_frac(),
            f.clean_window_frac(),
            f.gap_in_band_frac(),
            f.seal_latency_p50_s.unwrap_or(0.0),
            f.seal_latency_p99_s.unwrap_or(0.0),
            f.thandshake_p50_s.unwrap_or(0.0),
        ],
        attempted: f.due_records.max(1),
        failed: f.unbilled_due,
        failures: f.failures,
    })
}

/// The per-layer metrics of the traced run (`--trace 1`). It folds half
/// the repeats on each side (untraced reference and traced), so it costs
/// about what `--trace 0` does. Attempted operations are its timed steps.
fn per_layer(args: &Args, repeats: usize, details: &mut String) -> Result<Outcome, String> {
    let traced = layers::traced(args.workload, args.seed, (repeats / 2).max(2))?;
    let path = write_spans(args, &traced.tracer);
    let self_times: Vec<String> = traced
        .tracer
        .self_times()
        .iter()
        .map(|(name, secs)| format!("{}:{secs:.6}", json_string(name)))
        .collect();
    write!(
        details,
        ",\"digest\":\"{}\",\"spans\":{},\"self_time_s\":{{{}}}",
        traced.digest,
        json_string(&path),
        self_times.join(",")
    )
    .expect("writing to a String never fails");
    Ok(Outcome {
        metrics: &layers::PER_LAYER,
        values: traced.values,
        attempted: (traced.tracer.secs_of("rtem.step").len() as u64).max(1),
        failed: 0,
        failures: traced.failures,
    })
}

/// Writes the traced run's spans as Chrome trace-event JSON under
/// `perfbench/traces/`; returns the path, or why it could not.
fn write_spans(args: &Args, tracer: &trace::Tracer) -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{}-{}.json", args.workload.name(), args.seed));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_chrome_json()))
    {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("not written: {e}"),
    }
}

/// A JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn a_full_command_line_parses() {
        let args = Args::parse(&argv("--workload roam --seed 7 --seconds 25 --trace 1")).unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::Roam,
                seed: 7,
                seconds: 25,
                trace: true
            }
        );
        assert!(args.repeats() >= 3);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload long --trace 2",
            "--workload long --seed",
            "--workload long --color red",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn repeats_follow_the_time_budget() {
        let args = |seconds| Args {
            workload: Workload::Long,
            seed: 1,
            seconds,
            trace: false,
        };
        assert_eq!(args(1).repeats(), 3);
        assert!(args(60).repeats() > args(20).repeats());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn end_to_end_names_match_the_benchmark_file() {
        let file =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        for (name, unit) in END_TO_END {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\":");
            assert!(file.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
