//! One benchmark for the dataflow CNN system: host streaming, cycle
//! simulation and design-space exploration, with per-layer CPU accounting.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tc2_f32 --seed 20170529 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics untraced;
//! with `--trace 1` it measures the per-layer metrics and writes its spans
//! to `perfbench/out/`. Both check every output. The last line of
//! standard output is a JSON summary; the line before it is the full
//! record, with the seed and host provenance. See `README.md`.

mod json;
mod ledger;
mod measure;
mod procfs;
mod spans;
mod stats;
mod workload;

use json::{json_num, json_str};
use measure::{Metric, Tally};
use procfs::Provenance;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Workload, DEFAULT_SEED};

/// Times the inputs are built; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = workload.ok_or(format!("--workload is required (one of {names:?})"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The spread of one metric's repetitions: the count, the median, the
/// interquartile range as a share of the median, and the slow tail (the
/// highest percentile of slowness with ten repetitions beyond it).
fn samples_json(s: &measure::Samples) -> String {
    let mut out = format!("{}: {{\"reps\": {}", json_str(s.name), s.rates.len());
    if s.rates.len() >= 2 {
        let _ = write!(
            out,
            ", \"median\": {}, \"rel_iqr\": {}",
            json_num(stats::median(&s.rates)),
            json_num(stats::relative_iqr(&s.rates))
        );
    }
    if let Some(p) = stats::tail_percentile(s.rates.len()) {
        // slow repetitions have low rates
        let rate = stats::percentile(&s.rates, 100.0 - p);
        let _ = write!(
            out,
            ", \"slow_percentile\": {}, \"slow_rate\": {}",
            json_num(p),
            json_num(rate)
        );
    }
    out.push('}');
    out
}

fn run(args: &Args) -> std::io::Result<()> {
    let provenance = Provenance::detect();
    let budget = Duration::from_secs(args.seconds);
    println!(
        "# perfbench workload={} seed={} (default {DEFAULT_SEED}) seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host: nproc={} cpu={} profile={} commit={}",
        provenance.nproc, provenance.cpu_model, provenance.build_profile, provenance.commit
    );

    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        inputs = Some(workload::setup(args.workload, args.seed));
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    let sim_batch = args.workload.sim_batch();

    let mut tally = Tally::default();
    let mut extra = String::new();
    let metrics = if args.trace {
        let mut spans = spans::Spans::new();
        let traced = measure::per_layer(&inputs, sim_batch, budget, &mut tally, &mut spans)?;
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}.jsonl", args.workload.name()));
        spans.write_jsonl(&path)?;
        println!(
            "# spans: {} written to {}",
            spans.spans().len(),
            path.display()
        );
        let l = &traced.ledger;
        println!(
            "# ledger: stages {} ns + unaccounted {} ns = pass {} ns over {} images \
             (kernel on-CPU counter {} ns)",
            l.accounted_ns(),
            l.unaccounted_ns(),
            l.pass_cpu_ns,
            l.images,
            l.pass_on_cpu_counter_ns
        );
        println!(
            "# {:<12} {:>12} {:>10} {:>9}",
            "stage", "cpu_ns/img", "MACs/img", "GMAC/s"
        );
        let rows: Vec<String> = traced
            .stages
            .iter()
            .map(|r| {
                println!(
                    "# {:<12} {:>12.0} {:>10} {:>9.3}",
                    r.name,
                    r.cpu_ns,
                    r.macs,
                    measure::gmac_per_s(r.macs, r.cpu_ns)
                );
                format!(
                    "{{\"name\": {}, \"cpu_ns\": {}, \"macs\": {}}}",
                    json_str(&r.name),
                    json_num(r.cpu_ns),
                    r.macs
                )
            })
            .collect();
        let _ = write!(
            extra,
            ", \"stages\": [{}], \"ledger\": {{\"stage_cpu_ns\": {}, \"unaccounted_ns\": {}, \
             \"pass_cpu_ns\": {}, \"pass_on_cpu_counter_ns\": {}, \"images\": {}}}, \
             \"spans\": {}",
            rows.join(", "),
            l.accounted_ns(),
            l.unaccounted_ns(),
            l.pass_cpu_ns,
            l.pass_on_cpu_counter_ns,
            l.images,
            json_str(&path.display().to_string())
        );
        traced.metrics
    } else {
        let (mut m, samples) = measure::end_to_end(&inputs, sim_batch, budget, &mut tally)?;
        let rows: Vec<String> = samples.iter().map(samples_json).collect();
        let _ = write!(extra, ", \"samples\": {{{}}}", rows.join(", "));
        m.push(Metric {
            name: "setup_s".into(),
            value: stats::median(&setup_secs),
            unit: "s",
        });
        m.push(Metric {
            name: "peak_rss_mb".into(),
            value: procfs::peak_rss_mb()?,
            unit: "MB",
        });
        m
    };

    for m in &metrics {
        println!("{:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<28} {:>18.6} ratio  ({} failed of {} attempted)",
        "failed_fraction",
        tally.failed_fraction(),
        tally.failed,
        tally.attempted
    );
    println!(
        "record {{\"workload\": {}, \"seed\": {}, \"default_seed\": {DEFAULT_SEED}, \
         \"seconds\": {}, \"trace\": {}, \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \
         \"build_profile\": {}, \"commit\": {}}}, \"attempted\": {}, \"failed\": {}, \
         \"failed_fraction\": {}, \"setup_s_samples\": [{}], \"metrics\": {}{extra}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        provenance.nproc,
        json_str(&provenance.cpu_model),
        json_str(provenance.build_profile),
        json_str(&provenance.commit),
        tally.attempted,
        tally.failed,
        json_num(tally.failed_fraction()),
        setup_secs
            .iter()
            .map(|&s| json_num(s))
            .collect::<Vec<_>>()
            .join(", "),
        json_metrics(&metrics),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        json_metrics(&metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_full_command_line() {
        let a = parse_args(&argv(
            "--workload resnet8_q16 --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::Resnet8Q16,
                seed: 7,
                seconds: 12,
                trace: true
            }
        );
        let d = parse_args(&argv("--workload tc2_f32")).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (DEFAULT_SEED, 10, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload tc2_f32 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload tc2_f32 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload tc2_f32 --seed")).is_err());
        assert!(parse_args(&argv("--workload tc2_f32 --bogus 1")).is_err());
    }

    #[test]
    fn metrics_render_as_one_json_object() {
        let m = vec![
            Metric {
                name: "setup_s".into(),
                value: 0.5,
                unit: "s",
            },
            Metric {
                name: "images_per_s".into(),
                value: 1.203456789,
                unit: "1/s",
            },
        ];
        assert_eq!(
            json_metrics(&m),
            "{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"images_per_s\": {\"value\": 1.203456789, \"unit\": \"1/s\"}}"
        );
    }
}
