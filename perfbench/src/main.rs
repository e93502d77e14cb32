//! Benchmark of the distributed partial clustering workspace.
//!
//! ```text
//! perfbench --workload <median-sites|center-fanout|stream-sync> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, measures for the given
//! number of seconds (closed loop, one client), checks every output, and
//! prints the metrics: the end-to-end set with `--trace 0`, the per-layer
//! set with `--trace 1`. The last line of standard output is one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics`.
//! See `README.md` for what each workload and metric means.

mod batch;
mod gate;
mod layers;
mod report;
mod stream;
mod sys;

use std::time::{Duration, Instant};

use report::{Report, END_TO_END, PER_LAYER};

/// Set-up repetitions per run; set-up metrics are their medians.
const SETUP_REPS: usize = 31;
/// Fewest timed operations (jobs, or stream passes) per run, whatever
/// `--seconds` says.
const MIN_OPS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <median-sites|center-fanout|stream-sync> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Runs `f`, returning its value and its wall time in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, secs(t0.elapsed()))
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Set-up timings: medians over [`SETUP_REPS`] repetitions.
struct SetupTimes {
    generate_s: f64,
    partition_s: f64,
    total_s: f64,
}

/// Times [`SETUP_REPS`] repetitions of a workload's set-up, `once`
/// returning its inputs (dropped) and its generate and partition times.
/// Runs after the warm-up, so every repetition sees a warm process.
fn time_setup<I>(mut once: impl FnMut() -> (I, f64, f64)) -> SetupTimes {
    let (mut gens, mut parts, mut totals) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let ((inputs, g, p), total) = timed(&mut once);
        drop(inputs);
        gens.push(g);
        parts.push(p);
        totals.push(total);
    }
    SetupTimes {
        generate_s: report::median(&gens),
        partition_s: report::median(&parts),
        total_s: report::median(&totals),
    }
}

fn deadline_passed(start: Instant, seconds: f64) -> bool {
    secs(start.elapsed()) >= seconds
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let (seed, secs) = (args.seed, args.seconds);
    Ok(match (args.workload.as_str(), args.trace) {
        ("median-sites", false) => batch::MEDIAN_SITES.measure(seed, secs),
        ("median-sites", true) => batch::MEDIAN_SITES.trace(seed, secs),
        ("center-fanout", false) => batch::CENTER_FANOUT.measure(seed, secs),
        ("center-fanout", true) => batch::CENTER_FANOUT.trace(seed, secs),
        ("stream-sync", false) => stream::measure(seed, secs),
        ("stream-sync", true) => stream::trace(seed, secs),
        (other, _) => return Err(format!("unknown workload '{other}'")),
    })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    // One CPU for the whole run, set before any thread starts: the
    // stream's syncs hand work between threads, and on a shared 2-CPU
    // host each hand-off to the other CPU waits on the host's scheduling
    // of it, which nearly doubled that workload's wall from run to run.
    // The program sizes its thread pools from `available_parallelism`,
    // which the pin makes 1.
    let host_cpus = sys::available_parallelism();
    let pinned_cpu = sys::pin_to_one_cpu();
    let load_start = sys::loadavg();
    let calibration_start = sys::calibration_ms();
    let mut report = run(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    report.stamp("workload", format!("\"{}\"", args.workload));
    report.stamp("seed", args.seed.to_string());
    report.stamp("seconds", format!("{:?}", args.seconds));
    report.stamp("trace", u8::from(args.trace).to_string());
    report.stamp("host_cpus", host_cpus.to_string());
    report.stamp(
        "pinned_cpu",
        pinned_cpu.map_or("null".to_string(), |c| c.to_string()),
    );
    report.stamp(
        "available_parallelism",
        sys::available_parallelism().to_string(),
    );
    report.stamp("loadavg_start", report::json_array(&load_start));
    report.stamp("loadavg_end", report::json_array(&sys::loadavg()));
    report.stamp("calibration_ms_start", format!("{calibration_start:?}"));
    report.stamp("calibration_ms_end", format!("{:?}", sys::calibration_ms()));

    let catalog = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    print!("{}", report.table(catalog));
    println!("{}", report.env_line());
    println!("{}", report.result_line(catalog));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_command_line_and_rejects_the_rest() {
        let a = args("--workload stream-sync --seed 7 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("stream-sync", 7, 2.5, true)
        );
        for bad in [
            "--workload x --seed 1 --seconds 0 --trace 0",
            "--workload x --seed -1 --seconds 1 --trace 0",
            "--workload x --seed 1 --seconds 1 --trace 2",
            "--workload x --seed 1 --seconds 1 --bogus 0",
            "--seed 1 --seconds 1",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn stream_sync_end_to_end_run_is_correct_and_complete() {
        let r = stream::measure(gate::DEFAULT_SEED, 0.01);
        assert!(r.correct(), "{r:?}");
        let doc = dpc_obs::json::parse(&r.result_line(&END_TO_END)).expect("JSON");
        assert_eq!(
            doc.get("attempted").and_then(|v| v.as_u64()),
            Some(MIN_OPS as u64 * 100)
        );
    }

    #[test]
    fn center_fanout_traced_run_reports_the_reconciliation() {
        let r = batch::CENTER_FANOUT.trace(gate::DEFAULT_SEED, 0.01);
        assert!(r.correct(), "{r:?}");
        let unattributed = r.values["unattributed_frac"];
        assert!(unattributed.is_finite() && unattributed.abs() < 1.0);
        r.result_line(&PER_LAYER);
    }
}
