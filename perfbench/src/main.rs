//! The repository benchmark (see README.md).
//!
//! ```text
//! perfbench --workload <imperfect-courses|journaled-demands|open-traffic>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process: its set-up several times, the timed
//! phase for `--seconds`, the set-up as many times again (`setup_s` is the
//! median of all set-ups), then the workload's output checks. With `--trace 0` it reports the end-to-end metrics; with
//! `--trace 1` it splits the time into an untraced and a traced half and
//! reports the per-layer metrics (from the traced half's spans) and the
//! tracing overhead. The last line of standard output is one JSON object;
//! a failed check prints no metrics and exits with code 1.

mod alloc;
mod imperfect;
mod journaled;
mod observe;
mod open_traffic;
mod seams;
mod stats;
mod trace;

use observe::{metric, Metric, Observed};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one timed phase of a workload produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Negotiations attempted and those that failed (hard error, rejected
    /// or shed).
    pub attempted: u64,
    pub failed: u64,
    /// Negotiations concluded, and per measurement window (batch, pass or
    /// rung) the negotiations concluded per second of its timed wall time.
    pub settled: u64,
    pub rates: Vec<f64>,
    /// Submission (or due time) to conclusion per concluded negotiation,
    /// grouped into measurement windows.
    pub latency_ms: Vec<Vec<f64>>,
    /// Output checks that failed.
    pub failures: Vec<String>,
    /// Workload-specific end-to-end metrics (reported, not gated).
    pub extra: Vec<Metric>,
    /// Human-readable lines describing the phase.
    pub notes: Vec<String>,
    pub observed: Observed,
}

/// A benchmark workload: a world built by `setup`, run by `phase`.
pub trait Workload: Sized {
    /// Set-ups before the timed phase, and again after it in an untraced
    /// run; `setup_s` is the median of all of them.
    const SETUPS: usize;
    fn setup(opts: &Opts) -> Self;
    fn phase(&mut self, budget: Duration, traced: bool) -> Phase;
}

fn main() {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload <imperfect-courses|journaled-demands|open-traffic> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let code = match opts.workload.as_str() {
        "imperfect-courses" => run::<imperfect::ImperfectCourses>(&opts),
        "journaled-demands" => run::<journaled::JournaledDemands>(&opts),
        "open-traffic" => run::<open_traffic::OpenTraffic>(&opts),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            2
        }
    };
    std::process::exit(code);
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(format!("--seconds {value} must be in (0, 600]"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

fn run<W: Workload>(opts: &Opts) -> i32 {
    let workers = workers();
    println!(
        "workload {} seed {} seconds {} trace {} workers {workers}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );
    let mut setups = Vec::new();
    let mut world = None;
    for _ in 0..W::SETUPS {
        drop(world.take());
        let start = Instant::now();
        world = Some(W::setup(opts));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut world = world.expect("at least one set-up");

    let budget = Duration::from_secs_f64(opts.seconds);
    // `printed`: reported as `metric` lines only; `metrics`: the JSON's.
    let (printed, metrics, phases) = if opts.trace {
        let plain = world.phase(budget / 2, false);
        trace::set(true);
        let allocs_before = alloc::snapshot();
        let mut traced = world.phase(budget / 2, true);
        let allocs_after = alloc::snapshot();
        trace::set(false);
        traced.observed.allocs = (
            allocs_after.0 - allocs_before.0,
            allocs_after.1 - allocs_before.1,
        );
        let trace = trace::collect();
        let (plain_p50, _) = latency(&plain);
        let (traced_p50, _) = latency(&traced);
        let overhead = traced_p50 / plain_p50 - 1.0;
        println!(
            "tracing overhead: settle_p50_ms {traced_p50:.4} traced vs {plain_p50:.4} untraced \
             ({:+.1}%), settled_per_s {:.2} traced vs {:.2} untraced, {} spans",
            overhead * 100.0,
            throughput(&traced),
            throughput(&plain),
            trace.span_count()
        );
        let path = std::path::Path::new("perfbench/out")
            .join(format!("spans-{}-{}.jsonl", opts.workload, opts.seed));
        match trace::dump(&trace, &path) {
            Ok(n) => println!(
                "wrote {n} spans (every public call, the first {} seam calls) to {}",
                trace::KEPT_SEAM_SPANS,
                path.display()
            ),
            Err(e) => println!("spans not written ({}): {e}", path.display()),
        }
        let layers = observe::layer_metrics(&trace, &traced.observed, overhead);
        (Vec::new(), layers, vec![plain, traced])
    } else {
        let mut phase = world.phase(budget, false);
        let peak_rss_mb = peak_rss_mb();
        // The machine's speed drifts over seconds to minutes, so set-up is
        // sampled at both ends of the run.
        drop(world);
        for _ in 0..W::SETUPS {
            let start = Instant::now();
            let again = W::setup(opts);
            setups.push(start.elapsed().as_secs_f64());
            drop(again);
        }
        let (p50, tail) = latency(&phase);
        let failed_frac = phase.failed as f64 / phase.attempted.max(1) as f64;
        let mut printed = vec![metric("failed_frac", failed_frac, "ratio")];
        printed.append(&mut phase.extra);
        let e2e = vec![
            metric("setup_s", stats::median(&setups), "s"),
            metric("settled_per_s", throughput(&phase), "1/s"),
            metric("settle_p50_ms", p50, "ms"),
            metric("settle_tail_ms", tail, "ms"),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
        ];
        (printed, e2e, vec![phase])
    };

    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    let failures: Vec<&String> = phases.iter().flat_map(|p| &p.failures).collect();
    println!("set-up times (s): {setups:.4?}");
    for line in phases.iter().flat_map(|p| &p.notes) {
        println!("{line}");
    }
    if !failures.is_empty() {
        for f in &failures {
            println!("CHECK FAILED: {f}");
        }
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            attempted.max(1),
            failed
        );
        return 1;
    }
    for m in &printed {
        println!("metric {} {:.6} {}", m.name, m.value, m.unit);
    }
    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        failed,
        body.join(", ")
    );
    0
}

/// Median over the phase's windows of negotiations concluded per second.
fn throughput(phase: &Phase) -> f64 {
    stats::median(&phase.rates)
}

/// Median over the phase's latency windows of each window's p50 and tail;
/// prints each window's tail percentile and sample count.
fn latency(phase: &Phase) -> (f64, f64) {
    let windows: Vec<(f64, stats::Tail)> = phase
        .latency_ms
        .iter()
        .map(|w| stats::summarize(w))
        .collect();
    for (i, (_, t)) in windows.iter().enumerate() {
        println!(
            "latency window {i}: {} samples, tail is p{} with {} samples beyond it",
            t.n, t.pct, t.beyond
        );
    }
    let p50: Vec<f64> = windows.iter().map(|w| w.0).collect();
    let tail: Vec<f64> = windows.iter().map(|w| w.1.value).collect();
    (stats::median(&p50), stats::median(&tail))
}

/// Worker threads for drains: the machine's available parallelism.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `VmHWM` (peak resident set) of this process in MB, from /proc.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
