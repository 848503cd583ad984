//! Timed calls into the exchange's public API, the per-run accumulator
//! the workloads fill, and the per-layer metric table computed from it.

use crate::stats;
use crate::trace::{self, Trace};
use std::collections::BTreeMap;
use std::sync::Arc;
use vfl_exchange::{
    CheckpointStats, DrainReport, Exchange, ExchangeConfig, ExchangeTelemetry, MetricsSnapshot,
    RecoverError, ReplayReport, ReplaySpec, STAGES,
};

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// `Exchange::drain`; the workers' seam calls attribute to its span.
pub fn drain(exchange: &Exchange, workers: usize) -> DrainReport {
    let _span = trace::scope_ambient("executor.drain", workers);
    exchange.drain(workers)
}

/// The drain that resumes a recovered exchange.
pub fn resume(exchange: &Exchange, workers: usize) -> DrainReport {
    let _span = trace::scope_ambient("recovery.resume", workers);
    exchange.drain(workers)
}

/// `Exchange::checkpoint`; sink writes it makes are its children.
pub fn checkpoint(exchange: &Exchange) -> vfl_market::Result<CheckpointStats> {
    let _span = trace::scope("checkpoint");
    exchange.checkpoint()
}

/// `Exchange::recover` (with telemetry attached when one is given).
pub fn recover(
    bytes: &[u8],
    spec: ReplaySpec,
    telemetry: Option<Arc<ExchangeTelemetry>>,
) -> Result<(Exchange, ReplayReport), RecoverError> {
    let _span = trace::scope_ambient("recovery.recover", 1);
    Exchange::recover_with_telemetry(ExchangeConfig::default(), bytes, spec, None, telemetry)
}

/// `Exchange::metrics`.
pub fn metrics(exchange: &Exchange) -> MetricsSnapshot {
    let _span = trace::scope("exchange.metrics");
    exchange.metrics()
}

/// Exchange counters summed over every exchange a phase built.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub sessions_opened: u64,
    pub rounds: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub course_waits: u64,
    pub demands_submitted: u64,
    pub demands_matched: u64,
}

impl Counters {
    pub fn add(&mut self, m: &MetricsSnapshot) {
        self.sessions_opened += m.sessions_opened;
        self.rounds += m.rounds_completed;
        self.cache_hits += m.cache_hits;
        self.cache_misses += m.cache_misses;
        self.course_waits += m.course_waits;
        self.demands_submitted += m.demands_submitted;
        self.demands_matched += m.demands_matched;
    }
}

/// What a traced phase observed besides its spans.
#[derive(Debug, Default, Clone)]
pub struct Observed {
    /// Negotiations concluded in the whole phase (every rung of
    /// open-traffic, not only the reference one): the per-layer
    /// denominator.
    pub settled: u64,
    pub counters: Counters,
    /// `(count, sum ns)` per telemetry stage.
    pub stages: BTreeMap<&'static str, (u64, u64)>,
    pub journal_frames: u64,
    pub recovery_events: u64,
    pub recovery_skipped: u64,
    /// Open-loop generator lateness samples (ms) and idle share.
    pub lateness_ms: Vec<f64>,
    pub idle_frac: f64,
    /// Allocations and bytes allocated during the phase.
    pub allocs: (u64, u64),
}

impl Observed {
    /// Adds every stage histogram of `telemetry` (via `stage_snapshot`).
    pub fn add_stages(&mut self, telemetry: &ExchangeTelemetry) {
        let _span = trace::scope("telemetry.snapshot");
        for &stage in STAGES {
            let snap = telemetry
                .stage_snapshot(stage)
                .expect("every listed stage has a histogram");
            let entry = self.stages.entry(stage).or_default();
            entry.0 += snap.count;
            entry.1 += snap.sum;
        }
    }
}

/// The per-layer metric table, in a fixed order (the `per_layer` list of
/// `BENCHMARK.json`). `overhead_frac` is the traced phase's median
/// latency over the untraced phase's, minus one. Seam spans have no
/// children, so a seam layer's self time is its busy time; the scopes
/// (checkpoint, drain) report theirs separately.
pub fn layer_metrics(t: &Trace, obs: &Observed, overhead_frac: f64) -> Vec<Metric> {
    let get = |name: &str| t.get(name);
    let secs = |ns: u64| ns as f64 * 1e-9;
    let ms_p50 = |d: &[u64]| {
        let v: Vec<f64> = d.iter().map(|&n| n as f64 * 1e-6).collect();
        stats::median(&v)
    };
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let settled = obs.settled as f64;
    let c = obs.counters;

    let course = get("course");
    let strategy = get("strategy");
    let observe = get("strategy.observe");
    let matching = get("matching");
    let clearing = get("clearing");
    let admission = get("admission");
    let drain = get("executor.drain");
    let write = get("journal.write");
    let flush = get("journal.flush");
    let checkpoint = get("checkpoint");
    let recover = get("recovery.recover");
    let resume = get("recovery.resume");
    let drain_ms: Vec<f64> = drain.durations.iter().map(|&n| n as f64 * 1e-6).collect();
    let (drain_p50, drain_tail) = stats::summarize(&drain_ms);

    let mut out = vec![
        metric("course.calls", course.count as f64, "count"),
        metric("course.busy_s", secs(course.busy_ns), "s"),
        metric("course.p50_ms", ms_p50(&course.durations), "ms"),
        metric(
            "strategy.calls",
            (strategy.count + observe.count) as f64,
            "count",
        ),
        metric(
            "strategy.busy_s",
            secs(strategy.busy_ns + observe.busy_ns),
            "s",
        ),
        metric("strategy.observe_busy_s", secs(observe.busy_ns), "s"),
        metric(
            "cache.hit_ratio",
            per(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
            "ratio",
        ),
        metric("cache.misses", c.cache_misses as f64, "count"),
        metric("cache.waits", c.course_waits as f64, "count"),
        metric("session.opened", c.sessions_opened as f64, "count"),
        metric("session.rounds", c.rounds as f64, "count"),
        metric(
            "session.rounds_per_settled",
            per(c.rounds as f64, settled),
            "ratio",
        ),
        metric("matching.select_calls", matching.count as f64, "count"),
        metric(
            "matching.probes_per_demand",
            per(c.sessions_opened as f64, c.demands_submitted as f64),
            "ratio",
        ),
        metric(
            "matching.win_ratio",
            per(c.demands_matched as f64, c.sessions_opened as f64),
            "ratio",
        ),
        metric("matching.busy_s", secs(matching.busy_ns), "s"),
        metric("journal.frames", obs.journal_frames as f64, "count"),
        metric("journal.bytes", write.arg as f64, "bytes"),
        metric(
            "journal.bytes_per_settled",
            per(write.arg as f64, settled),
            "bytes",
        ),
        metric("journal.writes", write.count as f64, "count"),
        metric("journal.flushes", flush.count as f64, "count"),
        metric(
            "journal.write_busy_s",
            secs(write.busy_ns + flush.busy_ns),
            "s",
        ),
        metric("checkpoint.calls", checkpoint.count as f64, "count"),
        metric("checkpoint.busy_s", secs(checkpoint.busy_ns), "s"),
        // Bytes written by checkpoint calls are the writes nested under them.
        metric(
            "checkpoint.bytes",
            t.scope_child_arg("checkpoint") as f64,
            "bytes",
        ),
        metric(
            "checkpoint.self_s",
            secs(t.scope_self_ns("checkpoint")),
            "s",
        ),
        metric(
            "recovery.recover_s",
            per(secs(recover.busy_ns), recover.count as f64),
            "s",
        ),
        metric(
            "recovery.resume_s",
            per(secs(resume.busy_ns), resume.count as f64),
            "s",
        ),
        metric("recovery.events", obs.recovery_events as f64, "count"),
        metric(
            "recovery.events_skipped",
            obs.recovery_skipped as f64,
            "count",
        ),
        metric("clearing.epochs", clearing.count as f64, "count"),
        metric("clearing.busy_s", secs(clearing.busy_ns), "s"),
        metric("clearing.rolls", clearing.arg as f64, "count"),
        metric("admission.decisions", admission.count as f64, "count"),
        metric("admission.busy_s", secs(admission.busy_ns), "s"),
        metric("admission.shed", admission.arg as f64, "count"),
        metric("executor.drains", drain.count as f64, "count"),
        metric("executor.drain_p50_ms", drain_p50, "ms"),
        metric("executor.drain_tail_ms", drain_tail.value, "ms"),
        metric(
            "executor.self_s",
            secs(t.scope_self_ns("executor.drain")),
            "s",
        ),
    ];
    for &stage in STAGES {
        let (count, sum) = obs.stages.get(stage).copied().unwrap_or_default();
        out.push(metric(
            format!("stage.{stage}.count"),
            count as f64,
            "count",
        ));
        out.push(metric(format!("stage.{stage}.sum_s"), secs(sum), "s"));
    }
    let (_, lateness_tail) = stats::summarize(&obs.lateness_ms);
    out.extend([
        metric(
            "alloc.count_per_settled",
            per(obs.allocs.0 as f64, settled),
            "count",
        ),
        metric(
            "alloc.bytes_per_settled",
            per(obs.allocs.1 as f64, settled),
            "bytes",
        ),
        metric("generator.lateness_tail_ms", lateness_tail.value, "ms"),
        metric("generator.idle_frac", obs.idle_frac, "ratio"),
        metric("trace.overhead_frac", overhead_frac, "ratio"),
        metric("trace.spans", t.span_count() as f64, "count"),
    ]);
    out
}
