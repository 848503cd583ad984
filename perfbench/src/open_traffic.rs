//! `open-traffic`: an open loop paced in wall-clock time. Demand arrivals
//! come from a seeded bursty `ArrivalProcess` over a seller pool with
//! several evaluation-key groups, seller churn and one market shift. Every
//! fourth demand settles in epoch mode through `UniformPriceClearing`; all
//! of them pass a queue-depth admission policy; drains run on the default
//! thread-pool executor with telemetry attached. Whatever has come due is
//! submitted before each drain, so the exchange sees many small drains,
//! and a slow drain shows up as queueing latency and shedding.
//!
//! The run is a ladder of fixed offered rates interleaved with closed-loop
//! saturation rungs, each rung on a fresh exchange. The latency metrics
//! come from the reference rung; `sustained_rate_per_s` is the highest
//! rung whose tail latency stays under [`LIMIT_MS`] with nothing shed and
//! no backlog left when its arrivals stop. `settled_per_s` is the median of
//! the saturation rungs' settled over wall time: they submit the same mix
//! of demands in chunks of [`CHUNK`] without waiting, so they measure what
//! the exchange can settle rather than what the generator offers, and
//! they are spread over the run because the machine's speed drifts.

use crate::observe::{self, metric, Observed};
use crate::seams::{
    Board, TracedAdmission, TracedClear, TracedData, TracedMatch, TracedProvider, TracedTask,
};
use crate::{stats, trace, Opts, Phase, Workload};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;
use vfl_exchange::{
    ArrivalProcess, BestResponse, ClearingSpec, Demand, DemandId, DemandStatus, Exchange,
    ExchangeConfig, ExchangeTelemetry, MarketSpec, QueueDepthAdmission, SellerSpec, SettleMode,
    UniformPriceClearing,
};
use vfl_market::{
    DataStrategy, Listing, MarketConfig, ReservedPrice, StrategicData, StrategicTask,
    TableGainProvider,
};
use vfl_sim::BundleMask;

/// Offered rates of the ladder (demands per second) and the reference rung,
/// which gets [`REFERENCE_SHARE`] of the run; the saturation rungs share
/// [`SATURATION_SHARE`] and the other rungs split the rest.
const LADDER: [f64; 6] = [500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16000.0];
const REFERENCE: usize = 1;
const REFERENCE_SHARE: f64 = 0.3;
const SATURATION_SHARE: f64 = 0.45;
/// The order rungs run in: a ladder index, or `None` for a saturation rung.
const RUN_ORDER: [Option<usize>; 15] = [
    None,
    Some(0),
    None,
    Some(2),
    None,
    None,
    Some(REFERENCE),
    None,
    None,
    Some(3),
    None,
    Some(4),
    None,
    Some(5),
    None,
];
/// A saturation rung's schedule is drawn at this rate; its arrivals are
/// submitted [`CHUNK`] at a time, each chunk as soon as the last drain
/// returns.
const SATURATION_RATE: f64 = 12000.0;
const CHUNK: usize = 128;
/// Latency windows of the reference rung, by due time: three burst
/// periods, about 300 demands (always between 200 and 500, so every
/// window's tail is its p95), so a stall of the shared machine spoils a
/// few windows rather than deciding the run.
const WINDOW_NS: u64 = 300_000_000;
/// Shortest rung, whatever `--seconds` asks for.
const MIN_RUNG_NS: u64 = 1_000_000_000;
/// The operator's drain cadence: every tick, whatever has come due is
/// submitted and drained (a drain that overruns delays the next tick).
const DRAIN_EVERY_NS: u64 = 5_000_000;
/// Tail-latency limit a rung must meet to count as sustained.
const LIMIT_MS: f64 = 50.0;
/// Arrival tick; the process gives the expected arrivals per tick.
const TICK_S: f64 = 0.01;
const FEATURES: usize = 4;
/// Market groups open at the start; one more opens at the shift.
const GROUPS: u64 = 3;
const SELLERS_PER_GROUP: usize = 3;
/// Sellers that relist during a rung, evenly spaced.
const CHURN: usize = 3;
/// Every n-th demand settles in epoch mode.
const EPOCH_EVERY: usize = 4;
/// Pending-queue depth above which demands are shed.
const MAX_QUEUE_DEPTH: usize = 1_500;
const KEY_BASE: u64 = 9_000;

pub struct OpenTraffic {
    /// Per phase, the rungs in [`RUN_ORDER`].
    plans: Vec<Vec<RungPlan>>,
}

/// One rung: its offered load and the exchange it runs on.
struct RungPlan {
    rate: f64,
    /// Submit on the wall clock (false: the closed saturation loop).
    paced: bool,
    span_ns: u64,
    arrivals: Vec<Arrival>,
    board: Arc<Board>,
    exchange: Exchange,
    telemetry: Arc<ExchangeTelemetry>,
}

impl RungPlan {
    /// Draws the rung's schedule and builds its exchange: admission,
    /// clearing window and the opening seller pool, telemetry attached.
    fn new(rng: &mut StdRng, rate: f64, paced: bool, span_ns: u64) -> Self {
        let (arrivals, board) = schedule(rng, rate, span_ns);
        let telemetry = ExchangeTelemetry::new();
        let exchange = Exchange::with_telemetry(ExchangeConfig::default(), telemetry.clone());
        exchange.set_admission(Some(Arc::new(TracedAdmission(Arc::new(
            QueueDepthAdmission {
                max_queue_depth: MAX_QUEUE_DEPTH,
            },
        )))));
        exchange
            .open_clearing(ClearingSpec {
                epoch_size: 4,
                capacity: 2,
                max_rolls: 2,
                policy: Arc::new(TracedClear {
                    inner: Arc::new(UniformPriceClearing::default()),
                    board: board.clone(),
                }),
            })
            .expect("open clearing window");
        for group in 0..GROUPS {
            for idx in 0..SELLERS_PER_GROUP {
                exchange
                    .register_seller(seller(group, idx, &board))
                    .expect("register seller");
            }
        }
        RungPlan {
            rate,
            paced,
            span_ns,
            arrivals,
            board,
            exchange,
            telemetry,
        }
    }
}

/// One scheduled arrival.
struct Arrival {
    due_ns: u64,
    group: u64,
    wanted: BundleMask,
    utility: f64,
    seed: u64,
}

impl Arrival {
    /// The demand the client submits for this arrival, schedule slot
    /// `slot`; built at submission, so the schedule stays small.
    fn demand(&self, slot: usize, board: &Arc<Board>) -> Demand {
        let task_board = board.clone();
        let settle = if (slot + 1).is_multiple_of(EPOCH_EVERY) {
            SettleMode::Epoch
        } else {
            SettleMode::Immediate(Arc::new(TracedMatch {
                inner: Arc::new(BestResponse),
                board: board.clone(),
            }))
        };
        Demand {
            wanted: self.wanted,
            scenario: Some(KEY_BASE + self.group),
            cfg: MarketConfig {
                utility_rate: self.utility,
                budget: 12.0,
                rate_cap: 20.0,
                seed: self.seed,
                ..MarketConfig::default()
            },
            task: Arc::new(move || {
                let task = StrategicTask::new(0.30, 6.0, 0.9).expect("valid opening");
                TracedTask::boxed(Box::new(task), &task_board)
            }),
            probe_rounds: 2,
            settle,
        }
    }
}

fn group_gains(group: u64) -> Vec<f64> {
    (0..FEATURES)
        .map(|i| 0.06 + 0.08 * i as f64 + 0.01 * group as f64)
        .collect()
}

fn seller(group: u64, idx: usize, board: &Arc<Board>) -> SellerSpec {
    let gains = group_gains(group);
    let listings: Vec<Listing> = (0..FEATURES)
        .map(|i| Listing {
            bundle: BundleMask::singleton(i),
            reserved: ReservedPrice::new(
                5.0 + 2.0 * i as f64 + 0.3 * idx as f64,
                0.8 + 0.2 * i as f64,
            )
            .expect("valid reserve"),
        })
        .collect();
    let by_bundle: HashMap<u64, f64> = listings
        .iter()
        .zip(&gains)
        .map(|(l, &g)| (l.bundle.0, g))
        .collect();
    let provider = TableGainProvider::new(listings.iter().zip(&gains).map(|(l, &g)| (l.bundle, g)));
    let board = board.clone();
    SellerSpec {
        market: MarketSpec {
            provider: Arc::new(TracedProvider(Arc::new(provider))),
            listings: Arc::new(listings),
            evaluation_key: Some(KEY_BASE + group),
            name: format!("g{group}-seller{idx}"),
        },
        quoting: Arc::new(move |table: &[Listing]| {
            let data =
                StrategicData::with_gains(table.iter().map(|l| by_bundle[&l.bundle.0]).collect());
            TracedData::boxed(Box::new(data), &board) as Box<dyn DataStrategy + Send>
        }),
    }
}

/// The bursty arrival process for an offered mean `rate` per second:
/// two burst ticks at 3x the base rate in every ten.
fn arrivals(rate: f64) -> ArrivalProcess {
    let per_tick = rate * TICK_S;
    let base = per_tick * 10.0 / 14.0;
    ArrivalProcess::Bursty {
        base,
        burst: base * 3.0,
        period: 10,
        burst_len: 2,
    }
}

/// The seeded arrival schedule of one rung, with its board.
fn schedule(rng: &mut StdRng, rate: f64, span_ns: u64) -> (Vec<Arrival>, Arc<Board>) {
    let process = arrivals(rate);
    let tick_ns = (TICK_S * 1e9) as u64;
    let mut seen = HashSet::new();
    let mut raw = Vec::new();
    for tick in 0..(span_ns / tick_ns) as u32 {
        for _ in 0..process.arrivals(tick, rng) {
            let due_ns = tick as u64 * tick_ns + rng.random_range(0..tick_ns);
            let mut seed: u64 = rng.random();
            while !seen.insert(seed) {
                seed = rng.random();
            }
            let wanted = match rng.random_range(0..4u32) {
                0 => BundleMask(0b0011),
                1 => BundleMask(0b1100),
                _ => BundleMask::all(FEATURES),
            };
            let utility = 850.0 + 25.0 * rng.random_range(0..5u32) as f64;
            let shifted = due_ns >= span_ns / 2;
            let group = rng.random_range(0..GROUPS) + u64::from(shifted);
            raw.push((due_ns, group, wanted, utility, seed));
        }
    }
    raw.sort_by_key(|r| r.0);
    let nids: Vec<u64> = raw.iter().map(|r| r.4).collect();
    let board = Board::new(&nids);
    let arrivals = raw
        .into_iter()
        .map(|(due_ns, group, wanted, utility, seed)| Arrival {
            due_ns,
            group,
            wanted,
            utility,
            seed,
        })
        .collect();
    (arrivals, board)
}

/// What one rung measured.
#[derive(Default)]
struct Rung {
    rate: f64,
    attempted: u64,
    shed: u64,
    rejected: u64,
    settled: u64,
    wall_s: f64,
    /// Latencies in windows of [`WINDOW_NS`] by due time.
    windows: Vec<Vec<f64>>,
    backlog_ms: f64,
    drains: u64,
}

impl Workload for OpenTraffic {
    const SETUPS: usize = 25;

    /// Generates the arrival schedules of every rung of every phase the
    /// run will make (two halves with `--trace 1`) and builds each rung's
    /// exchange.
    fn setup(opts: &Opts) -> Self {
        let halves = if opts.trace { 2.0 } else { 1.0 };
        let phase_ns = opts.seconds * 1e9 / halves;
        let others = (LADDER.len() - 1) as f64;
        let span = |share: f64| ((phase_ns * share) as u64).max(MIN_RUNG_NS);
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x0be7_7a11);
        let saturations = RUN_ORDER.iter().filter(|r| r.is_none()).count() as f64;
        let plans = (0..halves as usize)
            .map(|_| {
                RUN_ORDER
                    .iter()
                    .map(|rung| match *rung {
                        Some(i) => {
                            let share = if i == REFERENCE {
                                REFERENCE_SHARE
                            } else {
                                (1.0 - REFERENCE_SHARE - SATURATION_SHARE) / others
                            };
                            RungPlan::new(&mut rng, LADDER[i], true, span(share))
                        }
                        None => RungPlan::new(
                            &mut rng,
                            SATURATION_RATE,
                            false,
                            span(SATURATION_SHARE / saturations),
                        ),
                    })
                    .collect()
            })
            .collect();
        OpenTraffic { plans }
    }

    fn phase(&mut self, _budget: Duration, _traced: bool) -> Phase {
        let mut phase = Phase::default();
        let mut observed = Observed::default();
        let plans = self.plans.remove(0);
        let mut ladder: Vec<Option<Rung>> = LADDER.iter().map(|_| None).collect();
        let mut saturation = Vec::new();
        let mut idle_ns = 0u64;
        let mut wall_ns = 0u64;
        for (order, plan) in RUN_ORDER.iter().zip(plans) {
            let (rung, idle) = run_rung(plan, &mut observed, &mut phase.failures);
            observed.settled += rung.settled;
            match *order {
                Some(i) => {
                    idle_ns += idle;
                    wall_ns += (rung.wall_s * 1e9) as u64;
                    ladder[i] = Some(rung);
                }
                None => saturation.push(rung),
            }
        }
        observed.idle_frac = idle_ns as f64 / wall_ns.max(1) as f64;
        let mut rungs: Vec<Rung> = ladder.into_iter().flatten().collect();

        // Whole-rung latency (all windows together) per ladder rung.
        let summaries: Vec<_> = rungs
            .iter()
            .map(|r| stats::summarize(&r.windows.concat()))
            .collect();
        let sustained = rungs
            .iter()
            .zip(&summaries)
            .filter(|(r, (_, tail))| {
                r.shed == 0 && r.rejected == 0 && tail.value < LIMIT_MS && r.backlog_ms < LIMIT_MS
            })
            .map(|(r, _)| r.rate)
            .fold(0.0, f64::max);
        phase.notes.push(format!(
            "open-traffic ladder (reference rung {}/s, tail limit {LIMIT_MS} ms):",
            LADDER[REFERENCE]
        ));
        for (r, (p50, tail)) in rungs.iter().zip(&summaries) {
            phase.notes.push(format!(
                "  rate {:>6}/s for {:.1} s: attempted {:>6} shed {:>5} settled {:>6} drains {:>5} \
                 p50 {:.3} ms p{} {:.3} ms ({} samples) backlog {:.3} ms",
                r.rate,
                r.wall_s,
                r.attempted,
                r.shed,
                r.settled,
                r.drains,
                p50,
                tail.pct,
                tail.value,
                tail.n,
                r.backlog_ms
            ));
        }
        for r in &saturation {
            phase.notes.push(format!(
                "  saturation, {CHUNK} per drain, for {:.1} s: attempted {:>6} shed {:>5} \
                 settled {:>6} drains {:>5}: {:.0} settled/s",
                r.wall_s,
                r.attempted,
                r.shed,
                r.settled,
                r.drains,
                r.settled as f64 / r.wall_s
            ));
        }
        phase
            .extra
            .push(metric("sustained_rate_per_s", sustained, "1/s"));
        let reference = rungs.swap_remove(REFERENCE);
        let measured = || saturation.iter().chain([&reference]);
        phase.attempted = measured().map(|r| r.attempted).sum();
        phase.failed = measured().map(|r| r.shed + r.rejected).sum();
        phase.settled = measured().map(|r| r.settled).sum();
        phase.rates = saturation
            .iter()
            .map(|r| r.settled as f64 / r.wall_s)
            .collect();
        phase.latency_ms = reference.windows;
        phase.observed = observed;
        phase
    }
}

/// Runs one rung on its fresh exchange; returns it and the generator's
/// idle nanoseconds.
fn run_rung(plan: RungPlan, observed: &mut Observed, failures: &mut Vec<String>) -> (Rung, u64) {
    let RungPlan {
        rate,
        paced,
        span_ns,
        arrivals,
        board,
        exchange,
        telemetry,
    } = plan;
    let board = &board;
    let workers = crate::workers();
    // Seller events: churn relists evenly spaced, the shift at half time
    // (a new group opens; arrivals after it route to groups 1..=GROUPS).
    let mut events: Vec<(u64, u64, usize)> = (0..CHURN)
        .map(|i| {
            let at = (i as u64 + 1) * span_ns / (CHURN as u64 + 1);
            let group = (i as u64 % GROUPS) + u64::from(at >= span_ns / 2);
            (at, group, SELLERS_PER_GROUP + i)
        })
        .collect();
    events.extend((0..SELLERS_PER_GROUP).map(|idx| (span_ns / 2, GROUPS, idx)));
    events.sort_unstable();

    let mut rung = Rung {
        rate,
        ..Rung::default()
    };
    let due: Vec<u64> = arrivals.iter().map(|a| a.due_ns).collect();
    // Admitted demands not yet taken, with their schedule slots.
    let mut open: Vec<(DemandId, usize)> = Vec::new();
    let mut shed_seen = 0u64;
    let mut idle_ns = 0u64;
    let mut next_event = 0;
    let before = exchange.metrics();
    let t0 = trace::now_ns();
    let mut arrivals = arrivals.into_iter().enumerate().peekable();
    let mut tick = 0u64;
    while let Some(&(next, _)) = arrivals.peek() {
        // Schedule time up to which arrivals are due: the wall clock at
        // the next drain tick, or (saturation) the next CHUNK arrivals.
        let now = if paced {
            tick += DRAIN_EVERY_NS;
            let wait = tick.saturating_sub(trace::now_ns() - t0);
            idle_ns += wait;
            std::thread::sleep(Duration::from_nanos(wait));
            let now = trace::now_ns() - t0;
            tick = tick.max(now / DRAIN_EVERY_NS * DRAIN_EVERY_NS);
            now
        } else {
            due[(next + CHUNK).min(due.len()) - 1]
        };
        while next_event < events.len() && events[next_event].0 <= now {
            let (_, group, idx) = events[next_event];
            exchange
                .register_seller(seller(group, idx, board))
                .expect("register seller");
            next_event += 1;
        }
        let mut submitted = false;
        while let Some((slot, a)) = arrivals.next_if(|(_, a)| a.due_ns <= now) {
            if paced {
                observed.lateness_ms.push((now - a.due_ns) as f64 * 1e-6);
            }
            rung.attempted += 1;
            match exchange.submit_demand(a.demand(slot, board)) {
                Ok(did) => match exchange.demand_status(did) {
                    Some(DemandStatus::Shed { .. }) => shed_seen += 1,
                    _ => {
                        open.push((did, slot));
                        submitted = true;
                    }
                },
                Err(_) => rung.rejected += 1,
            }
        }
        if !submitted {
            continue;
        }
        observe::drain(&exchange, workers);
        rung.drains += 1;
        // The client takes every result the drain settled.
        open.retain(|&(did, slot)| {
            let Some(report) = exchange.take_demand(did) else {
                return true;
            };
            for quote in &report.quotes {
                exchange.take(quote.session);
            }
            if paced {
                let due_ns = t0 + due[slot];
                let latency = (board.done_ns(slot).max(due_ns) - due_ns) as f64 * 1e-6;
                let window = (due[slot] / WINDOW_NS) as usize;
                if rung.windows.len() <= window {
                    rung.windows.resize(window + 1, Vec::new());
                }
                rung.windows[window].push(latency);
            }
            rung.settled += 1;
            false
        });
    }
    let end = trace::now_ns();
    rung.wall_s = (end - t0) as f64 * 1e-9;
    if paced {
        rung.backlog_ms = (end.saturating_sub(t0 + span_ns)) as f64 * 1e-6;
    }

    let after = observe::metrics(&exchange);
    let admitted = after.demands_submitted - before.demands_submitted;
    rung.shed = after.demands_shed - before.demands_shed;
    let settled = after.demands_settled - before.demands_settled;
    if rung.attempted != admitted + rung.shed + rung.rejected || rung.shed != shed_seen {
        failures.push(format!(
            "rate {rate}: attempts {} != admitted {admitted} + shed {} ({shed_seen} seen) + \
             rejected {}",
            rung.attempted, rung.shed, rung.rejected
        ));
    }
    if settled != admitted || rung.settled != admitted || !open.is_empty() {
        failures.push(format!(
            "rate {rate}: admitted {admitted}, settled {settled}, taken {}, {} never settled",
            rung.settled,
            open.len()
        ));
    }
    observed.counters.add(&after);
    observed.add_stages(&telemetry);
    (rung, idle_ns)
}
