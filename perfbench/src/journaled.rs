//! `journaled-demands`: a closed loop of one client over eight table-lookup
//! sellers. Each pass submits a fixed book of multi-seller immediate
//! demands in batches, drains, takes every result, and checkpoints every
//! few batches, journaling into an in-memory sink. The pass ends with a
//! crash drill: the journal is cut at a fixed frame fraction, recovered
//! and resumed, and the resumed outcomes are compared with the
//! uninterrupted run. Courses cost nothing, so the time is matching
//! fan-out, session stepping, cache hits, journal appends, checkpoints
//! and recovery.

use crate::observe::{self, metric, Observed};
use crate::seams::{Board, TracedData, TracedMatch, TracedProvider, TracedSink, TracedTask};
use crate::{stats, trace, Opts, Phase, Workload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vfl_bench::exchange_setup::{CountingGainProvider, TrainingRecorder};
use vfl_exchange::{
    read_events, BestResponse, Demand, DemandId, Exchange, ExchangeConfig, ExchangeEvent,
    ExchangeTelemetry, Journal, MarketSpec, MemorySink, ReplaySpec, SellerSpec, SettleMode,
};
use vfl_market::{
    DataStrategy, Listing, MarketConfig, Outcome, ReservedPrice, StrategicData, StrategicTask,
    TableGainProvider,
};
use vfl_sim::BundleMask;

const FEATURES: usize = 8;
const SELLERS: usize = 8;
/// Demand shapes: utility rates and budgets crossed with every wanted
/// pair and triple of features (84 masks), each repeated REPEATS times.
const UTILITIES: [f64; 5] = [600.0, 700.0, 800.0, 900.0, 1000.0];
const BUDGETS: [f64; 4] = [10.0, 11.0, 12.0, 13.0];
const REPEATS: usize = 5;
/// Demands per pass, per batch, and batches per checkpoint.
const DEMANDS: usize = 84 * UTILITIES.len() * BUDGETS.len() * REPEATS;
const BATCH: usize = 200;
const CHECKPOINT_EVERY: usize = 8;
/// The crash point: the journal is cut at this fraction of its frames.
const CUT: f64 = 0.6;

/// One generated demand: what it wants and its bargaining configuration.
#[derive(Clone, Copy)]
struct DemandSpec {
    wanted: BundleMask,
    cfg: MarketConfig,
}

pub struct JournaledDemands {
    book: Vec<DemandSpec>,
    /// The first pass's world, built by set-up.
    next: Option<World>,
}

/// What a pass runs on: a fresh exchange journaling into an in-memory
/// sink, with the eight sellers registered.
struct World {
    exchange: Exchange,
    journal: Arc<Journal>,
    sink: MemorySink,
    board: Arc<Board>,
    telemetry: Option<Arc<ExchangeTelemetry>>,
}

impl World {
    fn build(book: &[DemandSpec], traced: bool) -> Self {
        let nids: Vec<u64> = book.iter().map(|d| d.cfg.seed).collect();
        let board = Board::new(&nids);
        let trained = TrainingRecorder::default();
        let sink = MemorySink::default();
        let journal = Arc::new(Journal::new(Box::new(TracedSink(Box::new(sink.clone())))));
        let telemetry = traced.then(ExchangeTelemetry::new);
        let exchange = match &telemetry {
            Some(t) => Exchange::with_journal_and_telemetry(
                ExchangeConfig::default(),
                journal.clone(),
                t.clone(),
            ),
            None => Exchange::with_journal(ExchangeConfig::default(), journal.clone()),
        };
        for s in 0..SELLERS {
            exchange
                .register_seller(seller_spec(s, &board, &trained))
                .expect("register seller");
        }
        World {
            exchange,
            journal,
            sink,
            board,
            telemetry,
        }
    }
}

fn seller_features(s: usize) -> Vec<usize> {
    let width = 3 + s % 4;
    let mut features: Vec<usize> = (0..width).map(|i| (s * 3 + i * 2) % FEATURES).collect();
    features.sort_unstable();
    features.dedup();
    features
}

fn seller_spec(s: usize, board: &Arc<Board>, trained: &TrainingRecorder) -> SellerSpec {
    let features = seller_features(s);
    let listings: Vec<Listing> = features
        .iter()
        .enumerate()
        .map(|(i, &f)| Listing {
            bundle: BundleMask::singleton(f),
            reserved: ReservedPrice::new(3.0 + i as f64 * 1.2, 0.4 + i as f64 * 0.12)
                .expect("valid reserve"),
        })
        .collect();
    let gains: Vec<f64> = (0..features.len())
        .map(|i| 0.04 + 0.32 * ((s * 7 + i * 11) % 13) as f64 / 12.0)
        .collect();
    let by_bundle: HashMap<u64, f64> = listings
        .iter()
        .zip(&gains)
        .map(|(l, &g)| (l.bundle.0, g))
        .collect();
    let key = 7_000 + s as u64;
    let provider = CountingGainProvider::new(
        TableGainProvider::new(listings.iter().zip(&gains).map(|(l, &g)| (l.bundle, g))),
        key,
        trained,
    );
    let board = board.clone();
    SellerSpec {
        market: MarketSpec {
            provider: Arc::new(TracedProvider(Arc::new(provider))),
            listings: Arc::new(listings),
            evaluation_key: Some(key),
            name: format!("seller-{s}"),
        },
        quoting: Arc::new(move |table: &[Listing]| {
            let data =
                StrategicData::with_gains(table.iter().map(|l| by_bundle[&l.bundle.0]).collect());
            TracedData::boxed(Box::new(data), &board) as Box<dyn DataStrategy + Send>
        }),
    }
}

fn demand(spec: &DemandSpec, board: &Arc<Board>) -> Demand {
    let task_board = board.clone();
    Demand {
        wanted: spec.wanted,
        scenario: None,
        cfg: spec.cfg,
        task: Arc::new(move || {
            let task = StrategicTask::new(0.30, 6.0, 0.9).expect("valid opening");
            TracedTask::boxed(Box::new(task), &task_board)
        }),
        probe_rounds: 2,
        settle: SettleMode::Immediate(Arc::new(TracedMatch {
            inner: Arc::new(BestResponse),
            board: board.clone(),
        })),
    }
}

/// A demand's result: the winning seller slot and the winner's outcome.
type Settled = (Option<usize>, Option<Outcome>);

fn take(exchange: &Exchange, did: DemandId) -> Option<Settled> {
    let report = exchange.take_demand(did)?;
    let outcome = match report.winning_session() {
        Some(sid) => Some(*exchange.take(sid)?.ok()?),
        None => None,
    };
    Some((report.winner, outcome))
}

impl Workload for JournaledDemands {
    const SETUPS: usize = 25;

    fn setup(opts: &Opts) -> Self {
        // Every book holds the same mix of demand shapes (each wanted pair
        // or triple of features at every utility and budget level, REPEATS
        // times); the seed draws their order and negotiation seeds.
        let mut shapes = Vec::new();
        for a in 0..FEATURES {
            for b in a + 1..FEATURES {
                shapes.push(BundleMask::from_features(&[a, b]));
                for c in b + 1..FEATURES {
                    shapes.push(BundleMask::from_features(&[a, b, c]));
                }
            }
        }
        let mut book = Vec::with_capacity(DEMANDS);
        for _ in 0..REPEATS {
            for &wanted in &shapes {
                for utility in UTILITIES {
                    for budget in BUDGETS {
                        book.push(DemandSpec {
                            wanted,
                            cfg: MarketConfig {
                                utility_rate: utility,
                                budget,
                                rate_cap: 20.0,
                                ..MarketConfig::default()
                            },
                        });
                    }
                }
            }
        }
        assert_eq!(
            book.len(),
            DEMANDS,
            "the book covers every shape REPEATS times"
        );
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x6a09_e667);
        book.shuffle(&mut rng);
        let mut seen = HashSet::new();
        for spec in &mut book {
            let mut seed: u64 = rng.random();
            while !seen.insert(seed) {
                seed = rng.random();
            }
            spec.cfg.seed = seed;
        }
        // The first pass is untraced (see `run` in main.rs).
        let next = Some(World::build(&book, false));
        JournaledDemands { book, next }
    }

    fn phase(&mut self, budget: Duration, traced: bool) -> Phase {
        let mut phase = Phase::default();
        let mut observed = Observed::default();
        let mut recover_s = Vec::new();
        let start = Instant::now();
        let mut first = true;
        while first || start.elapsed() < budget {
            first = false;
            let pass = self.pass(traced, &mut phase, &mut observed);
            recover_s.push(pass);
        }
        phase.notes.push(format!(
            "journaled-demands: {} passes of {DEMANDS} demands ({BATCH} per batch, checkpoint \
             every {CHECKPOINT_EVERY} batches); demands/s per pass {:.0?}",
            phase.rates.len(),
            phase.rates
        ));
        phase
            .extra
            .push(metric("recover_s", stats::median(&recover_s), "s"));
        observed.settled = phase.settled;
        phase.observed = observed;
        phase
    }
}

impl JournaledDemands {
    /// One pass: the closed loop, then the crash drill. Returns the
    /// recovery time (recover plus resumed drain) in seconds.
    fn pass(&mut self, traced: bool, phase: &mut Phase, observed: &mut Observed) -> f64 {
        let workers = crate::workers();
        let World {
            exchange,
            journal,
            sink,
            board,
            telemetry,
        } = match self.next.take() {
            Some(world) if world.telemetry.is_some() == traced => world,
            _ => World::build(&self.book, traced),
        };

        let mut ids: HashMap<DemandId, usize> = HashMap::with_capacity(DEMANDS);
        let mut results: Vec<Option<Settled>> = vec![None; DEMANDS];
        let mut submitted_ns = vec![0u64; DEMANDS];
        let loop_start = trace::now_ns();
        for (b, chunk) in self.book.chunks(BATCH).enumerate() {
            let base = b * BATCH;
            let batch_ids: Vec<DemandId> = chunk
                .iter()
                .enumerate()
                .map(|(i, spec)| {
                    submitted_ns[base + i] = trace::now_ns();
                    let did = exchange
                        .submit_demand(demand(spec, &board))
                        .expect("submit demand");
                    ids.insert(did, base + i);
                    did
                })
                .collect();
            let report = observe::drain(&exchange, workers);
            phase.failed += report.failed as u64;
            for (i, did) in batch_ids.into_iter().enumerate() {
                results[base + i] = take(&exchange, did);
            }
            if (b + 1) % CHECKPOINT_EVERY == 0 {
                observe::checkpoint(&exchange).expect("drain-idle checkpoint");
            }
        }
        let loop_s = (trace::now_ns() - loop_start) as f64 * 1e-9;
        phase.attempted += DEMANDS as u64;
        let settled = results.iter().flatten().count();
        phase.settled += settled as u64;
        phase.rates.push(settled as f64 / loop_s);
        // One latency window per batch: the batch is what the client waits on.
        for (b, chunk) in results.chunks(BATCH).enumerate() {
            let mut window = Vec::with_capacity(BATCH);
            for (j, result) in chunk.iter().enumerate() {
                let i = b * BATCH + j;
                match result {
                    Some(_) => {
                        let done = board.done_ns(i).saturating_sub(submitted_ns[i]);
                        window.push(done as f64 * 1e-6);
                    }
                    None => phase.failures.push(format!("demand {i} did not settle")),
                }
            }
            phase.latency_ms.push(window);
        }
        observed.counters.add(&observe::metrics(&exchange));
        observed.journal_frames += journal.records();
        if let Some(t) = &telemetry {
            observed.add_stages(t);
        }

        // Crash drill: cut, recover, resume, compare.
        let bytes = sink.bytes();
        let frames = vfl_exchange::frame_boundaries(&bytes);
        let cut = frames[((frames.len() as f64 * CUT) as usize).min(frames.len() - 1)];
        let prefix = &bytes[..cut];
        let paid: HashSet<(u64, u64)> = read_events(prefix)
            .0
            .iter()
            .filter_map(|e| match e {
                ExchangeEvent::CourseServed {
                    eval_key, bundle, ..
                } => Some((*eval_key, bundle.0)),
                _ => None,
            })
            .collect();
        let replay_board = Board::new(&[]);
        let retrained = TrainingRecorder::default();
        let book = self.book.clone();
        let index = ids.clone();
        let spec = ReplaySpec {
            sellers: (0..SELLERS)
                .map(|s| seller_spec(s, &replay_board, &retrained))
                .collect(),
            demands: Box::new({
                let replay_board = replay_board.clone();
                move |did| demand(&book[index[&did]], &replay_board)
            }),
            ..ReplaySpec::default()
        };
        let recover_telemetry = traced.then(ExchangeTelemetry::new);
        let t0 = Instant::now();
        let recovered = observe::recover(prefix, spec, recover_telemetry.clone());
        let (recovered, report) = match recovered {
            Ok(r) => r,
            Err(e) => {
                phase.failures.push(format!("recovery refused: {e:?}"));
                return t0.elapsed().as_secs_f64();
            }
        };
        let resumed = observe::resume(&recovered, workers);
        let recover_s = t0.elapsed().as_secs_f64();
        if resumed.failed > 0 {
            phase
                .failures
                .push(format!("resumed drain: {} hard failures", resumed.failed));
        }
        observed.recovery_events += report.events as u64;
        observed.recovery_skipped += report.events_skipped as u64;
        if let Some(t) = &recover_telemetry {
            observed.add_stages(t);
        }

        let mut compared = 0usize;
        for (&did, &i) in &ids {
            let Some(got) = take(&recovered, did) else {
                continue; // submitted after the cut
            };
            compared += 1;
            if Some(&got) != results[i].as_ref() {
                phase
                    .failures
                    .push(format!("demand {i}: recovered result differs from the run"));
            }
        }
        if compared == 0 {
            phase
                .failures
                .push("the cut left no demand to compare".into());
        }
        let retrained = retrained.set();
        if !retrained.is_disjoint(&paid) {
            phase
                .failures
                .push("recovery re-trained a journaled course".into());
        }
        phase.notes.push(format!(
            "crash drill: cut at {cut} of {} bytes, {} events replayed ({} skipped by the \
             checkpoint), {compared} demands compared, {} courses re-trained",
            bytes.len(),
            report.events,
            report.events_skipped,
            retrained.len()
        ));
        recover_s
    }
}
