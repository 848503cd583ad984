//! Exchange-layer smoke test (runs in CI): heterogeneous prepared-market
//! cells trade concurrently through one `vfl-exchange`, and the marketplace
//! path must reproduce the direct `run_bargaining` outcome exactly —
//! session by session — while the shared cache and metrics stay coherent.
//!
//! The matching-tier half of the suite pins down the two properties the
//! tier is allowed to claim: (1) a single-seller demand settles
//! bit-identically to a direct `run_bargaining` (the probe/park/release
//! machinery must be invisible to the negotiation), over ≥ 100 random
//! market shapes; and (2) a losing candidate never trains a model after
//! settlement (counted at the gain provider, the only place training can
//! happen). A fault-containment test closes the suite: a course whose
//! training fails ends only the session that paid for it.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use vfl_bench::exchange_setup::{
    register_cell, seller_cell, strategic_demand, strategic_order, CountingGainProvider,
    TrainingRecorder,
};
use vfl_bench::worlds::{plain_market_spec, plain_order};
use vfl_bench::{BaseModelKind, PreparedMarket, RunProfile};
use vfl_exchange::{
    BestResponse, Demand, DemandStatus, Exchange, ExchangeConfig, MarketSpec, QuoteState,
    SellerSpec, SessionStatus, SettleMode,
};
use vfl_market::{
    run_bargaining, FailureReason, GainProvider, Listing, MarketConfig, MarketError, OutcomeStatus,
    RandomBundleData, ReservedPrice, StrategicData, StrategicTask, TableGainProvider,
};
use vfl_sim::BundleMask;
use vfl_tabular::DatasetId;

#[test]
fn heterogeneous_cells_trade_concurrently_and_match_direct_runs() {
    let profile = RunProfile::fast();
    let cells = [
        (DatasetId::Titanic, BaseModelKind::Forest),
        (DatasetId::Adult, BaseModelKind::Forest),
    ];
    let markets: Vec<PreparedMarket> = cells
        .iter()
        .map(|&(id, model)| PreparedMarket::build(id, model, &profile, 1).unwrap())
        .collect();

    let exchange = Exchange::new(ExchangeConfig::default());
    let market_ids: Vec<_> = markets
        .iter()
        .map(|m| register_cell(&exchange, m, &profile).unwrap())
        .collect();

    // 60 sessions, alternating across the two cells, independently seeded.
    let runs_per_cell = 30u64;
    let mut submitted = Vec::new();
    for run in 0..runs_per_cell {
        for (cell, &mid) in market_ids.iter().enumerate() {
            let sid = exchange
                .submit(mid, strategic_order(&markets[cell], &profile, run))
                .unwrap();
            submitted.push((cell, run, sid));
        }
    }

    let report = exchange.drain(2);
    assert_eq!(
        report.closed + report.failed,
        submitted.len(),
        "every submitted session must terminate"
    );
    assert_eq!(report.failed, 0, "no session may die on a hard error");

    let snap = exchange.metrics();
    assert_eq!(snap.sessions_opened as usize, submitted.len());
    assert_eq!(snap.sessions_closed as usize, submitted.len());
    assert_eq!(snap.sessions_failed, 0);
    assert!(snap.deals_struck > 0, "strategic games strike deals");
    assert!(snap.rounds_completed >= snap.sessions_closed);
    assert_eq!(snap.courses_requested, snap.cache_hits + snap.cache_misses);
    assert!(
        snap.cache_hit_rate() > 0.5,
        "repeat course queries must hit the shared cache (rate {})",
        snap.cache_hit_rate()
    );

    // The marketplace path must be *exactly* the direct engine run: same
    // seeds, same strategies, warm oracle (gains are deterministic).
    for &(cell, run, sid) in submitted.iter().take(6) {
        let market = &markets[cell];
        let cfg = market.market_config(&profile).with_run_seed(run);
        let mut task = StrategicTask::new(
            market.target_gain,
            market.params.init_rate,
            market.params.init_base,
        )
        .unwrap();
        let mut data = StrategicData::with_gains(market.gains.clone());
        let reference =
            run_bargaining(&market.oracle, &market.listings, &mut task, &mut data, &cfg).unwrap();
        match exchange.poll(sid) {
            Some(SessionStatus::Done(outcome)) => {
                assert_eq!(*outcome, reference, "cell {cell} run {run}")
            }
            other => panic!("cell {cell} run {run}: unexpected status {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Matching tier
// ---------------------------------------------------------------------------

#[test]
fn matching_over_competing_prepared_sellers_settles_and_matches_direct_runs() {
    let profile = RunProfile::fast();
    let market = PreparedMarket::build(DatasetId::Titanic, BaseModelKind::Forest, &profile, 1)
        .expect("build cell");

    let exchange = Exchange::new(ExchangeConfig::default());
    // Two data parties over the same scenario: one sells the full catalog,
    // one only the first half — overlapping features, unequal coverage.
    let half: Vec<usize> = (0..market.listings.len() / 2).collect();
    let full_seller = seller_cell(&exchange, &market, &profile, None).expect("register full");
    let half_seller =
        seller_cell(&exchange, &market, &profile, Some(&half)).expect("register half");

    let runs = 6u64;
    let demands: Vec<_> = (0..runs)
        .map(|run| {
            exchange
                .submit_demand(strategic_demand(&market, &profile, run, 2))
                .expect("submit demand")
        })
        .collect();
    let report = exchange.drain(2);
    assert_eq!(report.failed, 0, "no candidate may die on a hard error");

    let snap = exchange.metrics();
    assert_eq!(snap.demands_submitted, runs);
    assert_eq!(
        snap.demands_settled, runs,
        "every demand settles in one drain"
    );
    assert_eq!(
        snap.sessions_opened,
        snap.sessions_closed + snap.sessions_failed + snap.sessions_cancelled,
        "every fan-out session is accounted for"
    );

    for (run, &did) in demands.iter().enumerate() {
        let settled = match exchange.demand_status(did) {
            Some(DemandStatus::Settled(report)) => report,
            other => panic!("run {run}: demand not settled: {other:?}"),
        };
        assert_eq!(settled.quotes.len(), 2, "both sellers were eligible");
        let winner = settled.winning_quote().expect("strategic demands match");

        // The winner's outcome must equal the direct 1×1 run against that
        // seller's catalog (same seed, same strategies, warm oracle),
        // modulo the seller identity the platform stamps.
        let (listings, gains, name): (Vec<Listing>, Vec<f64>, String) =
            if winner.seller == full_seller {
                (
                    market.listings.clone(),
                    market.gains.clone(),
                    format!("{}/{}", market.id, market.model_kind.name()),
                )
            } else {
                assert_eq!(winner.seller, half_seller);
                (
                    half.iter().map(|&i| market.listings[i]).collect(),
                    half.iter().map(|&i| market.gains[i]).collect(),
                    format!("{}/{}#{}", market.id, market.model_kind.name(), half.len()),
                )
            };
        let cfg = market.market_config(&profile).with_run_seed(run as u64);
        let mut task = StrategicTask::new(
            market.target_gain,
            market.params.init_rate,
            market.params.init_base,
        )
        .unwrap();
        let mut data = StrategicData::with_gains(gains);
        let mut reference =
            run_bargaining(&market.oracle, &listings, &mut task, &mut data, &cfg).unwrap();
        reference.transcript.set_seller(name);
        let outcome = exchange.take(winner.session).unwrap().unwrap();
        assert_eq!(*outcome, reference, "run {run}: winner deviates from 1×1");

        // Losers are terminal too: cancelled if they were still standing,
        // or closed on their own conclusion.
        for quote in settled.quotes.iter().filter(|q| q.seller != winner.seller) {
            let outcome = exchange.take(quote.session).unwrap().unwrap();
            if matches!(quote.state, QuoteState::Standing(_)) {
                assert_eq!(
                    outcome.status,
                    OutcomeStatus::Failed {
                        reason: FailureReason::Cancelled
                    },
                    "run {run}: standing losers are cancelled"
                );
            }
        }
    }
}

/// A ladder market over singleton bundles: affordable opening reserves,
/// rising with the index.
fn ladder(gains: &[f64]) -> (TableGainProvider, Vec<Listing>) {
    let listings: Vec<Listing> = gains
        .iter()
        .enumerate()
        .map(|(i, _)| Listing {
            bundle: BundleMask::singleton(i),
            reserved: ReservedPrice::new(3.0 + i as f64 * 1.5, 0.4 + i as f64 * 0.15).unwrap(),
        })
        .collect();
    let provider = TableGainProvider::new(listings.iter().zip(gains).map(|(l, &g)| (l.bundle, g)));
    (provider, listings)
}

fn counting_seller(
    name: &str,
    gains: Vec<f64>,
    recorder: &TrainingRecorder,
) -> (SellerSpec, Vec<Listing>) {
    let (inner, listings) = ladder(&gains);
    let spec = SellerSpec {
        market: MarketSpec {
            // The recorder's eval-key tag is unused here (private caches);
            // only the training count matters.
            provider: Arc::new(CountingGainProvider::new(inner, 0, recorder)),
            listings: Arc::new(listings.clone()),
            evaluation_key: None, // private cache: every training is counted
            name: name.into(),
        },
        quoting: Arc::new(move |table| {
            // Ladder listings are singleton(i), so a scoped table maps back
            // to the gain vector through the feature index.
            Box::new(StrategicData::with_gains(
                table
                    .iter()
                    .map(|l| gains[l.bundle.to_features()[0]])
                    .collect(),
            ))
        }),
    };
    (spec, listings)
}

fn matching_cfg(seed: u64) -> MarketConfig {
    MarketConfig {
        utility_rate: 1000.0,
        budget: 12.0,
        rate_cap: 20.0,
        seed,
        ..MarketConfig::default()
    }
}

#[test]
fn losing_session_never_trains_a_model_after_settlement() {
    let strong_gains = vec![0.05, 0.12, 0.20, 0.30];
    let weak_gains: Vec<f64> = strong_gains.iter().map(|g| g * 0.1).collect();

    // Pick a seed where *both* pairings negotiate past round 1, so both
    // candidates are standing (mid-negotiation) when the probe-1 horizon
    // settles the demand.
    let seed = (0..64)
        .find(|&seed| {
            [&strong_gains, &weak_gains].iter().all(|gains| {
                let (provider, listings) = ladder(gains);
                let mut task = StrategicTask::new(0.30, 6.0, 0.9).unwrap();
                let mut data = StrategicData::with_gains((*gains).clone());
                run_bargaining(
                    &provider,
                    &listings,
                    &mut task,
                    &mut data,
                    &matching_cfg(seed),
                )
                .map(|o| o.n_rounds() >= 2)
                .unwrap_or(false)
            })
        })
        .expect("some seed negotiates >= 2 rounds on both landscapes");

    let strong_calls = TrainingRecorder::default();
    let weak_calls = TrainingRecorder::default();
    let exchange = Exchange::new(ExchangeConfig::default());
    let (strong_spec, _) = counting_seller("strong", strong_gains, &strong_calls);
    let (weak_spec, _) = counting_seller("weak", weak_gains, &weak_calls);
    let strong = exchange.register_seller(strong_spec).unwrap();
    exchange.register_seller(weak_spec).unwrap();

    let did = exchange
        .submit_demand(Demand {
            wanted: BundleMask::all(4),
            scenario: None,
            cfg: matching_cfg(seed),
            task: Arc::new(|| Box::new(StrategicTask::new(0.30, 6.0, 0.9).unwrap())),
            probe_rounds: 1,
            settle: SettleMode::Immediate(Arc::new(BestResponse)),
        })
        .unwrap();
    exchange.drain(2);

    let settled = exchange.take_demand(did).expect("demand settles");
    let winner = settled.winning_quote().expect("a winner exists");
    assert_eq!(
        winner.seller, strong,
        "ten-fold gains at equal reserves win best-response"
    );
    let loser = settled
        .quotes
        .iter()
        .find(|q| q.seller != strong)
        .expect("two candidates");
    assert!(matches!(loser.state, QuoteState::Standing(_)));

    // The loser paid exactly its probe: one course, trained once, and
    // nothing after the cancellation (the drain ran the winner to its
    // conclusion afterwards, so any post-settlement training would show).
    assert_eq!(
        weak_calls.count() as u64,
        1,
        "the losing candidate trained exactly its probe course"
    );
    assert!(strong_calls.count() >= 2, "the winner kept going");
    let outcome = exchange.take(loser.session).unwrap().unwrap();
    assert_eq!(
        outcome.status,
        OutcomeStatus::Failed {
            reason: FailureReason::Cancelled
        }
    );
    assert_eq!(
        outcome.n_rounds(),
        1,
        "the probe round rides along for audit"
    );
    assert_eq!(exchange.metrics().sessions_cancelled, 1);
}

// ---------------------------------------------------------------------------
// Fault containment: a failed course ends only the session that paid it
// ---------------------------------------------------------------------------

/// How long the failing course runs before it errors: long enough for
/// rivals to park behind its claim.
const FAILING_COURSE: std::time::Duration = std::time::Duration::from_millis(100);

/// A provider whose first `gain` call fails after [`FAILING_COURSE`];
/// every later call delegates. The failed call never reaches `inner`, so
/// a recorder behind it counts only real trainings.
struct FailsFirstCall {
    inner: Arc<dyn GainProvider + Send + Sync>,
    failed: AtomicBool,
}

impl GainProvider for FailsFirstCall {
    fn gain(&self, bundle: BundleMask) -> vfl_market::Result<f64> {
        if !self.failed.swap(true, Ordering::SeqCst) {
            std::thread::sleep(FAILING_COURSE);
            return Err(MarketError::Gain("injected course failure".into()));
        }
        self.inner.gain(bundle)
    }
}

/// A failed course fails exactly the paying session; every rival parked
/// on the course waitlist is woken, retries the claim, and closes like a
/// clean run (one of them becoming the new payer). No session is
/// stranded, and no course is trained twice.
#[test]
fn a_failed_course_fails_only_the_paying_session() {
    const SESSIONS: usize = 4;
    let run = |inject_failure: bool| {
        let recorder = TrainingRecorder::default();
        let exchange = Exchange::new(ExchangeConfig::default());
        let mut spec = plain_market_spec(0, &recorder);
        if inject_failure {
            spec.provider = Arc::new(FailsFirstCall {
                inner: spec.provider,
                failed: AtomicBool::new(false),
            });
        }
        let market = exchange.register_market(spec).expect("register market");
        // Identical orders (same seed): every clean outcome is identical,
        // so the failed payer's rivals can be checked against any of them.
        let sids: Vec<_> = (0..SESSIONS)
            .map(|_| exchange.submit(market, plain_order(0, 0)).expect("submit"))
            .collect();
        let report = exchange.drain(2);
        let waits = exchange.metrics().course_waits;
        let outcomes: Vec<_> = sids
            .iter()
            .map(|&sid| {
                exchange
                    .take(sid)
                    .expect("terminal after drain")
                    .map(|b| *b)
                    .map_err(|e| e.to_string())
            })
            .collect();
        (report, outcomes, recorder, waits)
    };

    let (clean_report, clean_outcomes, clean_recorder, _) = run(false);
    assert_eq!(clean_report.failed, 0);
    let clean_outcome = clean_outcomes[0].clone();
    for outcome in &clean_outcomes {
        assert_eq!(
            outcome, &clean_outcome,
            "identical orders close identically"
        );
    }

    let (report, outcomes, recorder, waits) = run(true);
    assert!(
        waits >= 1,
        "with a 100 ms failing course and 2 workers, a rival must have parked"
    );
    assert_eq!(report.failed, 1, "exactly the paying session fails");
    assert_eq!(
        report.closed + report.failed,
        SESSIONS,
        "no session stranded"
    );
    let (failed, closed): (Vec<_>, Vec<_>) = outcomes.iter().partition(|o| o.is_err());
    assert_eq!(failed.len(), 1);
    assert!(
        failed[0]
            .as_ref()
            .unwrap_err()
            .contains("injected course failure"),
        "the payer carries the provider's error: {failed:?}"
    );
    for outcome in closed {
        assert_eq!(
            outcome, &clean_outcome,
            "woken rivals close exactly like a clean run"
        );
    }
    // The failed claim released the key: a rival re-claimed and trained
    // each course exactly once (no double-training, no retrain).
    assert_eq!(
        recorder.count(),
        recorder.set().len(),
        "every course trained at most once"
    );
    assert_eq!(
        recorder.set(),
        clean_recorder.set(),
        "the retry pays exactly the clean run's courses"
    );
}

// ---------------------------------------------------------------------------
// Property: single-seller matching ≡ direct run_bargaining, bit for bit
// (modulo the seller identity the platform stamps into the transcript).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct MarketShape {
    gains: Vec<f64>,
    utility: f64,
    budget: f64,
    seed: u64,
    explore_rounds: u32,
    max_rounds: u32,
    probe_rounds: u32,
    random_data: bool,
}

fn market_shape() -> impl Strategy<Value = MarketShape> {
    (2usize..8, 0u64..4000, any::<bool>())
        .prop_flat_map(|(n, seed, random_data)| {
            (
                prop::collection::vec(0.01f64..0.4, n),
                200.0f64..2000.0,
                8.0f64..20.0,
                Just(seed),
                0u32..4,
                4u32..80,
                1u32..7,
                Just(random_data),
            )
        })
        .prop_map(
            |(
                gains,
                utility,
                budget,
                seed,
                explore_rounds,
                max_rounds,
                probe_rounds,
                random_data,
            )| {
                MarketShape {
                    gains,
                    utility,
                    budget,
                    seed,
                    explore_rounds,
                    max_rounds,
                    probe_rounds,
                    random_data,
                }
            },
        )
}

fn shape_cfg(shape: &MarketShape) -> MarketConfig {
    MarketConfig {
        utility_rate: shape.utility,
        budget: shape.budget,
        rate_cap: 24.0,
        max_rounds: shape.max_rounds,
        explore_rounds: shape.explore_rounds,
        seed: shape.seed,
        ..MarketConfig::default()
    }
}

fn shape_data(shape: &MarketShape) -> Box<dyn vfl_market::DataStrategy + Send> {
    if shape.random_data {
        Box::new(RandomBundleData::with_gains(shape.gains.clone()))
    } else {
        Box::new(StrategicData::with_gains(shape.gains.clone()))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn single_seller_matching_settles_bit_identically(shape in market_shape()) {
        let (provider, listings) = ladder(&shape.gains);
        let cfg = shape_cfg(&shape);

        // Direct 1×1 reference.
        let mut task = StrategicTask::new(0.30, 6.0, 0.9).unwrap();
        let mut data = shape_data(&shape);
        let mut reference =
            run_bargaining(&provider, &listings, &mut task, data.as_mut(), &cfg).unwrap();
        reference.transcript.set_seller("solo");

        // The same pairing through demand fan-out, probe, and settlement.
        let exchange = Exchange::new(ExchangeConfig::default());
        let quoting_shape = shape.clone();
        exchange
            .register_seller(SellerSpec {
                market: MarketSpec {
                    provider: Arc::new(provider),
                    listings: Arc::new(listings),
                    evaluation_key: None,
                    name: "solo".into(),
                },
                // The demand wants every feature, so the scoped table is
                // the full catalog and the gain vector aligns as-is.
                quoting: Arc::new(move |_table| shape_data(&quoting_shape)),
            })
            .unwrap();
        let did = exchange
            .submit_demand(Demand {
                wanted: BundleMask::all(shape.gains.len()),
                scenario: None,
                cfg,
                task: Arc::new(|| Box::new(StrategicTask::new(0.30, 6.0, 0.9).unwrap())),
                probe_rounds: shape.probe_rounds,
                settle: SettleMode::Immediate(Arc::new(BestResponse)),
            })
            .unwrap();
        exchange.drain(1);

        let settled = exchange.take_demand(did).expect("demand settles");
        prop_assert_eq!(settled.quotes.len(), 1);
        let outcome = exchange.take(settled.quotes[0].session).unwrap().unwrap();
        prop_assert_eq!(&*outcome, &reference);
        // A lone candidate is selected iff its negotiation survives the
        // probe (a pre-horizon failure leaves nothing to select).
        match settled.winner {
            Some(0) => {}
            None => prop_assert!(!reference.is_success()),
            other => panic!("impossible winner {other:?}"),
        }
    }
}
