//! `imperfect-courses`: batches of estimator-backed 1v1 sessions over six
//! prepared cells (Titanic/Credit/Adult × forest/MLP, fast profile), each
//! batch on a fresh exchange whose markets serve ΔG from cold oracles, so
//! every first course of a batch really trains. Drained with one worker
//! per CPU on the default thread-pool executor, no journal. Almost all of
//! the time is model training inside courses and estimator fits.

use crate::observe::{self, Observed};
use crate::seams::{Board, TracedData, TracedProvider, TracedTask};
use crate::{trace, Opts, Phase, Workload};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vfl_bench::{BaseModelKind, PreparedMarket, RunProfile};
use vfl_estimator::{BundleModelConfig, ImperfectData, ImperfectTask, PriceModelConfig};
use vfl_exchange::{Exchange, ExchangeConfig, ExchangeTelemetry, MarketSpec, SessionOrder};
use vfl_market::{run_bargaining, MarketConfig, Outcome};
use vfl_tabular::DatasetId;

/// Sessions per batch (a multiple of the six cells); large enough that a
/// batch's time is its total work rather than its slowest session.
const BATCH: usize = 72;
/// Sessions of the first batch re-run sequentially as the output check.
const CHECKED: usize = 6;
/// Bargaining rounds allowed after exploration. Most sessions conclude
/// within three; the rare one whose estimator does not converge runs to
/// the cap, and with the fast profile's 300 it alone would set a batch's
/// time and make throughput depend on how many such sessions a seed draws.
const BARGAIN_ROUNDS: u32 = 30;
/// Build seed of the six cells: the world is fixed, the run seed draws the
/// sessions.
const WORLD_SEED: u64 = 1;

pub struct ImperfectCourses {
    profile: RunProfile,
    cells: Vec<PreparedMarket>,
    seed: u64,
    batches: u64,
}

/// The imperfect-information configuration of Table 4 for one cell, with
/// the round cap lowered to [`BARGAIN_ROUNDS`] past exploration.
fn session_config(cell: &PreparedMarket, profile: &RunProfile, run: u64) -> MarketConfig {
    let mut cfg = cell.market_config(profile);
    cfg.eps_task = cell.params.table4_eps;
    cfg.eps_data = cell.params.table4_eps;
    cfg.explore_rounds = profile.explore_rounds;
    cfg.max_rounds = profile.explore_rounds + BARGAIN_ROUNDS;
    cfg.with_run_seed(run)
}

/// The estimator-backed players, built as `vfl_bench::run_imperfect` does.
fn players(cell: &PreparedMarket, cfg: &MarketConfig) -> (ImperfectTask, ImperfectData) {
    let p = &cell.params;
    let gain_scale = cell.target_gain.max(1e-6);
    let price_model = PriceModelConfig {
        rate_scale: p.rate_cap,
        payment_scale: p.budget / 2.0,
        gain_scale,
        seed: cfg.seed ^ 0xf00d,
        ..PriceModelConfig::default()
    };
    let bundle_model =
        BundleModelConfig::for_features(cell.catalog.n_features(), gain_scale, cfg.seed ^ 0xbeef);
    let task = ImperfectTask::new(cell.target_gain, p.init_rate, p.init_base, price_model)
        .expect("prepared cells have valid openings");
    (task, ImperfectData::new(bundle_model))
}

impl Workload for ImperfectCourses {
    const SETUPS: usize = 2;

    fn setup(opts: &Opts) -> Self {
        let seed = opts.seed;
        let profile = RunProfile::fast();
        let cells = [BaseModelKind::Forest, BaseModelKind::Mlp]
            .into_iter()
            .flat_map(|model| DatasetId::ALL.map(|id| (id, model)))
            .map(|(id, model)| {
                PreparedMarket::build(id, model, &profile, WORLD_SEED).expect("prepare market cell")
            })
            .collect();
        ImperfectCourses {
            profile,
            cells,
            seed,
            batches: 0,
        }
    }

    fn phase(&mut self, budget: Duration, traced: bool) -> Phase {
        let workers = crate::workers();
        let mut phase = Phase {
            latency_ms: vec![Vec::new()],
            ..Phase::default()
        };
        let mut observed = Observed::default();
        let start = Instant::now();
        let mut first = true;
        while first || start.elapsed() < budget {
            let batch = self.batches;
            self.batches += 1;
            // Session runs are unique across batches, so every cfg.seed is.
            let runs: Vec<u64> = (0..BATCH as u64)
                .map(|k| (self.seed << 24) + batch * BATCH as u64 + k)
                .collect();
            let configs: Vec<MarketConfig> = runs
                .iter()
                .enumerate()
                .map(|(k, &run)| {
                    session_config(&self.cells[k % self.cells.len()], &self.profile, run)
                })
                .collect();
            let nids: Vec<u64> = configs.iter().map(|c| c.seed).collect();
            let board = Board::new(&nids);

            let telemetry = traced.then(ExchangeTelemetry::new);
            let exchange = match &telemetry {
                Some(t) => Exchange::with_telemetry(ExchangeConfig::default(), t.clone()),
                None => Exchange::new(ExchangeConfig::default()),
            };
            let markets: Vec<_> = self
                .cells
                .iter()
                .map(|cell| {
                    let oracle = cell.cold_oracle(&self.profile).expect("cold oracle");
                    exchange
                        .register_market(MarketSpec {
                            provider: Arc::new(TracedProvider(Arc::new(oracle))),
                            listings: Arc::new(cell.listings.clone()),
                            evaluation_key: Some(cell.evaluation_key(&self.profile)),
                            name: format!("{}/{}", cell.id, cell.model_kind.name()),
                        })
                        .expect("register market")
                })
                .collect();

            let t0 = trace::now_ns();
            let sids: Vec<_> = configs
                .iter()
                .enumerate()
                .map(|(k, cfg)| {
                    let cell = &self.cells[k % self.cells.len()];
                    let (task, data) = players(cell, cfg);
                    exchange
                        .submit(
                            markets[k % markets.len()],
                            SessionOrder {
                                cfg: *cfg,
                                task: TracedTask::boxed(Box::new(task), &board),
                                data: TracedData::boxed(Box::new(data), &board),
                            },
                        )
                        .expect("submit session")
                })
                .collect();
            let report = observe::drain(&exchange, workers);
            let wall_s = (trace::now_ns() - t0) as f64 * 1e-9;

            phase.attempted += BATCH as u64;
            let mut outcomes: Vec<Option<Outcome>> = Vec::with_capacity(BATCH);
            for (k, sid) in sids.iter().enumerate() {
                match exchange.take(*sid) {
                    Some(Ok(outcome)) => {
                        phase.settled += 1;
                        phase.latency_ms[0]
                            .push((board.done_ns(k).saturating_sub(t0)) as f64 * 1e-6);
                        outcomes.push(Some(*outcome));
                    }
                    other => {
                        phase.failed += 1;
                        phase.failures.push(format!(
                            "session {k} of batch {batch} did not conclude cleanly: {:?}",
                            other.map(|r| r.map(|o| o.status))
                        ));
                        outcomes.push(None);
                    }
                }
            }
            phase
                .rates
                .push(outcomes.iter().flatten().count() as f64 / wall_s);
            if report.failed > 0 {
                phase
                    .failures
                    .push(format!("batch {batch}: {} hard failures", report.failed));
            }
            if first {
                self.check_sequential(&configs, &outcomes, &mut phase.failures);
            }
            observed.counters.add(&observe::metrics(&exchange));
            if let Some(t) = &telemetry {
                observed.add_stages(t);
            }
            first = false;
        }
        phase.notes.push(format!(
            "imperfect-courses: {} sessions in {} batches of {BATCH} over {} cells; \
             sessions/s per batch {:.2?}",
            phase.settled,
            phase.rates.len(),
            self.cells.len(),
            phase.rates
        ));
        observed.settled = phase.settled;
        phase.observed = observed;
        phase
    }
}

impl ImperfectCourses {
    /// The first sessions of a batch must equal the sequential
    /// `run_bargaining` result for the same order.
    fn check_sequential(
        &self,
        configs: &[MarketConfig],
        outcomes: &[Option<Outcome>],
        failures: &mut Vec<String>,
    ) {
        for (k, (cfg, got)) in configs.iter().zip(outcomes).take(CHECKED).enumerate() {
            let cell = &self.cells[k % self.cells.len()];
            let (mut task, mut data) = players(cell, cfg);
            let want = run_bargaining(&cell.oracle, &cell.listings, &mut task, &mut data, cfg);
            match (want, got) {
                (Ok(want), Some(got)) if want == *got => {}
                (want, got) => failures.push(format!(
                    "session {k}: exchange outcome {:?} differs from sequential {:?}",
                    got.as_ref().map(|o| &o.status),
                    want.map(|o| o.status)
                )),
            }
        }
    }
}
