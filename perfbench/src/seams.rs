//! Wrappers around the seams the benchmark supplies to the exchange.
//!
//! Each wrapper forwards to the real implementation inside a trace span
//! (a no-op when tracing is off). The strategy and settlement wrappers
//! also stamp the negotiation's [`Board`] slot after every call, which is
//! how the benchmark times a negotiation's conclusion from outside the
//! program: a negotiation concludes at the end of the last strategy or
//! settlement call it makes.

use crate::trace;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vfl_exchange::{AdmissionDecision, AdmissionLoad, AdmissionPolicy};
use vfl_exchange::{
    Assignment, CandidateQuote, ClearPolicy, EpochBatch, EpochDecision, MatchPolicy,
};
use vfl_market::{
    DataContext, DataResponse, DataStrategy, GainProvider, Listing, MarketConfig, QuotedPrice,
    Result, TaskContext, TaskDecision, TaskStrategy,
};
use vfl_sim::BundleMask;

type Rng = rand::rngs::StdRng;

/// Last-activity clock per negotiation, keyed by its `cfg.seed`.
pub struct Board {
    slots: HashMap<u64, usize>,
    done: Vec<AtomicU64>,
}

impl Board {
    /// A board for the negotiations `nids` (slot `i` is `nids[i]`).
    pub fn new(nids: &[u64]) -> Arc<Self> {
        let slots: HashMap<u64, usize> = nids.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        assert_eq!(slots.len(), nids.len(), "negotiation ids must be unique");
        Arc::new(Board {
            slots,
            done: nids.iter().map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// Stamps negotiation `nid` as active now.
    pub fn touch(&self, nid: u64) {
        if let Some(&i) = self.slots.get(&nid) {
            self.done[i].fetch_max(trace::now_ns(), Ordering::Relaxed);
        }
    }

    /// When slot `i` last made a call (0 = never).
    pub fn done_ns(&self, i: usize) -> u64 {
        self.done[i].load(Ordering::Relaxed)
    }
}

/// Course seam: the market's ΔG provider.
pub struct TracedProvider(pub Arc<dyn GainProvider + Send + Sync>);

impl GainProvider for TracedProvider {
    fn gain(&self, bundle: BundleMask) -> Result<f64> {
        let _span = trace::enter("course", 0);
        self.0.gain(bundle)
    }

    fn known_gain(&self, bundle: BundleMask) -> Option<f64> {
        self.0.known_gain(bundle)
    }
}

/// Task-party strategy seam.
pub struct TracedTask {
    inner: Box<dyn TaskStrategy + Send>,
    board: Arc<Board>,
    nid: u64,
}

impl TracedTask {
    pub fn boxed(inner: Box<dyn TaskStrategy + Send>, board: &Arc<Board>) -> Box<Self> {
        Box::new(TracedTask {
            inner,
            board: board.clone(),
            nid: 0,
        })
    }
}

impl TaskStrategy for TracedTask {
    fn initial_quote(&mut self, cfg: &MarketConfig, rng: &mut Rng) -> Result<QuotedPrice> {
        self.nid = cfg.seed;
        let out = {
            let _span = trace::enter("strategy", self.nid);
            self.inner.initial_quote(cfg, rng)
        };
        self.board.touch(self.nid);
        out
    }

    fn decide(
        &mut self,
        ctx: &TaskContext<'_>,
        cfg: &MarketConfig,
        rng: &mut Rng,
    ) -> Result<TaskDecision> {
        let out = {
            let _span = trace::enter("strategy", self.nid);
            self.inner.decide(ctx, cfg, rng)
        };
        self.board.touch(self.nid);
        out
    }

    fn observe_course(&mut self, quote: &QuotedPrice, bundle: BundleMask, gain: f64) {
        {
            let _span = trace::enter("strategy.observe", self.nid);
            self.inner.observe_course(quote, bundle, gain);
        }
        self.board.touch(self.nid);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Data-party strategy seam.
pub struct TracedData {
    inner: Box<dyn DataStrategy + Send>,
    board: Arc<Board>,
    nid: u64,
}

impl TracedData {
    pub fn boxed(inner: Box<dyn DataStrategy + Send>, board: &Arc<Board>) -> Box<Self> {
        Box::new(TracedData {
            inner,
            board: board.clone(),
            nid: 0,
        })
    }
}

impl DataStrategy for TracedData {
    fn respond(
        &mut self,
        ctx: &DataContext<'_>,
        listings: &[Listing],
        cfg: &MarketConfig,
        rng: &mut Rng,
    ) -> Result<DataResponse> {
        self.nid = cfg.seed;
        let out = {
            let _span = trace::enter("strategy", self.nid);
            self.inner.respond(ctx, listings, cfg, rng)
        };
        self.board.touch(self.nid);
        out
    }

    fn observe_course(&mut self, bundle: BundleMask, gain: f64) {
        {
            let _span = trace::enter("strategy.observe", self.nid);
            self.inner.observe_course(bundle, gain);
        }
        self.board.touch(self.nid);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Immediate-settlement seam; the span argument is 1 when a winner was
/// selected.
pub struct TracedMatch {
    pub inner: Arc<dyn MatchPolicy>,
    pub board: Arc<Board>,
}

impl MatchPolicy for TracedMatch {
    fn select(&self, cfg: &MarketConfig, quotes: &[CandidateQuote]) -> Option<usize> {
        let out = {
            let mut span = trace::enter("matching", cfg.seed);
            let out = self.inner.select(cfg, quotes);
            span.arg(u64::from(out.is_some()));
            out
        };
        self.board.touch(cfg.seed);
        out
    }
}

/// Epoch-clearing seam; the span argument counts rolled demands.
pub struct TracedClear {
    pub inner: Arc<dyn ClearPolicy>,
    pub board: Arc<Board>,
}

impl ClearPolicy for TracedClear {
    fn clear(&self, batch: &EpochBatch<'_>) -> EpochDecision {
        let out = {
            let mut span = trace::enter("clearing", 0);
            let out = self.inner.clear(batch);
            let rolls = out
                .assignments
                .iter()
                .filter(|a| **a == Assignment::Roll)
                .count();
            span.arg(rolls as u64);
            out
        };
        for d in batch.demands {
            self.board.touch(d.cfg.seed);
        }
        out
    }
}

/// Admission seam; the span argument is 1 for a shed verdict.
pub struct TracedAdmission(pub Arc<dyn AdmissionPolicy>);

impl AdmissionPolicy for TracedAdmission {
    fn admit(&self, load: &AdmissionLoad) -> AdmissionDecision {
        let mut span = trace::enter("admission", 0);
        let out = self.0.admit(load);
        span.arg(u64::from(!out.is_admit()));
        out
    }
}

/// Journal sink seam; the write span's argument is the byte count.
pub struct TracedSink(pub Box<dyn Write + Send>);

impl Write for TracedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut span = trace::enter("journal.write", 0);
        let n = self.0.write(buf)?;
        span.arg(n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let _span = trace::enter("journal.flush", 0);
        self.0.flush()
    }
}
