//! The exchange-wide ΔG evaluation cache: one sharded memo table shared by
//! *every* session in the exchange, keyed by `(evaluation key, bundle)`.
//!
//! Course evaluation is the marketplace's hot path. Two markets registered
//! with the same evaluation key (same scenario, base model, and oracle
//! seed) produce identical ΔG for identical bundles, so their sessions
//! share cache lines; lookups hash onto independently locked shards so
//! concurrent hits never contend, and the miss path runs the course
//! *outside* any lock so slow trainings on different bundles proceed in
//! parallel. Concurrent misses on the *same* key are deduplicated through
//! the [`CourseServe::Busy`] protocol: one worker trains, the rest park
//! their session on the exchange's course waitlist and are requeued when
//! the result lands (wake-on-insert — the insert happens inside
//! [`SharedGainCache::serve`], the wake is the caller's duty; see
//! `crate::waitlist` for the ownership handshake).
//!
//! ## Invariants
//!
//! * No shard lock is ever held across a course computation; a training
//!   blocks only its `(evaluation key, bundle)` claim, never a lookup.
//! * At most one in-flight claim exists per key ([`SharedGainCache::serve`]
//!   inserts into the claim set before training and removes on *both* the
//!   success and error paths — a failed training never leaks its claim).
//! * Results are insert-once: a landed ΔG is immutable, so waiters can be
//!   woken after the insert with no risk of observing a torn value.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use vfl_market::{GainProvider, Result};
use vfl_sim::BundleMask;

/// Sharded `(evaluation key, bundle) -> ΔG` map with hit/miss counters and
/// an in-flight set that dedups concurrent trainings of the same key.
#[derive(Debug)]
pub struct SharedGainCache {
    shards: Vec<Mutex<HashMap<(u64, u64), f64>>>,
    /// Keys whose course is being trained by some worker right now.
    in_flight: Mutex<std::collections::HashSet<(u64, u64)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Outcome of [`SharedGainCache::serve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CourseServe {
    /// Served from cache.
    Hit(f64),
    /// This caller trained the course (the expensive path).
    Computed(f64),
    /// Another worker is training this exact key right now — park the
    /// session (the exchange uses its course waitlist) and retry when the
    /// wake arrives; the result will be a [`CourseServe::Hit`] once it
    /// lands, or the retry inherits the claim if the training failed.
    Busy,
}

impl SharedGainCache {
    /// A cache with `n_shards` independent locks (clamped to >= 1).
    pub fn new(n_shards: usize) -> Self {
        let n = n_shards.max(1);
        SharedGainCache {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            in_flight: Mutex::new(std::collections::HashSet::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: (u64, u64)) -> &Mutex<HashMap<(u64, u64), f64>> {
        let h = key
            .0
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(key.1)
            .wrapping_mul(0x2545_f491_4f6c_dd1d);
        &self.shards[(h >> 33) as usize % self.shards.len()]
    }

    /// Cached ΔG for `bundle` under `eval_key`; counts a hit when present.
    /// The cheap path — exchange workers resume a session inline on a hit
    /// and only yield it when a miss forces a real course.
    pub fn lookup(&self, eval_key: u64, bundle: BundleMask) -> Option<f64> {
        let g = self.peek(eval_key, bundle);
        if g.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        g
    }

    /// Like [`Self::lookup`] but without touching the hit counter (for
    /// budget checks that precede a real, counted request).
    pub fn peek(&self, eval_key: u64, bundle: BundleMask) -> Option<f64> {
        let key = (eval_key, bundle.0);
        self.shard(key).lock().get(&key).copied()
    }

    /// Runs the course through `provider` (outside any lock), records the
    /// miss, and caches the result.
    pub fn compute(
        &self,
        eval_key: u64,
        bundle: BundleMask,
        provider: &dyn GainProvider,
    ) -> Result<f64> {
        let g = provider.gain(bundle)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        let key = (eval_key, bundle.0);
        self.shard(key).lock().insert(key, g);
        Ok(g)
    }

    /// Inserts a course result directly, bypassing the provider — the
    /// journal-recovery preload path. Counts neither a hit nor a miss:
    /// the training was paid for by a previous life of the exchange, and
    /// the resumed drain will read it back as ordinary hits.
    pub fn insert(&self, eval_key: u64, bundle: BundleMask, gain: f64) {
        let key = (eval_key, bundle.0);
        self.shard(key).lock().insert(key, gain);
    }

    /// Serves one course request with concurrent-miss dedup: a hit returns
    /// immediately; on a miss, exactly one caller per key trains the course
    /// (others get [`CourseServe::Busy`] and should park their session —
    /// the landed result turns their woken retry into a hit). This keeps N
    /// workers racing on one cold bundle from paying N trainings.
    ///
    /// A successful training counts the miss, inserts the result, and then
    /// releases the claim — in that order, so a woken waiter that re-probes
    /// after the release always finds the value. A failed training inserts
    /// nothing, counts no miss, and releases the claim; the next caller
    /// inherits a fresh claim and retries.
    pub fn serve(
        &self,
        eval_key: u64,
        bundle: BundleMask,
        provider: &dyn GainProvider,
    ) -> Result<CourseServe> {
        if let Some(g) = self.lookup(eval_key, bundle) {
            return Ok(CourseServe::Hit(g));
        }
        let key = (eval_key, bundle.0);
        if !self.in_flight.lock().insert(key) {
            return Ok(CourseServe::Busy);
        }
        // The miss above and the claim are not atomic: a trainer that ran
        // entirely in between (inserted its result, released its claim)
        // leaves this caller holding a fresh claim on an already-cached
        // course. Re-check under the claim, or the course would be trained
        // — and journaled — twice.
        if let Some(g) = self.lookup(eval_key, bundle) {
            self.in_flight.lock().remove(&key);
            return Ok(CourseServe::Hit(g));
        }
        let result = self.compute(eval_key, bundle, provider);
        self.in_flight.lock().remove(&key);
        result.map(CourseServe::Computed)
    }

    /// ΔG for `bundle` under `eval_key`: [`Self::lookup`] or, on a miss,
    /// [`Self::compute`] (no dedup — single-caller convenience).
    pub fn gain(
        &self,
        eval_key: u64,
        bundle: BundleMask,
        provider: &dyn GainProvider,
    ) -> Result<f64> {
        match self.lookup(eval_key, bundle) {
            Some(g) => Ok(g),
            None => self.compute(eval_key, bundle, provider),
        }
    }

    /// True while some caller holds the in-flight training claim for
    /// `(eval_key, bundle)`. A waiter that saw [`CourseServe::Busy`] uses
    /// this (after registering on its waitlist) to detect the claim being
    /// *released without a result* — a failed training inserts nothing, so
    /// checking only for a cached value would miss the wake and park the
    /// waiter forever.
    pub fn is_training(&self, eval_key: u64, bundle: BundleMask) -> bool {
        self.in_flight.lock().contains(&(eval_key, bundle.0))
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct `(evaluation key, bundle)` entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sorted snapshot of every `((evaluation key, bundle), ΔG)` entry —
    /// the checkpoint path's view of the cache. Shards are locked one at a
    /// time (never nested), and the result is ordered by key so snapshots
    /// of equal caches are bit-identical regardless of shard layout.
    pub fn entries(&self) -> Vec<((u64, u64), f64)> {
        let mut out: Vec<((u64, u64), f64)> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            out.extend(shard.lock().iter().map(|(&k, &g)| (k, g)));
        }
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfl_market::TableGainProvider;

    fn provider() -> TableGainProvider {
        TableGainProvider::new([
            (BundleMask::singleton(0), 0.1),
            (BundleMask::singleton(1), 0.2),
        ])
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let cache = SharedGainCache::new(8);
        let p = provider();
        let b = BundleMask::singleton(0);
        assert_eq!(cache.gain(7, b, &p).unwrap(), 0.1);
        assert_eq!(cache.gain(7, b, &p).unwrap(), 0.1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evaluation_keys_are_isolated() {
        let cache = SharedGainCache::new(8);
        let p = provider();
        let b = BundleMask::singleton(1);
        cache.gain(1, b, &p).unwrap();
        cache.gain(2, b, &p).unwrap();
        assert_eq!(cache.misses(), 2, "distinct keys never share entries");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn provider_errors_propagate_and_do_not_cache() {
        let cache = SharedGainCache::new(2);
        let p = provider();
        let unknown = BundleMask::singleton(5);
        assert!(cache.gain(0, unknown, &p).is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn serve_computes_once_then_hits() {
        let cache = SharedGainCache::new(4);
        let p = provider();
        let b = BundleMask::singleton(0);
        assert_eq!(cache.serve(3, b, &p).unwrap(), CourseServe::Computed(0.1));
        assert_eq!(cache.serve(3, b, &p).unwrap(), CourseServe::Hit(0.1));
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn serve_releases_the_claim_on_provider_error() {
        let cache = SharedGainCache::new(4);
        let p = provider();
        let unknown = BundleMask::singleton(9);
        assert!(cache.serve(3, unknown, &p).is_err());
        // The claim is gone even though nothing was inserted — this is the
        // state a Busy waiter must detect via `is_training`, since peeking
        // for a result would miss it.
        assert!(!cache.is_training(3, unknown));
        assert!(cache.peek(3, unknown).is_none());
        assert_eq!(cache.misses(), 0, "a failed training counts no miss");
        // The claim must not leak: a provider that recovers can compute.
        let mut fixed = p.clone();
        fixed.insert(unknown, 0.5);
        assert_eq!(
            cache.serve(3, unknown, &fixed).unwrap(),
            CourseServe::Computed(0.5)
        );
    }

    #[test]
    fn abort_releases_the_claim_without_counting_a_miss() {
        let cache = SharedGainCache::new(4);
        let b = BundleMask::singleton(2);
        let failing = TableGainProvider::new([]);
        // A failed training aborts its claim: nothing lands, no miss counts.
        assert!(cache.serve(6, b, &failing).is_err());
        assert!(!cache.is_training(6, b));
        assert!(cache.peek(6, b).is_none());
        assert_eq!(cache.misses(), 0);
        assert_eq!(cache.hits(), 0);
        // The next caller inherits a fresh claim — nothing leaked.
        let recovered = TableGainProvider::new([(b, 0.3)]);
        assert_eq!(
            cache.serve(6, b, &recovered).unwrap(),
            CourseServe::Computed(0.3)
        );
        assert_eq!(cache.peek(6, b), Some(0.3));
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn serve_reports_busy_while_a_claim_is_training() {
        /// A provider that probes the cache from inside its own training,
        /// i.e. while this caller holds the key's claim.
        struct Reentrant<'a> {
            cache: &'a SharedGainCache,
            seen: std::cell::Cell<Option<CourseServe>>,
        }
        impl GainProvider for Reentrant<'_> {
            fn gain(&self, bundle: BundleMask) -> Result<f64> {
                assert!(self.cache.is_training(5, bundle));
                let other = TableGainProvider::new([(bundle, 0.9)]);
                self.seen.set(Some(self.cache.serve(5, bundle, &other)?));
                Ok(0.7)
            }
        }
        let cache = SharedGainCache::new(4);
        let b = BundleMask::singleton(0);
        let trainer = Reentrant {
            cache: &cache,
            seen: std::cell::Cell::new(None),
        };
        assert_eq!(
            cache.serve(5, b, &trainer).unwrap(),
            CourseServe::Computed(0.7)
        );
        // A contender during the training is told to wait, not to train.
        assert_eq!(trainer.seen.get(), Some(CourseServe::Busy));
        // The landed value is served, the claim is gone, one miss counted.
        assert!(!cache.is_training(5, b));
        assert_eq!(cache.serve(5, b, &trainer).unwrap(), CourseServe::Hit(0.7));
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn concurrent_access_converges() {
        let cache = SharedGainCache::new(4);
        let p = provider();
        crossbeam::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = &cache;
                let p = &p;
                scope.spawn(move |_| {
                    for _ in 0..50 {
                        assert_eq!(cache.gain(9, BundleMask::singleton(0), p).unwrap(), 0.1);
                        assert_eq!(cache.gain(9, BundleMask::singleton(1), p).unwrap(), 0.2);
                    }
                });
            }
        })
        .expect("scope failed");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.hits() + cache.misses(), 400);
        assert!(cache.misses() <= 8, "misses bounded by workers × bundles");
    }
}
