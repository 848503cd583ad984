//! Benchmark of the imperfect-information estimators: per-round online
//! updates of `f` (price → ΔG) and `g` (bundle → ΔG), the inner loop of
//! §3.5's training-while-bargaining.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vfl_estimator::{BundleGainModel, BundleModelConfig, PriceGainModel, PriceModelConfig};
use vfl_market::QuotedPrice;
use vfl_sim::BundleMask;

fn bench_estimator(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimator");

    group.bench_function("price_model_observe_100th_round", |b| {
        let mut model = PriceGainModel::new(PriceModelConfig::default());
        // Pre-fill the buffer to a realistic bargaining depth.
        for i in 0..100 {
            let cap = 1.5 + (i as f64) / 40.0;
            let q = QuotedPrice::new(8.0, 1.0, cap).unwrap();
            model.observe(&q, 0.05 + 0.001 * i as f64);
        }
        let q = QuotedPrice::new(9.0, 1.1, 3.2).unwrap();
        b.iter(|| black_box(model.observe(black_box(&q), 0.12)))
    });

    // One imperfect-courses session per iteration: a fresh model and 31
    // observes (30 exploration rounds plus the closing one), so the buffer
    // grows from 1 to 31 samples as it does in the benchmark workload.
    group.bench_function("price_model_session_31_rounds", |b| {
        b.iter(|| {
            let mut model = PriceGainModel::new(PriceModelConfig::default());
            for i in 0..31 {
                let q =
                    QuotedPrice::new(8.0 + 0.05 * i as f64, 1.0, 1.5 + i as f64 / 40.0).unwrap();
                model.observe(black_box(&q), 0.05 + 0.001 * i as f64);
            }
            black_box(model)
        })
    });

    group.bench_function("price_model_predict", |b| {
        let mut model = PriceGainModel::new(PriceModelConfig::default());
        let q = QuotedPrice::new(8.0, 1.0, 2.5).unwrap();
        model.observe(&q, 0.1);
        b.iter(|| black_box(model.predict(black_box(&q))))
    });

    group.bench_function("bundle_model_observe_100th_round", |b| {
        let mut model = BundleGainModel::new(BundleModelConfig::for_features(19, 0.2, 3));
        for i in 0..100u64 {
            model.observe(BundleMask(1 + (i % 500_000)), 0.05);
        }
        b.iter(|| black_box(model.observe(BundleMask(0b1011), 0.12)))
    });

    group.bench_function("bundle_model_session_31_rounds", |b| {
        b.iter(|| {
            let mut model = BundleGainModel::new(BundleModelConfig::for_features(19, 0.2, 3));
            for i in 0..31u64 {
                model.observe(black_box(BundleMask(1 + i * 7919 % 500_000)), 0.05);
            }
            black_box(model)
        })
    });

    group.bench_function("bundle_model_predict_48_listings", |b| {
        let mut model = BundleGainModel::new(BundleModelConfig::for_features(19, 0.2, 3));
        model.observe(BundleMask(0b111), 0.1);
        let bundles: Vec<BundleMask> = (1..49).map(BundleMask).collect();
        b.iter(|| black_box(model.predict_many(black_box(&bundles))))
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_estimator
);
criterion_main!(benches);
