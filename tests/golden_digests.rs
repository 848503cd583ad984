//! Golden bit-level digests of the numeric training paths: the ΔG
//! estimators `f`/`g` (§3.5), the MLP base-model classifier (§4.1.2), and
//! one imperfect-information bargaining run on a prepared MLP cell.
//!
//! Every digest folds the exact `f64::to_bits` of the outputs, so any
//! change to the floating-point sequence of an MLP forward/backward/Adam
//! step — reordered sums, fused multiply-adds, dropped or added terms —
//! changes a digest. The constants were recorded before the allocation-free
//! training tape replaced the cached-layer MLP and must never be
//! re-recorded to make a refactor pass: a digest mismatch means results
//! changed. Run it under both profiles (`cargo test --test golden_digests`
//! and `cargo test --release --test golden_digests`).

use vfl_bench::{run_imperfect, BaseModelKind, PreparedMarket, RunProfile};
use vfl_estimator::{BundleGainModel, BundleModelConfig, PriceGainModel, PriceModelConfig};
use vfl_market::QuotedPrice;
use vfl_ml::nn::Activation;
use vfl_ml::rng::{normal, rng_from_seed};
use vfl_ml::{Classifier, MlpClassifier, TrainConfig};
use vfl_sim::BundleMask;
use vfl_tabular::{DatasetId, Matrix};

/// FNV-1a over the bit patterns of a sequence of `f64`s.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn bytes(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(b as u64);
        }
    }
}

/// Rounds observed per estimator: the shape of one imperfect-courses
/// session (30 exploration rounds plus the closing one).
const OBSERVES: u64 = 31;

fn price_model_digest(seed: u64) -> u64 {
    let mut m = PriceGainModel::new(PriceModelConfig {
        seed,
        ..PriceModelConfig::default()
    });
    let quote = |i: u64| {
        let i = i as f64;
        QuotedPrice::new(6.0 + 0.13 * i, 0.4 + 0.021 * i, 1.5 + 0.07 * i).unwrap()
    };
    for i in 0..OBSERVES {
        m.observe(&quote(i), 0.01 + 0.004 * ((i * 7 + seed) % 13) as f64);
    }
    let mut d = Digest::new();
    d.floats(m.mse_history());
    let preds: Vec<f64> = (0..40).map(|i| m.predict(&quote(i))).collect();
    d.floats(&preds);
    d.0
}

fn bundle_model_digest(seed: u64) -> u64 {
    let mut m = BundleGainModel::new(BundleModelConfig::for_features(19, 0.2, seed));
    for i in 0..OBSERVES {
        let mask = 1 + (i * 2_654_435_761 + seed) % ((1 << 19) - 1);
        m.observe(BundleMask(mask), 0.02 + 0.003 * ((i + seed) % 11) as f64);
    }
    let mut d = Digest::new();
    d.floats(m.mse_history());
    // Includes the empty bundle, which pools to the zero vector.
    let bundles: Vec<BundleMask> = (0..48).map(|k| BundleMask(k * 10_923)).collect();
    d.floats(&m.predict_many(&bundles));
    d.0
}

#[test]
fn price_model_bits_are_frozen() {
    let got: Vec<u64> = (1..=3).map(price_model_digest).collect();
    assert_eq!(
        got,
        [
            0x389b_1365_a1e1_619d,
            0xfbc1_973e_80c6_3350,
            0x5a52_8e68_3edc_1a4f
        ],
        "PriceGainModel digests changed: {got:#x?}"
    );
}

#[test]
fn bundle_model_bits_are_frozen() {
    let got: Vec<u64> = (1..=3).map(bundle_model_digest).collect();
    assert_eq!(
        got,
        [
            0xe3b4_9cae_4b41_5efa,
            0xb167_d48b_6d31_721e,
            0x2125_7d52_2ede_76df
        ],
        "BundleGainModel digests changed: {got:#x?}"
    );
}

/// Two noisy concentric rings plus four noise columns (one of them
/// all-zero, so standardised inputs carry exact zeros).
fn rings(n: usize, seed: u64) -> (Matrix, Vec<u8>) {
    let mut rng = rng_from_seed(seed);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let label = (i % 2) as u8;
        let radius = if label == 1 { 2.0 } else { 0.7 };
        let angle = 0.37 * i as f64;
        rows.push(vec![
            radius * angle.cos() + 0.2 * normal(&mut rng),
            radius * angle.sin() + 0.2 * normal(&mut rng),
            normal(&mut rng),
            0.0,
            (i % 5) as f64,
            -normal(&mut rng).abs(),
        ]);
        y.push(label);
    }
    (Matrix::from_rows(&rows).unwrap(), y)
}

#[test]
fn classifier_bits_are_frozen() {
    let (x, y) = rings(200, 11);
    let mut got = Vec::new();
    for act in [Activation::Relu, Activation::Tanh, Activation::Sigmoid] {
        let mut clf = MlpClassifier::new(
            vec![64, 32],
            TrainConfig {
                epochs: 6,
                batch_size: 48,
                lr: 1e-2,
                seed: 3,
            },
        )
        .with_activation(act);
        clf.fit(&x, &y).unwrap();
        let mut d = Digest::new();
        d.floats(&clf.predict_proba(&x).unwrap());
        got.push(d.0);
    }
    assert_eq!(
        got,
        [
            0x067b_5a29_336d_1844,
            0x2a15_6148_f3d7_2ba9,
            0xc228_369b_b071_8b6f
        ],
        "MlpClassifier digests changed: {got:#x?}"
    );
}

#[test]
fn imperfect_outcome_bits_are_frozen() {
    let profile = RunProfile::fast();
    let pm = PreparedMarket::build(DatasetId::Titanic, BaseModelKind::Mlp, &profile, 1).unwrap();
    let mut cfg = pm.market_config(&profile);
    cfg.eps_task = pm.params.table4_eps;
    cfg.eps_data = pm.params.table4_eps;
    cfg.explore_rounds = profile.explore_rounds;
    cfg.max_rounds = profile.explore_rounds + 30;
    let run = run_imperfect(&pm, &cfg.with_run_seed(7)).unwrap();
    let mut d = Digest::new();
    d.floats(&pm.gains);
    // `{:?}` prints every f64 in shortest round-trip form (and keeps the
    // sign of zero), so the text pins the outcome's bits.
    d.bytes(&format!("{:?}", run.outcome));
    d.floats(&run.task_mse);
    d.floats(&run.data_mse);
    assert_eq!(
        d.0, 0x1664_227d_a380_ac08,
        "imperfect Outcome digest changed: {:#x}",
        d.0
    );
}
