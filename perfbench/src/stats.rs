//! Order statistics for latency samples.

/// Percentiles the tail metric may report, highest first.
const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The highest ladder percentile with at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub beyond: usize,
    pub n: usize,
}

/// Median and tail of unsorted samples.
pub fn summarize(samples: &[f64]) -> (f64, Tail) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let beyond = |p: f64| n - ((p / 100.0) * n as f64).ceil().min(n as f64) as usize;
    let pct = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(p) >= 10)
        .unwrap_or(50.0);
    let tail = Tail {
        pct,
        value: percentile(&v, pct),
        beyond: beyond(pct),
        n,
    };
    (percentile(&v, 50.0), tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p50, tail) = summarize(&samples);
        assert_eq!(p50, 500.0);
        assert_eq!(tail.pct, 99.0);
        assert_eq!(tail.beyond, 10);
        assert_eq!(tail.value, 990.0);
    }
}
