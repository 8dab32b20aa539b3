//! Order statistics over latency samples.

/// Samples beyond the reported tail value; the tail percentile is the
/// highest one that still leaves this many samples above it.
const TAIL_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count); 0 for no
/// samples.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The tail value: the sample with exactly [`TAIL_BEYOND`] samples
/// above it in sorted order (the maximum when there are too few).
pub fn tail(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    match sorted.len() {
        0 => 0.0,
        n if n > TAIL_BEYOND => sorted[n - 1 - TAIL_BEYOND],
        n => sorted[n - 1],
    }
}

/// The percentile [`tail`] reports for `n` samples, in percent.
pub fn tail_percentile(n: usize) -> f64 {
    if n > TAIL_BEYOND {
        100.0 * (n - TAIL_BEYOND) as f64 / n as f64
    } else {
        100.0
    }
}

/// Median and tail of time-ordered samples, robust to a stall of the
/// machine: the samples are cut into `blocks` contiguous blocks of equal
/// size, and each statistic is the median over blocks of the block's
/// [`median`] and [`tail`]. A stall that slows one block in `blocks`
/// moves neither number.
pub fn blocked(samples: &[f64], blocks: usize) -> (f64, f64) {
    let size = (samples.len() / blocks.max(1)).max(1);
    let (medians, tails): (Vec<f64>, Vec<f64>) =
        samples.chunks(size).take(blocks.max(1)).map(|b| (median(b), tail(b))).unzip();
    (median(&medians), median(&tails))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(median(&values), 50.5);
        assert_eq!(tail(&[3.0, 1.0]), 3.0);
        let (p50, p_tail) = blocked(&values, 4);
        assert_eq!((p50, p_tail), (50.5, 52.5));
    }
}
