//! Order statistics and the seeded random streams the workloads draw from.

/// The `q`-quantile (`0 ≤ q ≤ 1`) by the nearest-rank rule; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Contention from other work on the machine only ever slows a sample
/// down, and on a shared host it comes and goes within a run. A run's
/// figure is therefore the fast end of its samples: the 90th percentile of
/// a rate ...
pub fn fast_rate(values: &[f64]) -> f64 {
    quantile(values, 0.9)
}

/// ... and the 10th percentile of a time.
pub fn fast_time(values: &[f64]) -> f64 {
    quantile(values, 0.1)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// SplitMix64: a small, seedable generator, so the inputs a seed produces
/// do not depend on any other crate's random streams.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A seed derived from `seed` for one named purpose.
pub fn derive(seed: u64, purpose: u64) -> u64 {
    SplitMix::new(seed ^ purpose.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// `len` draws from a Zipf(`s`) distribution over `n` items. Item ranks
/// are a seeded permutation, so which item is hot depends on the seed.
pub fn zipf_draws(n: usize, s: f64, len: usize, rng: &mut SplitMix) -> Vec<usize> {
    let mut rank_to_item: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut rank_to_item);
    let mut cumulative = Vec::with_capacity(n);
    let mut total = 0.0;
    for k in 1..=n {
        total += 1.0 / (k as f64).powf(s);
        cumulative.push(total);
    }
    (0..len)
        .map(|_| {
            let u = rng.unit() * total;
            let rank = cumulative.partition_point(|&c| c <= u).min(n - 1);
            rank_to_item[rank]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn zipf_head_is_hot_and_draws_repeat_per_seed() {
        let a = zipf_draws(100, 1.0, 10_000, &mut SplitMix::new(7));
        let b = zipf_draws(100, 1.0, 10_000, &mut SplitMix::new(7));
        assert_eq!(a, b);
        let mut counts = vec![0usize; 100];
        for &i in &a {
            counts[i] += 1;
        }
        counts.sort_unstable();
        // Rank 1 of Zipf(1) over 100 items carries about 19% of the mass.
        let top = *counts.last().unwrap() as f64 / 10_000.0;
        assert!((0.16..0.23).contains(&top), "{top}");
    }
}
