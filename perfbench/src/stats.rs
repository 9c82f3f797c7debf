//! Small statistics and timing helpers.

use std::time::Duration;

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The smallest value of each key, in key order: every distinct
/// request's best latency over its repeats in the run.
///
/// The benchmark host shares its physical cores: a neighbour slows any
/// operation by up to 1.7x in bursts of a few ms, and how often it
/// does drifts over minutes. A request's fastest repeat is the time the
/// program itself needs, so it holds while the host's load moves; a
/// slower program still shows in full, because every repeat slows.
pub fn best_per_key<K: Ord + Copy>(samples: &[(K, f64)]) -> Vec<f64> {
    let mut best = std::collections::BTreeMap::new();
    for &(k, v) in samples {
        let b = best.entry(k).or_insert(v);
        if v < *b {
            *b = v;
        }
    }
    best.into_values().collect()
}

/// Repeats of one operation dealt into groups of about `k` (at least
/// one group) by a fixed shuffle, keeping each group's smallest value.
/// A group's members lie at random points of the run, so neither a slow
/// stretch of the host, which lasts seconds, nor a pattern that repeats
/// every few operations can hold all of a group; the best is kept for
/// the reason [`best_per_key`] gives.
pub fn best_of_groups(values: &[f64], k: usize) -> Vec<f64> {
    let groups = (values.len() / k.max(1)).max(1).min(values.len());
    let mut order: Vec<usize> = (0..values.len()).collect();
    Rng::new(0).shuffle(&mut order);
    let mut best = vec![f64::INFINITY; groups];
    for (slot, &i) in order.iter().enumerate() {
        best[slot % groups] = best[slot % groups].min(values[i]);
    }
    best
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A deterministic generator for request orders (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.9), 0.0);
    }

    #[test]
    fn bests_keep_each_smallest_value() {
        let samples = [(2, 5.0), (1, 3.0), (2, 4.0), (1, 6.0), (3, 9.0)];
        assert_eq!(best_per_key(&samples), vec![3.0, 4.0, 9.0]);
        let groups = best_of_groups(&[3.0, 1.0, 2.0, 5.0, 4.0], 2);
        assert_eq!(groups.len(), 2);
        assert!(groups.contains(&1.0));
        assert_eq!(best_of_groups(&[3.0, 1.0], 5), vec![1.0]);
        assert!(best_of_groups(&[], 3).is_empty());
    }

    #[test]
    fn rng_is_seeded() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        let mut x: Vec<u32> = (0..50).collect();
        let mut y = x.clone();
        a.shuffle(&mut x);
        b.shuffle(&mut y);
        assert_eq!(x, y);
        assert_ne!(x, (0..50).collect::<Vec<_>>());
    }
}
