//! Shared timing for the `bench_*` binaries; the Criterion experiments
//! live in `benches/`.

use std::time::Instant;

/// Median wall time in milliseconds of each closure over `rounds`
/// rounds that run the closures in alternation, after one untimed
/// warm-up call each. Interleaving puts every compared configuration
/// through the same stretches of host speed, and the median ignores the
/// rare stretch that is unusually fast or slow for one of them, so
/// ratios hold steady on hosts whose speed drifts over seconds.
pub fn median_interleaved(rounds: usize, fs: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    for f in fs.iter_mut() {
        f();
    }
    let mut samples = vec![Vec::with_capacity(rounds); fs.len()];
    for _ in 0..rounds.max(1) {
        for (f, times) in fs.iter_mut().zip(&mut samples) {
            let t0 = Instant::now();
            f();
            times.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    samples
        .into_iter()
        .map(|mut times| {
            times.sort_by(f64::total_cmp);
            times[times.len() / 2]
        })
        .collect()
}
