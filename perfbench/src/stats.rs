//! Order statistics and the seeded generator the job lists are drawn
//! from.

/// Nearest-rank percentile of `sorted` (ascending): the value at rank
/// `ceil(p/100 * n)`, clamped to `[1, n]`. `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(sorted[rank(p, n).clamp(1, n) - 1])
}

/// Nearest rank `ceil(p/100 * n)`, immune to `0.999 * 10000` rounding up
/// past an exact integer.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil() as usize
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0).unwrap_or(0.0)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The percentiles a tail latency is reported at, highest first.
pub const TAIL_LADDER: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// `beyond` of `n` samples above its nearest rank (`None` when even the
/// median does not).
///
/// A workload passes its *guaranteed* sample count here, so one workload
/// always reports the same percentile, however many more samples a fast
/// run collects: a slower program cannot turn a p95 into a kinder p90.
pub fn tail_percentile(n: usize, beyond: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| {
        let r = rank(p, n);
        r >= 1 && n >= r + beyond
    })
}

/// A latency sample's median and tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub p50: f64,
    /// The tail percentile ([`tail_percentile`] of the guaranteed count).
    pub tail_p: f64,
    pub tail: f64,
    pub n: usize,
    /// Samples above the tail value.
    pub beyond: usize,
}

impl Latency {
    /// Summarise `samples`, of which the workload guarantees at least
    /// `guaranteed` (it must leave ten beyond the median).
    pub fn new(samples: &[f64], guaranteed: usize) -> Latency {
        let s = sorted(samples);
        let tail_p = tail_percentile(guaranteed, 10).expect("workload guarantees 20+ samples");
        let tail = percentile(&s, tail_p).unwrap_or(0.0);
        Latency {
            p50: percentile(&s, 50.0).unwrap_or(0.0),
            tail_p,
            tail,
            n: s.len(),
            beyond: s.iter().filter(|&&x| x > tail).count(),
        }
    }

    /// Summarise a job list run `reps` times over: `groups[j]` holds job
    /// `j`'s walls, one per repeat (at least `reps` of them). At each
    /// percentile the value is the mean over jobs of that job's own
    /// nearest-rank percentile across its repeats. A percentile of the
    /// pooled walls would fall on the boundary between two jobs' walls
    /// and jump from one job to the other; this one stays inside every
    /// job's own spread. The tail leaves at least one repeat of every job
    /// beyond it, so `groups.len()` samples in all.
    pub fn per_job(groups: &[Vec<f64>], reps: usize) -> Latency {
        let tail_p = tail_percentile(reps, 1).expect("every job repeats at least twice");
        let (mut p50, mut tail, mut n, mut beyond) = (0.0, 0.0, 0, 0);
        for g in groups {
            let s = sorted(g);
            let t = percentile(&s, tail_p).unwrap_or(0.0);
            p50 += percentile(&s, 50.0).unwrap_or(0.0);
            tail += t;
            n += s.len();
            beyond += s.iter().filter(|&&x| x > t).count();
        }
        let jobs = groups.len().max(1) as f64;
        Latency {
            p50: p50 / jobs,
            tail_p,
            tail: tail / jobs,
            n,
            beyond,
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "p50 {:.3} ms, tail p{} {:.3} ms ({} of n={} beyond)",
            self.p50, self.tail_p, self.tail, self.beyond, self.n
        )
    }
}

/// Split `0..n` into the most consecutive, near-equal windows that each
/// hold at least `min` items (one window when `n < 2 * min`).
pub fn windows(n: usize, min: usize) -> Vec<std::ops::Range<usize>> {
    let w = (n / min.max(1)).max(1);
    (0..w).map(|k| k * n / w..(k + 1) * n / w).collect()
}

/// Geometric mean of positive values (0 when there are none).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// SplitMix64: a tiny, well-mixed seeded generator, so the job lists
/// depend on nothing but the workload seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 51.0), Some(6.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1_000, 10), Some(99.0));
        assert_eq!(tail_percentile(10_000, 10), Some(99.9));
        assert_eq!(tail_percentile(9_999, 10), Some(99.0));
        assert_eq!(tail_percentile(200, 10), Some(95.0));
        assert_eq!(tail_percentile(199, 10), Some(90.0));
        assert_eq!(tail_percentile(50, 10), Some(80.0));
        assert_eq!(tail_percentile(20, 10), Some(50.0));
        assert_eq!(tail_percentile(19, 10), None);
        // At the selected percentile at least ten samples lie beyond.
        for n in 20..3_000 {
            let v: Vec<f64> = (1..=n).map(|x| x as f64).collect();
            let p = tail_percentile(n, 10).unwrap();
            let x = percentile(&v, p).unwrap();
            assert!(v.iter().filter(|&&s| s > x).count() >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn per_job_latency_stays_inside_each_job() {
        // Two jobs, ten repeats each, far apart: the pooled median would
        // be one of the slow job's walls; the per-job one is their mean.
        let fast: Vec<f64> = (1..=10).map(f64::from).collect();
        let slow: Vec<f64> = (101..=110).map(f64::from).collect();
        let lat = Latency::per_job(&[fast, slow], 10);
        assert_eq!(lat.tail_p, 90.0);
        assert_eq!(lat.p50, (5.0 + 105.0) / 2.0);
        assert_eq!(lat.tail, (9.0 + 109.0) / 2.0);
        assert_eq!((lat.n, lat.beyond), (20, 2));
        // Two repeats (the fewest a run makes) still give a tail.
        let lat = Latency::per_job(&[vec![2.0, 1.0], vec![4.0, 3.0]], 2);
        assert_eq!((lat.tail_p, lat.p50, lat.tail), (50.0, 2.0, 2.0));
    }

    #[test]
    fn windows_cover_every_item_and_hold_the_minimum() {
        assert_eq!(windows(10, 4), vec![0..5, 5..10]);
        assert_eq!(windows(3, 4), vec![0..3]);
        for n in 1_000..5_000 {
            let w = windows(n, 1_000);
            assert_eq!(w.len(), n / 1_000);
            assert_eq!((w[0].start, w.last().unwrap().end), (0, n));
            assert!(w.windows(2).all(|p| p[0].end == p[1].start));
            assert!(w.iter().all(|r| r.len() >= 1_000), "n={n}");
        }
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(1), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .scan(Rng::new(2), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
