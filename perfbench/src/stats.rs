//! The benchmark's arithmetic: percentiles that count failures as
//! missing, the tail percentile a sample supports, failure ratios,
//! histogram quantiles, and the attribution of a whole to its layers.

/// Latencies of one measured phase. Failed or refused operations have no
/// latency; they count as missing, which sorts them above every latency.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    ok_ms: Vec<f64>,
    missing: usize,
    sorted: bool,
}

/// The percentiles the tail is chosen from, highest first.
pub const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

impl Latencies {
    /// Record one successful operation.
    pub fn push_ms(&mut self, ms: f64) {
        self.ok_ms.push(ms);
        self.sorted = false;
    }

    /// Record one failed or refused operation.
    pub fn push_missing(&mut self) {
        self.missing += 1;
    }

    /// Fold another phase's samples into this one.
    pub fn extend(&mut self, other: &Latencies) {
        self.ok_ms.extend_from_slice(&other.ok_ms);
        self.missing += other.missing;
        self.sorted = false;
    }

    /// All samples, missing ones included.
    pub fn len(&self) -> usize {
        self.ok_ms.len() + self.missing
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ok_ms.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile `p` (0 < p ≤ 100). `None` when the rank
    /// lands on a missing sample or there are no samples.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        let n = self.len();
        if n == 0 {
            return None;
        }
        self.sort();
        let rank = rank_of(p, n);
        self.ok_ms.get(rank - 1).copied()
    }

    /// The highest percentile of [`TAIL_LADDER`] with at least
    /// [`MIN_BEYOND`] samples above its rank, with that count.
    pub fn tail(&mut self) -> Option<Tail> {
        let n = self.len();
        let pct = TAIL_LADDER.into_iter().find(|&p| n - rank_of(p, n) >= MIN_BEYOND)?;
        Some(Tail { pct, value_ms: self.percentile(pct), beyond: n - rank_of(pct, n), n })
    }

    /// Mean of the successful samples (0 when there are none).
    pub fn mean_ms(&self) -> f64 {
        self.ok_ms.iter().sum::<f64>() / self.ok_ms.len().max(1) as f64
    }

    /// Whether percentile `p` has at least [`MIN_BEYOND`] samples beyond it.
    pub fn supports(&self, p: f64) -> bool {
        let n = self.len();
        n > 0 && n - rank_of(p, n) >= MIN_BEYOND
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples. The
/// tolerance keeps `99.9% of 10 000` at rank 9990 despite rounding.
fn rank_of(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The tail percentile a sample supports.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// Which percentile, e.g. `99.0`.
    pub pct: f64,
    /// Its value; `None` when it lands on a failed request.
    pub value_ms: Option<f64>,
    /// Samples above its rank.
    pub beyond: usize,
    /// All samples, failed ones included.
    pub n: usize,
}

/// Failed operations over operations attempted (0 when none were).
pub fn fail_ratio(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Median of `values` (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quantile `q` of a cumulative histogram given as `(upper bound,
/// cumulative count)` pairs in increasing order, interpolating linearly
/// inside the bucket that holds the rank. `None` for an empty histogram.
pub fn histogram_quantile(buckets: &[(f64, u64)], q: f64) -> Option<f64> {
    let total = buckets.last()?.1;
    if total == 0 {
        return None;
    }
    let rank = (q * total as f64).max(1.0);
    let (mut lo, mut below) = (0.0, 0u64);
    for &(le, cum) in buckets {
        if cum as f64 >= rank {
            if !le.is_finite() {
                return Some(lo);
            }
            let inside = (cum - below) as f64;
            return Some(lo + (le - lo) * (rank - below as f64) / inside);
        }
        (lo, below) = (le, cum);
    }
    None
}

/// One measured window of a run.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Operations answered.
    pub answered: u64,
    /// Queries answered.
    pub queries: u64,
    /// Latencies of every operation, failed ones as missing.
    pub lat: Latencies,
    /// Window length, seconds.
    pub secs: f64,
    /// Program CPU time in the window, seconds.
    pub cpu_s: f64,
    /// Share of the machine's CPU time the hypervisor stole in the window.
    pub steal: f64,
}

/// The half of `windows` (rounded up) during which the hypervisor stole
/// the least CPU time. Steal is a property of the host, not of the
/// program, so the program's own slow windows stay in the sample.
pub fn quietest_half(mut windows: Vec<Window>) -> (Vec<Window>, Vec<Window>) {
    windows.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let dropped = windows.split_off(windows.len().div_ceil(2));
    (windows, dropped)
}

/// A whole split into the parts the layer metrics explain; what they
/// leave is reported as unattributed rather than hidden.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// The end-to-end quantity being explained.
    pub whole: f64,
    /// Layer self times (same unit as `whole`).
    pub parts: Vec<(&'static str, f64)>,
}

impl Attribution {
    /// What the parts leave unexplained (negative when they overlap).
    pub fn unattributed(&self) -> f64 {
        self.whole - self.parts.iter().map(|(_, v)| v).sum::<f64>()
    }

    /// [`unattributed`](Self::unattributed) as a share of the whole.
    pub fn unattributed_share(&self) -> f64 {
        if self.whole == 0.0 {
            0.0
        } else {
            self.unattributed() / self.whole
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat(ok: &[f64], missing: usize) -> Latencies {
        let mut l = Latencies::default();
        for &v in ok {
            l.push_ms(v);
        }
        for _ in 0..missing {
            l.push_missing();
        }
        l
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut l = lat(&(1..=100).map(f64::from).collect::<Vec<_>>(), 0);
        assert_eq!(l.percentile(50.0), Some(50.0));
        assert_eq!(l.percentile(99.0), Some(99.0));
        assert_eq!(l.percentile(100.0), Some(100.0));
        assert_eq!(lat(&[], 0).percentile(50.0), None);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99.9 has 1 beyond, p99 has exactly 10.
        let mut l = lat(&(1..=1000).map(f64::from).collect::<Vec<_>>(), 0);
        let t = l.tail().unwrap();
        assert_eq!((t.pct, t.beyond, t.n), (99.0, 10, 1000));
        assert_eq!(t.value_ms, Some(990.0));
        assert!(l.supports(99.0) && !l.supports(99.9));
        // 999 samples: p99 has 9 beyond, so the tail falls back to p90.
        let mut l = lat(&(1..=999).map(f64::from).collect::<Vec<_>>(), 0);
        assert_eq!(l.tail().unwrap().pct, 90.0);
        assert!(!l.supports(99.0));
        // 10 000 samples support p99.9.
        let mut l = lat(&vec![1.0; 10_000], 0);
        assert_eq!(l.tail().unwrap().pct, 99.9);
        // Too few samples for any percentile of the ladder.
        assert_eq!(lat(&[1.0; 5], 0).tail(), None);
    }

    #[test]
    fn failures_count_as_missing_in_percentiles() {
        // 90 fast successes and 10 failures: the failures occupy the top
        // ranks, so p90 is still a latency but p95 lands on a failure.
        let mut l = lat(&[1.0; 90], 10);
        assert_eq!(l.len(), 100);
        assert_eq!(l.percentile(90.0), Some(1.0));
        assert_eq!(l.percentile(95.0), None);
        // Missing samples count toward the ten beyond the tail.
        let mut l = lat(&vec![2.0; 990], 10);
        let t = l.tail().unwrap();
        assert_eq!((t.pct, t.beyond, t.value_ms), (99.0, 10, Some(2.0)));
    }

    #[test]
    fn refused_and_transport_failures_count_in_fail_ratio() {
        // 95 answered, 3 refused (429/503/504), 2 transport errors.
        let (attempted, refused, transport) = (100u64, 3u64, 2u64);
        assert_eq!(fail_ratio(attempted, refused + transport), 0.05);
        assert_eq!(fail_ratio(0, 0), 0.0);
        let mut l = lat(&[1.0; 95], (refused + transport) as usize);
        assert_eq!(l.percentile(95.0), Some(1.0));
        assert_eq!(l.percentile(96.0), None);
    }

    #[test]
    fn extend_merges_phases() {
        let mut a = lat(&[3.0, 1.0], 1);
        a.extend(&lat(&[2.0], 0));
        assert_eq!(a.len(), 4);
        assert_eq!(a.percentile(50.0), Some(2.0));
        assert_eq!(a.percentile(100.0), None);
        assert_eq!(a.mean_ms(), 2.0, "the mean skips missing samples");
    }

    #[test]
    fn quietest_half_keeps_the_least_stolen_windows() {
        let w = |steal: f64, answered: u64| Window { steal, answered, ..Window::default() };
        let windows = vec![w(0.3, 1), w(0.01, 2), w(0.2, 3), w(0.0, 4), w(0.5, 5)];
        let (kept, dropped) = quietest_half(windows);
        let answered: Vec<u64> = kept.iter().map(|w| w.answered).collect();
        assert_eq!(answered, vec![4, 2, 3], "odd counts keep the larger half");
        assert_eq!(dropped.len(), 2);
        assert!(dropped.iter().all(|d| kept.iter().all(|k| k.steal <= d.steal)));
        let (kept, dropped) = quietest_half(vec![w(0.0, 1)]);
        assert_eq!((kept.len(), dropped.len()), (1, 0));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn histogram_quantile_interpolates_inside_bucket() {
        // 10 samples ≤ 1, 10 in (1, 2], 20 in (2, 4].
        let b = [(1.0, 10), (2.0, 20), (4.0, 40), (f64::INFINITY, 40)];
        assert_eq!(histogram_quantile(&b, 0.25), Some(1.0));
        assert_eq!(histogram_quantile(&b, 0.5), Some(2.0));
        assert_eq!(histogram_quantile(&b, 0.75), Some(3.0));
        assert_eq!(histogram_quantile(&[(1.0, 0)], 0.5), None);
        // A rank in the +Inf bucket reports the last finite bound.
        assert_eq!(histogram_quantile(&[(1.0, 1), (f64::INFINITY, 4)], 0.9), Some(1.0));
    }

    #[test]
    fn self_times_and_unattributed_add_up_to_the_whole() {
        let a = Attribution { whole: 10.0, parts: vec![("model", 6.0), ("stack", 1.5)] };
        assert_eq!(a.unattributed(), 2.5);
        let sum: f64 = a.parts.iter().map(|p| p.1).sum::<f64>() + a.unattributed();
        assert_eq!(sum, a.whole);
        let shares: f64 =
            a.parts.iter().map(|p| p.1 / a.whole).sum::<f64>() + a.unattributed_share();
        assert!((shares - 1.0).abs() < 1e-12);
        // Overlapping parts show as a negative remainder, not a clamp.
        let over = Attribution { whole: 1.0, parts: vec![("a", 0.7), ("b", 0.5)] };
        assert!(over.unattributed_share() < 0.0);
        assert_eq!(Attribution::default().unattributed_share(), 0.0);
    }
}
