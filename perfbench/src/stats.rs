//! Sample summaries and the clocks the workloads read.

use std::time::Instant;

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`);
/// `0.0` for an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the middle pair for even counts);
/// `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A growable set of duration samples, in microseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    us: Vec<f64>,
}

impl Samples {
    /// An empty set with room for `n` samples.
    pub fn with_capacity(n: usize) -> Samples {
        Samples {
            us: Vec::with_capacity(n),
        }
    }

    /// Records the time elapsed since `start`.
    pub fn since(&mut self, start: Instant) {
        self.us.push(start.elapsed().as_secs_f64() * 1e6);
    }

    /// Records one sample given in microseconds.
    pub fn push_us(&mut self, us: f64) {
        self.us.push(us);
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.us.extend_from_slice(&other.us);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.us.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.us.is_empty()
    }

    /// Sum of all samples, in seconds.
    pub fn busy_s(&self) -> f64 {
        self.us.iter().sum::<f64>() / 1e6
    }

    /// The raw samples in recording order.
    pub fn as_slice(&self) -> &[f64] {
        &self.us
    }

    /// The requested percentiles (`q` in `[0, 1]`), in microseconds.
    pub fn percentiles<const N: usize>(&self, qs: [f64; N]) -> [f64; N] {
        let mut sorted = self.us.clone();
        sorted.sort_by(f64::total_cmp);
        qs.map(|q| percentile_sorted(&sorted, q))
    }
}

/// A fixed piece of the benchmark's own work, timed between measured
/// calls to tell how fast the machine ran this process just then. The
/// program's code never runs in it, so a change to the program leaves its
/// time alone; it moves only with the machine's speed. Each kind is shaped
/// like the hot loop of the workload it calibrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// Entropy sums `-p·log2 p` over an array that stays in L1, like
    /// `query-sparse`'s selections. On the sizing VM, per-iteration
    /// `query-sparse` time tracked it with a correlation of 0.93.
    Entropy,
    /// Small keyed allocations and scatter-adds into a `BTreeMap`, like
    /// the request decoding, dispatch and encoding of `serve-sched`. On
    /// the sizing VM, per-iteration `serve-sched` time tracked it with a
    /// correlation of 0.99.
    Alloc,
    /// JSON-like records formatted into a growing `String`, like the
    /// whole-registry snapshots that take most of `serve-durable`'s time.
    /// On the sizing VM, per-iteration `serve-durable` time tracked it
    /// with a correlation of 0.90. Every workload's set-up (fusion and
    /// priors, or boot and `Open` decoding) is adjusted by it too; there
    /// the correlation was 0.98 on `query-sparse` and 0.77 on
    /// `refine-dense`.
    Serialize,
}

impl Reference {
    /// What one call takes at the speed the drift-adjusted metrics are
    /// expressed in: about its median on the 2-vCPU Xeon VM the
    /// benchmark was sized on.
    pub const fn nominal_s(self) -> f64 {
        match self {
            Reference::Entropy => 300e-6,
            Reference::Alloc => 200e-6,
            Reference::Serialize => 1.4e-3,
        }
    }

    /// Runs the work once; returns the seconds it took.
    pub fn run(self) -> f64 {
        let start = Instant::now();
        match self {
            Reference::Entropy => {
                let mut p = [0.0f64; 1024];
                for (i, x) in p.iter_mut().enumerate() {
                    *x = (i as f64 + 1.0) / 1025.0;
                }
                let mut h = 0.0;
                for _ in 0..40 {
                    for x in &p {
                        h -= x * x.log2();
                    }
                    std::hint::black_box(&mut p);
                }
                std::hint::black_box(h);
            }
            Reference::Alloc => {
                let mut groups = std::collections::BTreeMap::new();
                for j in 0..3000u64 {
                    let key = j.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 400;
                    groups.entry(key).or_insert_with(|| vec![0.0f64; 16])[(j % 16) as usize] +=
                        (j as f64).sqrt();
                }
                std::hint::black_box(&groups);
            }
            Reference::Serialize => {
                use std::fmt::Write as _;
                let mut out = String::new();
                for j in 0..8000u64 {
                    let p = (j as f64).sqrt() / 97.0;
                    let _ = write!(out, "{{\"id\":{j},\"p\":{p:?}}},");
                }
                std::hint::black_box(&out);
            }
        }
        start.elapsed().as_secs_f64()
    }
}

/// Reference calls after each dataset (offline) or `Open` batch (served)
/// of a set-up phase.
pub const SETUP_TICKS: usize = 2;

/// Reference calls interleaved with one timed phase: how long they took,
/// to be left out of the phase's wall time, and how much slower than
/// nominal the machine ran them.
#[derive(Debug, Clone, Copy)]
pub struct Drift {
    kind: Reference,
    calls: usize,
    spent_s: f64,
}

impl Drift {
    /// No calls yet.
    pub fn new(kind: Reference) -> Drift {
        Drift {
            kind,
            calls: 0,
            spent_s: 0.0,
        }
    }

    /// Makes one reference call.
    pub fn tick(&mut self) {
        self.spent_s += self.kind.run();
        self.calls += 1;
    }

    /// Seconds the calls took.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    /// Mean call time ÷ nominal: above 1 when the machine ran slow. `1.0`
    /// without calls.
    pub fn slowdown(&self) -> f64 {
        if self.calls == 0 {
            return 1.0;
        }
        self.spent_s / (self.calls as f64 * self.kind.nominal_s())
    }

    /// The phase these calls were interleaved with, from its wall time
    /// with the calls included.
    pub fn phase(&self, wall_s: f64) -> Phase {
        Phase {
            s: wall_s - self.spent_s,
            slowdown: self.slowdown(),
        }
    }
}

/// One timed phase of an iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Wall time, reference calls left out.
    pub s: f64,
    /// What the phase's drift-adjusted figures are divided by; 1 when it
    /// is not adjusted.
    pub slowdown: f64,
}

impl Phase {
    /// A phase that is not drift-adjusted.
    pub fn raw(s: f64) -> Phase {
        Phase { s, slowdown: 1.0 }
    }

    /// The drift-adjusted time.
    pub fn adjusted_s(&self) -> f64 {
        self.s / self.slowdown
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 0.5), 500.0);
        assert_eq!(percentile_sorted(&sorted, 0.99), 990.0);
        assert_eq!(percentile_sorted(&sorted, 0.999), 999.0);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn drift_without_calls_is_neutral() {
        let mut drift = Drift::new(Reference::Alloc);
        assert_eq!((drift.slowdown(), drift.spent_s()), (1.0, 0.0));
        drift.tick();
        assert!(drift.spent_s() > 0.0);
        let expected = drift.spent_s() / Reference::Alloc.nominal_s();
        assert_eq!(drift.slowdown(), expected);
        let phase = drift.phase(drift.spent_s() + 2.0);
        assert!((phase.adjusted_s() - 2.0 / expected).abs() < 1e-9 / expected);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
