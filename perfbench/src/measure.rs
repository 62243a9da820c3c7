//! The benchmark's own arithmetic: quantiles, due-time latency, the
//! per-query-type latency split, and the `/proc/self` readers behind
//! `cpu_us_per_q` and `peak_rss_mb`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`);
/// 0.0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `values` and takes its `q` quantile.
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, q)
}

/// Median over consecutive windows of the per-window `q` quantile.
/// `samples` are `(time, value)` pairs in any order; windows are
/// `window` long, start at time 0, and a window contributes only when it
/// holds at least `min_samples`. A stall that hits one window moves one
/// window's quantile, not the reported figure.
pub fn windowed_quantile(samples: &[(f64, f64)], window: f64, q: f64, min_samples: usize) -> f64 {
    let mut buckets: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(t, v) in samples {
        buckets
            .entry((t / window).max(0.0) as u64)
            .or_default()
            .push(v);
    }
    let per_window: Vec<f64> = buckets
        .values()
        .filter(|b| b.len() >= min_samples)
        .map(|b| quantile_of(b, q))
        .collect();
    quantile_of(&per_window, 0.5)
}

/// `num / den`, or 0.0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Microseconds in `d`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Latency of an open-loop request, measured from the time it was
/// *due* to be sent, not from when the generator got round to sending
/// it: a stalled sender delays every later request, and that wait is
/// part of what a user on the schedule sees. Both instants are offsets
/// from the run's epoch.
pub fn due_latency_us(due: Duration, received: Duration) -> f64 {
    us(received.saturating_sub(due))
}

/// How late the generator sent a request relative to its due time.
pub fn lag_us(due: Duration, sent: Duration) -> f64 {
    us(sent.saturating_sub(due))
}

/// The paper's three query types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QType {
    /// `//a/b/c` partial-matching path.
    Q1,
    /// `//a//b` ancestor/descendant pair.
    Q2,
    /// `//a/b[text() = v]` value path.
    Q3,
}

impl QType {
    /// Dense index, for per-type arrays.
    pub fn idx(self) -> usize {
        match self {
            QType::Q1 => 0,
            QType::Q2 => 1,
            QType::Q3 => 2,
        }
    }
}

/// Latency samples split by query type.
#[derive(Debug, Default, Clone)]
pub struct TypeSplit {
    samples: [Vec<f64>; 3],
}

impl TypeSplit {
    /// Records one latency (µs) of a `t` query.
    pub fn push(&mut self, t: QType, latency_us: f64) {
        self.samples[t.idx()].push(latency_us);
    }

    /// Folds another split into this one.
    pub fn merge(&mut self, other: TypeSplit) {
        for (a, b) in self.samples.iter_mut().zip(other.samples) {
            a.extend(b);
        }
    }

    /// Every sample, all types together.
    pub fn all(&self) -> Vec<f64> {
        self.samples.iter().flatten().copied().collect()
    }

    /// Median latency of `t` queries (0.0 when none ran).
    pub fn p50(&self, t: QType) -> f64 {
        quantile_of(&self.samples[t.idx()], 0.5)
    }

    /// Share of the summed latency spent in `t` queries.
    pub fn share(&self, t: QType) -> f64 {
        let total: f64 = self.samples.iter().flatten().sum();
        ratio(self.samples[t.idx()].iter().sum(), total)
    }
}

/// On-CPU nanoseconds from the text of a `schedstat` file: its first
/// field, the scheduler's exact run time. The CPU times in
/// `/proc/<pid>/stat` are charged a whole timer tick at a time on
/// kernels built with tick accounting, which is far too coarse for
/// server threads that run in bursts of tens of microseconds.
pub fn parse_schedstat_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// A `kB` line (`VmHWM`, `VmRSS`, …) of `/proc/<pid>/status`, in KiB.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

fn schedstat_ns(path: &std::path::Path) -> Option<u64> {
    parse_schedstat_ns(&std::fs::read_to_string(path).ok()?)
}

/// On-CPU time of the calling thread so far, in seconds.
pub fn thread_cpu_s() -> f64 {
    schedstat_ns("/proc/thread-self/schedstat".as_ref()).map_or(0.0, |ns| ns as f64 / 1e9)
}

/// On-CPU nanoseconds of every live thread of the process, by thread id.
fn threads_cpu_ns() -> BTreeMap<u64, u64> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return BTreeMap::new();
    };
    dir.filter_map(|e| {
        let e = e.ok()?;
        let tid = e.file_name().to_str()?.parse().ok()?;
        Some((tid, schedstat_ns(&e.path().join("schedstat"))?))
    })
    .collect()
}

/// CPU seconds spent between two [`threads_cpu_ns`] snapshots by the
/// threads alive at the second. A thread born in between counts from
/// zero; a thread that exited in between is not counted.
pub fn cpu_between(before: &BTreeMap<u64, u64>, after: &BTreeMap<u64, u64>) -> f64 {
    let ns: u64 = after
        .iter()
        .map(|(tid, &now)| match before.get(tid) {
            Some(&then) if then <= now => now - then,
            _ => now,
        })
        .sum();
    ns as f64 / 1e9
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kib(&s, "VmHWM"))
        .map_or(0.0, |k| k as f64 / 1024.0)
}

/// Wall time of one measured phase, and the CPU time its long-lived
/// threads spent: threads started and finished inside the phase (load
/// generator threads) are not counted.
pub struct Meter {
    wall: Instant,
    threads: BTreeMap<u64, u64>,
}

impl Meter {
    /// Starts measuring now.
    pub fn start() -> Meter {
        Meter {
            wall: Instant::now(),
            threads: threads_cpu_ns(),
        }
    }

    /// `(wall seconds, CPU seconds of the threads alive now)` since
    /// [`Meter::start`].
    pub fn stop(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        (wall, cpu_between(&self.threads, &threads_cpu_ns()))
    }
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed` so the same seed always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
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

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 0.99), 4.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile_of(&[9.0, 1.0, 5.0], 0.5), 5.0);
    }

    #[test]
    fn windowed_quantile_takes_the_median_window() {
        // Three 1 s windows; the middle one holds a stall.
        let mut s = Vec::new();
        for w in 0..3 {
            for i in 0..100 {
                let v = if w == 1 { 10_000.0 } else { i as f64 };
                s.push((w as f64 + i as f64 / 100.0, v));
            }
        }
        assert_eq!(windowed_quantile(&s, 1.0, 0.99, 50), 98.0);
        // Windows with too few samples are left out.
        s.push((7.5, 1e9));
        assert_eq!(windowed_quantile(&s, 1.0, 0.99, 50), 98.0);
        assert_eq!(windowed_quantile(&[], 1.0, 0.99, 1), 0.0);
    }

    #[test]
    fn due_time_latency_counts_the_senders_own_delay() {
        let due = Duration::from_micros(1_000);
        // Sent 300 µs late, answered 50 µs after the send.
        let sent = Duration::from_micros(1_300);
        let received = Duration::from_micros(1_350);
        assert_eq!(due_latency_us(due, received), 350.0);
        assert_eq!(lag_us(due, sent), 300.0);
        // A send ahead of schedule is zero lag, never negative.
        assert_eq!(lag_us(due, Duration::from_micros(900)), 0.0);
        assert_eq!(due_latency_us(due, Duration::from_micros(900)), 0.0);
    }

    #[test]
    fn type_split_keeps_types_apart() {
        let mut a = TypeSplit::default();
        a.push(QType::Q1, 1.0);
        a.push(QType::Q1, 3.0);
        a.push(QType::Q1, 2.0);
        a.push(QType::Q2, 100.0);
        let mut b = TypeSplit::default();
        b.push(QType::Q3, 10.0);
        b.push(QType::Q2, 200.0);
        a.merge(b);
        assert_eq!(a.p50(QType::Q1), 2.0);
        assert_eq!(a.p50(QType::Q2), 100.0);
        assert_eq!(a.p50(QType::Q3), 10.0);
        assert_eq!(a.all().len(), 6);
        // 300 of the 316 µs summed went to QTYPE2.
        assert!((a.share(QType::Q2) - 300.0 / 316.0).abs() < 1e-12);
        assert_eq!(TypeSplit::default().share(QType::Q1), 0.0);
        assert_eq!(TypeSplit::default().p50(QType::Q3), 0.0);
    }

    #[test]
    fn schedstat_parser_reads_run_time() {
        assert_eq!(parse_schedstat_ns("1042354 77 12\n"), Some(1_042_354));
        assert_eq!(parse_schedstat_ns("0 0 1"), Some(0));
        assert_eq!(parse_schedstat_ns(""), None);
        assert_eq!(parse_schedstat_ns("x 1 2"), None);
    }

    #[test]
    fn cpu_between_counts_live_threads_once() {
        let before = BTreeMap::from([(1, 1_000), (2, 5_000), (3, 7_000)]);
        // Thread 2 ran 2 µs more, thread 3 exited, thread 4 was born and
        // ran 3 µs, and thread 1's id now belongs to a new thread that
        // has run 400 ns.
        let after = BTreeMap::from([(1, 400), (2, 7_000), (4, 3_000)]);
        let s = cpu_between(&before, &after);
        assert!((s - 5_400e-9).abs() < 1e-15, "{s}");
    }

    #[test]
    fn status_parser_reads_kib_lines() {
        let status = "Name:\tperf\nVmPeak:\t  20000 kB\nVmHWM:\t   12288 kB\nVmRSS:\t    8000 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(12288));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(8000));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
        // `VmHWM` must not match a longer key that starts the same way.
        assert_eq!(parse_status_kib("VmHWMx:\t5 kB\n", "VmHWM"), None);
    }

    #[test]
    fn live_proc_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.0);
        let meter = Meter::start();
        let t0 = thread_cpu_s();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(
            thread_cpu_s() > t0,
            "a busy loop must be charged to its thread"
        );
        assert!(meter.stop().1 > 0.0, "and to the process");
    }

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c = Rng::new(7, 2).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
        let mut v: Vec<u32> = (0..50).collect();
        Rng::new(3, 0).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
