//! Load generation helpers shared by the workloads: the run timeline, the
//! per-client latency recorder, window medians, set-up timing and the
//! process high-water RSS.

use std::time::{Duration, Instant};

/// How many equal windows a timed pass is cut into. Every reported
/// end-to-end figure is the median over these windows, so a short stall
/// caused by something else on the machine moves one window, not the
/// result.
pub const WINDOWS: usize = 20;

/// Transaction class: read-only or update, single- or cross-shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Class {
    /// T3/T4/T5 (read-only) rather than T1/T2 (update).
    pub read: bool,
    /// Touches more than one shard (fleet only).
    pub cross: bool,
}

impl Class {
    fn index(self) -> usize {
        usize::from(self.read) * 2 + usize::from(self.cross)
    }
}

/// Start, warm-up and measured interval of one pass.
#[derive(Clone, Copy, Debug)]
pub struct Timeline {
    start: Instant,
    warm: Duration,
    run: Duration,
}

impl Timeline {
    /// A pass that starts now: `warm` untimed, then `run` timed.
    pub fn start(warm: Duration, run: Duration) -> Timeline {
        Timeline { start: Instant::now(), warm, run }
    }

    /// No new transaction starts at or after this instant.
    pub fn deadline(&self) -> Instant {
        self.start + self.warm + self.run
    }

    fn window_of(&self, done: Instant) -> Option<usize> {
        let t = done.checked_duration_since(self.start + self.warm)?;
        if t >= self.run {
            return None;
        }
        let w = (t.as_secs_f64() / self.run.as_secs_f64() * WINDOWS as f64) as usize;
        Some(w.min(WINDOWS - 1))
    }

    fn window_secs(&self) -> f64 {
        self.run.as_secs_f64() / WINDOWS as f64
    }
}

/// Latencies of committed transactions, bucketed by window and class,
/// plus the attempted/failed counts of the whole pass (warm-up included).
#[derive(Clone, Debug)]
pub struct Recorder {
    /// `[window][class]` → latencies in nanoseconds.
    lat: Vec<[Vec<u32>; 4]>,
    /// Committed transactions per class over the whole pass.
    done: [u64; 4],
    /// Transactions that finished, committed or not.
    pub attempted: u64,
    /// Transactions that failed after their retry budget.
    pub failed: u64,
    /// First few failure messages, for the report.
    pub errors: Vec<String>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            lat: vec![Default::default(); WINDOWS],
            done: [0; 4],
            attempted: 0,
            failed: 0,
            errors: vec![],
        }
    }
}

impl Recorder {
    /// Record one finished transaction.
    pub fn record(
        &mut self,
        tl: &Timeline,
        done: Instant,
        latency: Duration,
        class: Class,
        result: Result<(), String>,
    ) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
            return;
        }
        self.done[class.index()] += 1;
        if let Some(w) = tl.window_of(done) {
            let ns = u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX);
            self.lat[w][class.index()].push(ns);
        }
    }

    /// Fold another client's records into this one.
    pub fn merge(&mut self, other: Recorder) {
        for (mine, theirs) in self.lat.iter_mut().zip(other.lat) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                m.extend(t);
            }
        }
        for (m, t) in self.done.iter_mut().zip(other.done) {
            *m += t;
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(5);
    }

    /// Committed transactions inside the timed interval.
    pub fn committed(&self, pick: impl Fn(Class) -> bool) -> u64 {
        self.lat
            .iter()
            .map(|w| (0..4).filter(|&i| pick(class_of(i))).map(|i| w[i].len() as u64).sum::<u64>())
            .sum()
    }

    /// Committed transactions over the whole pass, warm-up included.
    pub fn finished(&self, pick: impl Fn(Class) -> bool) -> u64 {
        (0..4).filter(|&i| pick(class_of(i))).map(|i| self.done[i]).sum()
    }

    /// Median over windows of the committed-per-second rate.
    pub fn throughput(&self, tl: &Timeline) -> f64 {
        let per_window: Vec<f64> = self
            .lat
            .iter()
            .map(|w| w.iter().map(Vec::len).sum::<usize>() as f64 / tl.window_secs())
            .collect();
        median(per_window)
    }

    /// Median over windows of the `q`-quantile latency (µs) of the
    /// classes `pick` selects. Windows without a sample are skipped; 0.0
    /// when no window has one.
    pub fn latency_us(&self, q: f64, pick: impl Fn(Class) -> bool) -> f64 {
        let per_window: Vec<f64> = self
            .lat
            .iter()
            .filter_map(|w| {
                let mut v: Vec<u32> = (0..4)
                    .filter(|&i| pick(class_of(i)))
                    .flat_map(|i| w[i].iter().copied())
                    .collect();
                quantile(&mut v, q).map(|ns| ns as f64 / 1e3)
            })
            .collect();
        median(per_window)
    }
}

fn class_of(i: usize) -> Class {
    Class { read: i >= 2, cross: i % 2 == 1 }
}

/// Nearest-rank quantile of `v` (sorted in place); `None` when empty.
pub fn quantile(v: &mut [u32], q: f64) -> Option<u32> {
    if v.is_empty() {
        return None;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Median of `v` (mean of the middle pair for even lengths); 0.0 if empty.
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Run `build` `reps` times, keeping the last result; returns it with the
/// median build time in seconds. Earlier results are dropped untimed.
pub fn timed_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let built = build();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    (last.expect("at least one set-up"), median(times))
}

/// Process high-water resident set size in MB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Run `clients` closed-loop client threads until the timeline's
/// deadline. `make(i)` builds client `i`'s transaction source; each call
/// of the source generates one transaction, runs it to completion and
/// returns when the call into the system began, the class and the
/// outcome. Latency is call → return, generation excluded.
pub fn closed_loop<S>(tl: &Timeline, clients: usize, make: impl Fn(usize) -> S + Sync) -> Recorder
where
    S: FnMut() -> (Instant, Class, Result<(), String>),
{
    let deadline = tl.deadline();
    let mut total = Recorder::default();
    let parts: Vec<Recorder> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let make = &make;
                scope.spawn(move || {
                    let mut next = make(i);
                    let mut rec = Recorder::default();
                    loop {
                        if Instant::now() >= deadline {
                            break rec;
                        }
                        let (t0, class, result) = next();
                        let t1 = Instant::now();
                        rec.record(tl, t1, t1 - t0, class, result);
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    for p in parts {
        total.merge(p);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50));
        assert_eq!(quantile(&mut v, 0.99), Some(99));
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(vec![]), 0.0);
    }
}
