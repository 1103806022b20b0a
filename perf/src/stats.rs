//! Latency bookkeeping: the timed phase is cut into [`ROUNDS`] equal
//! rounds, every timing metric is the median over rounds of the per-round
//! statistic, and the min–max over rounds rides along as the spread.

use std::time::{Duration, Instant};

/// Rounds the timed phase is cut into.
pub const ROUNDS: usize = 5;

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=1).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

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

/// A per-round statistic reduced over rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Spread {
    pub fn of(values: &[f64]) -> Spread {
        Spread {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// A value that has no rounds (a count, a single span).
    pub fn exact(value: f64) -> Spread {
        Spread {
            median: value,
            min: value,
            max: value,
        }
    }

    pub fn scaled(self, factor: f64) -> Spread {
        Spread {
            median: self.median * factor,
            min: self.min * factor,
            max: self.max * factor,
        }
    }
}

/// One closed-loop client's record of the timed phase. Rounds close on the
/// first operation that *finishes* past the round's nominal end and are
/// charged their actual duration, so a round's throughput is not quantized
/// by operations straddling the boundary.
pub struct Recorder {
    start: Instant,
    end: Instant,
    slice: Duration,
    round_start: Instant,
    current: Vec<u64>,
    /// Closed rounds: latencies (ns) and actual duration.
    rounds: Vec<(Vec<u64>, Duration)>,
}

impl Recorder {
    pub fn new(start: Instant, seconds: f64) -> Recorder {
        let total = Duration::from_secs_f64(seconds);
        Recorder {
            start,
            end: start + total,
            slice: total / ROUNDS as u32,
            round_start: start,
            current: Vec::new(),
            rounds: Vec::with_capacity(ROUNDS),
        }
    }

    /// Checked before each operation: the timed phase is over.
    pub fn done(&self) -> bool {
        self.rounds.len() >= ROUNDS || Instant::now() >= self.end
    }

    /// True for the first operation of each round (full-hash check).
    pub fn first_of_round(&self) -> bool {
        self.current.is_empty()
    }

    pub fn record(&mut self, op_start: Instant, op_end: Instant) {
        self.current
            .push(u64::try_from((op_end - op_start).as_nanos()).unwrap_or(u64::MAX));
        let nominal_end = self.start + self.slice * (self.rounds.len() as u32 + 1);
        if op_end >= nominal_end {
            self.close(op_end);
        }
    }

    fn close(&mut self, at: Instant) {
        let latencies = std::mem::take(&mut self.current);
        self.rounds.push((latencies, at - self.round_start));
        self.round_start = at;
    }

    /// Close a trailing partial round (the deadline fell between two ops).
    pub fn finish(mut self) -> Vec<(Vec<u64>, Duration)> {
        if !self.current.is_empty() {
            self.close(Instant::now());
        }
        self.rounds
    }
}

/// The merged record of all clients.
pub struct Timed {
    /// Per round: all clients' latencies, ascending.
    latencies: Vec<Vec<u64>>,
    /// Per round: summed per-client throughput (ops/s).
    throughput: Vec<f64>,
}

impl Timed {
    pub fn merge(clients: Vec<Vec<(Vec<u64>, Duration)>>) -> Timed {
        let rounds = clients.iter().map(Vec::len).max().unwrap_or(0);
        let mut latencies = vec![Vec::new(); rounds];
        let mut throughput = vec![0.0; rounds];
        for client in clients {
            for (r, (lat, dur)) in client.into_iter().enumerate() {
                throughput[r] += lat.len() as f64 / dur.as_secs_f64().max(1e-9);
                latencies[r].extend(lat);
            }
        }
        for lat in &mut latencies {
            lat.sort_unstable();
        }
        Timed {
            latencies,
            throughput,
        }
    }

    pub fn ops(&self) -> u64 {
        self.latencies.iter().map(|l| l.len() as u64).sum()
    }

    pub fn ops_per_s(&self) -> Spread {
        Spread::of(&self.throughput)
    }

    /// Operations per second of *busy* time (the sum of the operations'
    /// own latencies), for a client that idles between operations.
    pub fn ops_per_busy_s(&self) -> Spread {
        let per_round: Vec<f64> = self
            .latencies
            .iter()
            .filter(|l| !l.is_empty())
            .map(|l| l.len() as f64 / (l.iter().sum::<u64>() as f64 / 1e9).max(1e-9))
            .collect();
        Spread::of(&per_round)
    }

    /// Median over rounds of the per-round percentile, in microseconds.
    pub fn percentile_us(&self, p: f64) -> Spread {
        let per_round: Vec<f64> = self
            .latencies
            .iter()
            .filter(|l| !l.is_empty())
            .map(|l| percentile(l, p) as f64 / 1e3)
            .collect();
        Spread::of(&per_round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 51);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn recorder_closes_rounds_on_completion() {
        let start = Instant::now();
        let mut rec = Recorder::new(start, 5.0);
        // Ops of 0.6 s: rounds close at 1.2, 2.4, 3.0(+), ...
        let mut t = start;
        for _ in 0..9 {
            let end = t + Duration::from_millis(600);
            rec.record(t, end);
            t = end;
        }
        let rounds = rec.finish();
        assert_eq!(rounds.len(), 5);
        assert_eq!(rounds.iter().map(|(l, _)| l.len()).sum::<usize>(), 9);
        assert_eq!(rounds[0].1, Duration::from_millis(1200));
    }
}
