//! Open-loop arrival schedules and their lateness accounting.
//!
//! Requests are due on a Poisson schedule fixed before the phase starts;
//! the submitter sends each at its due time whether or not earlier
//! requests have been answered. A request's latency runs from its due
//! time, so a stall is charged to every request that was due during it,
//! and the submitter's own lateness (sent - due) is reported apart.

use crate::rng::Rng;
use std::time::{Duration, Instant};

/// Due times, in seconds from the phase start, of a Poisson process at
/// `rate` per second over `duration_s` seconds.
pub fn poisson(rate: f64, duration_s: f64, rng: &mut Rng) -> Vec<f64> {
    assert!(rate > 0.0, "an arrival rate must be positive");
    let mut due = Vec::with_capacity((rate * duration_s * 1.1) as usize + 8);
    let mut t = rng.exponential(1.0 / rate);
    while t < duration_s {
        due.push(t);
        t += rng.exponential(1.0 / rate);
    }
    due
}

/// Timestamps of one open-loop request, in seconds from the phase start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Record {
    pub due: f64,
    pub sent: f64,
    pub done: f64,
}

impl Record {
    /// Latency as the client sees it: from the due time to the answer.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the generator sent the request.
    pub fn late_ms(&self) -> f64 {
        (self.sent - self.due).max(0.0) * 1e3
    }
}

/// Sleep until `due_s` after `start` (no spinning: the box's cores run the
/// program's kernels). Returns immediately when already past due.
pub fn sleep_until(start: Instant, due_s: f64) {
    let target = start + Duration::from_secs_f64(due_s);
    let now = Instant::now();
    if target > now {
        std::thread::sleep(target - now);
    }
}

/// True when the backlog grew over the phase: the mean latency of the
/// last quarter of requests (in due order) exceeds both twice that of the
/// first quarter and `limit_ms`.
pub fn backlog_growing(records: &[Record], limit_ms: f64) -> bool {
    let n = records.len();
    if n < 8 {
        return false;
    }
    let mean = |rs: &[Record]| rs.iter().map(Record::latency_ms).sum::<f64>() / rs.len() as f64;
    let first = mean(&records[..n / 4]);
    let last = mean(&records[n - n / 4..]);
    last > 2.0 * first && last > limit_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_sorted_and_at_rate() {
        let a = poisson(500.0, 4.0, &mut Rng::new(9));
        let b = poisson(500.0, 4.0, &mut Rng::new(9));
        assert_eq!(a, b);
        assert_ne!(a, poisson(500.0, 4.0, &mut Rng::new(10)));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..4.0).contains(&t)));
        let rate = a.len() as f64 / 4.0;
        assert!((rate - 500.0).abs() < 50.0, "rate {rate}");
    }

    #[test]
    fn latency_runs_from_due_time_and_lateness_apart() {
        // A stall of the generator shows as lateness and as latency, but a
        // request answered at once after a late send still counts its wait.
        let r = Record {
            due: 1.0,
            sent: 1.003,
            done: 1.004,
        };
        assert!((r.latency_ms() - 4.0).abs() < 1e-9);
        assert!((r.late_ms() - 3.0).abs() < 1e-9);
        let early = Record {
            due: 1.0,
            sent: 0.9995,
            done: 1.001,
        };
        assert_eq!(early.late_ms(), 0.0);
    }

    #[test]
    fn backlog_detection() {
        let steady: Vec<Record> = (0..100)
            .map(|i| {
                let due = i as f64 * 0.01;
                Record {
                    due,
                    sent: due,
                    done: due + 0.005,
                }
            })
            .collect();
        assert!(!backlog_growing(&steady, 50.0));
        // Service time 15 ms per request against a 10 ms arrival gap: each
        // request waits for all before it.
        let growing: Vec<Record> = (0..100)
            .map(|i| {
                let due = i as f64 * 0.01;
                Record {
                    due,
                    sent: due,
                    done: (i + 1) as f64 * 0.015,
                }
            })
            .collect();
        assert!(backlog_growing(&growing, 50.0));
    }

    #[test]
    fn sleep_until_past_due_returns_at_once() {
        let start = Instant::now() - Duration::from_secs(1);
        let t = Instant::now();
        sleep_until(start, 0.5);
        assert!(t.elapsed() < Duration::from_millis(50));
    }
}
