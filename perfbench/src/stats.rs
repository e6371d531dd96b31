//! Percentiles, the tail-percentile choice and generator lateness.

/// Percentiles `tail_ms` may report, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];
/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
pub fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len()) - 1]
}

/// The highest ladder percentile, capped at p99, that still leaves at least
/// [`TAIL_MIN_BEYOND`] of `n` samples above it; p50 when none does.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n - rank(p, n) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Requests per tail window: p99 of 1000 samples has exactly
/// [`TAIL_MIN_BEYOND`] beyond it.
pub const TAIL_WINDOW: usize = 1000;

/// The tail of latencies in send order, and the percentile it reports.
/// Runs of at least two windows report the median over consecutive
/// [`TAIL_WINDOW`]-request windows of each window's p99, so one host stall
/// that delays a burst of queued requests moves one window, not the run;
/// shorter runs report [`tail_percentile`] of all samples.
pub fn windowed_tail(latencies: &[f64]) -> (f64, f64) {
    let n = latencies.len();
    if n < 2 * TAIL_WINDOW {
        let p = tail_percentile(n);
        let mut all = latencies.to_vec();
        all.sort_by(f64::total_cmp);
        return (percentile(&all, p), p);
    }
    let tails: Vec<f64> = latencies
        .chunks_exact(TAIL_WINDOW)
        .map(|w| {
            let mut w = w.to_vec();
            w.sort_by(f64::total_cmp);
            percentile(&w, 99.0)
        })
        .collect();
    (median(&tails), 99.0)
}

/// Median of unsorted values (mean of the middle two for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// How late the generator sent a request, in seconds: the time between the
/// moment it could have sent (the later of the due time and the moment its
/// connection slot came free) and the moment it did. Waiting for a busy
/// slot is the system's doing and counts as latency, not lateness.
pub fn lateness(due: f64, slot_free: f64, sent: f64) -> f64 {
    (sent - due.max(slot_free)).max(0.0)
}

/// A request's latency, in seconds: from its due time to its last response
/// byte, less the generator's own lateness. Waiting for a busy slot stays
/// in; a late wake-up of the client thread does not.
pub fn latency(due: f64, slot_free: f64, sent: f64, done: f64) -> f64 {
    done - due - lateness(due, slot_free, sent)
}

/// Whether the generator kept its schedule: its p99 lateness stays below a
/// quarter of the latency limit (so lateness cannot decide a limit miss),
/// with a 1 ms floor for the scheduler's wake-up granularity.
pub fn schedule_kept(late_sorted: &[f64], limit_s: f64) -> bool {
    late_sorted.is_empty() || percentile(late_sorted, 99.0) <= (limit_s / 4.0).max(1e-3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(24_000), 99.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(180), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(3), 50.0);
        for n in [20usize, 100, 180, 999, 1000, 9000] {
            let p = tail_percentile(n);
            assert!(n - rank(p, n) >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn windowed_tail_takes_the_median_window() {
        // 3 windows; only the middle one has a slow burst.
        let mut lat = vec![1.0; 3000];
        for v in &mut lat[1000..1100] {
            *v = 50.0;
        }
        lat[2500] = 9.0;
        assert_eq!(windowed_tail(&lat), (1.0, 99.0));
        // Too short for windows: the ladder over all samples.
        let short: Vec<f64> = (1..=180).map(f64::from).collect();
        assert_eq!(windowed_tail(&short), (162.0, 90.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn lateness_excludes_waiting_for_a_busy_slot() {
        // Free early, woke 0.3 ms after the due time: 0.3 ms late.
        assert!((lateness(1.0, 0.5, 1.0003) - 0.0003).abs() < 1e-12);
        // Slot busy until after the due time: only the gap after it frees.
        assert!((lateness(1.0, 1.2, 1.2001) - 0.0001).abs() < 1e-12);
        // Sent on time.
        assert_eq!(lateness(1.0, 0.5, 1.0), 0.0);
    }

    #[test]
    fn latency_keeps_queueing_and_drops_lateness() {
        // Woke 0.3 ms late, answered 0.2 ms after sending: 0.2 ms.
        assert!((latency(1.0, 0.5, 1.0003, 1.0005) - 0.0002).abs() < 1e-12);
        // Slot busy until 1.2, sent at once, answered at 1.25: 0.25 ms
        // counted from the due time.
        assert!((latency(1.0, 1.2, 1.2, 1.25) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn schedule_validity_uses_a_quarter_of_the_limit() {
        let ok: Vec<f64> = vec![0.0001; 100];
        assert!(schedule_kept(&ok, 0.002));
        let mut late = vec![0.0001; 98];
        late.extend([0.004, 0.004]);
        assert!(!schedule_kept(&late, 0.002));
        assert!(
            schedule_kept(&late, 0.150),
            "4 ms late is fine for a 150 ms limit"
        );
    }
}
