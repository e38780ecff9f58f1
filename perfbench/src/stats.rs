//! Order statistics and the latency arithmetic the serve workload uses.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; with fewer, one outlier would decide the number.
pub const MIN_TAIL: usize = 10;

/// Median of `xs` (`None` when empty). NaNs sort last.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Smallest of `xs` (`None` when empty): the repeat least slowed by
/// whatever else shares the host.
pub fn fastest(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().min_by(f64::total_cmp)
}

/// Arithmetic mean (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Nearest-rank `p`-th percentile (`0 < p < 100`), or `None` unless at
/// least [`MIN_TAIL`] samples lie strictly beyond its rank.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    if n == 0 || !(p > 0.0 && p < 100.0) {
        return None;
    }
    let rank = rank(p, n);
    if n - rank < MIN_TAIL {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64).ceil().max(1.0) as usize
}

/// Samples needed before [`tail_percentile`] reports `p` (`0 < p < 100`).
pub fn samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| n >= rank(p, n) + MIN_TAIL)
        .unwrap_or(usize::MAX)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// One open-loop request's clock readings, in seconds on the
/// generator's clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the schedule said the request should go out.
    pub due: f64,
    /// When the generator actually wrote it.
    pub sent: f64,
    /// When its terminal response was read.
    pub done: f64,
}

impl Timing {
    /// Client-observed latency in ms, counted from when the request was
    /// due: a stall that delays later sends is charged to those requests
    /// instead of vanishing from the record.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the generator sent the request, in ms.
    pub fn lag_ms(&self) -> f64 {
        (self.sent - self.due).max(0.0) * 1e3
    }
}

/// FNV-1a 64 over a byte stream: the decision fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one decision: the probability's bits and the binary call.
    pub fn decision(&mut self, proba: f32, is_match: bool) {
        self.write(&proba.to_bits().to_le_bytes());
        self.write(&[u8::from(is_match)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 99.0), Some(990.0));
        assert_eq!(tail_percentile(&xs[..999], 99.0), None);
        assert_eq!(samples_for(99.0), 1000);
        assert_eq!(samples_for(90.0), 100);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(tail_percentile(&hundred, 95.0), None);
        assert_eq!(tail_percentile(&hundred, 50.0), Some(50.0));
    }

    #[test]
    fn due_time_latency_charges_a_stall_to_the_requests_behind_it() {
        // Requests due every 10 ms; the service answers in 1 ms, except
        // that it stalls for 100 ms after the first request. A
        // one-outstanding connection therefore sends requests 2 and 3 late.
        let service = [101.0, 1.0, 1.0];
        let mut free_at: f64 = 0.0;
        let mut timings = Vec::new();
        for (k, &busy) in service.iter().enumerate() {
            let due = k as f64 * 10.0 / 1e3;
            let sent = due.max(free_at);
            let done = sent + busy / 1e3;
            free_at = done;
            timings.push(Timing { due, sent, done });
        }
        let lat: Vec<f64> = timings.iter().map(Timing::latency_ms).collect();
        // From-send timing would read 1 ms for the two delayed requests.
        assert!((lat[1] - 92.0).abs() < 1e-9, "{lat:?}");
        assert!((lat[2] - 83.0).abs() < 1e-9, "{lat:?}");
        assert!((timings[1].lag_ms() - 91.0).abs() < 1e-9);
        assert_eq!(timings[0].lag_ms(), 0.0);
    }

    #[test]
    fn fingerprint_moves_with_any_decision_bit() {
        let mut a = Fnv::default();
        let mut b = Fnv::default();
        a.decision(0.25, false);
        b.decision(0.25, false);
        assert_eq!(a.0, b.0);
        b.decision(f32::from_bits(0.25f32.to_bits() + 1), false);
        a.decision(0.25, false);
        assert_ne!(a.0, b.0);
    }
}
