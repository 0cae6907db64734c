//! Summary statistics, host-noise screening, failure accounting and metric
//! naming.

use std::ops::Range;

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported: a p90 needs at least 100 samples, a p99 at least 1000.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile of `samples` (any order): the smallest sample
/// such that at least `p` percent of all samples are at or below it.
///
/// Returns `None` for an empty sample and, above the median, when fewer than
/// [`MIN_TAIL`] samples lie beyond the rank — such a tail is one or two
/// outliers, not a percentile.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    // Multiply before dividing so whole-percent ranks stay exact.
    let rank = ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n);
    if p > 50.0 && n - rank < MIN_TAIL {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Nearest-rank median (`None` only for an empty sample).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Arithmetic mean (`0` for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or `0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Equal slices the timed rounds are cut into for host-noise screening.
pub const SLICES: usize = 10;

/// The slices of `n` rounds the timing figures use.  The rounds are cut
/// into `slices` equal consecutive runs; a slice is kept when the host
/// stole no more CPU ticks during it than during the median slice, so at
/// least half the slices stay and a run the host left alone keeps them
/// all.  `steal_after[i]` is the host's steal counter after round `i`,
/// `steal_before` its value before the first round.
pub fn quiet_slices(steal_after: &[u64], steal_before: u64, slices: usize) -> Vec<Range<usize>> {
    let n = steal_after.len();
    let per = n.div_ceil(slices.max(1)).max(1);
    let ranges: Vec<Range<usize>> = (0..n).step_by(per).map(|a| a..(a + per).min(n)).collect();
    let stolen: Vec<f64> = ranges
        .iter()
        .map(|r| {
            let before = r
                .start
                .checked_sub(1)
                .map_or(steal_before, |i| steal_after[i]);
            (steal_after[r.end - 1] - before) as f64
        })
        .collect();
    let Some(cut) = median(&stolen) else {
        return Vec::new();
    };
    ranges
        .into_iter()
        .zip(stolen)
        .filter(|&(_, s)| s <= cut)
        .map(|(r, _)| r)
        .collect()
}

/// Median over `slices` of each slice's counted items per second, from
/// per-round `(count, seconds)` pairs (`0` when no slice is given).
pub fn median_rate(rounds: &[(u64, f64)], slices: &[Range<usize>]) -> f64 {
    let rates: Vec<f64> = slices
        .iter()
        .map(|r| {
            let (count, secs) = rounds[r.clone()]
                .iter()
                .fold((0u64, 0.0), |(c, s), &(rc, rs)| (c + rc, s + rs));
            ratio(count as f64, secs)
        })
        .collect();
    median(&rates).unwrap_or(0.0)
}

/// Attempted and failed operations of one run.  A failed operation is a
/// round that missed its convergence deadline or a query that found no
/// route for a pair the current graph connects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records a batch of `attempted` operations of which `failed` failed.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        assert!(failed <= attempted, "{failed} failures in {attempted} ops");
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Failed divided by attempted (`0` before anything was attempted).
    pub fn fail_ratio(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` is a valid unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the percentile has to sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ranked_sample() {
        let s = ramp(200);
        assert_eq!(percentile(&s, 50.0), Some(100.0));
        assert_eq!(percentile(&s, 90.0), Some(180.0));
        assert_eq!(percentile(&s, 100.0 / 3.0), Some(67.0));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[3.0, 1.0]), Some(1.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        // p90 of 100 samples has exactly 10 beyond rank 90; of 99, only 9.
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // The median is never refused.
        assert_eq!(percentile(&ramp(3), 50.0), Some(2.0));
    }

    #[test]
    fn quiet_slices_drop_the_stolen_ones() {
        // 20 rounds in ten slices of two; the host steals 50 ticks during
        // slices 3 and 4 and a tick in slice 7.
        let mut per_round = [0u64; 20];
        per_round[6] = 30;
        per_round[9] = 20;
        per_round[15] = 1;
        let cumulative: Vec<u64> = per_round
            .iter()
            .scan(100u64, |acc, &d| {
                *acc += d;
                Some(*acc)
            })
            .collect();
        let kept = quiet_slices(&cumulative, 100, 10);
        assert_eq!(kept.len(), 7);
        assert!(!kept.contains(&(6..8)) && !kept.contains(&(8..10)) && !kept.contains(&(14..16)));
        assert_eq!(kept[0], 0..2);
        // A quiet host keeps every slice; a short run keeps single rounds.
        assert_eq!(quiet_slices(&[5; 20], 5, 10).len(), 10);
        assert_eq!(quiet_slices(&[0, 0, 0], 0, 10), vec![0..1, 1..2, 2..3]);
        assert!(quiet_slices(&[], 0, 10).is_empty());
    }

    #[test]
    fn median_rate_is_the_median_slice() {
        // Ten slices of two rounds: nine run at 10/s, one burst at 1/s.
        let mut rounds = vec![(5, 0.5); 20];
        rounds[7] = (1, 1.0);
        rounds[6] = (1, 1.0);
        let slices: Vec<Range<usize>> = (0..10).map(|i| 2 * i..2 * i + 2).collect();
        assert!((median_rate(&rounds, &slices) - 10.0).abs() < 1e-12);
        // The pooled rate would have moved: 92 changes in 11 s.
        let whole = std::slice::from_ref(&(0..20));
        assert!((median_rate(&rounds, whole) - 92.0 / 11.0).abs() < 1e-12);
        assert_eq!(median_rate(&rounds, &[]), 0.0);
    }

    #[test]
    fn fail_ratio_counts_failures_over_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.fail_ratio(), 0.0);
        t.record(true);
        t.record(false);
        t.add(8, 1);
        assert_eq!(
            t,
            Tally {
                attempted: 10,
                failed: 2
            }
        );
        assert!((t.fail_ratio() - 0.2).abs() < 1e-12);
        t.add(0, 0);
        assert!((t.fail_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "failures in")]
    fn more_failures_than_attempts_is_a_bug() {
        Tally::default().add(1, 2);
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for ok in [
            "setup_s",
            "engine.commit_ms_p50",
            "net.frame_latency_us_p99",
            "a",
            "9-x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/name",
            "ü",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn units_follow_the_grammar() {
        for ok in ["ms", "s", "1/s", "%", "count", "MB", "B", "ratio", "ticks"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "a:b", "seventeen-letters"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
