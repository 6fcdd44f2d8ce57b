//! Order statistics and the metric-naming rules.

/// The median of `values` (mean of the middle two for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A tail percentile together with what it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample value at the reported percentile.
    pub value: f64,
    /// The percentile actually reported, in percent.
    pub percentile: f64,
    /// How many samples it was taken over.
    pub samples: usize,
}

/// The highest percentile, up to `target` percent, that has at least ten
/// samples beyond it: with `n` sorted samples, index `n - 11` has exactly
/// ten above it, so p99 needs `n >= 1000`. With fewer than eleven samples
/// no percentile qualifies and the maximum is reported as p100.
pub fn tail(values: &[f64], target: f64) -> Tail {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            samples: 0,
        };
    }
    if n < 11 {
        return Tail {
            value: v[n - 1],
            percentile: 100.0,
            samples: n,
        };
    }
    // Nearest-rank index of the target percentile, capped so that ten
    // samples stay beyond it.
    let want = ((target / 100.0) * n as f64).ceil() as usize;
    let k = want.clamp(1, n - 10) - 1;
    Tail {
        value: v[k],
        percentile: 100.0 * (k + 1) as f64 / n as f64,
        samples: n,
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 characters of letters, digits, `_`, `.`
/// and `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 characters of letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the functions must sort.
        (0..n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let t = tail(&ramp(1000), 99.0);
        assert_eq!(t.samples, 1000);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 989.0);
        // Exactly ten samples lie beyond the reported one.
        assert_eq!((990..1000).count(), 10);
    }

    #[test]
    fn smaller_samples_fall_back_to_the_highest_supported_percentile() {
        let t = tail(&ramp(100), 99.0);
        assert_eq!((t.value, t.percentile, t.samples), (89.0, 90.0, 100));
        let t = tail(&ramp(11), 99.0);
        assert_eq!(t.value, 0.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-9);
        for n in [11usize, 57, 400, 999, 1000, 5000] {
            let t = tail(&ramp(n), 99.0);
            let beyond = ramp(n).iter().filter(|&&x| x > t.value).count();
            assert!(beyond >= 10, "n={n}: {beyond} beyond");
            assert!(t.percentile <= 99.0 + 1e-9, "n={n}");
        }
    }

    #[test]
    fn large_samples_stop_at_the_target() {
        let t = tail(&ramp(5000), 99.0);
        assert_eq!((t.value, t.percentile), (4949.0, 99.0));
        assert_eq!(tail(&ramp(5000), 50.0).value, 2499.0);
    }

    #[test]
    fn tiny_and_empty_samples() {
        assert_eq!(tail(&[3.0, 1.0], 99.0).percentile, 100.0);
        assert_eq!(tail(&[3.0, 1.0], 99.0).value, 3.0);
        assert_eq!(tail(&[], 99.0).samples, 0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn names_and_units() {
        for ok in [
            "lat_p50_ms",
            "lat_p99_ms.high",
            "core.flush_share",
            "9x",
            "xl-batch",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ü", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "req/s", "nodes/s", "%", "MiB", "count"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", &"s".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
