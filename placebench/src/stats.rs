//! Small numeric and process helpers.

use std::time::Instant;

/// Median of a sample (mean of the middle pair for even sizes); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The median wall seconds of `reps` calls of `f`.
pub fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1)).map(|_| timed(&mut f).1).collect();
    median(&times).unwrap_or(0.0)
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is unreadable or lacks the
/// field (the benchmark runs on Linux only).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().expect("linux") > 0.0);
    }
}
