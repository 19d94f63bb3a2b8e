//! Order statistics, result digests and the `/proc` readers the
//! benchmark reports with.

/// Median of `values` (the mean of the two middle values for an even
/// count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so the spreads printed here match
/// the ones computed over whole runs. A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative when the clamp raised `j`: Python extrapolates then.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// 64-bit digest of `records` in the given order, one record per line.
#[must_use]
pub fn digest(records: &[String]) -> u64 {
    aladdin_spec::campaign::fnv1a64(records.join("\n").as_bytes())
}

/// The `VmHWM` (peak resident set) field of a `/proc/<pid>/status`
/// text, in kB.
#[must_use]
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb)
}

/// User plus system CPU time, in clock ticks, from a `/proc/<pid>/stat`
/// text. The process name (field 2) may hold spaces and parentheses, so
/// fields are counted from its closing parenthesis.
#[must_use]
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Kernel clock ticks per second (`USER_HZ`); 100 on every Linux ABI
/// this benchmark runs on, and fixed at kernel build time.
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU time (user + system, all threads) this process has used so far.
///
/// # Errors
///
/// Fails when `/proc/self/stat` is unreadable or malformed.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    let ticks = parse_cpu_ticks(&stat).ok_or("malformed /proc/self/stat")?;
    Ok(ticks as f64 / TICKS_PER_SECOND)
}

/// Peak resident set of this process so far, in MB (10^6 bytes).
///
/// # Errors
///
/// Fails when `/proc/self/status` is unreadable or has no `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = parse_vmhwm_kb(&status).ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb as f64 * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([7, 1, 3], n=4) == [1.0, 3.0, 7.0]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0]), (1.0, 7.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn vmhwm_parsing() {
        let status =
            "Name:\tdsebench\nVmPeak:\t  300000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(123_456));
        assert_eq!(parse_vmhwm_kb("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t 12 pages\n"), None);
    }

    #[test]
    fn stat_parsing_skips_a_name_with_spaces_and_parens() {
        // Fields 1..=17 of a real stat line, with utime = 250, stime = 17.
        let stat = "4242 (my (odd) name) R 1 4242 4242 0 -1 4194304 500 0 0 0 250 17 0 0 20 0 3";
        assert_eq!(parse_cpu_ticks(stat), Some(267));
        assert_eq!(parse_cpu_ticks("4242 (short) R 1"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn proc_readers_work_on_this_process() {
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        assert!(cpu_seconds().expect("stat") >= 0.0);
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let a = vec!["x".to_owned(), "y".to_owned()];
        let b = vec!["y".to_owned(), "x".to_owned()];
        assert_eq!(digest(&a), digest(&a.clone()));
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&["x".to_owned(), "z".to_owned()]));
    }
}
