//! Percentiles and summaries.

/// A percentile needs at least this many samples ranked beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `pct` (1..=99) of ascending `sorted`. Failed
/// requests are `f64::INFINITY`, so they count as slower than every
/// completed one. Errors when fewer than [`MIN_BEYOND`] samples rank
/// beyond the percentile, or when it lands on a failed request.
pub fn percentile(sorted: &[f64], pct: usize) -> Result<f64, String> {
    assert!((1..100).contains(&pct), "percentile {pct} out of range");
    let n = sorted.len();
    let rank = (n * pct).div_ceil(100).max(1);
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{pct} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed"
        ));
    }
    let v = sorted[rank - 1];
    if v.is_finite() {
        Ok(v)
    } else {
        Err(format!("p{pct} of {n} samples falls on a failed request"))
    }
}

/// Samples per block of [`blocked_p99`]: the fewest that leave
/// [`MIN_BEYOND`] samples beyond a p99.
pub const P99_BLOCK: usize = 100 * MIN_BEYOND;

/// The p99 of a run: the median, over consecutive blocks of
/// [`P99_BLOCK`] samples (in completion order; the remainder joins the
/// last block), of each block's p99. One burst of box noise then moves
/// one block, not the run's figure.
pub fn blocked_p99(in_order: &[f64]) -> Result<f64, String> {
    let blocks = (in_order.len() / P99_BLOCK).max(1);
    let per_block = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks {
                in_order.len()
            } else {
                (b + 1) * P99_BLOCK
            };
            percentile(&sorted(in_order[b * P99_BLOCK..end].to_vec()), 99)
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&per_block))
}

/// Completions per block of [`blocked_rate`].
pub const RATE_BLOCK: usize = 200;
/// Blocks a run needs for [`blocked_rate`].
pub const MIN_RATE_BLOCKS: usize = 10;

/// The completion rate of a closed loop, per second: completions
/// (`done_s`, seconds since the phase began, ascending) are cut into
/// consecutive blocks of [`RATE_BLOCK`] (the remainder is dropped), each
/// block's rate is its count over the time since the previous block
/// ended, and the figure is the median of those rates. A burst of box
/// noise then slows a few blocks, not the run's figure.
pub fn blocked_rate(done_s: &[f64]) -> Result<f64, String> {
    let mut rates = Vec::new();
    let mut prev = 0.0;
    for block in done_s.chunks_exact(RATE_BLOCK) {
        let end = block[RATE_BLOCK - 1];
        rates.push(RATE_BLOCK as f64 / (end - prev));
        prev = end;
    }
    if rates.len() < MIN_RATE_BLOCKS {
        return Err(format!(
            "{} completions make {} blocks of {RATE_BLOCK}; at least {MIN_RATE_BLOCKS} are needed",
            done_s.len(),
            rates.len()
        ));
    }
    Ok(median(&rates))
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Median of any sample count (0 for none).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v.to_vec());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank() {
        let v = ramp(1000);
        assert_eq!(percentile(&v, 50).unwrap(), 500.0);
        assert_eq!(percentile(&v, 99).unwrap(), 990.0);
        let v = ramp(1500);
        assert_eq!(percentile(&v, 99).unwrap(), 1485.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples leave exactly 10 beyond the 990th; 999 leave 9.
        assert!(percentile(&ramp(1000), 99).is_ok());
        let err = percentile(&ramp(999), 99).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        assert!(percentile(&ramp(19), 50).is_err());
        assert!(percentile(&[], 50).is_err());
    }

    #[test]
    fn failures_count_as_infinitely_slow() {
        // Ten failures among 1000 sit beyond p99 and leave it finite...
        let mut v = ramp(990);
        v.extend([f64::INFINITY; 10]);
        let v = sorted(v);
        assert_eq!(percentile(&v, 99).unwrap(), 990.0);
        // ...eleven push the p99 onto a failure.
        let mut v = ramp(989);
        v.extend([f64::INFINITY; 11]);
        let err = percentile(&sorted(v), 99).unwrap_err();
        assert!(err.contains("failed request"), "{err}");
        // And every failure moves the median up.
        let mut v = ramp(100);
        v.extend([f64::INFINITY; 20]);
        assert_eq!(percentile(&sorted(v), 50).unwrap(), 60.0);
    }

    #[test]
    fn blocked_p99_is_the_median_block() {
        // Three blocks of 1000; the middle one holds a burst of slow
        // samples that would dominate a pooled p99.
        let mut v = ramp(1000);
        v.extend(std::iter::repeat_n(5000.0, 980).chain(ramp(20)));
        v.extend(ramp(1000).into_iter().map(|x| x + 1.0));
        assert_eq!(blocked_p99(&v).unwrap(), 991.0);
        // The remainder joins the last block, which still needs 1000.
        assert_eq!(blocked_p99(&ramp(1999)).unwrap(), 1980.0);
        assert!(blocked_p99(&ramp(999)).is_err());
    }

    #[test]
    fn blocked_rate_is_the_median_block() {
        // Eleven blocks of 200 completions: block k takes (k + 1) / 100
        // s, so the median block is the sixth, which took 0.06 s; a
        // trailing partial block is dropped.
        let mut done = Vec::new();
        let mut t = 0.0;
        for k in 0..11 {
            let span = (k + 1) as f64 / 100.0;
            done.extend((1..=RATE_BLOCK).map(|i| t + span * i as f64 / RATE_BLOCK as f64));
            t += span;
        }
        done.extend((1..150).map(|i| t + i as f64));
        let rate = blocked_rate(&done).unwrap();
        assert!((rate - 200.0 / 0.06).abs() < 1e-6, "{rate}");
        // Nine blocks are too few.
        let err = blocked_rate(&done[..9 * RATE_BLOCK + 150]).unwrap_err();
        assert!(err.contains("9 blocks"), "{err}");
    }

    #[test]
    fn summaries() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
