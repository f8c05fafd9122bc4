//! Ranking utilities: converting score vectors to rank vectors, accumulating
//! rank distributions across Monte Carlo trials (the per-alternative
//! statistics of the paper's Fig 10), and rank correlation coefficients used
//! to validate the reconstructed dataset against the published ranking.

use crate::describe::describe_counts;
use serde::{Deserialize, Serialize};

/// Tie-handling policy for [`rank_vector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieBreak {
    /// Tied scores share the average of the ranks they span (fractional
    /// ranks; standard for Spearman's rho).
    Average,
    /// Tied scores all receive the smallest rank of their group ("1224"
    /// competition ranking, what a ranked list display uses).
    Min,
}

/// Rank a score vector, rank 1 = highest score. Returns fractional ranks for
/// `TieBreak::Average`.
pub fn rank_vector(scores: &[f64], ties: TieBreak) -> Vec<f64> {
    let mut scratch = RankScratch::default();
    rank_vector_with(scores, ties, &mut scratch);
    std::mem::take(&mut scratch.ranks)
}

/// Reusable buffers for [`rank_vector_with`] / repeated score recording —
/// the Monte Carlo hot loop ranks tens of thousands of score vectors and
/// must not allocate per trial.
#[derive(Debug, Clone, Default)]
pub struct RankScratch {
    order: Vec<usize>,
    ranks: Vec<f64>,
}

/// [`rank_vector`] into reusable scratch buffers; the computed ranks live
/// in the returned slice (backed by `scratch.ranks`).
pub fn rank_vector_with<'s>(
    scores: &[f64],
    ties: TieBreak,
    scratch: &'s mut RankScratch,
) -> &'s [f64] {
    let n = scores.len();
    let order = &mut scratch.order;
    order.clear();
    order.extend(0..n);
    // Descending by score; NaNs sink to the end deterministically. A bare
    // descending `total_cmp` would rank +NaN above +inf, so NaN keys
    // collapse to -inf first; index order breaks remaining ties.
    let key = |i: usize| {
        let s = scores[i];
        if s.is_nan() {
            f64::NEG_INFINITY
        } else {
            s
        }
    };
    order.sort_by(|&a, &b| key(b).total_cmp(&key(a)).then(a.cmp(&b)));
    let ranks = &mut scratch.ranks;
    ranks.clear();
    ranks.resize(n, 0.0);
    let mut i = 0usize;
    while i < n {
        // NaN != NaN, so each NaN is its own singleton group (the j = i + 1
        // start also keeps the loop advancing for them).
        let mut j = i + 1;
        while j < n && scores[order[j]] == scores[order[i]] {
            j += 1;
        }
        // positions i..j (0-based) share ranks i+1 ..= j.
        let value = match ties {
            TieBreak::Average => (i + 1 + j) as f64 / 2.0,
            TieBreak::Min => (i + 1) as f64,
        };
        for &idx in &order[i..j] {
            ranks[idx] = value;
        }
        i = j;
    }
    ranks
}

/// Spearman rank correlation between two score vectors (computed on
/// average-tie ranks). Returns `None` for length mismatch, n < 2, or zero
/// variance.
pub fn spearman_rho(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() != b.len() || a.len() < 2 {
        return None;
    }
    let ra = rank_vector(a, TieBreak::Average);
    let rb = rank_vector(b, TieBreak::Average);
    pearson(&ra, &rb)
}

/// Kendall's tau-b between two score vectors.
pub fn kendall_tau(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() != b.len() || a.len() < 2 {
        return None;
    }
    let n = a.len();
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    let mut ties_a = 0i64;
    let mut ties_b = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let da = a[i] - a[j];
            let db = b[i] - b[j];
            if da == 0.0 && db == 0.0 {
                // tied in both; contributes to neither
            } else if da == 0.0 {
                ties_a += 1;
            } else if db == 0.0 {
                ties_b += 1;
            } else if (da > 0.0) == (db > 0.0) {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    let n0 = (n * (n - 1) / 2) as i64;
    let denom = (((n0 - ties_a) as f64) * ((n0 - ties_b) as f64)).sqrt();
    if denom == 0.0 {
        return None;
    }
    Some((concordant - discordant) as f64 / denom)
}

fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        cov += (a - mx) * (b - my);
        vx += (a - mx) * (a - mx);
        vy += (b - my) * (b - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return None;
    }
    Some(cov / (vx * vy).sqrt())
}

/// Summary of one alternative's rank distribution (the row format of the
/// paper's Fig 10).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankStats {
    pub label: String,
    pub mode: u32,
    pub min: u32,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    pub max: u32,
    pub mean: f64,
    pub std_dev: f64,
    /// How often this alternative ranked first.
    pub times_best: usize,
    pub trials: usize,
}

/// Accumulates integer rank observations for a set of alternatives across
/// Monte Carlo trials.
#[derive(Debug, Clone)]
pub struct RankAccumulator {
    labels: Vec<String>,
    /// `counts[alt][rank-1]` = number of trials where `alt` took `rank`.
    counts: Vec<Vec<usize>>,
    trials: usize,
}

// Wire encoding for the serving layer: the accumulator is the full
// fidelity rank distribution (`counts[alt][rank-1]`), so a Monte Carlo
// result shipped across a connection can answer `acceptability` queries
// exactly like the in-process original.
impl serde::Serialize for RankAccumulator {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("labels".to_string(), self.labels.to_value()),
            ("counts".to_string(), self.counts.to_value()),
            ("trials".to_string(), self.trials.to_value()),
        ])
    }
}

impl serde::Deserialize for RankAccumulator {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let labels: Vec<String> = serde::Deserialize::from_value(serde::field(v, "labels"))?;
        let counts: Vec<Vec<usize>> = serde::Deserialize::from_value(serde::field(v, "counts"))?;
        let trials: usize = serde::Deserialize::from_value(serde::field(v, "trials"))?;
        if counts.len() != labels.len() || counts.iter().any(|row| row.len() != labels.len()) {
            return Err(serde::Error::custom(
                "rank accumulator counts must be square in the label count",
            ));
        }
        Ok(RankAccumulator {
            labels,
            counts,
            trials,
        })
    }
}

impl RankAccumulator {
    pub fn new(labels: Vec<String>) -> RankAccumulator {
        let n = labels.len();
        RankAccumulator {
            labels,
            counts: vec![vec![0; n]; n],
            trials: 0,
        }
    }

    /// An accumulator over an already counted ranking-frequency matrix
    /// (`counts[alt][rank-1]`) of `trials` trials — for drivers that
    /// count ranks themselves. Panics unless `counts` is square in the
    /// label count and every row sums to `trials`.
    pub fn from_counts(
        labels: Vec<String>,
        counts: Vec<Vec<usize>>,
        trials: usize,
    ) -> RankAccumulator {
        let n = labels.len();
        assert!(
            counts.len() == n && counts.iter().all(|row| row.len() == n),
            "rank counts must be square in the label count"
        );
        assert!(
            counts.iter().all(|row| row.iter().sum::<usize>() == trials),
            "every alternative needs one rank per trial"
        );
        RankAccumulator {
            labels,
            counts,
            trials,
        }
    }

    pub fn num_alternatives(&self) -> usize {
        self.labels.len()
    }

    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Record one trial's score vector (higher score = better rank).
    pub fn record_scores(&mut self, scores: &[f64]) {
        let mut scratch = RankScratch::default();
        self.record_scores_with(scores, &mut scratch);
    }

    /// [`RankAccumulator::record_scores`] with caller-owned scratch buffers
    /// — identical counts, no per-trial allocation.
    pub fn record_scores_with(&mut self, scores: &[f64], scratch: &mut RankScratch) {
        assert_eq!(
            scores.len(),
            self.labels.len(),
            "score vector length mismatch"
        );
        let ranks = rank_vector_with(scores, TieBreak::Min, scratch);
        for (alt, &r) in ranks.iter().enumerate() {
            let r = r as usize;
            debug_assert!((1..=self.labels.len()).contains(&r));
            self.counts[alt][r - 1] += 1;
        }
        self.trials += 1;
    }

    /// Fold another accumulator's counts into this one (same label set).
    /// Integer counts make the fold order-independent.
    pub fn merge(&mut self, other: &RankAccumulator) {
        assert_eq!(self.labels, other.labels, "accumulator label mismatch");
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
        self.trials += other.trials;
    }

    /// The raw ranking-frequency matrix: `counts()[alt][rank-1]` = number
    /// of trials where `alt` took `rank`.
    pub fn counts(&self) -> &[Vec<usize>] {
        &self.counts
    }

    /// Rank-acceptability index b(alt, rank): share of trials in which
    /// `alt` obtained exactly `rank` (1-based).
    pub fn acceptability(&self, alt: usize, rank: usize) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        self.counts[alt][rank - 1] as f64 / self.trials as f64
    }

    /// Reconstruct the (sorted) rank sample of one alternative.
    pub fn rank_sample(&self, alt: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.trials);
        for (rank0, &c) in self.counts[alt].iter().enumerate() {
            out.extend(std::iter::repeat_n((rank0 + 1) as f64, c));
        }
        out
    }

    /// Fig 10-style statistics for every alternative, straight from the
    /// count histograms (no per-trial sample is ever expanded).
    pub fn stats(&self) -> Vec<RankStats> {
        let ranks: Vec<f64> = (1..=self.labels.len()).map(|r| r as f64).collect();
        (0..self.labels.len())
            .map(|alt| {
                let d = describe_counts(&ranks, &self.counts[alt]).expect("non-empty after trials");
                RankStats {
                    label: self.labels[alt].clone(),
                    mode: d.mode as u32,
                    min: d.min as u32,
                    p25: d.p25,
                    median: d.median,
                    p75: d.p75,
                    max: d.max as u32,
                    mean: d.mean,
                    std_dev: d.std_dev,
                    times_best: self.counts[alt][0],
                    trials: self.trials,
                }
            })
            .collect()
    }

    pub fn labels(&self) -> &[String] {
        &self.labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_vector_simple_descending() {
        let r = rank_vector(&[0.9, 0.5, 0.7], TieBreak::Min);
        assert_eq!(r, vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn rank_vector_average_ties() {
        let r = rank_vector(&[0.5, 0.5, 0.1], TieBreak::Average);
        assert_eq!(r, vec![1.5, 1.5, 3.0]);
    }

    #[test]
    fn rank_vector_min_ties() {
        let r = rank_vector(&[0.5, 0.5, 0.1], TieBreak::Min);
        assert_eq!(r, vec![1.0, 1.0, 3.0]);
    }

    #[test]
    fn rank_vector_sinks_nan_below_every_finite_score() {
        // NaN keys collapse to -inf before the descending total_cmp, so
        // a NaN never outranks a real score; the NaN group itself stays
        // deterministic (index order). The NaN and the real -inf share
        // the key but not equality, so they rank as distinct singletons.
        let r = rank_vector(&[f64::NAN, 0.1, f64::NEG_INFINITY, 0.7], TieBreak::Min);
        assert_eq!(r, vec![3.0, 2.0, 4.0, 1.0]);
    }

    #[test]
    fn spearman_perfect_and_inverse() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert!((spearman_rho(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        let c = [4.0, 3.0, 2.0, 1.0];
        assert!((spearman_rho(&a, &c).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_rejects_degenerate() {
        assert!(spearman_rho(&[1.0], &[2.0]).is_none());
        assert!(spearman_rho(&[1.0, 1.0], &[2.0, 3.0]).is_none()); // zero variance
        assert!(spearman_rho(&[1.0, 2.0], &[2.0]).is_none());
    }

    #[test]
    fn kendall_matches_known_value() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [3.0, 4.0, 1.0, 2.0, 5.0];
        // concordant = 6, discordant = 4 over 10 pairs: tau = 0.2
        assert!((kendall_tau(&a, &b).unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn kendall_handles_ties() {
        let a = [1.0, 1.0, 2.0];
        let b = [1.0, 2.0, 3.0];
        let t = kendall_tau(&a, &b).unwrap();
        assert!(t > 0.0 && t <= 1.0);
    }

    #[test]
    fn accumulator_records_and_summarizes() {
        let mut acc = RankAccumulator::new(vec!["a".into(), "b".into(), "c".into()]);
        acc.record_scores(&[0.9, 0.5, 0.1]); // a=1, b=2, c=3
        acc.record_scores(&[0.8, 0.9, 0.1]); // b=1, a=2, c=3
        acc.record_scores(&[0.9, 0.5, 0.1]); // a=1 again
        assert_eq!(acc.trials(), 3);
        let stats = acc.stats();
        assert_eq!(stats[0].mode, 1);
        assert_eq!(stats[0].times_best, 2);
        assert_eq!(stats[2].mode, 3);
        assert_eq!(stats[2].min, 3);
        assert_eq!(stats[2].max, 3);
        assert!((stats[1].mean - (2.0 + 1.0 + 2.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn acceptability_sums_to_one_over_ranks() {
        let mut acc = RankAccumulator::new(vec!["a".into(), "b".into()]);
        acc.record_scores(&[1.0, 0.0]);
        acc.record_scores(&[0.0, 1.0]);
        let total: f64 = (1..=2).map(|r| acc.acceptability(0, r)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((acc.acceptability(0, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rank_sample_roundtrip() {
        let mut acc = RankAccumulator::new(vec!["a".into(), "b".into()]);
        acc.record_scores(&[1.0, 0.0]);
        acc.record_scores(&[1.0, 0.0]);
        assert_eq!(acc.rank_sample(0), vec![1.0, 1.0]);
        assert_eq!(acc.rank_sample(1), vec![2.0, 2.0]);
    }

    #[test]
    fn from_counts_matches_recorded_trials() {
        let labels: Vec<String> = (0..3).map(|i| format!("a{i}")).collect();
        let mut recorded = RankAccumulator::new(labels.clone());
        for t in [[0.9, 0.5, 0.5], [0.1, 0.2, 0.3], [0.4, 0.4, 0.4]] {
            recorded.record_scores(&t);
        }
        let rebuilt = RankAccumulator::from_counts(labels, recorded.counts().to_vec(), 3);
        assert_eq!(rebuilt.counts(), recorded.counts());
        assert_eq!(rebuilt.stats(), recorded.stats());
    }

    #[test]
    #[should_panic(expected = "one rank per trial")]
    fn from_counts_rejects_rows_that_miss_trials() {
        RankAccumulator::from_counts(
            vec!["x".into(), "y".into()],
            vec![vec![1, 0], vec![0, 0]],
            1,
        );
    }

    #[test]
    fn scratch_recording_matches_allocating_path() {
        let mut a = RankAccumulator::new(vec!["x".into(), "y".into(), "z".into()]);
        let mut b = a.clone();
        let mut scratch = RankScratch::default();
        let trials = [[0.9, 0.5, 0.1], [0.2, 0.2, 0.9], [0.5, 0.5, 0.5]];
        for t in &trials {
            a.record_scores(t);
            b.record_scores_with(t, &mut scratch);
        }
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn merge_is_order_independent_and_sums_trials() {
        let labels = vec!["x".to_string(), "y".to_string()];
        let mut whole = RankAccumulator::new(labels.clone());
        let mut left = RankAccumulator::new(labels.clone());
        let mut right = RankAccumulator::new(labels.clone());
        for (k, t) in [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.3, 0.9]]
            .iter()
            .enumerate()
        {
            whole.record_scores(t);
            if k < 2 {
                left.record_scores(t);
            } else {
                right.record_scores(t);
            }
        }
        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right.clone();
        rl.merge(&left);
        assert_eq!(lr.counts(), whole.counts());
        assert_eq!(rl.counts(), whole.counts());
        assert_eq!(lr.trials(), 4);
    }

    #[test]
    #[should_panic(expected = "label mismatch")]
    fn merge_rejects_different_label_sets() {
        let mut a = RankAccumulator::new(vec!["x".into()]);
        let b = RankAccumulator::new(vec!["y".into()]);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accumulator_rejects_wrong_length() {
        let mut acc = RankAccumulator::new(vec!["a".into()]);
        acc.record_scores(&[1.0, 2.0]);
    }
}
