//! Monte Carlo simulation over attribute weights (paper Section V,
//! Figs 9–10).
//!
//! GMAA offers three classes of simulation:
//!
//! 1. weights generated **completely at random** (uniform on the simplex);
//! 2. weights preserving a **total or partial rank order** of importance;
//! 3. weights drawn inside the **elicited weight intervals**.
//!
//! Component utilities stay at their band midpoints ("simultaneous changes
//! can be made to the weights", the utilities' imprecision being explored by
//! the other analyses). Each trial ranks all alternatives; per-alternative
//! rank statistics (mode, min, max, mean, std, quartiles — Fig 10) and the
//! multiple boxplot (Fig 9) summarize the runs.
//!
//! ## The hot loop
//!
//! [`MonteCarlo::run_ctx`] is an exact, pair-pruned, single-threaded
//! streaming kernel. Its rank counts equal the scalar reference
//! [`MonteCarlo::run_scalar_ctx`] exactly; `tests/soa_equivalence.rs` and
//! the golden fixture `tests/fixtures/mc_paper_counts.txt` lock that down.
//!
//! **Pair classification.** An alternative's rank in a trial is `1 +` the
//! number of rivals with a strictly greater score. Before the trials,
//! every pair `(a, b)` is classified over the sampler's support
//! `P = {w : l' ≤ w ≤ u', Σw = 1}`. For `ElicitedIntervals`, `l'`/`u'` are
//! the flattened bounds widened by the `1e-9` slack the acceptance test
//! allows, rounded exactly as that test rounds them
//! ([`statlab::IntervalStream::support`]). The other classes draw from
//! the whole simplex: `l' = 0`, `u' = 1`. With `d = mid_a − mid_b`, the
//! minimum of `Σ d_j w_j` over `P` is a fractional knapsack: start every
//! `w_j` at `l'_j` and pour the remaining mass into the smallest `d_j`
//! first (O(m log m), no LP); the maximum pours into the largest first.
//! If the minimum exceeds the margin `δ`, `a` outscores `b` in every
//! trial, and the pair adds a constant 1 to `b`'s rank; symmetrically if
//! the maximum is below `−δ`. Every other pair — ties included, since a
//! zero difference is never decided — is *undecided* and compared per
//! trial with the same strict `>` rule as the reference.
//!
//! **The margin δ.** Let `u = 2⁻⁵³` and `M = max |mid|`. A drawn vector
//! `w` lies in the box exactly (the acceptance test compares the stored
//! components; simplex draws are non-negative, and `u' = 1` is implied
//! there), and its sum `s` is within `(m + 2)u` of 1 (one rounded
//! reciprocal, `m` rounded products, the rounded sum they divide). The
//! knapsack minimum `K(s)` over `{l' ≤ w ≤ u', Σw = s}` is convex and
//! piecewise linear in `s` with slopes among the `d_j ∈ [−2M, 2M]`, so
//! `Σ d_j w_j ≥ K(1) − 2M(m + 2)u`. The two computed `m`-term scores are
//! each within `γ_m M s` of their exact values (`γ_m = mu / (1 − mu)`),
//! and the computed knapsack minimum is within a few `m·u·M` of `K(1)`.
//! All terms together stay below `64(m + 1)·u·M`; `δ = 1e-6 · max(M, 1)`
//! exceeds that for every `m` below 10⁸, so a decided pair's order holds
//! in every computed trial.
//!
//! **Fixed ranks.** An alternative whose pairs are all decided has one
//! rank in every trial: it gets `counts[i][base_i] += trials` once and is
//! never scored.
//!
//! **Streaming.** `ElicitedIntervals` draws come from a
//! [`statlab::IntervalStream`]: every attempt consumes exactly `m` RNG
//! values, so the stream draws a chunk of attempts ahead, box-tests the
//! whole chunk with one vector pass per attribute, and writes accepted
//! vectors straight into a 16-trial attribute-major block. The other
//! classes draw per trial with [`SimplexSampler::sample_into`]. Only the
//! *live* alternatives (those with an undecided pair) are scored, as
//! one column-major [`maut::BandMatrixSoA::mid_subset`] matrix, in the
//! same per-trial `j`-ascending order as the reference, so their scores
//! are bit-identical; only the undecided pairs are compared.
//!
//! **The fallback rule.** After 1000 rejected attempts the sampler
//! returns a clamped, re-normalized draw, which can leave `P`;
//! [`statlab::IntervalStream::fill_block`] flags its lane. Such a trial
//! is ranked in full: every alternative scored, every pair compared. The
//! fixed-rank constants count only the other trials.
//!
//! **No fan-out.** The kernel runs on the calling thread; the serving
//! shards already provide the parallelism. Past 64 live alternatives it
//! falls back to scoring every alternative per trial and ranking by
//! sorting. [`MonteCarlo::threads`] is an unread compatibility
//! field.

use maut::weights::AttributeWeights;
use maut::{BandMatrixSoA, EvalContext};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use statlab::{
    Boxplot, IntervalStream, MultipleBoxplot, RankAccumulator, RankScratch, RankStats,
    SimplexSampler, WeightScheme,
};

/// Up to this many live alternatives, the pruned block kernel scores and
/// ranks; beyond it the per-trial sorting path wins. Both produce
/// identical rank counts.
const DENSE_RANK_MAX: usize = 64;

/// Trials per scoring block: the width of the register-blocked
/// [`BandMatrixSoA::score_block_transposed`] kernel.
const LANES: usize = maut::soa::SCORE_LANES;

/// Relative margin `δ` a pair's knapsack extreme must clear before the
/// pair is decided; see the module docs for why it covers all rounding.
const PAIR_MARGIN: f64 = 1e-6;

/// Which of the three GMAA simulation classes to run.
#[derive(Debug, Clone, PartialEq)]
pub enum MonteCarloConfig {
    /// Class 1: uniform over the whole simplex.
    Random,
    /// Class 2a: total rank order of attribute importance (attribute ids,
    /// most important first).
    RankOrder(Vec<usize>),
    /// Class 2b: partial rank order (groups of equally-important
    /// attributes, most important group first).
    PartialRankOrder(Vec<Vec<usize>>),
    /// Class 3: within the model's elicited (flattened) weight intervals.
    ElicitedIntervals,
}

/// Result of a simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonteCarloResult {
    /// Trials simulated.
    pub trials: usize,
    /// Per-alternative rank statistics, in model order.
    pub stats: Vec<RankStats>,
    accumulator: RankAccumulator,
}

impl MonteCarloResult {
    /// Rank-acceptability index: share of trials where `alt` took `rank`
    /// (1-based).
    pub fn acceptability(&self, alt: usize, rank: usize) -> f64 {
        self.accumulator.acceptability(alt, rank)
    }

    /// Alternatives that ranked first in *every* trial (the paper finds two:
    /// Media Ontology and Boemie VDO are the only candidates ever ranked
    /// best across all 10 000 simulations).
    pub fn always_rank_one(&self) -> Vec<usize> {
        self.stats
            .iter()
            .enumerate()
            .filter(|(_, s)| s.max == 1)
            .map(|(i, _)| i)
            .collect()
    }

    /// Alternatives that ranked first in at least one trial.
    pub fn ever_rank_one(&self) -> Vec<usize> {
        self.stats
            .iter()
            .enumerate()
            .filter(|(_, s)| s.min == 1)
            .map(|(i, _)| i)
            .collect()
    }

    /// Largest rank fluctuation (max − min) among the `k` best alternatives
    /// by mean rank — the paper: *"the rankings for the best five MM
    /// ontologies fluctuate by at most two positions"*.
    pub fn fluctuation_of_top(&self, k: usize) -> u32 {
        let mut order: Vec<usize> = (0..self.stats.len()).collect();
        // total_cmp: a NaN mean (empty/corrupt stats) must sort last and
        // be ignored rather than panic — or, as a masking comparator
        // would, silently rank the NaN alternative among the best.
        order.sort_by(|&a, &b| self.stats[a].mean.total_cmp(&self.stats[b].mean));
        order
            .into_iter()
            .take(k)
            .map(|i| self.stats[i].max - self.stats[i].min)
            .max()
            .unwrap_or(0)
    }

    /// The Fig 9 multiple boxplot over rank samples.
    pub fn boxplots(&self) -> MultipleBoxplot {
        let mut m = MultipleBoxplot::new();
        for (i, s) in self.stats.iter().enumerate() {
            let sample = self.accumulator.rank_sample(i);
            m.push(Boxplot::new(s.label.clone(), &sample).expect("non-empty sample"));
        }
        m
    }

    /// Mean rank per alternative, model order.
    pub fn mean_ranks(&self) -> Vec<f64> {
        self.stats.iter().map(|s| s.mean).collect()
    }

    /// The raw ranking-frequency matrix: `rank_counts()[alt][rank-1]` =
    /// number of trials where `alt` took `rank`. The differential tests
    /// compare this exactly across the scalar / batched / threaded paths.
    pub fn rank_counts(&self) -> &[Vec<usize>] {
        self.accumulator.counts()
    }
}

/// The simulation driver.
///
/// # Example
///
/// ```
/// use maut::prelude::*;
/// use maut_sense::{MonteCarlo, MonteCarloConfig};
///
/// let mut b = DecisionModelBuilder::new("demo");
/// let x = b.discrete_attribute("x", "X", &["bad", "good"]);
/// let y = b.discrete_attribute("y", "Y", &["bad", "good"]);
/// b.attach_attributes_to_root(&[(x, Interval::new(0.3, 0.7)), (y, Interval::new(0.3, 0.7))]);
/// b.alternative("winner", vec![Perf::level(1), Perf::level(1)]);
/// b.alternative("loser", vec![Perf::level(0), Perf::level(0)]);
/// let ctx = EvalContext::new(b.build().unwrap()).unwrap();
/// let result = MonteCarlo::new(MonteCarloConfig::Random, 500, 42).run_ctx(&ctx);
/// assert_eq!(result.stats[0].times_best, 500);
/// ```
#[derive(Debug, Clone)]
pub struct MonteCarlo {
    /// Which weight-generation class to simulate.
    pub config: MonteCarloConfig,
    /// Number of weight-sampling trials.
    pub trials: usize,
    /// RNG seed (results are a pure function of config + trials + seed).
    pub seed: u64,
    /// Unread. [`MonteCarlo::run_ctx`] runs on the calling thread; the
    /// field is kept for compatibility only, so callers that still set it
    /// keep compiling.
    pub threads: usize,
}

/// How [`MonteCarlo::run_ctx`]'s pair classification split a model (see
/// the module docs): reported by [`MonteCarlo::pruning`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairPruning {
    /// Unordered alternative pairs compared per trial; the order of every
    /// other pair is fixed over the whole sampler support.
    pub undecided_pairs: usize,
    /// Alternatives with at least one undecided pair (the ones scored).
    pub live_alternatives: usize,
}

/// The classified pairs of one run.
#[derive(Debug, Default)]
struct PairPlan {
    /// `base[i]`: rivals that outscore `i` in every trial — its 0-based
    /// rank before the undecided pairs are compared.
    base: Vec<usize>,
    /// Alternatives with an undecided pair, ascending.
    live: Vec<usize>,
    /// Undecided rivals of live alternative `k`, as indices into `live`:
    /// `rivals[starts[k]..starts[k + 1]]`. Every undecided pair appears
    /// once from each side.
    rivals: Vec<usize>,
    starts: Vec<usize>,
}

/// The weight source of one run: the chunked interval stream, or one
/// [`SimplexSampler::sample_into`] call per trial into a scratch vector.
enum Draws {
    Stream(IntervalStream),
    PerTrial(SimplexSampler, Vec<f64>),
}

impl Draws {
    /// The next `count` weight vectors into lanes `0..count` of an
    /// attribute-major block of `lanes` trials; returns the clamped lanes
    /// (see [`IntervalStream::fill_block`]).
    fn fill_block(
        &mut self,
        rng: &mut StdRng,
        block: &mut [f64],
        lanes: usize,
        count: usize,
    ) -> u64 {
        match self {
            Draws::Stream(stream) => stream.fill_block(rng, block, lanes, count),
            Draws::PerTrial(sampler, w) => {
                for t in 0..count {
                    sampler.sample_into(rng, w);
                    for (j, &x) in w.iter().enumerate() {
                        block[j * lanes + t] = x;
                    }
                }
                0
            }
        }
    }

    /// The box `(l', u')` every unclamped vector lies in.
    fn support(&self) -> (Vec<f64>, Vec<f64>) {
        match self {
            Draws::Stream(stream) => {
                let (lo, hi) = stream.support();
                (lo.to_vec(), hi.to_vec())
            }
            Draws::PerTrial(_, w) => (vec![0.0; w.len()], vec![1.0; w.len()]),
        }
    }
}

impl MonteCarlo {
    /// A simulation on the calling thread; panics on zero trials.
    pub fn new(config: MonteCarloConfig, trials: usize, seed: u64) -> MonteCarlo {
        assert!(trials > 0, "need at least one trial");
        MonteCarlo {
            config,
            trials,
            seed,
            threads: 0,
        }
    }

    /// Sets the unread `threads` compatibility field (see there).
    pub fn with_threads(mut self, threads: usize) -> MonteCarlo {
        self.threads = threads;
        self
    }

    /// The paper's headline run: 10 000 trials within elicited intervals.
    pub fn paper_default() -> MonteCarlo {
        MonteCarlo::new(MonteCarloConfig::ElicitedIntervals, 10_000, 20120402)
    }

    /// This run's weight source over `ctx`'s attributes.
    fn draws(&self, ctx: &EvalContext) -> Draws {
        let n_attrs = ctx.model().num_attributes();
        let sampler = self.sampler(n_attrs, ctx.weights());
        match sampler.interval_stream() {
            Some(stream) => Draws::Stream(stream),
            None => Draws::PerTrial(sampler, vec![0.0; n_attrs]),
        }
    }

    fn sampler(&self, n: usize, weights: &AttributeWeights) -> SimplexSampler {
        match &self.config {
            MonteCarloConfig::Random => SimplexSampler::new(n, WeightScheme::Uniform),
            MonteCarloConfig::RankOrder(order) => SimplexSampler::new(
                n,
                WeightScheme::RankOrder {
                    order: order.clone(),
                },
            ),
            MonteCarloConfig::PartialRankOrder(groups) => SimplexSampler::new(
                n,
                WeightScheme::PartialRankOrder {
                    groups: groups.clone(),
                },
            ),
            MonteCarloConfig::ElicitedIntervals => SimplexSampler::new(
                n,
                WeightScheme::Intervals {
                    lower: weights.lows(),
                    upper: weights.upps(),
                },
            ),
        }
    }

    /// Run the simulation against a shared evaluation context — the
    /// pair-pruned streaming kernel described in the module docs.
    /// Produces exactly the same result as [`MonteCarlo::run_scalar_ctx`].
    pub fn run_ctx(&self, ctx: &EvalContext) -> MonteCarloResult {
        let mut draws = self.draws(ctx);
        let soa = ctx.soa();
        let names = ctx.model().alternatives.clone();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let (lo, hi) = draws.support();
        let plan = classify(soa, &lo, &hi, DENSE_RANK_MAX);
        let accumulator = match plan {
            Some(plan) => {
                let counts = self.run_pruned(soa, &plan, &mut draws, &mut rng);
                RankAccumulator::from_counts(names, counts, self.trials)
            }
            None => {
                let mut acc = RankAccumulator::new(names);
                let mut w = vec![0.0; soa.n_attributes()];
                let mut scores = vec![0.0; soa.n_alternatives()];
                let mut scratch = RankScratch::default();
                for _ in 0..self.trials {
                    draws.fill_block(&mut rng, &mut w, 1, 1);
                    soa.score_into(&w, &mut scores);
                    acc.record_scores_with(&scores, &mut scratch);
                }
                acc
            }
        };
        MonteCarloResult {
            trials: self.trials,
            stats: accumulator.stats(),
            accumulator,
        }
    }

    /// The pair-pruned block loop: returns `counts[alt][rank-1]`.
    fn run_pruned(
        &self,
        soa: &BandMatrixSoA,
        plan: &PairPlan,
        draws: &mut Draws,
        rng: &mut StdRng,
    ) -> Vec<Vec<usize>> {
        let n_attrs = soa.n_attributes();
        let n_alts = soa.n_alternatives();
        let live = soa.mid_subset(&plan.live);
        // Live alternative `k` loses 0..=deg_k of its undecided pairs; its
        // per-lane counts of those rank offsets start at `hist[slots[k] *
        // LANES]`, one counter per (offset, lane).
        let slots: Vec<usize> = plan
            .starts
            .iter()
            .enumerate()
            .map(|(k, &s)| s + k)
            .collect();
        let mut hist = vec![0u64; slots[plan.live.len()] * LANES];
        let mut block = vec![0.0; n_attrs * LANES];
        let mut scores = vec![0.0; plan.live.len() * LANES];
        let mut w = vec![0.0; n_attrs];
        let mut full = vec![0.0; n_alts];
        let mut counts = vec![vec![0usize; n_alts]; n_alts];
        let mut clamped_trials = 0usize;
        let mut done = 0usize;
        while done < self.trials {
            let lanes = LANES.min(self.trials - done);
            let clamped = draws.fill_block(rng, &mut block, LANES, lanes);
            // 1 for the lanes this block counts: drawn and not clamped.
            // Lanes past `lanes` hold stale finite weights; their scores
            // are computed and not counted.
            let mut valid = [0u64; LANES];
            for (t, v) in valid[..lanes].iter_mut().enumerate() {
                if clamped & (1 << t) == 0 {
                    *v = 1;
                } else {
                    for (x, &b) in w.iter_mut().zip(block[t..].iter().step_by(LANES)) {
                        *x = b;
                    }
                    soa.score_into(&w, &mut full);
                    rank_full_trial(&full, &mut counts);
                    clamped_trials += 1;
                }
            }
            live.score_block_transposed(&block, LANES, &mut scores);
            rank_live_block(plan, &slots, &scores, &valid, &mut hist);
            done += lanes;
        }
        for (k, &i) in plan.live.iter().enumerate() {
            let lane_counts = &hist[slots[k] * LANES..slots[k + 1] * LANES];
            for (o, h) in lane_counts.chunks_exact(LANES).enumerate() {
                counts[i][plan.base[i] + o] += h.iter().sum::<u64>() as usize;
            }
        }
        for (i, row) in counts.iter_mut().enumerate() {
            if plan.live.binary_search(&i).is_err() {
                row[plan.base[i]] += self.trials - clamped_trials;
            }
        }
        counts
    }

    /// How [`MonteCarlo::run_ctx`] classifies `ctx`'s alternative pairs
    /// under this simulation's weight class.
    pub fn pruning(&self, ctx: &EvalContext) -> PairPruning {
        let (lo, hi) = self.draws(ctx).support();
        let n = ctx.soa().n_alternatives();
        let plan = classify(ctx.soa(), &lo, &hi, n).unwrap_or_default();
        PairPruning {
            undecided_pairs: plan.rivals.len() / 2,
            live_alternatives: plan.live.len(),
        }
    }

    /// The scalar reference path: one weight vector drawn and scored at a
    /// time against the row-major midpoint matrix. Kept (and exercised by
    /// the differential suite) as the ground truth the batched path must
    /// reproduce; prefer [`MonteCarlo::run_ctx`] everywhere else.
    pub fn run_scalar_ctx(&self, ctx: &EvalContext) -> MonteCarloResult {
        self.run_core(
            ctx.model().num_attributes(),
            ctx.weights(),
            ctx.avg_matrix(),
            &ctx.model().alternatives,
        )
    }

    fn run_core(
        &self,
        n_attrs: usize,
        weights: &AttributeWeights,
        matrix: &[Vec<f64>],
        names: &[String],
    ) -> MonteCarloResult {
        let sampler = self.sampler(n_attrs, weights);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut acc = RankAccumulator::new(names.to_vec());
        for _ in 0..self.trials {
            let w = sampler.sample(&mut rng);
            let scores: Vec<f64> = matrix
                .iter()
                .map(|row| row.iter().zip(&w).map(|(u, wi)| u * wi).sum())
                .collect();
            acc.record_scores(&scores);
        }
        MonteCarloResult {
            trials: self.trials,
            stats: acc.stats(),
            accumulator: acc,
        }
    }
}

/// Classify every alternative pair over the support box `(lo, hi)` (see
/// the module docs). `None` once more than `max_live` alternatives have
/// an undecided pair: the caller then ranks every trial in full.
fn classify(soa: &BandMatrixSoA, lo: &[f64], hi: &[f64], max_live: usize) -> Option<PairPlan> {
    let n = soa.n_alternatives();
    let m = soa.n_attributes();
    let mut rows = vec![0.0; n * m];
    let mut scale = 0.0f64;
    for j in 0..m {
        for (i, &u) in soa.mid_col(j).iter().enumerate() {
            rows[i * m + j] = u;
            scale = scale.max(u.abs());
        }
    }
    let delta = PAIR_MARGIN * scale.max(1.0);
    // The rounding bound of the module docs, with u = EPSILON / 2.
    debug_assert!(64.0 * (m + 1) as f64 * (f64::EPSILON / 2.0) * scale < delta);
    let mut d = vec![0.0; m];
    let mut order = vec![0usize; m];
    let mut base = vec![0usize; n];
    let mut is_live = vec![false; n];
    let mut n_live = 0usize;
    let mut undecided = Vec::new();
    for a in 0..n {
        for b in a + 1..n {
            let (row_a, row_b) = (&rows[a * m..(a + 1) * m], &rows[b * m..(b + 1) * m]);
            for ((x, &ua), &ub) in d.iter_mut().zip(row_a).zip(row_b) {
                *x = ua - ub;
            }
            let (min, max) = pair_extremes(&d, lo, hi, &mut order);
            if min > delta {
                base[b] += 1;
            } else if max < -delta {
                base[a] += 1;
            } else {
                undecided.push((a, b));
                for i in [a, b] {
                    if !is_live[i] {
                        is_live[i] = true;
                        n_live += 1;
                    }
                }
                if n_live > max_live {
                    return None;
                }
            }
        }
    }
    let live: Vec<usize> = (0..n).filter(|&i| is_live[i]).collect();
    let mut slot = vec![0usize; n];
    for (k, &i) in live.iter().enumerate() {
        slot[i] = k;
    }
    let mut starts = vec![0usize; live.len() + 1];
    for &(a, b) in &undecided {
        starts[slot[a] + 1] += 1;
        starts[slot[b] + 1] += 1;
    }
    for k in 0..live.len() {
        starts[k + 1] += starts[k];
    }
    let mut fill = starts.clone();
    let mut rivals = vec![0usize; 2 * undecided.len()];
    for &(a, b) in &undecided {
        let (a, b) = (slot[a], slot[b]);
        rivals[fill[a]] = b;
        fill[a] += 1;
        rivals[fill[b]] = a;
        fill[b] += 1;
    }
    Some(PairPlan {
        base,
        live,
        rivals,
        starts,
    })
}

/// Minimum and maximum of `Σ d_j w_j` over `{lo ≤ w ≤ hi, Σw = 1}`: start
/// at `lo` and pour the remaining mass into the smallest (for the
/// minimum) or largest (maximum) `d_j` first. NaN for both when the set
/// is empty, so the pair stays undecided. `order` is scratch of `d`'s
/// length.
fn pair_extremes(d: &[f64], lo: &[f64], hi: &[f64], order: &mut [usize]) -> (f64, f64) {
    for (k, o) in order.iter_mut().enumerate() {
        *o = k;
    }
    order.sort_unstable_by(|&x, &y| d[x].total_cmp(&d[y]));
    let mut at_lo = 0.0;
    let mut mass = 1.0;
    for (&dj, &l) in d.iter().zip(lo) {
        at_lo += l * dj;
        mass -= l;
    }
    if mass < 0.0 {
        return (f64::NAN, f64::NAN);
    }
    let pour = |seq: &mut dyn Iterator<Item = &usize>| {
        let mut left = mass;
        let mut value = at_lo;
        for &j in seq {
            if left <= 0.0 {
                break;
            }
            let take = (hi[j] - lo[j]).min(left);
            value += take * d[j];
            left -= take;
        }
        if left > 0.0 {
            f64::NAN
        } else {
            value
        }
    };
    (pour(&mut order.iter()), pour(&mut order.iter().rev()))
}

/// Rank the live alternatives across one block and count the ranks: a
/// live alternative's rank offset in lane `t` is the number of its
/// undecided rivals that strictly outscore it there (`scores` is
/// live-major, `LANES` wide), and counter `hist[(slots[k] + offset) *
/// LANES + t]` gains `valid[t]` (one counter per lane, so no two
/// increments of a block hit the same counter).
fn rank_live_block(
    plan: &PairPlan,
    slots: &[usize],
    scores: &[f64],
    valid: &[u64; LANES],
    hist: &mut [u64],
) {
    let lanes_of = |k: usize| {
        let mut s = [0.0f64; LANES];
        s.copy_from_slice(&scores[k * LANES..(k + 1) * LANES]);
        s
    };
    for (k, window) in plan.starts.windows(2).enumerate() {
        let s_k = lanes_of(k);
        let mut offset = [0u64; LANES];
        for &r in &plan.rivals[window[0]..window[1]] {
            let s_r = lanes_of(r);
            for ((o, &x), &y) in offset.iter_mut().zip(&s_r).zip(&s_k) {
                *o += u64::from(x > y);
            }
        }
        let counters = &mut hist[slots[k] * LANES..slots[k + 1] * LANES];
        for (t, (&o, &v)) in offset.iter().zip(valid).enumerate() {
            counters[o as usize * LANES + t] += v;
        }
    }
}

/// Rank one fully scored trial into `counts`: an alternative's 0-based
/// rank is the number of strictly greater scores.
fn rank_full_trial(scores: &[f64], counts: &mut [Vec<usize>]) {
    for (row, &s) in counts.iter_mut().zip(scores) {
        row[scores.iter().filter(|&&other| other > s).count()] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maut::prelude::*;
    use rand::Rng;

    fn ctx(m: &DecisionModel) -> EvalContext {
        EvalContext::new(m.clone()).expect("valid model")
    }

    fn model() -> DecisionModel {
        let mut b = DecisionModelBuilder::new("m");
        let x = b.discrete_attribute("x", "X", &["0", "1", "2", "3"]);
        let y = b.discrete_attribute("y", "Y", &["0", "1", "2", "3"]);
        b.attach_attributes_to_root(&[(x, Interval::new(0.3, 0.6)), (y, Interval::new(0.4, 0.7))]);
        b.alternative("top", vec![Perf::level(3), Perf::level(3)]);
        b.alternative("spiky-x", vec![Perf::level(3), Perf::level(0)]);
        b.alternative("spiky-y", vec![Perf::level(0), Perf::level(3)]);
        b.alternative("bottom", vec![Perf::level(0), Perf::level(0)]);
        b.build().unwrap()
    }

    #[test]
    fn dominant_alternative_always_first() {
        let mc = MonteCarlo::new(MonteCarloConfig::Random, 500, 7);
        let r = mc.run_ctx(&ctx(&model()));
        assert_eq!(r.always_rank_one(), vec![0]);
        assert_eq!(r.stats[0].times_best, 500);
        assert_eq!(r.stats[3].mode, 4);
    }

    #[test]
    fn acceptability_indices_sum_to_one() {
        let mc = MonteCarlo::new(MonteCarloConfig::Random, 200, 3);
        let r = mc.run_ctx(&ctx(&model()));
        for alt in 0..4 {
            let total: f64 = (1..=4).map(|rank| r.acceptability(alt, rank)).sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn spiky_alternatives_swap_under_random_weights() {
        let mc = MonteCarlo::new(MonteCarloConfig::Random, 2000, 11);
        let r = mc.run_ctx(&ctx(&model()));
        // Both spiky alternatives take rank 2 sometimes and rank 3 others.
        assert!(r.acceptability(1, 2) > 0.1);
        assert!(r.acceptability(1, 3) > 0.1);
        assert!(r.acceptability(2, 2) > 0.1);
        assert!(r.acceptability(2, 3) > 0.1);
    }

    #[test]
    fn rank_order_scheme_biases_results() {
        // Force x most important: spiky-x should sit at rank 2 nearly always.
        let mc = MonteCarlo::new(MonteCarloConfig::RankOrder(vec![0, 1]), 1000, 13);
        let r = mc.run_ctx(&ctx(&model()));
        assert!(r.acceptability(1, 2) > 0.95, "{}", r.acceptability(1, 2));
    }

    #[test]
    fn interval_scheme_respects_elicited_bounds() {
        let m = model();
        let mc = MonteCarlo::new(MonteCarloConfig::ElicitedIntervals, 500, 17);
        let r = mc.run_ctx(&ctx(&m));
        // y's weight never drops below 0.4, so spiky-y beats spiky-x in the
        // worst case only when w_y < 0.5 — possible but the mean rank of
        // spiky-y must be no worse than spiky-x's.
        assert!(r.stats[2].mean <= r.stats[1].mean + 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let c = ctx(&model());
        let mc = MonteCarlo::new(MonteCarloConfig::Random, 100, 99);
        let a = mc.run_ctx(&c);
        let b = mc.run_ctx(&c);
        assert_eq!(a.mean_ranks(), b.mean_ranks());
    }

    #[test]
    fn boxplots_cover_all_alternatives() {
        let mc = MonteCarlo::new(MonteCarloConfig::Random, 100, 5);
        let r = mc.run_ctx(&ctx(&model()));
        let plots = r.boxplots();
        assert_eq!(plots.plots.len(), 4);
        assert!(!plots.render(60).is_empty());
    }

    #[test]
    fn fluctuation_of_top_is_bounded_by_n() {
        let mc = MonteCarlo::new(MonteCarloConfig::Random, 300, 23);
        let r = mc.run_ctx(&ctx(&model()));
        assert!(r.fluctuation_of_top(2) <= 3);
        // top alternative never moves
        let mut order: Vec<usize> = (0..4).collect();
        order.sort_by(|&a, &b| r.stats[a].mean.total_cmp(&r.stats[b].mean));
        assert_eq!(order[0], 0);
    }

    #[test]
    fn partial_rank_order_runs() {
        let mc = MonteCarlo::new(MonteCarloConfig::PartialRankOrder(vec![vec![0, 1]]), 50, 31);
        let r = mc.run_ctx(&ctx(&model()));
        assert_eq!(r.trials, 50);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        MonteCarlo::new(MonteCarloConfig::Random, 0, 1);
    }

    #[test]
    fn batched_path_matches_scalar_reference_exactly() {
        let c = ctx(&model());
        for config in [
            MonteCarloConfig::Random,
            MonteCarloConfig::RankOrder(vec![1, 0]),
            MonteCarloConfig::PartialRankOrder(vec![vec![0, 1]]),
            MonteCarloConfig::ElicitedIntervals,
        ] {
            let mc = MonteCarlo::new(config, 700, 42).with_threads(1);
            let scalar = mc.run_scalar_ctx(&c);
            let batched = mc.run_ctx(&c);
            assert_eq!(scalar.rank_counts(), batched.rank_counts());
            assert_eq!(scalar.mean_ranks(), batched.mean_ranks());
        }
    }

    #[test]
    fn same_seed_same_ranking_frequency_matrix_across_thread_counts() {
        // The deterministic-RNG guarantee: the worker count is an unread
        // compatibility field, so every value reproduces the same matrix.
        let c = ctx(&model());
        let mc = MonteCarlo::new(MonteCarloConfig::ElicitedIntervals, 1500, 77);
        let reference = mc.clone().with_threads(1).run_ctx(&c);
        assert_eq!(reference.rank_counts(), mc.run_scalar_ctx(&c).rank_counts());
        for threads in [0, 2, 3, 8] {
            let run = mc.clone().with_threads(threads).run_ctx(&c);
            assert_eq!(
                reference.rank_counts(),
                run.rank_counts(),
                "{threads} threads"
            );
            assert_eq!(reference.mean_ranks(), run.mean_ranks());
        }
    }

    #[test]
    fn rank_counts_rows_sum_to_trials() {
        let r = MonteCarlo::new(MonteCarloConfig::Random, 250, 1).run_ctx(&ctx(&model()));
        for row in r.rank_counts() {
            assert_eq!(row.iter().sum::<usize>(), 250);
        }
    }

    #[test]
    fn wide_models_take_the_sorting_branch_and_still_agree() {
        // More live alternatives than DENSE_RANK_MAX (every alternative
        // has an exact duplicate, and ties are never decided): run_ctx
        // switches to the per-trial sorting path, which must match the
        // scalar reference exactly too.
        let mut b = DecisionModelBuilder::new("wide");
        let x = b.discrete_attribute("x", "X", &["0", "1", "2", "3"]);
        let y = b.discrete_attribute("y", "Y", &["0", "1", "2", "3"]);
        b.attach_attributes_to_root(&[(x, Interval::new(0.3, 0.7)), (y, Interval::new(0.3, 0.7))]);
        for i in 0..(DENSE_RANK_MAX + 6) {
            b.alternative(
                format!("a{i:03}"),
                vec![Perf::level(i % 4), Perf::level((i / 4) % 4)],
            );
        }
        let c = EvalContext::new(b.build().unwrap()).unwrap();
        let mc = MonteCarlo::new(MonteCarloConfig::Random, 1124, 5);
        assert!(mc.pruning(&c).live_alternatives > DENSE_RANK_MAX);
        let scalar = mc.run_scalar_ctx(&c);
        for threads in [1usize, 4] {
            let batched = mc.clone().with_threads(threads).run_ctx(&c);
            assert_eq!(
                scalar.rank_counts(),
                batched.rank_counts(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn pair_extremes_match_vertex_enumeration() {
        // The knapsack extremes against brute force: every vertex of
        // {lo ≤ w ≤ hi, Σw = 1} has all coordinates but one at a bound.
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for case in 0..400 {
            let m = 1 + case % 6;
            let d: Vec<f64> = (0..m).map(|_| rng.random_range(-1.0..1.0)).collect();
            let lo: Vec<f64> = (0..m).map(|_| rng.random_range(0.0..0.3)).collect();
            let hi: Vec<f64> = lo.iter().map(|&l| l + rng.random_range(0.0..0.6)).collect();
            let (mut best_min, mut best_max) = (f64::INFINITY, f64::NEG_INFINITY);
            for free in 0..m {
                for mask in 0u32..1 << (m - 1) {
                    let mut w = vec![0.0; m];
                    let mut bit = 0;
                    for (j, x) in w.iter_mut().enumerate() {
                        if j != free {
                            *x = if mask & (1 << bit) != 0 { hi[j] } else { lo[j] };
                            bit += 1;
                        }
                    }
                    w[free] = 1.0 - w.iter().sum::<f64>();
                    if w[free] < lo[free] - 1e-12 || w[free] > hi[free] + 1e-12 {
                        continue;
                    }
                    let v: f64 = d.iter().zip(&w).map(|(a, b)| a * b).sum();
                    best_min = best_min.min(v);
                    best_max = best_max.max(v);
                }
            }
            let (min, max) = pair_extremes(&d, &lo, &hi, &mut vec![0; m]);
            if best_min.is_finite() {
                assert!(
                    (min - best_min).abs() < 1e-9,
                    "case {case}: {min} vs {best_min}"
                );
                assert!(
                    (max - best_max).abs() < 1e-9,
                    "case {case}: {max} vs {best_max}"
                );
            } else {
                assert!(min.is_nan() && max.is_nan(), "case {case}: empty set");
            }
        }
    }

    #[test]
    fn pruning_decides_dominance_and_keeps_ties_live() {
        // A strict chain: every pair decided, nothing scored.
        let mut b = DecisionModelBuilder::new("chain");
        let x = b.discrete_attribute("x", "X", &["0", "1", "2", "3"]);
        let y = b.discrete_attribute("y", "Y", &["0", "1", "2", "3"]);
        b.attach_attributes_to_root(&[(x, Interval::new(0.3, 0.7)), (y, Interval::new(0.3, 0.7))]);
        for level in 0..4 {
            b.alternative(format!("a{level}"), vec![Perf::level(level); 2]);
        }
        b.alternative("twin", vec![Perf::level(3); 2]);
        let c = EvalContext::new(b.build().unwrap()).unwrap();
        for config in [
            MonteCarloConfig::Random,
            MonteCarloConfig::ElicitedIntervals,
        ] {
            let mc = MonteCarlo::new(config, 37, 9);
            // The twin ties a3 exactly: that pair alone stays undecided.
            assert_eq!(
                mc.pruning(&c),
                PairPruning {
                    undecided_pairs: 1,
                    live_alternatives: 2,
                }
            );
            let r = mc.run_ctx(&c);
            assert_eq!(r.rank_counts(), mc.run_scalar_ctx(&c).rank_counts());
            assert_eq!(r.stats[3].times_best, 37);
            assert_eq!(r.stats[4].times_best, 37);
            assert_eq!(r.stats[0].mode, 5);
        }
    }

    #[test]
    fn batch_boundaries_do_not_change_results() {
        // Trial counts off the 16-lane block and the attempt chunk: the
        // scalar reference and the block loop must still agree exactly.
        let c = ctx(&model());
        for (config, trials) in [
            (MonteCarloConfig::Random, 5000),
            (MonteCarloConfig::ElicitedIntervals, 1),
            (MonteCarloConfig::ElicitedIntervals, 17),
            (MonteCarloConfig::ElicitedIntervals, 65),
        ] {
            let mc = MonteCarlo::new(config, trials, 3);
            assert_eq!(
                mc.run_scalar_ctx(&c).rank_counts(),
                mc.run_ctx(&c).rank_counts()
            );
        }
    }
}
