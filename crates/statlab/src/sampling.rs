//! Weight-vector sampling on the probability simplex.
//!
//! GMAA's Monte Carlo sensitivity analysis offers **three classes of
//! simulation** (paper, Section V):
//!
//! 1. attribute weights generated *completely at random* (no knowledge of
//!    relative importance) — uniform distribution on the simplex;
//! 2. random weights *preserving a total or partial rank order* of attribute
//!    importance;
//! 3. random weights *inside the elicited weight intervals*.
//!
//! All three are implemented here over any [`rand::Rng`], seeded by callers
//! for reproducibility.

use rand::Rng;

/// Which generation scheme a [`SimplexSampler`] uses.
#[derive(Debug, Clone, PartialEq)]
pub enum WeightScheme {
    /// Uniform (flat Dirichlet) over the whole simplex.
    Uniform,
    /// Uniform over the simplex, then reordered so that
    /// `w[order[0]] ≥ w[order[1]] ≥ …` (a *total* rank order of importance).
    RankOrder { order: Vec<usize> },
    /// Like `RankOrder` but with *groups* of indistinguishable attributes: a
    /// partial order. Weights are sorted across groups while order inside a
    /// group stays random.
    PartialRankOrder { groups: Vec<Vec<usize>> },
    /// Each weight drawn uniformly from `[low, upp]`, then normalized to sum
    /// to one; the draw is rejected if normalization pushes any component
    /// outside its interval (the procedure GMAA documents for simulating
    /// within elicited intervals).
    Intervals { lower: Vec<f64>, upper: Vec<f64> },
}

/// Sampler producing normalized weight vectors under a [`WeightScheme`].
#[derive(Debug, Clone)]
pub struct SimplexSampler {
    n: usize,
    scheme: WeightScheme,
    /// Max rejection attempts for `Intervals` before falling back to the
    /// clamped-renormalized draw (keeps the sampler total).
    max_rejects: usize,
}

impl SimplexSampler {
    /// Build a sampler for `n` weights. Panics if the scheme is inconsistent
    /// with `n` (wrong index sets or interval lengths).
    pub fn new(n: usize, scheme: WeightScheme) -> SimplexSampler {
        assert!(n > 0, "need at least one weight");
        match &scheme {
            WeightScheme::Uniform => {}
            WeightScheme::RankOrder { order } => {
                assert_eq!(order.len(), n, "rank order must mention every attribute");
                let mut seen = vec![false; n];
                for &i in order {
                    assert!(i < n && !seen[i], "rank order must be a permutation");
                    seen[i] = true;
                }
            }
            WeightScheme::PartialRankOrder { groups } => {
                let mut seen = vec![false; n];
                let mut count = 0;
                for g in groups {
                    for &i in g {
                        assert!(i < n && !seen[i], "groups must partition the attributes");
                        seen[i] = true;
                        count += 1;
                    }
                }
                assert_eq!(count, n, "groups must cover every attribute");
            }
            WeightScheme::Intervals { lower, upper } => {
                assert_eq!(lower.len(), n);
                assert_eq!(upper.len(), n);
                let lo: f64 = lower.iter().sum();
                let hi: f64 = upper.iter().sum();
                assert!(
                    lower.iter().zip(upper).all(|(l, u)| l <= u && *l >= 0.0),
                    "invalid weight intervals"
                );
                assert!(
                    lo <= 1.0 + 1e-9 && hi >= 1.0 - 1e-9,
                    "intervals exclude the simplex"
                );
            }
        }
        SimplexSampler {
            n,
            scheme,
            max_rejects: 1000,
        }
    }

    pub fn dim(&self) -> usize {
        self.n
    }

    pub fn scheme(&self) -> &WeightScheme {
        &self.scheme
    }

    /// Draw one weight vector (sums to 1, all components ≥ 0, scheme
    /// constraints satisfied up to the documented `Intervals` fallback).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        self.sample_into(rng, &mut out);
        out
    }

    /// Draw one weight vector into a caller-provided buffer — the form the
    /// batched Monte Carlo loop uses. Allocation-free for the `Uniform`
    /// and `Intervals` schemes; the rank-order schemes still build a
    /// sort scratch per draw. Consumes exactly the same RNG stream as
    /// [`SimplexSampler::sample`] (draw for draw), so the two produce
    /// identical sequences from the same seed.
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        assert_eq!(out.len(), self.n, "sample buffer arity");
        match &self.scheme {
            WeightScheme::Uniform => uniform_simplex_into(rng, out),
            WeightScheme::RankOrder { order } => {
                let mut w = vec![0.0; self.n];
                uniform_simplex_into(rng, &mut w);
                w.sort_by(|a, b| b.total_cmp(a));
                for (pos, &attr) in order.iter().enumerate() {
                    out[attr] = w[pos];
                }
            }
            WeightScheme::PartialRankOrder { groups } => {
                let mut w = vec![0.0; self.n];
                uniform_simplex_into(rng, &mut w);
                w.sort_by(|a, b| b.total_cmp(a));
                // Hand the largest block of weights to the most important
                // group, shuffling inside each group.
                let mut next = 0usize;
                for g in groups {
                    let block = &mut w[next..next + g.len()];
                    next += g.len();
                    // Fisher-Yates over the block for within-group freedom.
                    for i in (1..block.len()).rev() {
                        let j = rng.random_range(0..=i);
                        block.swap(i, j);
                    }
                    for (&attr, &val) in g.iter().zip(block.iter()) {
                        out[attr] = val;
                    }
                }
            }
            WeightScheme::Intervals { lower, upper } => {
                for _ in 0..self.max_rejects {
                    // Draw and accumulate in one pass (the sum still adds
                    // in index order), then normalize and box-check in a
                    // second; with one reciprocal instead of n divisions.
                    // The hot loop spends real time here.
                    let mut sum = 0.0;
                    for ((x, &l), &u) in out.iter_mut().zip(lower).zip(upper) {
                        let v = rng.random_range(l..=u);
                        *x = v;
                        sum += v;
                    }
                    if sum <= 0.0 {
                        continue;
                    }
                    let inv = 1.0 / sum;
                    let mut ok = true;
                    for ((x, &l), &u) in out.iter_mut().zip(lower).zip(upper) {
                        let v = *x * inv;
                        *x = v;
                        ok &= v >= l - ACCEPT_SLACK && v <= u + ACCEPT_SLACK;
                    }
                    if ok {
                        return;
                    }
                }
                // Fallback: clamp the normalized draw into the box and
                // re-normalize once; slight boundary bias is acceptable and
                // documented.
                for ((x, &l), &u) in out.iter_mut().zip(lower).zip(upper) {
                    *x = rng.random_range(l..=u);
                }
                clamp_renormalize(out, lower, upper);
            }
        }
    }

    /// The streaming form of the `Intervals` scheme (see
    /// [`IntervalStream`]); `None` for the other schemes, whose draws do
    /// not consume a fixed number of RNG values.
    pub fn interval_stream(&self) -> Option<IntervalStream> {
        match &self.scheme {
            WeightScheme::Intervals { lower, upper } => Some(IntervalStream {
                lower: lower.clone(),
                upper: upper.clone(),
                lo_ok: lower.iter().map(|&l| l - ACCEPT_SLACK).collect(),
                hi_ok: upper.iter().map(|&u| u + ACCEPT_SLACK).collect(),
                bits: vec![0; lower.len() * ATTEMPT_CHUNK],
                raw: vec![0.0; lower.len() * ATTEMPT_CHUNK],
                inv: vec![0.0; ATTEMPT_CHUNK],
                accepted: 0,
                next: ATTEMPT_CHUNK,
                rejects: 0,
                max_rejects: self.max_rejects,
                clamp: vec![0.0; lower.len()],
            }),
            _ => None,
        }
    }
}

/// Slack of the `Intervals` acceptance test: a normalized component `v`
/// passes when `l - ACCEPT_SLACK <= v <= u + ACCEPT_SLACK`.
const ACCEPT_SLACK: f64 = 1e-9;

/// The `Intervals` fallback after `max_rejects` rejected attempts: `out`
/// holds one attempt's raw draws; normalize, clamp into the box and
/// re-normalize once. The result sums to one but may leave the box.
fn clamp_renormalize(out: &mut [f64], lower: &[f64], upper: &[f64]) {
    let inv = 1.0 / out.iter().sum::<f64>().max(1e-12);
    for ((x, &l), &u) in out.iter_mut().zip(lower).zip(upper) {
        *x = (*x * inv).clamp(l, u);
    }
    let inv = 1.0 / out.iter().sum::<f64>();
    for x in out.iter_mut() {
        *x *= inv;
    }
}

/// Attempts an [`IntervalStream`] draws and tests per refill: one bit of
/// the `u64` acceptance mask each.
const ATTEMPT_CHUNK: usize = 64;
const _: () = assert!(ATTEMPT_CHUNK <= u64::BITS as usize);

/// The `Intervals` scheme of [`SimplexSampler`] as a chunked stream.
///
/// Every attempt consumes exactly `n` RNG values (one per weight), and the
/// fallback draw consumes `n` more, so attempt boundaries in the RNG
/// stream are fixed whatever the outcome. The stream therefore draws 64
/// attempts ahead: the raw `u64`s in one tight loop, then the conversion
/// to `[l, u]`, the sum, the normalization and the box test across the
/// whole chunk with one vector pass per weight. It hands out the
/// accepted attempts in order. Each weight vector it writes is
/// `to_bits`-identical to the one [`SimplexSampler::sample_into`] returns
/// from the same RNG state; only the RNG's position after the last draw
/// differs (the stream reads ahead).
#[derive(Debug, Clone)]
pub struct IntervalStream {
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// The acceptance bounds `l - ACCEPT_SLACK` / `u + ACCEPT_SLACK`,
    /// rounded exactly as the per-draw test rounds them.
    lo_ok: Vec<f64>,
    hi_ok: Vec<f64>,
    /// The chunk's RNG output, laid out like `raw`.
    bits: Vec<u64>,
    /// Raw draws of the current chunk, `raw[j * ATTEMPT_CHUNK + c]` =
    /// weight `j` of attempt `c`.
    raw: Vec<f64>,
    /// Per-attempt reciprocal of the raw sum.
    inv: Vec<f64>,
    /// Bit `c` set: attempt `c` of the chunk passed the box test.
    accepted: u64,
    /// Next unconsumed attempt of the chunk (`ATTEMPT_CHUNK` = empty).
    next: usize,
    /// Rejected attempts since the last emitted draw.
    rejects: usize,
    max_rejects: usize,
    /// Scratch for the clamped fallback.
    clamp: Vec<f64>,
}

impl IntervalStream {
    /// The box every accepted (unclamped) vector lies in,
    /// componentwise and exactly: `(lower - 1e-9, upper + 1e-9)` as the
    /// acceptance test rounds them. Accepted vectors also sum to one up
    /// to rounding.
    pub fn support(&self) -> (&[f64], &[f64]) {
        (&self.lo_ok, &self.hi_ok)
    }

    /// Draw the next `count` weight vectors into lanes `0..count` of an
    /// attribute-major block of `lanes` trials: weight `j` of trial `t`
    /// goes to `block[j * lanes + t]`. Returns the lanes holding the
    /// clamped fallback draw (bit `t` set), which sums to one but may lie
    /// outside [`IntervalStream::support`].
    pub fn fill_block<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        block: &mut [f64],
        lanes: usize,
        count: usize,
    ) -> u64 {
        const C: usize = ATTEMPT_CHUNK;
        assert!(count <= lanes && lanes <= u64::BITS as usize, "block lanes");
        assert_eq!(block.len(), self.lower.len() * lanes, "block arity");
        let mut clamped = 0u64;
        let mut t = 0;
        while t < count {
            if self.next == C {
                self.accept_chunk(rng);
                self.next = 0;
            }
            // Attempts `next..stop` are rejected; `stop` is the chunk's
            // next accepted attempt, or its end.
            let pending = self.accepted & (u64::MAX << self.next);
            let stop = if pending == 0 {
                C
            } else {
                pending.trailing_zeros() as usize
            };
            let room = self.max_rejects - self.rejects;
            if stop - self.next >= room {
                // The reject cap falls inside this run: the attempt right
                // after the last allowed reject is the clamped fallback.
                let c = self.next + room;
                if c == C {
                    self.rejects = self.max_rejects;
                    self.next = C;
                    continue;
                }
                for (x, col) in self.clamp.iter_mut().zip(self.raw.chunks_exact(C)) {
                    *x = col[c];
                }
                clamp_renormalize(&mut self.clamp, &self.lower, &self.upper);
                for (j, &x) in self.clamp.iter().enumerate() {
                    block[j * lanes + t] = x;
                }
                clamped |= 1 << t;
                (self.next, self.rejects, t) = (c + 1, 0, t + 1);
            } else if stop == C {
                self.rejects += C - self.next;
                self.next = C;
            } else {
                let inv = self.inv[stop];
                for (j, col) in self.raw.chunks_exact(C).enumerate() {
                    block[j * lanes + t] = col[stop] * inv;
                }
                (self.next, self.rejects, t) = (stop + 1, 0, t + 1);
            }
        }
        clamped
    }

    /// Draw the next `ATTEMPT_CHUNK` attempts in RNG order and box-test
    /// them all. Each raw draw is `l + U * (u - l)` with `U` the top 53
    /// bits of one `u64` scaled to `[0, 1)`, exactly as
    /// `rng.random_range(l..=u)` computes it; the raw sum adds weights in
    /// index order and each component is normalized by one reciprocal,
    /// exactly as [`SimplexSampler::sample_into`] does per attempt.
    fn accept_chunk<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        const C: usize = ATTEMPT_CHUNK;
        for c in 0..C {
            for col in self.bits.chunks_exact_mut(C) {
                col[c] = rng.next_u64();
            }
        }
        let bounds = self.lower.iter().zip(&self.upper);
        let columns = self.raw.chunks_exact_mut(C).zip(self.bits.chunks_exact(C));
        for ((col, bits), (&l, &u)) in columns.zip(bounds) {
            let span = u - l;
            for (x, &b) in col.iter_mut().zip(bits) {
                *x = l + ((b >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) * span;
            }
        }
        let mut sum = [0.0f64; C];
        for col in self.raw.chunks_exact(C) {
            for (s, &x) in sum.iter_mut().zip(col) {
                *s += x;
            }
        }
        // `bad[c]` is 1 once attempt `c` fails: a non-positive sum, or a
        // normalized component outside its acceptance bounds.
        let mut bad = [0u8; C];
        for ((b, inv), &s) in bad.iter_mut().zip(self.inv.iter_mut()).zip(&sum) {
            *inv = 1.0 / s;
            *b = if s > 0.0 { 0 } else { 1 };
        }
        for ((col, &l), &u) in self.raw.chunks_exact(C).zip(&self.lo_ok).zip(&self.hi_ok) {
            for ((b, &x), &inv) in bad.iter_mut().zip(col).zip(&self.inv) {
                let v = x * inv;
                *b |= if (v >= l) & (v <= u) { 0 } else { 1 };
            }
        }
        // Gather the eight 0/1 bytes of each word into eight mask bits.
        let mut rejected = 0u64;
        for (k, word) in bad.chunks_exact(8).enumerate() {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(word);
            let bits = u64::from_le_bytes(bytes).wrapping_mul(0x0102_0408_1020_4080) >> 56;
            rejected |= bits << (8 * k);
        }
        self.accepted = !rejected;
    }
}

/// Uniform sample on the standard simplex via normalized unit-rate
/// exponentials (equivalently Dirichlet(1,…,1)).
pub fn uniform_simplex<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<f64> {
    let mut w = vec![0.0; n];
    uniform_simplex_into(rng, &mut w);
    w
}

/// [`uniform_simplex`] into a caller-provided buffer; same RNG stream.
pub fn uniform_simplex_into<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    loop {
        for x in out.iter_mut() {
            let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            *x = -u.ln();
        }
        let sum: f64 = out.iter().sum();
        if sum > 0.0 && sum.is_finite() {
            let inv = 1.0 / sum;
            for x in out.iter_mut() {
                *x *= inv;
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    fn assert_simplex(w: &[f64]) {
        let s: f64 = w.iter().sum();
        assert!((s - 1.0).abs() < 1e-9, "sum {s}");
        assert!(w.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn uniform_sums_to_one() {
        let s = SimplexSampler::new(5, WeightScheme::Uniform);
        let mut r = rng();
        for _ in 0..100 {
            assert_simplex(&s.sample(&mut r));
        }
    }

    #[test]
    fn uniform_mean_is_centered() {
        let s = SimplexSampler::new(4, WeightScheme::Uniform);
        let mut r = rng();
        let mut mean = vec![0.0; 4];
        let trials = 20_000;
        for _ in 0..trials {
            for (m, x) in mean.iter_mut().zip(s.sample(&mut r)) {
                *m += x;
            }
        }
        for m in &mean {
            let avg = m / trials as f64;
            assert!((avg - 0.25).abs() < 0.01, "avg {avg}");
        }
    }

    #[test]
    fn rank_order_is_respected() {
        let order = vec![2, 0, 1]; // attr2 most important, then 0, then 1
        let s = SimplexSampler::new(3, WeightScheme::RankOrder { order });
        let mut r = rng();
        for _ in 0..200 {
            let w = s.sample(&mut r);
            assert_simplex(&w);
            assert!(w[2] >= w[0] && w[0] >= w[1], "{w:?}");
        }
    }

    #[test]
    fn partial_rank_order_is_respected_across_groups() {
        // {0,3} jointly more important than {1,2}
        let groups = vec![vec![0, 3], vec![1, 2]];
        let s = SimplexSampler::new(4, WeightScheme::PartialRankOrder { groups });
        let mut r = rng();
        for _ in 0..200 {
            let w = s.sample(&mut r);
            assert_simplex(&w);
            let min_top = w[0].min(w[3]);
            let max_bottom = w[1].max(w[2]);
            assert!(min_top >= max_bottom, "{w:?}");
        }
    }

    #[test]
    fn intervals_are_respected() {
        let lower = vec![0.1, 0.2, 0.05, 0.0];
        let upper = vec![0.4, 0.6, 0.3, 0.5];
        let s = SimplexSampler::new(
            4,
            WeightScheme::Intervals {
                lower: lower.clone(),
                upper: upper.clone(),
            },
        );
        let mut r = rng();
        for _ in 0..500 {
            let w = s.sample(&mut r);
            assert_simplex(&w);
            for ((&x, &l), &u) in w.iter().zip(&lower).zip(&upper) {
                assert!(x >= l - 1e-6 && x <= u + 1e-6, "{x} not in [{l},{u}]");
            }
        }
    }

    #[test]
    fn tight_intervals_still_sample() {
        // Nearly degenerate box around (0.25,0.25,0.25,0.25).
        let lower = vec![0.24; 4];
        let upper = vec![0.26; 4];
        let s = SimplexSampler::new(4, WeightScheme::Intervals { lower, upper });
        let mut r = rng();
        let w = s.sample(&mut r);
        assert_simplex(&w);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_rank_order_panics() {
        SimplexSampler::new(
            3,
            WeightScheme::RankOrder {
                order: vec![0, 0, 1],
            },
        );
    }

    #[test]
    #[should_panic(expected = "exclude the simplex")]
    fn incompatible_intervals_panic() {
        SimplexSampler::new(
            2,
            WeightScheme::Intervals {
                lower: vec![0.0, 0.0],
                upper: vec![0.2, 0.2],
            },
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let s = SimplexSampler::new(6, WeightScheme::Uniform);
        let a = s.sample(&mut StdRng::seed_from_u64(7));
        let b = s.sample(&mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn sample_into_ignores_prior_buffer_contents() {
        // The draw must be a pure function of (scheme, rng state): a dirty
        // reused buffer — the batched Monte Carlo loop writes trial after
        // trial into the same storage — yields the same stream as fresh
        // allocations.
        let schemes = vec![
            WeightScheme::Uniform,
            WeightScheme::RankOrder {
                order: vec![2, 0, 1, 3],
            },
            WeightScheme::PartialRankOrder {
                groups: vec![vec![0, 3], vec![1, 2]],
            },
            WeightScheme::Intervals {
                lower: vec![0.1, 0.2, 0.05, 0.0],
                upper: vec![0.4, 0.6, 0.3, 0.5],
            },
        ];
        for scheme in schemes {
            let s = SimplexSampler::new(4, scheme);
            let mut rng_a = StdRng::seed_from_u64(4242);
            let mut rng_b = StdRng::seed_from_u64(4242);
            let mut dirty = vec![f64::MAX; 4];
            for _ in 0..200 {
                let mut fresh = vec![0.0; 4];
                s.sample_into(&mut rng_a, &mut fresh);
                s.sample_into(&mut rng_b, &mut dirty);
                assert_eq!(fresh, dirty, "{:?}", s.scheme());
                assert_simplex(&dirty);
            }
        }
    }

    #[test]
    fn interval_stream_matches_sample_into_bit_for_bit() {
        // The chunked stream must hand out exactly the vectors the
        // per-draw sampler returns from the same seed, in order, across
        // chunk boundaries, partial blocks and the clamped fallback. The
        // last box accepts ~0.4% of attempts, so about one trial in fifty
        // exhausts the 1000-reject cap.
        let boxes = [
            (vec![0.1, 0.2, 0.05, 0.0], vec![0.4, 0.6, 0.3, 0.5]),
            (vec![0.24; 4], vec![0.26; 4]),
            (vec![0.0, 0.0, 0.2], vec![0.8, 0.0, 0.8]),
            (vec![0.0, 0.499], vec![1.0, 0.501]),
        ];
        for (case, (lower, upper)) in boxes.into_iter().enumerate() {
            let n = lower.len();
            let s = SimplexSampler::new(n, WeightScheme::Intervals { lower, upper });
            let mut stream = s.interval_stream().expect("interval scheme");
            let (lo, hi) = stream.support();
            let (lo, hi) = (lo.to_vec(), hi.to_vec());
            let mut rng_ref = StdRng::seed_from_u64(31 + case as u64);
            let mut rng = StdRng::seed_from_u64(31 + case as u64);
            let mut expected = vec![0.0; n];
            let mut clamps = 0;
            for (round, &(lanes, count)) in [(16, 16), (16, 5), (1, 1), (7, 7), (16, 13)]
                .iter()
                .cycle()
                .take(60)
                .enumerate()
            {
                let mut block = vec![f64::NAN; n * lanes];
                let clamped = stream.fill_block(&mut rng, &mut block, lanes, count);
                for t in 0..count {
                    s.sample_into(&mut rng_ref, &mut expected);
                    for (j, &x) in expected.iter().enumerate() {
                        let got = block[j * lanes + t];
                        assert_eq!(got.to_bits(), x.to_bits(), "case {case} round {round}");
                    }
                    if clamped & (1 << t) != 0 {
                        clamps += 1;
                    } else {
                        let inside = (0..n).all(|j| {
                            let x = block[j * lanes + t];
                            lo[j] <= x && x <= hi[j]
                        });
                        assert!(inside, "case {case}: accepted draw outside the support");
                    }
                }
                assert_eq!(clamped >> count, 0, "no clamp flags past `count`");
            }
            if case == 3 {
                assert!(clamps > 0, "the near-infeasible box never clamped");
            } else {
                assert_eq!(clamps, 0, "case {case}");
            }
        }
    }

    #[test]
    fn interval_stream_only_for_the_interval_scheme() {
        assert!(SimplexSampler::new(3, WeightScheme::Uniform)
            .interval_stream()
            .is_none());
    }

    #[test]
    fn uniform_simplex_handles_n1() {
        let w = uniform_simplex(1, &mut rng());
        assert_eq!(w, vec![1.0]);
    }
}
