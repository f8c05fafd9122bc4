//! Differential test: exact closed-form weight stability vs the grid scan.
//!
//! `maut_sense::stability` computes each interval in closed form from the
//! affine scores `s_i(w) = a_i + b_i·w`. The grid scan with bisected
//! boundaries that it replaced is kept here, and only here, as a reference.
//! On every `gmaa-gen` family, in both `StabilityMode`s and for every
//! non-root objective, the exact interval must contain the elicited weight,
//! lie in `[0, 1]`, and agree with the scan to within the scan's bisection
//! tolerance.
//!
//! The fast tier runs in plain `cargo test`; the larger sweep is
//! `#[ignore]`d and runs with `cargo test -- --include-ignored`.

use maut::{EvalContext, ObjectiveId, ORDERING_EPS};
use maut_sense::stability::{all_stability_intervals_ctx, StabilityMode};

/// Scan steps of the reference; the boundaries are then bisected 20 times.
const RESOLUTION: usize = 100;
const BISECTIONS: i32 = 20;

/// Bound on `|exact − scan|`: the width of the bracket the bisection
/// leaves around each boundary.
fn scan_tolerance() -> f64 {
    1.0 / RESOLUTION as f64 / 2f64.powi(BISECTIONS)
}

/// Average-utility scores with `target`'s normalized average weight forced
/// to `w` and its siblings rescaled proportionally.
fn scores_with_weight(ctx: &EvalContext, target: ObjectiveId, w: f64) -> Vec<f64> {
    let model = ctx.model();
    let tree = &model.tree;
    let base_avgs = ctx.node_averages();
    let mut node_avg = base_avgs.to_vec();
    let sibs = tree.siblings(target);
    node_avg[target.index()] = w;
    let rest: f64 = sibs
        .iter()
        .filter(|s| **s != target)
        .map(|s| base_avgs[s.index()])
        .sum();
    for s in &sibs {
        if *s == target {
            continue;
        }
        node_avg[s.index()] = if rest > 1e-12 {
            base_avgs[s.index()] * (1.0 - w) / rest
        } else {
            (1.0 - w) / (sibs.len() - 1).max(1) as f64
        };
    }

    let mut flat = vec![0.0; model.num_attributes()];
    for leaf in tree.leaves_under(tree.root()) {
        let attr = tree.get(leaf).attribute.expect("leaf");
        let mut p = 1.0;
        for id in tree.path_to(leaf) {
            if id != tree.root() {
                p *= node_avg[id.index()];
            }
        }
        flat[attr.index()] = p;
    }
    ctx.avg_matrix()
        .iter()
        .map(|row| row.iter().zip(&flat).map(|(u, w)| u * w).sum())
        .collect()
}

fn ranking_of(scores: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    idx
}

fn criterion_holds(reference: &[usize], scores: &[f64], mode: StabilityMode) -> bool {
    match mode {
        StabilityMode::BestAlternative => {
            let best = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            scores[reference[0]] >= best - ORDERING_EPS
        }
        StabilityMode::FullRanking => reference
            .windows(2)
            .all(|w| scores[w[0]] >= scores[w[1]] - ORDERING_EPS),
    }
}

/// The reference: scan outward from the elicited weight at `RESOLUTION`
/// steps, then bisect both boundaries.
fn scan_interval(ctx: &EvalContext, target: ObjectiveId, mode: StabilityMode) -> (f64, f64) {
    let current = ctx.node_averages()[target.index()];
    let reference = ranking_of(&scores_with_weight(ctx, target, current));
    let holds = |w: f64| criterion_holds(&reference, &scores_with_weight(ctx, target, w), mode);

    let step = 1.0 / RESOLUTION as f64;
    let mut lo = current;
    while lo - step >= -1e-12 && holds((lo - step).max(0.0)) {
        lo = (lo - step).max(0.0);
    }
    let mut hi = current;
    while hi + step <= 1.0 + 1e-12 && holds((hi + step).min(1.0)) {
        hi = (hi + step).min(1.0);
    }
    if lo > 0.0 {
        let mut bad = (lo - step).max(0.0);
        for _ in 0..BISECTIONS {
            let mid = (bad + lo) / 2.0;
            if holds(mid) {
                lo = mid;
            } else {
                bad = mid;
            }
        }
    }
    if hi < 1.0 {
        let mut bad = (hi + step).min(1.0);
        for _ in 0..BISECTIONS {
            let mid = (bad + hi) / 2.0;
            if holds(mid) {
                hi = mid;
            } else {
                bad = mid;
            }
        }
    }
    (lo, hi)
}

/// Check every objective of one model in both modes; returns the largest
/// `|exact − scan|` seen.
fn check_model(ctx: &EvalContext, label: &str) -> f64 {
    let tol = scan_tolerance();
    let mut worst = 0.0f64;
    for mode in [StabilityMode::BestAlternative, StabilityMode::FullRanking] {
        for r in all_stability_intervals_ctx(ctx, mode) {
            let what = format!("{label}, {mode:?}, objective {}", r.objective.index());
            assert!(
                0.0 <= r.lo && r.lo <= r.current && r.current <= r.hi && r.hi <= 1.0,
                "{what}: {r:?}"
            );
            let (lo, hi) = scan_interval(ctx, r.objective, mode);
            let gap = (r.lo - lo).abs().max((r.hi - hi).abs());
            assert!(
                gap <= tol,
                "{what}: exact [{}, {}] vs scan [{lo}, {hi}] (gap {gap:e} > {tol:e})",
                r.lo,
                r.hi
            );
            worst = worst.max(gap);
        }
    }
    worst
}

fn check_generated(family: gmaa_gen::Family, alternatives: usize, attributes: usize, seed: u64) {
    let cfg = gmaa_gen::GenConfig::preset(family, alternatives, attributes, seed);
    let ctx = EvalContext::new(gmaa_gen::generate(&cfg)).expect("valid");
    check_model(&ctx, &cfg.label());
}

#[test]
fn exact_stability_matches_scan_fast() {
    let paper = EvalContext::new(neon_reuse::paper_model().model).expect("valid");
    check_model(&paper, "paper model");
    for family in gmaa_gen::Family::ALL {
        for seed in 1..=3 {
            check_generated(family, 24, 8, seed);
        }
    }
}

/// Seeds whose reference ranking has a tie at the elicited weight. Taking
/// the best alternative from the affine scores instead of the directly
/// computed ones puts the interval on the wrong side of the tie here.
#[test]
fn exact_stability_matches_scan_at_elicited_ties() {
    use gmaa_gen::Family;
    for (family, seed) in [
        (Family::Deep, 19),
        (Family::NearDegenerate, 4),
        (Family::NearDegenerate, 19),
    ] {
        check_generated(family, 24, 8, seed);
    }
}

#[test]
#[ignore = "slow exact-vs-scan sweep; CI runs it via --include-ignored"]
fn exact_stability_matches_scan_large_sweep() {
    for family in gmaa_gen::Family::ALL {
        for seed in 0..20 {
            check_generated(family, 24, 8, seed);
        }
        for seed in 0..4 {
            check_generated(family, 80, 10, seed);
        }
    }
}
