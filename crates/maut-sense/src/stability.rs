//! Weight stability intervals (paper Fig 8).
//!
//! For any objective at any level of the hierarchy, GMAA computes *"the
//! interval where the average normalized weight for the considered objective
//! can vary without affecting the overall ranking of alternatives or just
//! the best-ranked alternative"*. When the target's average weight moves to
//! `w`, its siblings' averages are rescaled proportionally so the group
//! still sums to 1, and everything below each node keeps its internal
//! distribution.
//!
//! # Closed form
//!
//! Under that rescaling each flat attribute weight (the product of the
//! node averages on a leaf's path, which meets the target's sibling group
//! at most once) is affine in `w`, so every alternative's average score is
//! too: `s_i(w) = a_i + b_i·w`, with all `a_i`, `b_i` from the flat weights
//! at `w = 0` and `w = 1`. Each criterion is then an intersection of
//! half-lines `(a_r − a_i) + (b_r − b_i)·w ≥ −ORDERING_EPS` (the best
//! alternative `r` against every other one, or each adjacent pair of the
//! reference ranking), hence convex: one interval, exact up to
//! floating-point rounding once clamped to `[0, 1]` and widened to contain
//! the elicited weight.
//!
//! **Tie rule.** The reference ranking sorts the scores computed directly
//! at the elicited weight, ties to the lower index, never the affine ones:
//! at a tie it picks the interval's side, which rounding must not flip.
//! `ORDERING_EPS` stops exact ties at weight extremes counting as changes.

use maut::{EvalContext, ObjectiveId, ORDERING_EPS};
use serde::{Deserialize, Serialize};

/// What must stay unchanged inside the stability interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StabilityMode {
    /// Only the best-ranked alternative must not change.
    BestAlternative,
    /// The entire ranking must not change.
    FullRanking,
}

/// Stability interval of one objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StabilityReport {
    /// The objective whose weight was varied.
    pub objective: ObjectiveId,
    /// Which stability criterion was applied.
    pub mode: StabilityMode,
    /// Current average normalized weight of the objective.
    pub current: f64,
    /// Lower end of the stable range `[lo, hi] ⊆ [0, 1]`.
    pub lo: f64,
    /// Upper end of the stable range.
    pub hi: f64,
}

impl StabilityReport {
    /// Whether the whole `[0,1]` range is stable — the paper's finding for
    /// all criteria except *Funct Requir* and *Naming Conv*.
    pub fn is_fully_stable(&self, tol: f64) -> bool {
        self.lo <= tol && self.hi >= 1.0 - tol
    }

    /// `hi − lo`, the stable range's width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Scratch shared by every objective of one model, so that the
/// per-objective kernel allocates nothing.
struct Scratch {
    /// `(objective, parent index)` in pre-order: parents before children.
    preorder: Vec<(ObjectiveId, usize)>,
    /// Local node averages, turned in place into root-path products.
    node: Vec<f64>,
    /// Flat attribute weights at `w = 0` (first at `current`) and `w = 1`.
    flat0: Vec<f64>,
    flat1: Vec<f64>,
    /// `s_i(w) = a[i] + b[i]·w` (`a` first holds the scores at `current`).
    a: Vec<f64>,
    b: Vec<f64>,
    /// Reference ranking at `current`.
    order: Vec<usize>,
}

impl Scratch {
    fn new(ctx: &EvalContext) -> Scratch {
        let tree = &ctx.model().tree;
        let (m, n) = (ctx.model().num_attributes(), ctx.avg_matrix().len());
        Scratch {
            preorder: tree
                .descendants(tree.root())
                .into_iter()
                .filter_map(|id| Some((id, tree.get(id).parent?.index())))
                .collect(),
            node: vec![0.0; tree.len()],
            flat0: vec![0.0; m],
            flat1: vec![0.0; m],
            a: vec![0.0; n],
            b: vec![0.0; n],
            order: vec![0; n],
        }
    }
}

/// Flat attribute weights with `target`'s average weight forced to `w`
/// and its siblings rescaled proportionally.
fn flat_weights_into(
    ctx: &EvalContext,
    preorder: &[(ObjectiveId, usize)],
    target: ObjectiveId,
    w: f64,
    node: &mut [f64],
    flat: &mut [f64],
) {
    let (tree, base_avgs) = (&ctx.model().tree, ctx.node_averages());
    node.copy_from_slice(base_avgs);
    node[target.index()] = w;
    if let Some(parent) = tree.get(target).parent {
        let sibs = &tree.get(parent).children;
        let rest: f64 = sibs
            .iter()
            .filter(|s| **s != target)
            .map(|s| base_avgs[s.index()])
            .sum();
        for s in sibs.iter().filter(|s| **s != target) {
            node[s.index()] = if rest > 1e-12 {
                base_avgs[s.index()] * (1.0 - w) / rest
            } else {
                // target previously had all the mass; spread remainder evenly
                (1.0 - w) / (sibs.len() - 1).max(1) as f64
            };
        }
    }
    // Root-path products, top-down (a valid model binds every attribute).
    node[tree.root().index()] = 1.0;
    for &(id, parent) in preorder {
        node[id.index()] *= node[parent];
        if let Some(attr) = tree.get(id).attribute {
            flat[attr.index()] = node[id.index()];
        }
    }
}

/// The per-objective affine kernel, over prepared scratch.
fn interval_with(
    ctx: &EvalContext,
    target: ObjectiveId,
    mode: StabilityMode,
    s: &mut Scratch,
) -> StabilityReport {
    let root = ctx.model().tree.root();
    assert!(target != root, "stability of the root is undefined");
    let (avg_matrix, current) = (ctx.avg_matrix(), ctx.node_averages()[target.index()]);

    // Reference ranking from the scores computed directly at `current` (in
    // `a` until reused); the index tie-break makes the sort order total.
    flat_weights_into(ctx, &s.preorder, target, current, &mut s.node, &mut s.flat0);
    for (score, row) in s.a.iter_mut().zip(avg_matrix) {
        *score = row.iter().zip(&s.flat0).map(|(u, w)| u * w).sum();
    }
    s.order.iter_mut().enumerate().for_each(|(i, o)| *o = i);
    let scores = &s.a;
    s.order
        .sort_unstable_by(|&x, &y| scores[y].total_cmp(&scores[x]).then(x.cmp(&y)));

    flat_weights_into(ctx, &s.preorder, target, 0.0, &mut s.node, &mut s.flat0);
    flat_weights_into(ctx, &s.preorder, target, 1.0, &mut s.node, &mut s.flat1);
    for (i, row) in avg_matrix.iter().enumerate() {
        let (mut a, mut b) = (0.0, 0.0);
        for ((u, f0), f1) in row.iter().zip(&s.flat0).zip(&s.flat1) {
            a += u * f0;
            b += u * (f1 - f0);
        }
        (s.a[i], s.b[i]) = (a, b);
    }

    let (mut lo, mut hi) = (0.0, 1.0);
    for k in 1..s.order.len() {
        let above = match mode {
            StabilityMode::BestAlternative => s.order[0],
            StabilityMode::FullRanking => s.order[k - 1],
        };
        let i = s.order[k];
        let (da, db) = (s.a[above] - s.a[i], s.b[above] - s.b[i]);
        let bound = (-ORDERING_EPS - da) / db;
        if db > 0.0 {
            lo = bound.max(lo);
        } else if db < 0.0 {
            hi = bound.min(hi);
        } else if da < -ORDERING_EPS {
            // Violated for every w: the interval collapses onto `current`.
            (lo, hi) = (f64::INFINITY, f64::NEG_INFINITY);
        }
    }
    StabilityReport {
        objective: target,
        mode,
        current,
        lo: lo.min(current),
        hi: hi.max(current),
    }
}

/// Compute the exact stability interval of `target` against a shared
/// evaluation context (must not be the root).
pub fn stability_interval_ctx(
    ctx: &EvalContext,
    target: ObjectiveId,
    mode: StabilityMode,
) -> StabilityReport {
    let mut scratch = Scratch::new(ctx);
    interval_with(ctx, target, mode, &mut scratch)
}

/// Stability intervals for every non-root objective, against a shared
/// evaluation context. One scratch set serves every objective.
pub fn all_stability_intervals_ctx(ctx: &EvalContext, mode: StabilityMode) -> Vec<StabilityReport> {
    let tree = &ctx.model().tree;
    let mut scratch = Scratch::new(ctx);
    tree.iter()
        .filter(|(id, _)| *id != tree.root())
        .map(|(id, _)| interval_with(ctx, id, mode, &mut scratch))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use maut::prelude::*;

    fn ctx(m: &DecisionModel) -> EvalContext {
        EvalContext::new(m.clone()).expect("valid model")
    }

    /// Two attributes; alt "x-wins" is best on x, "y-wins" on y. With equal
    /// weights x-wins is slightly ahead; pushing weight toward y flips it.
    fn model() -> DecisionModel {
        let mut b = DecisionModelBuilder::new("m");
        let x = b.discrete_attribute("x", "X", &["l", "m", "h"]);
        let y = b.discrete_attribute("y", "Y", &["l", "m", "h"]);
        b.attach_attributes_to_root(&[(x, Interval::new(0.4, 0.6)), (y, Interval::new(0.4, 0.6))]);
        b.alternative("x-wins", vec![Perf::level(2), Perf::level(1)]);
        b.alternative("y-wins", vec![Perf::level(1), Perf::level(2)]);
        b.build().unwrap()
    }

    #[test]
    fn flip_point_is_found() {
        let m = model();
        let x = m.tree.find("x").unwrap();
        let r = stability_interval_ctx(&ctx(&m), x, StabilityMode::BestAlternative);
        // x-wins and y-wins tie at w_x = 0.5; below that y-wins leads.
        assert!((r.current - 0.5).abs() < 1e-9);
        assert!(
            r.hi >= 1.0 - 1e-6,
            "raising x's weight keeps x-wins best: {r:?}"
        );
        assert!(r.lo > 0.4 && r.lo <= 0.51, "flip near 0.5: {r:?}");
        assert!(!r.is_fully_stable(1e-6));
    }

    #[test]
    fn flip_point_is_the_exact_tie_point() {
        let m = model();
        let x = m.tree.find("x").unwrap();
        for mode in [StabilityMode::BestAlternative, StabilityMode::FullRanking] {
            let r = stability_interval_ctx(&ctx(&m), x, mode);
            assert!((r.lo - 0.5).abs() <= 1e-8 && r.hi == 1.0, "{mode:?}: {r:?}");
        }
    }

    #[test]
    fn dominant_alternative_gives_full_stability() {
        let mut b = DecisionModelBuilder::new("m");
        let x = b.discrete_attribute("x", "X", &["l", "h"]);
        let y = b.discrete_attribute("y", "Y", &["l", "h"]);
        b.attach_attributes_to_root(&[(x, Interval::point(0.5)), (y, Interval::point(0.5))]);
        b.alternative("best", vec![Perf::level(1), Perf::level(1)]);
        b.alternative("worst", vec![Perf::level(0), Perf::level(0)]);
        let m = b.build().unwrap();
        let x = m.tree.find("x").unwrap();
        let r = stability_interval_ctx(&ctx(&m), x, StabilityMode::FullRanking);
        assert!(r.is_fully_stable(1e-6), "{r:?}");
        assert_eq!(r.width(), r.hi - r.lo);
    }

    #[test]
    fn full_ranking_mode_is_no_wider_than_best_mode() {
        let m = model();
        let x = m.tree.find("x").unwrap();
        let c = ctx(&m);
        let best = stability_interval_ctx(&c, x, StabilityMode::BestAlternative);
        let full = stability_interval_ctx(&c, x, StabilityMode::FullRanking);
        assert!(full.lo >= best.lo - 1e-9);
        assert!(full.hi <= best.hi + 1e-9);
    }

    #[test]
    fn all_intervals_cover_every_objective() {
        let m = model();
        let rs = all_stability_intervals_ctx(&ctx(&m), StabilityMode::BestAlternative);
        assert_eq!(rs.len(), m.tree.len() - 1);
    }

    #[test]
    #[should_panic(expected = "root is undefined")]
    fn root_is_rejected() {
        let m = model();
        stability_interval_ctx(&ctx(&m), m.tree.root(), StabilityMode::BestAlternative);
    }

    #[test]
    fn hierarchical_target_rescales_descendants() {
        // root -> {G (x, y), z}: G at 0.6 avg; moving G's weight to 0 makes
        // z the only criterion.
        let mut b = DecisionModelBuilder::new("m");
        let g = b.objective_under_root("g", "G", Interval::point(0.6));
        let x = b.discrete_attribute("x", "X", &["l", "h"]);
        let y = b.discrete_attribute("y", "Y", &["l", "h"]);
        b.attach_attribute(g, x, Interval::point(0.5));
        b.attach_attribute(g, y, Interval::point(0.5));
        let z = b.discrete_attribute("z", "Z", &["l", "h"]);
        b.attach_attributes_to_root(&[(z, Interval::point(0.4))]);
        b.alternative(
            "g-strong",
            vec![Perf::level(1), Perf::level(1), Perf::level(0)],
        );
        b.alternative(
            "z-strong",
            vec![Perf::level(0), Perf::level(0), Perf::level(1)],
        );
        let m = b.build().unwrap();
        let g_id = m.tree.find("g").unwrap();
        let r = stability_interval_ctx(&ctx(&m), g_id, StabilityMode::BestAlternative);
        // g-strong is best at 0.6; it stays best down to 0.5 and up to 1.
        assert!(r.hi >= 1.0 - 1e-6);
        assert!((r.lo - 0.5).abs() < 0.02, "{r:?}");
    }
}
