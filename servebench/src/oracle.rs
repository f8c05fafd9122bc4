//! The reply oracle: every reply is checked against a twin
//! `AnalysisEngine` per tenant that replays that tenant's acknowledged
//! edits in order, after the timed phase.
//!
//! Verdicts, rankings, intervals, evaluations, stability reports and
//! Monte Carlo rank counts must match exactly. Potential-optimality
//! slacks must match within [`SLACK_TOL`], the certification tolerance
//! of `tests/soa_equivalence.rs`: a tenant the server evicted rehydrates
//! into a full cycle where the twin runs an incremental one.

use crate::workload::Spec;
use gmaa::{Analysis, AnalysisEngine, DiscardCycle};
use gmaa_serve::net::WireResponse;
use gmaa_serve::{Request, Response, SessionConfig, SessionSnapshot};
use maut::Evaluation;
use maut_sense::StabilityReport;
use std::collections::HashMap;

pub const SLACK_TOL: f64 = 1e-7;

/// The parts of a discard cycle the oracle compares, without the
/// per-alternative name strings (hashed instead) so thousands of large
/// replies stay small in memory.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleDigest {
    non_dominated: Vec<usize>,
    verdicts: Vec<bool>,
    slacks: Vec<f64>,
    /// `(alternative, rank, intensity bits)` in reply order.
    intensity: Vec<(usize, usize, u64)>,
    names: u64,
}

impl CycleDigest {
    pub fn of(c: &DiscardCycle) -> CycleDigest {
        let mut names = 0u64;
        for n in c
            .potential
            .iter()
            .map(|p| &p.name)
            .chain(c.intensity.iter().map(|r| &r.name))
        {
            names = crate::rng::mix(names, crate::workload::fnv1a(n.as_bytes()));
        }
        CycleDigest {
            non_dominated: c.non_dominated.clone(),
            verdicts: c.potential.iter().map(|p| p.potentially_optimal).collect(),
            slacks: c.potential.iter().map(|p| p.slack).collect(),
            intensity: c
                .intensity
                .iter()
                .map(|r| (r.alternative, r.rank, r.intensity.to_bits()))
                .collect(),
            names,
        }
    }

    /// Alternatives by intensity rank, best first.
    pub fn ranking(&self) -> Vec<usize> {
        let mut by_rank: Vec<(usize, usize)> = self
            .intensity
            .iter()
            .map(|&(alt, rank, _)| (rank, alt))
            .collect();
        by_rank.sort_unstable();
        by_rank.into_iter().map(|(_, alt)| alt).collect()
    }

    fn diverges(&self, oracle: &CycleDigest) -> Option<String> {
        if self.non_dominated != oracle.non_dominated {
            return Some("non-dominated set differs".into());
        }
        if self.verdicts != oracle.verdicts {
            return Some("potential-optimality verdicts differ".into());
        }
        if self.intensity != oracle.intensity || self.names != oracle.names {
            return Some("intensity ranking differs".into());
        }
        let worst = self
            .slacks
            .iter()
            .zip(&oracle.slacks)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        (self.slacks.len() != oracle.slacks.len() || worst > SLACK_TOL)
            .then(|| format!("potential slack off by {worst:e}"))
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisDigest {
    cycle: CycleDigest,
    evaluation: Evaluation,
    stability: Vec<StabilityReport>,
    mc_trials: usize,
    mc_counts: Vec<Vec<usize>>,
}

impl AnalysisDigest {
    pub fn of(a: &Analysis) -> AnalysisDigest {
        AnalysisDigest {
            cycle: CycleDigest::of(&DiscardCycle {
                non_dominated: a.non_dominated.clone(),
                potential: a.potential.clone(),
                intensity: a.intensity.clone(),
            }),
            evaluation: a.evaluation.clone(),
            stability: a.stability.clone(),
            mc_trials: a.monte_carlo.trials,
            mc_counts: a.monte_carlo.rank_counts().to_vec(),
        }
    }

    fn diverges(&self, oracle: &AnalysisDigest) -> Option<String> {
        if let Some(d) = self.cycle.diverges(&oracle.cycle) {
            return Some(d);
        }
        if self.evaluation != oracle.evaluation {
            return Some("evaluation differs".into());
        }
        if self.stability != oracle.stability {
            return Some("stability intervals differ".into());
        }
        (self.mc_trials != oracle.mc_trials || self.mc_counts != oracle.mc_counts)
            .then(|| "Monte Carlo rank counts differ".into())
    }
}

/// What a request's reply said, kept for the oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Created,
    Edited,
    Cycle(CycleDigest),
    Analysis(Box<AnalysisDigest>),
    Snapshot(Box<SessionSnapshot>),
    /// An error reply, or a reply of the wrong shape.
    Failed(String),
}

impl Outcome {
    pub fn of(reply: WireResponse) -> Outcome {
        match reply {
            WireResponse::Ok(Response::Created) => Outcome::Created,
            WireResponse::Ok(Response::Edited) => Outcome::Edited,
            WireResponse::Ok(Response::Cycle(c)) => Outcome::Cycle(CycleDigest::of(&c)),
            WireResponse::Ok(Response::Analysis(a)) => {
                Outcome::Analysis(Box::new(AnalysisDigest::of(&a)))
            }
            WireResponse::Ok(Response::Snapshot(s)) => Outcome::Snapshot(s),
            WireResponse::Ok(other) => Outcome::Failed(format!("unexpected reply {other:?}")),
            WireResponse::Err(e) => Outcome::Failed(e.to_string()),
            WireResponse::Drained { .. } => Outcome::Failed("unexpected drain reply".into()),
        }
    }

    pub fn failed(&self) -> bool {
        matches!(self, Outcome::Failed(_))
    }

    /// The tenant's intensity ranking after this reply, if it carries one.
    pub fn ranking(&self) -> Option<Vec<usize>> {
        match self {
            Outcome::Cycle(c) => Some(c.ranking()),
            Outcome::Analysis(a) => Some(a.cycle.ranking()),
            _ => None,
        }
    }
}

/// One request of a tenant's history and its reply.
pub struct Entry {
    pub request: Request,
    pub outcome: Outcome,
}

/// The engine a session runs: the server applies [`SessionConfig`] the
/// same way when it creates a session.
pub fn session_engine(spec: &Spec, tenant: usize, config: SessionConfig) -> AnalysisEngine {
    let mut e =
        AnalysisEngine::new(spec.tenants[tenant].model.clone()).expect("generated models validate");
    e.mc_trials = config.mc_trials;
    e.mc_seed = config.mc_seed;
    e.mc_threads = config.mc_threads;
    e.stability_resolution = config.stability_resolution;
    e
}

/// Replay one tenant's history on a fresh twin and compare every reply.
/// Returns the number of replies checked, or the first divergence.
///
/// An analysis is a pure function of the model (the Monte Carlo seed is
/// fixed), and the closed loops revisit the same few model states over
/// and over, so the twin analyses each state once and compares every
/// later reply for that state with the same result.
fn check_tenant(spec: &Spec, tenant: usize, log: &[Entry]) -> Result<usize, String> {
    let config = SessionConfig::default();
    let mut twin = session_engine(spec, tenant, config);
    let mut analyses: HashMap<String, Outcome> = HashMap::new();
    let name = &spec.tenants[tenant].name;
    for (i, entry) in log.iter().enumerate() {
        if entry.outcome.failed() {
            // Counted as a failed request; a refused edit was not applied.
            continue;
        }
        let diverged =
            |what: String| format!("tenant {name}, request {i} ({:?}): {what}", entry.request);
        let expected = match &entry.request {
            Request::SetPerf {
                alternative,
                attr,
                perf,
                ..
            } => twin
                .set_perf(*alternative, *attr, *perf)
                .map(|()| Outcome::Edited)
                .map_err(|e| diverged(format!("server applied an edit the twin rejects: {e}")))?,
            Request::SetWeight {
                objective, weight, ..
            } => twin
                .set_weight(*objective, *weight)
                .map(|()| Outcome::Edited)
                .map_err(|e| diverged(format!("server applied an edit the twin rejects: {e}")))?,
            Request::DiscardCycle { .. } => twin
                .discard_cycle_incremental()
                .map(|c| Outcome::Cycle(CycleDigest::of(&c)))
                .map_err(|e| diverged(format!("twin LP failed: {e}")))?,
            Request::Analyze { .. } => {
                let state = gmaa::model_to_json(twin.model()).expect("models encode");
                match analyses.get(&state) {
                    Some(seen) => seen.clone(),
                    None => {
                        let fresh = twin
                            .analyze_incremental()
                            .map(|a| Outcome::Analysis(Box::new(AnalysisDigest::of(&a))))
                            .map_err(|e| diverged(format!("twin LP failed: {e}")))?;
                        analyses.insert(state, fresh.clone());
                        fresh
                    }
                }
            }
            Request::Snapshot { .. } => Outcome::Snapshot(Box::new(SessionSnapshot {
                session: name.clone(),
                model_json: gmaa::model_to_json(twin.model()).expect("models encode"),
                config,
            })),
            other => return Err(diverged(format!("oracle cannot replay {other:?}"))),
        };
        let divergence = match (&entry.outcome, &expected) {
            (Outcome::Cycle(got), Outcome::Cycle(want)) => got.diverges(want),
            (Outcome::Analysis(got), Outcome::Analysis(want)) => got.diverges(want),
            (got, want) => (got != want).then(|| "reply differs from the twin's".to_string()),
        };
        if let Some(d) = divergence {
            return Err(diverged(d));
        }
    }
    Ok(log.len())
}

/// Check every tenant's history, on two threads. Returns the number of
/// replies checked, or every tenant's first divergence.
pub fn check(spec: &Spec, logs: &[Vec<Entry>]) -> Result<usize, Vec<String>> {
    let results: Vec<Result<usize, String>> = std::thread::scope(|s| {
        let half = |parity: usize| {
            logs.iter()
                .enumerate()
                .filter(|(t, _)| t % 2 == parity)
                .map(|(t, log)| check_tenant(spec, t, log))
                .collect::<Vec<_>>()
        };
        let other = s.spawn(move || half(1));
        let mut mine = half(0);
        mine.extend(other.join().expect("oracle thread panicked"));
        mine
    });
    let mut checked = 0;
    let mut divergences = Vec::new();
    for r in results {
        match r {
            Ok(n) => checked += n,
            Err(d) => divergences.push(d),
        }
    }
    if divergences.is_empty() {
        Ok(checked)
    } else {
        Err(divergences)
    }
}
