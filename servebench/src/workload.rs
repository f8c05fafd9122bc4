//! The three workloads: tenants (names + models) and request schedules,
//! all generated from `--seed`. The server only ever sees these inputs.

use crate::rng::{mix, Rng, Zipf};
use gmaa_gen::{Family, GenConfig};
use gmaa_serve::Request;
use maut::{AttributeId, DecisionModel, Interval, ObjectiveId, Perf, Scale};

/// Shards the server runs with (`--shards`), and connections the load
/// generator opens: connection `c` only ever carries tenants that FNV
/// routing places on shard `c`.
pub const SHARDS: usize = 2;

/// `tenant-churn`: tenants served, 3× the binary's resident capacity
/// (2 shards × 64 sessions per shard by default).
pub const CHURN_TENANTS: usize = 384;
/// `tenant-churn`: the fixed open-loop arrival rate, requests per second
/// over both connections. Set below the capacity of the commit that
/// introduced the benchmark on a 2-core box; never change it between
/// commits that are compared.
pub const CHURN_RATE_RPS: f64 = 400.0;
/// `tenant-churn`: Zipf exponent of tenant popularity.
pub const CHURN_ZIPF_S: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WhatifPaper,
    DiscardScale,
    TenantChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WhatifPaper,
        Workload::DiscardScale,
        Workload::TenantChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WhatifPaper => "whatif-paper",
            Workload::DiscardScale => "discard-scale",
            Workload::TenantChurn => "tenant-churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed loop (next request after the reply) vs open loop (requests
    /// sent on a seeded arrival schedule).
    pub fn closed_loop(self) -> bool {
        self != Workload::TenantChurn
    }

    /// Whether the server runs with `--store`.
    pub fn uses_store(self) -> bool {
        self == Workload::TenantChurn
    }
}

/// FNV-1a, the server's routing hash: `fnv1a(name) % shards` owns the
/// session. Mirrored here so tenants can be named onto chosen shards.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub fn shard_of(name: &str) -> usize {
    (fnv1a(name.as_bytes()) % SHARDS as u64) as usize
}

/// The first name `{prefix}-{k}` that routes to `shard`.
fn name_on_shard(prefix: &str, shard: usize) -> String {
    (0u64..)
        .map(|k| format!("{prefix}-{k}"))
        .find(|n| shard_of(n) == shard)
        .expect("FNV routing reaches every shard")
}

/// Which alternative a `SetPerf` edits. The symbolic picks resolve at
/// send time against the tenant's latest intensity ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Alt {
    Index(usize),
    /// A row from the middle half of the ranking, at this fraction of it.
    MidField(f64),
    /// The current rank-1 alternative.
    Frontrunner,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    SetPerf {
        tenant: usize,
        alt: Alt,
        attr: AttributeId,
        perf: Perf,
    },
    SetWeight {
        tenant: usize,
        objective: ObjectiveId,
        weight: Interval,
    },
    Analyze {
        tenant: usize,
    },
    DiscardCycle {
        tenant: usize,
    },
    Snapshot {
        tenant: usize,
    },
    /// Put back the original value of the cell the tenant's previous
    /// `SetPerf` changed (in column `attr`), so closed loops stay within
    /// one edit of the generated model instead of drifting away from it.
    Revert {
        tenant: usize,
        attr: AttributeId,
    },
}

/// Request classes the metrics are split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Edit,
    Analyze,
    Discard,
    Snapshot,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Edit, Kind::Analyze, Kind::Discard, Kind::Snapshot];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Edit => "edit",
            Kind::Analyze => "analyze",
            Kind::Discard => "discard",
            Kind::Snapshot => "snapshot",
        }
    }
}

impl Op {
    pub fn tenant(&self) -> usize {
        match *self {
            Op::SetPerf { tenant, .. }
            | Op::SetWeight { tenant, .. }
            | Op::Analyze { tenant }
            | Op::DiscardCycle { tenant }
            | Op::Snapshot { tenant }
            | Op::Revert { tenant, .. } => tenant,
        }
    }

    pub fn kind(&self) -> Kind {
        match self {
            Op::SetPerf { .. } | Op::SetWeight { .. } | Op::Revert { .. } => Kind::Edit,
            Op::Analyze { .. } => Kind::Analyze,
            Op::DiscardCycle { .. } => Kind::Discard,
            Op::Snapshot { .. } => Kind::Snapshot,
        }
    }
}

/// The valid edits of one model.
#[derive(Debug, Clone)]
struct EditSpace {
    alternatives: usize,
    /// Per attribute: level count (discrete) or `(min, max)` (continuous).
    attrs: Vec<Result<usize, (f64, f64)>>,
    /// Non-root objectives with their original local weight interval.
    objectives: Vec<(ObjectiveId, Interval)>,
}

impl EditSpace {
    fn of(model: &DecisionModel) -> EditSpace {
        let attrs = model
            .attributes
            .iter()
            .map(|a| match &a.scale {
                Scale::Discrete(d) => Ok(d.len()),
                Scale::Continuous(c) => Err((c.min, c.max)),
            })
            .collect();
        let local = model.resolved_local_weights();
        let root = model.tree.root();
        let objectives = model
            .tree
            .iter()
            .filter(|(id, _)| *id != root)
            .map(|(id, _)| (id, local[id.index()]))
            .collect();
        EditSpace {
            alternatives: model.num_alternatives(),
            attrs,
            objectives,
        }
    }

    fn set_perf(&self, tenant: usize, alt: Alt, rng: &mut Rng) -> Op {
        let a = rng.below(self.attrs.len());
        let perf = match self.attrs[a] {
            Ok(levels) => Perf::level(rng.below(levels)),
            Err((lo, hi)) => Perf::value(lo + rng.unit() * (hi - lo)),
        };
        Op::SetPerf {
            tenant,
            alt,
            attr: AttributeId::from_index(a),
            perf,
        }
    }

    /// Lower the low end and raise the high end of one objective's
    /// original interval: sibling lows still sum to ≤ 1 and highs to ≥ 1,
    /// so every generated weight edit is feasible.
    fn set_weight(&self, tenant: usize, rng: &mut Rng) -> Op {
        let (objective, w) = self.objectives[rng.below(self.objectives.len())];
        let lo = w.lo() * (0.5 + 0.5 * rng.unit());
        let hi = (w.hi() * (1.0 + 0.2 * rng.unit())).min(1.0);
        Op::SetWeight {
            tenant,
            objective,
            weight: Interval::new(lo, hi),
        }
    }
}

pub struct Tenant {
    pub name: String,
    pub model: DecisionModel,
    /// The connection (= shard) that carries this tenant.
    pub conn: usize,
    space: EditSpace,
}

/// One workload instance: its tenants, generated from the seed.
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    pub tenants: Vec<Tenant>,
}

fn tenant(name: String, model: DecisionModel) -> Tenant {
    Tenant {
        conn: shard_of(&name),
        space: EditSpace::of(&model),
        name,
        model,
    }
}

impl Spec {
    pub fn new(workload: Workload, seed: u64) -> Spec {
        let tenants = match workload {
            Workload::WhatifPaper => (0..SHARDS)
                .map(|c| {
                    let name = name_on_shard(&format!("paper-s{seed}-t{c}"), c);
                    tenant(name, neon_reuse::paper_model().model)
                })
                .collect(),
            Workload::DiscardScale => [(Family::Mixed, 12), (Family::FrontrunnerHeavy, 10)]
                .into_iter()
                .enumerate()
                .map(|(c, (family, attributes))| {
                    let cfg = GenConfig::preset(family, 300, attributes, mix(seed, c as u64 + 1));
                    let name = name_on_shard(&format!("{}-s{seed}", family.key()), c);
                    tenant(name, gmaa_gen::generate(&cfg))
                })
                .collect(),
            Workload::TenantChurn => (0..CHURN_TENANTS)
                .map(|i| {
                    let cfg = GenConfig::preset(Family::Flat, 24, 8, mix(seed, 1000 + i as u64));
                    tenant(format!("churn-s{seed}-t{i}"), gmaa_gen::generate(&cfg))
                })
                .collect(),
        };
        Spec {
            workload,
            seed,
            tenants,
        }
    }

    /// The request that completes a tenant's warm-up: its first full
    /// analysis (whatif-paper) or discard cycle (the others).
    pub fn warmup_op(&self, tenant: usize) -> Op {
        match self.workload {
            Workload::WhatifPaper => Op::Analyze { tenant },
            _ => Op::DiscardCycle { tenant },
        }
    }

    /// The endless closed-loop request stream of connection `conn`
    /// (closed-loop workloads carry exactly one tenant per connection).
    pub fn closed_stream(&self, conn: usize) -> ClosedStream<'_> {
        let tenant = self
            .tenants
            .iter()
            .position(|t| t.conn == conn)
            .expect("every connection owns a tenant");
        ClosedStream {
            spec: self,
            tenant,
            rng: Rng::new(mix(self.seed, 0xC105_ED00 + conn as u64)),
            read_next: false,
            revert: None,
        }
    }

    /// The open-loop schedule of `tenant-churn` over `seconds`: per
    /// connection, `(due offset in ns, op)` in due order. Exponential
    /// gaps at [`CHURN_RATE_RPS`], Zipf-popular tenants, and the mix
    /// SetPerf 50% / DiscardCycle 40% / Snapshot 10%.
    pub fn open_schedule(&self, seconds: f64) -> Vec<Vec<(u64, Op)>> {
        let mut rng = Rng::new(mix(self.seed, 0x0BE7_1009));
        let zipf = Zipf::new(self.tenants.len(), CHURN_ZIPF_S, &mut rng);
        let mut per_conn = vec![Vec::new(); SHARDS];
        let mut t = 0.0;
        loop {
            t += rng.exp(1.0 / CHURN_RATE_RPS);
            if t >= seconds {
                return per_conn;
            }
            let tenant = zipf.sample(&mut rng);
            let space = &self.tenants[tenant].space;
            let u = rng.unit();
            let op = if u < 0.5 {
                let alt = Alt::Index(rng.below(space.alternatives));
                space.set_perf(tenant, alt, &mut rng)
            } else if u < 0.9 {
                Op::DiscardCycle { tenant }
            } else {
                Op::Snapshot { tenant }
            };
            per_conn[self.tenants[tenant].conn].push(((t * 1e9) as u64, op));
        }
    }

    /// Turn an op into the wire request. `ranking` is the tenant's latest
    /// intensity ranking, best first (resolves symbolic alternatives), and
    /// `last_alt` the row its previous `SetPerf` edited.
    pub fn request(&self, op: &Op, ranking: &[usize], last_alt: usize) -> Request {
        let tenant = &self.tenants[op.tenant()];
        let session = tenant.name.clone();
        match *op {
            Op::Revert { attr, .. } => Request::SetPerf {
                session,
                alternative: last_alt,
                attr,
                perf: tenant.model.perf.get(last_alt, attr.index()),
            },
            Op::SetPerf {
                alt, attr, perf, ..
            } => {
                let alternative = match alt {
                    Alt::Index(i) => i,
                    Alt::Frontrunner => ranking[0],
                    Alt::MidField(f) => {
                        let n = ranking.len();
                        ranking[n / 4 + ((f * (n / 2) as f64) as usize).min(n / 2 - 1)]
                    }
                };
                Request::SetPerf {
                    session,
                    alternative,
                    attr,
                    perf,
                }
            }
            Op::SetWeight {
                objective, weight, ..
            } => Request::SetWeight {
                session,
                objective,
                weight,
            },
            Op::Analyze { .. } => Request::Analyze { session },
            Op::DiscardCycle { .. } => Request::DiscardCycle { session },
            Op::Snapshot { .. } => Request::Snapshot { session },
        }
    }
}

/// A closed-loop connection's endless round stream: edit, then read.
/// Every `SetPerf` round is followed by a round that reverts it.
pub struct ClosedStream<'a> {
    spec: &'a Spec,
    tenant: usize,
    rng: Rng,
    read_next: bool,
    revert: Option<AttributeId>,
}

impl Iterator for ClosedStream<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let tenant = self.tenant;
        let read_next = self.read_next;
        self.read_next = !read_next;
        if read_next {
            return Some(self.spec.warmup_op(tenant));
        }
        if let Some(attr) = self.revert.take() {
            return Some(Op::Revert { tenant, attr });
        }
        let space = &self.spec.tenants[tenant].space;
        let rng = &mut self.rng;
        let op = match self.spec.workload {
            Workload::DiscardScale => {
                // Fresh edits 8/11 mid-field SetPerf (incremental cycle),
                // 1/11 on the frontrunner's row (near-full
                // recertification), 2/11 SetWeight (full cycle). With the
                // SetPerf reverts, rounds are 80% / 10% / 10%.
                let u = rng.unit() * 11.0;
                if u < 8.0 {
                    let f = rng.unit();
                    space.set_perf(tenant, Alt::MidField(f), rng)
                } else if u < 9.0 {
                    space.set_perf(tenant, Alt::Frontrunner, rng)
                } else {
                    space.set_weight(tenant, rng)
                }
            }
            _ => {
                let alt = Alt::Index(rng.below(space.alternatives));
                space.set_perf(tenant, alt, rng)
            }
        };
        if let Op::SetPerf { attr, .. } = op {
            self.revert = Some(attr);
        }
        Some(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmaa_serve::{ServeConfig, SessionManager};

    /// The schedule and the model set of a workload, as bytes.
    fn fingerprint(workload: Workload, seed: u64) -> (String, Vec<String>) {
        let spec = Spec::new(workload, seed);
        let schedule = if workload.closed_loop() {
            (0..SHARDS)
                .map(|c| format!("{:?}", spec.closed_stream(c).take(300).collect::<Vec<_>>()))
                .collect()
        } else {
            format!("{:?}", spec.open_schedule(2.0))
        };
        let models = spec
            .tenants
            .iter()
            .map(|t| format!("{} {}", t.name, gmaa::model_to_json(&t.model).unwrap()))
            .collect();
        (schedule, models)
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for workload in Workload::ALL {
            let (schedule, models) = fingerprint(workload, 7);
            assert_eq!((schedule.clone(), models.clone()), fingerprint(workload, 7));
            let (other_schedule, other_models) = fingerprint(workload, 8);
            assert_ne!(schedule, other_schedule, "{}", workload.name());
            // The paper model is the paper model under every seed; the
            // generated fleets follow the seed.
            if workload != Workload::WhatifPaper {
                assert_ne!(models, other_models, "{}", workload.name());
            }
        }
    }

    #[test]
    fn closed_loop_tenants_sit_on_distinct_shards() {
        // The server's own routing decides, not this crate's mirror of it.
        let manager = SessionManager::new(ServeConfig {
            shards: SHARDS,
            ..ServeConfig::default()
        });
        for workload in [Workload::WhatifPaper, Workload::DiscardScale] {
            for seed in 0..25 {
                let spec = Spec::new(workload, seed);
                assert_eq!(spec.tenants.len(), SHARDS);
                for (c, t) in spec.tenants.iter().enumerate() {
                    assert_eq!(manager.shard_of(&t.name), c, "{} seed {seed}", t.name);
                    assert_eq!(t.conn, c);
                }
            }
        }
        let churn = Spec::new(Workload::TenantChurn, 3);
        assert_eq!(churn.tenants.len(), CHURN_TENANTS);
        for t in &churn.tenants {
            assert_eq!(manager.shard_of(&t.name), t.conn, "{}", t.name);
        }
    }

    #[test]
    fn every_generated_edit_is_accepted() {
        for workload in Workload::ALL {
            let spec = Spec::new(workload, 11);
            let ops: Vec<Op> = if workload.closed_loop() {
                (0..SHARDS)
                    .flat_map(|c| spec.closed_stream(c).take(400))
                    .collect()
            } else {
                spec.open_schedule(2.0)
                    .into_iter()
                    .flatten()
                    .map(|(_, op)| op)
                    .collect()
            };
            let mut engines: Vec<Option<gmaa::AnalysisEngine>> =
                spec.tenants.iter().map(|_| None).collect();
            for op in ops.iter().filter(|op| op.kind() == Kind::Edit) {
                let t = op.tenant();
                let engine = engines[t].get_or_insert_with(|| {
                    gmaa::AnalysisEngine::new(spec.tenants[t].model.clone()).unwrap()
                });
                let identity: Vec<usize> = (0..engine.model().num_alternatives()).collect();
                let outcome = match spec.request(op, &identity, 0) {
                    Request::SetPerf {
                        alternative,
                        attr,
                        perf,
                        ..
                    } => engine.set_perf(alternative, attr, perf),
                    Request::SetWeight {
                        objective, weight, ..
                    } => engine.set_weight(objective, weight),
                    other => panic!("not an edit: {other:?}"),
                };
                assert!(outcome.is_ok(), "{}: {op:?}: {outcome:?}", workload.name());
            }
        }
    }
}
