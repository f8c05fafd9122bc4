//! The traced replay: the per-layer split, measured from outside the
//! program. Each request of the seeded schedule goes through
//! successively lower public entry points, and each call is timed:
//!
//! 1. the TCP round trip to the real server, with the wire frames'
//!    encode/decode costs measured on `net::WireRequest` /
//!    `net::WireResponse` beside it;
//! 2. a twin in-process `SessionManager::request` with the server's
//!    `ServeConfig`, reading the owning shard's `ServeStats` deltas;
//! 3. a twin `AnalysisEngine`, stage by stage;
//! 4. a twin `FileStore` through the `SessionStore` trait.
//!
//! A layer's self time is its span minus the spans of the layers below:
//! net = TCP − manager, dispatch = manager − shard busy time, shard =
//! busy − engine − store. The twins see the same requests in the same
//! order as the server, so their state (including which sessions are
//! resident) follows the server's.

use crate::drive::{ConnLog, Sample};
use crate::oracle::{session_engine, Entry, Outcome};
use crate::stats::{mean, median, percentile, sorted};
use crate::wire::{decode_response, encode_request};
use crate::workload::{Kind, Op, Spec, Workload, SHARDS};
use crate::{per_lane, Lane, Metric};
use gmaa::AnalysisEngine;
use gmaa_serve::net::WireRequest;
use gmaa_serve::{
    FileStore, FsyncPolicy, JournalRecord, Request, ServeConfig, SessionConfig, SessionManager,
    SessionSnapshot, SessionStore, ShardStats,
};
use maut_sense::{MonteCarloConfig, StabilityMode};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// `trace.accounted_share` must fall in this range on every workload, or
/// the traced run fails: the self times, summed and weighted over the
/// request kinds by their traced counts, must account for the untraced
/// round trip to within a factor of 2.5 either way, or the replay missed
/// or double-counted a layer. Host steal moves the traced and untraced
/// halves of a run apart, and the one-at-a-time replay runs with busy
/// CPUs, so it sees neither the idle wake-ups of the open loop nor the
/// gaps of the closed loops: measured shares were 0.56–0.96 on
/// `tenant-churn` and 0.93–1.35 on the closed loops.
pub const ACCOUNTED_RANGE: (f64, f64) = (0.4, 2.5);

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Run `f` and return its result with its duration in µs.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, us(t))
}

/// One traced request: the span of each layer, in µs.
#[derive(Debug, Clone, Copy)]
struct Rec {
    kind: Kind,
    tcp: f64,
    manager: f64,
    busy: f64,
    engine: f64,
    store: f64,
}

impl Rec {
    fn net_self(&self) -> f64 {
        self.tcp - self.manager
    }
    fn dispatch(&self) -> f64 {
        self.manager - self.busy
    }
    fn shard_self(&self) -> f64 {
        self.busy - self.engine - self.store
    }
}

/// Everything one lane's traced replay measured.
#[derive(Default)]
struct LaneTrace {
    recs: Vec<Rec>,
    /// Per-call durations (µs) or sizes, by metric name.
    series: BTreeMap<&'static str, Vec<f64>>,
    /// Counter deltas, by metric name.
    counts: BTreeMap<&'static str, f64>,
    queue_high_water: f64,
    lru_mismatches: u64,
    log: ConnLog,
}

impl LaneTrace {
    fn push(&mut self, name: &'static str, v: f64) {
        self.series.entry(name).or_default().push(v);
    }
    fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }
}

/// The shard's LRU residency, simulated from the requests it sees so the
/// trace knows which session an eviction spilled and whether a session
/// must be loaded from the store. Checked against the twin manager's
/// eviction/rehydration counters on every request.
struct Lru {
    cap: usize,
    clock: u64,
    live: HashMap<usize, u64>,
}

impl Lru {
    /// Make room for one more session: the evicted sessions, oldest first.
    fn make_room(&mut self) -> Vec<usize> {
        let mut victims = Vec::new();
        while self.live.len() >= self.cap {
            let (&victim, _) = self
                .live
                .iter()
                .min_by_key(|(_, &last)| last)
                .expect("a full shard has a session");
            self.live.remove(&victim);
            victims.push(victim);
        }
        victims
    }

    /// A request reached the shard. Returns whether `tenant` had to be
    /// rehydrated and which sessions were evicted to make room.
    fn request(&mut self, tenant: usize, touches: bool) -> (bool, Vec<usize>) {
        self.clock += 1;
        if !touches {
            return (false, Vec::new());
        }
        let rehydrate = !self.live.contains_key(&tenant);
        let victims = if rehydrate {
            self.make_room()
        } else {
            Vec::new()
        };
        self.live.insert(tenant, self.clock);
        (rehydrate, victims)
    }
}

/// The twins a lane drives besides the real server.
struct Twins<'a> {
    spec: &'a Spec,
    manager: &'a SessionManager,
    store: Option<&'a FileStore>,
    config: SessionConfig,
    engines: HashMap<usize, AnalysisEngine>,
    lru: Lru,
}

impl Twins<'_> {
    fn shard_stats(&self, c: usize) -> ShardStats {
        self.manager.stats().shards[c].clone()
    }

    fn snapshot(&self, tenant: usize) -> SessionSnapshot {
        SessionSnapshot {
            session: self.spec.tenants[tenant].name.clone(),
            model_json: gmaa::model_to_json(self.engines[&tenant].model()).expect("models encode"),
            config: self.config,
        }
    }

    /// Create a tenant on every twin, mirroring the server's set-up.
    fn create(&mut self, tenant: usize) -> Result<(), String> {
        let name = self.spec.tenants[tenant].name.clone();
        self.manager
            .request(Request::CreateSession {
                session: name.clone(),
                model: self.spec.tenants[tenant].model.clone(),
            })
            .map_err(|e| format!("twin create {name}: {e}"))?;
        self.lru.clock += 1;
        for victim in self.lru.make_room() {
            self.put_snapshot(victim)?;
        }
        self.lru.live.insert(tenant, self.lru.clock);
        self.engines
            .insert(tenant, session_engine(self.spec, tenant, self.config));
        if let Some(store) = self.store {
            store
                .put_snapshot(&self.snapshot(tenant))
                .map_err(|e| format!("twin store: {e}"))?;
        }
        Ok(())
    }

    fn put_snapshot(&self, tenant: usize) -> Result<f64, String> {
        let Some(store) = self.store else {
            return Ok(0.0);
        };
        let snap = self.snapshot(tenant);
        let (put, t) = timed(|| store.put_snapshot(&snap));
        put.map_err(|e| format!("twin store: {e}"))?;
        Ok(t)
    }

    /// The engine stages of one request on the tenant's twin engine, and
    /// the store calls the server makes for it. Returns engine µs, store
    /// µs, whether the session was rehydrated and how many were evicted.
    fn lower_layers(
        &mut self,
        op: &Op,
        request: &Request,
        lt: &mut LaneTrace,
    ) -> Result<(f64, f64, bool, usize), String> {
        let tenant = op.tenant();
        let touches = op.kind() != Kind::Snapshot;
        let (rehydrate, victims) = self.lru.request(tenant, touches);
        let (mut engine_us, mut store_us) = (0.0, 0.0);
        let evicted = victims.len();
        for victim in victims {
            let t = self.put_snapshot(victim)?;
            lt.push("store.put_snapshot_us", t);
            store_us += t;
        }
        let name = &self.spec.tenants[tenant].name;
        if let Some(store) = self.store {
            if rehydrate || !self.lru.live.contains_key(&tenant) {
                let (load, t) = timed(|| store.load(name));
                load.map_err(|e| format!("twin store: {e}"))?;
                lt.push("store.load_us", t);
                store_us += t;
            }
        }
        if rehydrate {
            let json = gmaa::model_to_json(self.engines[&tenant].model()).expect("models encode");
            let (fresh, t) = timed(|| {
                AnalysisEngine::new(gmaa::model_from_json(&json).map_err(|e| e.to_string())?)
                    .map_err(|e| e.to_string())
            });
            let mut fresh = fresh?;
            fresh.mc_trials = self.config.mc_trials;
            fresh.mc_seed = self.config.mc_seed;
            fresh.mc_threads = self.config.mc_threads;
            fresh.stability_resolution = self.config.stability_resolution;
            self.engines.insert(tenant, fresh);
            lt.push("engine.restore_us", t);
            engine_us += t;
        }

        let engine = self.engines.get_mut(&tenant).expect("twin engine exists");
        let rows_before = engine.stats().rows_recomputed;
        let cycles_before = engine.cycle_stats();
        let mut stage = |name: &'static str, t: f64| {
            lt.push(name, t);
            engine_us += t;
        };
        let lp = |e: maut_sense::LpError| format!("twin engine LP: {e}");
        match *request {
            Request::SetPerf {
                alternative,
                attr,
                perf,
                ..
            } => {
                let (r, t) = timed(|| engine.set_perf(alternative, attr, perf));
                r.map_err(|e| e.to_string())?;
                stage("engine.edit_us", t);
            }
            Request::SetWeight {
                objective, weight, ..
            } => {
                let (r, t) = timed(|| engine.set_weight(objective, weight));
                r.map_err(|e| e.to_string())?;
                stage("engine.edit_us", t);
            }
            Request::DiscardCycle { .. } => {
                let (r, t) = timed(|| engine.discard_cycle_incremental());
                r.map_err(lp)?;
                stage("engine.discard_us", t);
            }
            Request::Analyze { .. } => {
                // The stages of `analyze_incremental`, in its order.
                let (r, t) = timed(|| engine.discard_cycle_incremental());
                r.map_err(lp)?;
                stage("engine.discard_us", t);
                let evaluate = timed(|| black_box(engine.evaluate()));
                stage("engine.evaluate_us", evaluate.1);
                let stability =
                    timed(|| black_box(engine.stability_all(StabilityMode::BestAlternative)));
                stage("engine.stability_us", stability.1);
                let mc =
                    timed(|| black_box(engine.monte_carlo(MonteCarloConfig::ElicitedIntervals)));
                stage("engine.montecarlo_us", mc.1);
            }
            _ => {}
        }
        let cycles = engine.cycle_stats();
        lt.add(
            "engine.full_cycles",
            (cycles.full - cycles_before.full) as f64,
        );
        lt.add(
            "engine.incremental_cycles",
            (cycles.incremental - cycles_before.incremental) as f64,
        );
        lt.add(
            "eval.rows_recomputed",
            (engine.stats().rows_recomputed - rows_before) as f64,
        );

        if let (Some(store), Some(record)) = (self.store, journal_record(request)) {
            // FileStore names a session's journal `<name>.journal` (the
            // tenant names need no escaping).
            let journal = store.dir().join(format!("{name}.journal"));
            let size = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
            let before = size(&journal);
            let (append, t) = timed(|| store.append(name, &record));
            append.map_err(|e| format!("twin store: {e}"))?;
            lt.push("store.append_us", t);
            lt.push(
                "store.bytes_per_edit",
                size(&journal).saturating_sub(before) as f64,
            );
            store_us += t;
        }
        Ok((engine_us, store_us, rehydrate, evicted))
    }
}

fn journal_record(request: &Request) -> Option<JournalRecord> {
    match *request {
        Request::SetPerf {
            alternative,
            attr,
            perf,
            ..
        } => Some(JournalRecord::SetPerf(alternative, attr, perf)),
        Request::SetWeight {
            objective, weight, ..
        } => Some(JournalRecord::SetWeight(objective, weight)),
        _ => None,
    }
}

/// Replay one request through every layer.
fn trace_one(
    lane: &mut Lane,
    c: usize,
    op: &Op,
    twins: &mut Twins<'_>,
    lt: &mut LaneTrace,
) -> Result<(), String> {
    let spec = twins.spec;
    let tenant = op.tenant();
    let request = lane.rankings.request(spec, op);

    // Wire frames, measured beside the round trip.
    let t = Instant::now();
    let payload = encode_request(&request);
    let encode = us(t);
    let t = Instant::now();
    let decoded: Result<WireRequest, _> =
        serde_json::from_str(std::str::from_utf8(&payload).expect("requests encode as UTF-8"));
    lt.push("net.request_decode_us", us(t));
    decoded.map_err(|e| format!("request does not decode: {e}"))?;
    lt.push("net.request_bytes", payload.len() as f64);

    // 1. TCP round trip to the real server.
    let t = Instant::now();
    let raw = lane.conn.call(&payload).map_err(|e| e.to_string())?;
    let received = Instant::now();
    let reply = decode_response(&raw)?;
    let tcp = encode + us(t);
    lt.push("net.response_decode_us", us(received));
    lt.push("net.response_bytes", raw.len() as f64);
    let t = Instant::now();
    black_box(serde_json::to_string(&reply).map_err(|e| e.to_string())?);
    lt.push("net.response_encode_us", us(t));
    let outcome = Outcome::of(reply);
    lane.rankings.update(tenant, &outcome);

    // 2. The twin manager, and what its owning shard counted.
    let before = twins.shard_stats(c);
    let t = Instant::now();
    let twin_reply = twins.manager.request(request.clone());
    let manager = us(t);
    let after = twins.shard_stats(c);
    if twin_reply.is_err() != outcome.failed() {
        return Err(format!(
            "twin manager and server disagree on {request:?}: {twin_reply:?}"
        ));
    }
    let busy = (after.load.busy_ns - before.load.busy_ns) as f64 / 1e3;
    let d = |f: fn(&ShardStats) -> u64| (f(&after) - f(&before)) as f64;
    lt.add("shard.evictions", d(|s| s.evictions));
    lt.add("shard.rehydrations", d(|s| s.rehydrations));
    lt.add("shard.incremental", d(|s| s.cycles.incremental));
    lt.add("shard.full", d(|s| s.cycles.full));
    lt.add(
        "admission.rejected",
        d(|s| s.rejected_overload + s.rejected_quota + s.rejected_deadline),
    );
    lt.add("store.journal_appends", d(|s| s.store.journal_appends));
    lt.add("store.snapshots_written", d(|s| s.store.snapshots_written));
    lt.add("lp.solves", d(|s| s.lp.solves as u64));
    lt.add("lp.warm_solves", d(|s| s.lp.warm_solves as u64));
    lt.add("lp.pivots", d(|s| s.lp.pivots as u64));
    lt.queue_high_water = lt.queue_high_water.max(after.queue_high_water as f64);

    // 3 + 4. Engine stages and store calls on the twins.
    let (engine, store, rehydrated, evicted) = twins.lower_layers(op, &request, lt)?;
    if f64::from(u8::from(rehydrated)) != d(|s| s.rehydrations)
        || evicted as f64 != d(|s| s.evictions)
    {
        lt.lru_mismatches += 1;
    }

    lt.recs.push(Rec {
        kind: op.kind(),
        tcp,
        manager,
        busy,
        engine,
        store,
    });
    let sample = Sample {
        kind: op.kind(),
        ms: tcp / 1e3,
        round_trip_ms: tcp / 1e3,
        lag_ms: 0.0,
        done: Instant::now(),
        queued: false,
    };
    lt.log.samples.push(sample);
    lt.log.entries.push((tenant, Entry { request, outcome }));
    Ok(())
}

/// The traced phase's result: the lanes' logs (for the oracle) and the
/// layer measurements.
pub struct Traced {
    pub logs: Vec<ConnLog>,
    pub layers: Layers,
}

impl Traced {
    pub fn attempted(&self) -> usize {
        self.logs.iter().map(|l| l.samples.len()).sum()
    }
}

pub struct Layers {
    workload: Workload,
    lanes: Vec<LaneTrace>,
    elapsed_s: f64,
}

/// Run the traced replay for `seconds` right after the server's set-up
/// (twins are set up first, untimed, the way the server was).
pub fn run(spec: &Spec, lanes: &mut [Lane], seconds: f64) -> Result<Traced, String> {
    let config = ServeConfig {
        shards: SHARDS,
        ..ServeConfig::default()
    };
    // Fresh stores under the run's work directory, removed with it.
    let open = |tag: &str| {
        let d = crate::work_dir(tag);
        std::fs::create_dir_all(&d).map_err(|e| format!("create {}: {e}", d.display()))?;
        FileStore::open(&d, FsyncPolicy::Always).map_err(|e| format!("open {}: {e}", d.display()))
    };
    let (manager, store) = if spec.workload.uses_store() {
        let m = SessionManager::with_store(config, Arc::new(open("twin-manager")?))
            .map_err(|e| format!("twin manager: {e}"))?;
        (m, Some(open("twin-store")?))
    } else {
        (SessionManager::new(config), None)
    };
    let schedule = (!spec.workload.closed_loop()).then(|| spec.open_schedule(seconds * 4.0));

    let turn = std::sync::Mutex::new(());
    let warmed_up = std::sync::Barrier::new(SHARDS);
    let t0 = Instant::now();
    let traced = per_lane(lanes, |c, lane| {
        let mut twins = Twins {
            spec,
            manager: &manager,
            store: store.as_ref(),
            config: config.session,
            engines: HashMap::new(),
            lru: Lru {
                cap: config.max_sessions_per_shard,
                clock: 0,
                live: HashMap::new(),
            },
        };
        // Mirror the server's warm-up on the twins.
        let mut rankings = crate::drive::Rankings::new(spec);
        for (t, _) in spec.tenants.iter().enumerate().filter(|(_, x)| x.conn == c) {
            twins.create(t)?;
            let op = spec.warmup_op(t);
            let request = rankings.request(spec, &op);
            let reply = manager
                .request(request.clone())
                .map_err(|e| format!("twin warm-up: {e}"))?;
            rankings.update(t, &Outcome::of(gmaa_serve::net::WireResponse::Ok(reply)));
            twins.lower_layers(&op, &request, &mut LaneTrace::default())?;
        }
        warmed_up.wait();
        let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
        let mut lt = LaneTrace::default();
        let mut ops: Box<dyn Iterator<Item = Op>> = match &schedule {
            None => Box::new(spec.closed_stream(c)),
            Some(s) => Box::new(s[c].iter().map(|(_, op)| *op)),
        };
        while Instant::now() < deadline {
            let Some(op) = ops.next() else { break };
            // One traced request at a time across lanes: the replay's own
            // twin work would otherwise compete with the server for the
            // cores and inflate the spans it measures.
            let _turn = turn.lock().expect("trace turn lock");
            trace_one(lane, c, &op, &mut twins, &mut lt)?;
        }
        Ok(lt)
    })?;
    let elapsed_s = t0.elapsed().as_secs_f64();
    let mut lanes_out = traced;
    let logs = lanes_out
        .iter_mut()
        .map(|l| std::mem::take(&mut l.log))
        .collect();
    Ok(Traced {
        logs,
        layers: Layers {
            workload: spec.workload,
            lanes: lanes_out,
            elapsed_s,
        },
    })
}

impl Layers {
    fn series(&self, name: &str) -> Vec<f64> {
        self.lanes
            .iter()
            .flat_map(|l| l.series.get(name).into_iter().flatten().copied())
            .collect()
    }

    fn count(&self, name: &str) -> f64 {
        self.lanes
            .iter()
            .map(|l| l.counts.get(name).copied().unwrap_or(0.0))
            .sum()
    }

    fn recs(&self) -> Vec<Rec> {
        self.lanes
            .iter()
            .flat_map(|l| l.recs.iter().copied())
            .collect()
    }

    /// The per-layer metrics, and whether the accounting check passed.
    /// `untraced` are the samples of the untraced phase of the same run.
    pub fn metrics(&self, untraced: &[Sample]) -> Result<(Vec<Metric>, bool), String> {
        let recs = self.recs();
        let mut out = Vec::new();
        let mut time = |name: &str, v: Vec<f64>| {
            let v = sorted(v);
            out.push(crate::metric(&format!("{name}.mean"), mean(&v), "us"));
            out.push(crate::metric(&format!("{name}.p50"), median(&v), "us"));
        };
        time(
            "net.request_decode_us",
            self.series("net.request_decode_us"),
        );
        time(
            "net.response_encode_us",
            self.series("net.response_encode_us"),
        );
        time(
            "net.response_decode_us",
            self.series("net.response_decode_us"),
        );
        time("net.self_us", recs.iter().map(Rec::net_self).collect());
        time(
            "serve.dispatch_us",
            recs.iter().map(Rec::dispatch).collect(),
        );
        time("shard.self_us", recs.iter().map(Rec::shard_self).collect());
        for name in [
            "store.append_us",
            "store.put_snapshot_us",
            "store.load_us",
            "engine.edit_us",
            "engine.discard_us",
            "engine.evaluate_us",
            "engine.stability_us",
            "engine.montecarlo_us",
            "engine.restore_us",
        ] {
            time(name, self.series(name));
        }
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let m = crate::metric;
        out.push(m(
            "net.request_bytes",
            mean(&self.series("net.request_bytes")),
            "B",
        ));
        out.push(m(
            "net.response_bytes",
            mean(&self.series("net.response_bytes")),
            "B",
        ));
        let busy: f64 = recs.iter().map(|r| r.busy).sum();
        let manager: f64 = recs.iter().map(|r| r.manager).sum();
        out.push(m("shard.busy_share", ratio(busy, manager), "share"));
        let (inc, full) = (self.count("shard.incremental"), self.count("shard.full"));
        out.push(m(
            "shard.incremental_hit_rate",
            ratio(inc, inc + full),
            "share",
        ));
        out.push(m("shard.evictions", self.count("shard.evictions"), "count"));
        out.push(m(
            "shard.rehydrations",
            self.count("shard.rehydrations"),
            "count",
        ));
        out.push(m(
            "admission.rejected",
            self.count("admission.rejected"),
            "count",
        ));
        let high_water = self
            .lanes
            .iter()
            .map(|l| l.queue_high_water)
            .fold(0.0, f64::max);
        out.push(m("admission.queue_high_water", high_water, "count"));
        out.push(m(
            "store.journal_appends",
            self.count("store.journal_appends"),
            "count",
        ));
        out.push(m(
            "store.snapshots_written",
            self.count("store.snapshots_written"),
            "count",
        ));
        out.push(m(
            "store.bytes_per_edit",
            mean(&self.series("store.bytes_per_edit")),
            "B",
        ));
        out.push(m(
            "engine.full_cycles",
            self.count("engine.full_cycles"),
            "count",
        ));
        out.push(m(
            "engine.incremental_cycles",
            self.count("engine.incremental_cycles"),
            "count",
        ));
        let solves = self.count("lp.solves");
        out.push(m("lp.solves_per_cycle", ratio(solves, inc + full), "count"));
        out.push(m(
            "lp.pivots_per_solve",
            ratio(self.count("lp.pivots"), solves),
            "count",
        ));
        out.push(m(
            "lp.warm_share",
            ratio(self.count("lp.warm_solves"), solves),
            "share",
        ));
        let edits = recs.iter().filter(|r| r.kind == Kind::Edit).count() as f64;
        out.push(m(
            "eval.rows_recomputed_per_edit",
            ratio(self.count("eval.rows_recomputed"), edits),
            "count",
        ));

        // Accounting, per request kind: the self times (each clamped at
        // zero) summed, over the untraced round trip of that kind. The
        // replay runs one request at a time, so on the open loop the
        // untraced base keeps only requests sent while no other was in
        // flight: queueing and cross-shard contention are no layer's self
        // time.
        let (mut accounted, mut traced_tcp, mut untraced_total) = (0.0, 0.0, 0.0);
        eprintln!("trace: kind       n   untraced_us    net   dispatch   shard   engine   store  accounted");
        for kind in Kind::ALL {
            let k: Vec<&Rec> = recs.iter().filter(|r| r.kind == kind).collect();
            let base: Vec<f64> = untraced
                .iter()
                .filter(|s| s.kind == kind && s.ms.is_finite() && !s.queued)
                .map(|s| s.round_trip_ms * 1e3)
                .collect();
            if k.is_empty() || base.is_empty() {
                continue;
            }
            let layer = |f: fn(&Rec) -> f64| mean(&k.iter().map(|r| f(r)).collect::<Vec<_>>());
            let selfs = [
                layer(Rec::net_self).max(0.0),
                layer(Rec::dispatch).max(0.0),
                layer(Rec::shard_self).max(0.0),
                layer(|r| r.engine),
                layer(|r| r.store),
            ];
            let base_mean = mean(&base);
            let share = selfs.iter().sum::<f64>() / base_mean;
            let n = k.len() as f64;
            accounted += n * selfs.iter().sum::<f64>();
            traced_tcp += n * layer(|r| r.tcp);
            untraced_total += n * base_mean;
            eprintln!(
                "trace: {:<8} {:>5} {:>12.1} {:>7.1} {:>9.1} {:>7.1} {:>8.1} {:>7.1} {:>9.3}",
                kind.name(),
                k.len(),
                base_mean,
                selfs[0],
                selfs[1],
                selfs[2],
                selfs[3],
                selfs[4],
                share,
            );
        }
        let share = ratio(accounted, untraced_total);
        let ok = (ACCOUNTED_RANGE.0..=ACCOUNTED_RANGE.1).contains(&share);
        eprintln!(
            "trace: accounted share {share:.3} must lie in [{}, {}]: {}",
            ACCOUNTED_RANGE.0,
            ACCOUNTED_RANGE.1,
            if ok { "ok" } else { "FAILED" }
        );
        out.push(m("trace.accounted_share", share, "share"));
        out.push(m(
            "trace.overhead_share",
            ratio(traced_tcp, untraced_total) - 1.0,
            "share",
        ));
        let lag = if self.workload.closed_loop() {
            0.0
        } else {
            percentile(&sorted(untraced.iter().map(|s| s.lag_ms).collect()), 99)?
        };
        out.push(m("loadgen.lag_p99_ms", lag, "ms"));

        // Which layer dominates, against the prediction.
        let total = |f: fn(&Rec) -> f64| recs.iter().map(f).sum::<f64>();
        let layers = [
            ("net", total(Rec::net_self)),
            ("serve", total(Rec::dispatch)),
            ("shard", total(Rec::shard_self)),
            ("engine", total(|r| r.engine)),
            ("store", total(|r| r.store)),
        ];
        let (dominant, _) = layers
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("five layers");
        let predicted_engine = self.workload != Workload::TenantChurn;
        let as_predicted = (dominant == "engine") == predicted_engine;
        eprintln!(
            "trace: dominant layer {dominant} (predicted {}){}; {} requests in {:.1} s; {} LRU mismatches",
            if predicted_engine { "engine" } else { "a non-engine layer" },
            if as_predicted { "" } else { " -- NOT AS PREDICTED" },
            recs.len(),
            self.elapsed_s,
            self.lanes.iter().map(|l| l.lru_mismatches).sum::<u64>()
        );
        Ok((out, ok))
    }
}
