//! `servebench` — the repository benchmark: drives the release
//! `gmaa-serve` binary over loopback TCP with one of three seeded
//! workloads, checks every reply against a twin engine, and prints the
//! end-to-end metrics (or, with `--trace 1`, the per-layer split from a
//! replay through successively lower public entry points).
//!
//! ```text
//! servebench --server PATH --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Everything else
//! (environment record, per-kind latencies, trace report) goes to
//! standard error. See `METHODOLOGY.md` beside this crate.

mod drive;
mod oracle;
mod rng;
mod server;
mod stats;
mod trace;
mod wire;
mod workload;

use drive::{ConnLog, Rankings, Sample};
use oracle::Entry;
use server::Server;
use stats::{blocked_p99, blocked_rate, median, percentile, sorted};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use wire::Conn;
use workload::{Kind, Spec, Workload, SHARDS};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// A seed no tuning of this benchmark ever looked at: recheck a claimed
/// gain on it before trusting the claim.
const HELD_OUT_SEED: u64 = 8_675_309;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    "usage: servebench --server PATH --workload whatif-paper|discard-scale|tenant-churn \
     [--seed N] [--seconds S] [--trace 0|1]"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut server, mut workload) = (None, None);
    let mut args = Args {
        server: PathBuf::new(),
        workload: Workload::WhatifPaper,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(&value)),
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    args.server = server.ok_or_else(usage)?;
    args.workload = workload.ok_or_else(usage)?;
    Ok(args)
}

/// This run's work files (store directories) live under the current
/// directory, in one directory per process that the run removes at exit.
fn work_dir(tag: &str) -> PathBuf {
    run_dir().join(tag)
}

fn run_dir() -> PathBuf {
    PathBuf::from(".bench_work").join(std::process::id().to_string())
}

fn server_flags(workload: Workload, store: &Path) -> Vec<String> {
    let mut flags = vec!["--shards".to_string(), SHARDS.to_string()];
    if workload.uses_store() {
        flags.extend(["--store".to_string(), store.display().to_string()]);
    }
    flags
}

/// One connection and the state of the tenants it carries.
pub struct Lane {
    pub conn: Conn,
    pub rankings: Rankings,
}

/// Run `f` once per lane, lane 0 on this thread and the rest on scoped
/// threads (the load generator uses `SHARDS` threads).
fn per_lane<T: Send>(
    lanes: &mut [Lane],
    f: impl Fn(usize, &mut Lane) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    std::thread::scope(|s| {
        let (first, rest) = lanes.split_first_mut().expect("at least one lane");
        let f = &f;
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, lane)| s.spawn(move || f(i + 1, lane)))
            .collect();
        let mut out = vec![f(0, first)];
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked")),
        );
        out.into_iter().collect()
    })
}

/// A started, warmed-up server with its lanes.
struct Live {
    server: Server,
    lanes: Vec<Lane>,
    flags: Vec<String>,
    setup_s: f64,
    warmup: Vec<ConnLog>,
}

/// Spawn the server and warm it up: every session created and each
/// tenant's first full cycle served. `setup_s` spans exactly that.
fn start(args: &Args, spec: &Spec, repeat: usize) -> Result<Live, String> {
    let store = work_dir(&format!("store{repeat}"));
    let flags = server_flags(args.workload, &store);
    if args.workload.uses_store() {
        std::fs::create_dir_all(&store).map_err(|e| format!("create {}: {e}", store.display()))?;
    }
    let t0 = Instant::now();
    let server = Server::spawn(&args.server, &flags)?;
    let mut lanes = (0..SHARDS)
        .map(|_| {
            Ok(Lane {
                conn: Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?,
                rankings: Rankings::new(spec),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let warmup = per_lane(&mut lanes, |c, lane| {
        drive::warm_up(spec, &mut lane.conn, c, &mut lane.rankings)
    })?;
    let setup_s = t0.elapsed().as_secs_f64();
    Ok(Live {
        server,
        lanes,
        flags,
        setup_s,
        warmup,
    })
}

/// The untraced measured phase: each lane's log, the phase's start and
/// its wall time in seconds.
fn measure(
    spec: &Spec,
    lanes: &mut [Lane],
    seconds: f64,
) -> Result<(Vec<ConnLog>, Instant, f64), String> {
    let t0 = Instant::now();
    let logs = if spec.workload.closed_loop() {
        let deadline = t0 + std::time::Duration::from_secs_f64(seconds);
        per_lane(lanes, |c, lane| {
            let mut ops = spec.closed_stream(c);
            drive::closed_loop(spec, &mut lane.conn, &mut ops, &mut lane.rankings, deadline)
        })?
    } else {
        let schedule = spec.open_schedule(seconds);
        let in_flight = std::sync::atomic::AtomicUsize::new(0);
        per_lane(lanes, |c, lane| {
            let conn = &mut lane.conn;
            drive::open_loop(spec, conn, &schedule[c], &mut lane.rankings, t0, &in_flight)
        })?
    };
    Ok((logs, t0, t0.elapsed().as_secs_f64()))
}

/// Per-tenant histories for the oracle, from lane logs in phase order
/// (each tenant rides one lane, so lane order is the tenant's order).
fn tenant_logs(spec: &Spec, phases: Vec<Vec<ConnLog>>) -> Vec<Vec<Entry>> {
    let mut logs: Vec<Vec<Entry>> = spec.tenants.iter().map(|_| Vec::new()).collect();
    for phase in phases {
        for lane in phase {
            for (t, entry) in lane.entries {
                logs[t].push(entry);
            }
        }
    }
    logs
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("{:?}: {{\"value\": {v:?}, \"unit\": {:?}}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host CPU time stolen from this machine's CPUs and all CPU time, in
/// ticks since boot (`/proc/stat`), to record how busy the host was.
fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Clock ticks per second of `/proc` CPU times (`getconf CLK_TCK`).
fn ticks_per_second() -> f64 {
    std::process::Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|o| String::from_utf8_lossy(&o.stdout).trim().parse().ok())
        .unwrap_or(100.0)
}

fn filesystem_of(dir: &Path) -> String {
    std::process::Command::new("stat")
        .args(["-f", "-c", "%T"])
        .arg(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The latency samples of one kind, in completion order.
fn latencies(samples: &[Sample], kind: Kind) -> Vec<f64> {
    let mut of_kind: Vec<&Sample> = samples.iter().filter(|s| s.kind == kind).collect();
    of_kind.sort_by_key(|s| s.done);
    of_kind.iter().map(|s| s.ms).collect()
}

/// Median and blocked p99 of one kind's latencies.
fn p50_p99(samples: &[Sample], kind: Kind) -> Result<(f64, f64), String> {
    let v = latencies(samples, kind);
    let p99 = blocked_p99(&v).map_err(|e| format!("{} latency: {e}", kind.name()))?;
    Ok((percentile(&sorted(v), 50)?, p99))
}

/// The request kind the analyst waits on after an edit.
fn analysis_kind(workload: Workload) -> Kind {
    match workload {
        Workload::WhatifPaper => Kind::Analyze,
        _ => Kind::Discard,
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let spec = Spec::new(args.workload, args.seed);
    let mut setups = Vec::new();
    let mut attempted = 0u64;
    let mut live: Option<Live> = None;
    for repeat in 0..SETUP_REPEATS {
        // Earlier set-ups' store directories stay until the run ends:
        // deleting them here would put their block discards in front of
        // the next set-up's fsyncs.
        drop(live.take());
        let l = start(args, &spec, repeat)?;
        setups.push(l.setup_s);
        attempted += 2 * spec.tenants.len() as u64;
        live = Some(l);
    }
    let mut live = live.expect("at least one set-up");
    let store_fs = filesystem_of(Path::new(if args.workload.uses_store() {
        ".bench_work"
    } else {
        "."
    }));
    let mut phases = vec![std::mem::take(&mut live.warmup)];

    let cpu_before = cpu_times();
    let server_ticks = live.server.cpu_ticks()?;
    let (samples, started, elapsed, trace_report) = if args.trace {
        let half = args.seconds / 2.0;
        let traced = trace::run(&spec, &mut live.lanes, half)?;
        let (logs, started, elapsed) = measure(&spec, &mut live.lanes, half)?;
        let samples: Vec<Sample> = logs
            .iter()
            .flat_map(|l| l.samples.iter().copied())
            .collect();
        attempted += traced.attempted() as u64;
        phases.push(traced.logs);
        phases.push(logs);
        (samples, started, elapsed, Some(traced.layers))
    } else {
        let (logs, started, elapsed) = measure(&spec, &mut live.lanes, args.seconds)?;
        let samples: Vec<Sample> = logs
            .iter()
            .flat_map(|l| l.samples.iter().copied())
            .collect();
        phases.push(logs);
        (samples, started, elapsed, None)
    };
    let rss_mb = live.server.peak_rss_mb()?;
    let server_ticks = live.server.cpu_ticks()? - server_ticks;
    let steal = match (cpu_before, cpu_times()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{:.4}", (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "null".to_string(),
    };
    let flags = std::mem::take(&mut live.flags);
    drop(live);

    attempted += samples.len() as u64;
    let failed = samples.iter().filter(|s| !s.ms.is_finite()).count() as u64;
    let oracle_t0 = Instant::now();
    let checked = oracle::check(&spec, &tenant_logs(&spec, phases));
    let oracle_s = oracle_t0.elapsed().as_secs_f64();
    let correct = checked.is_ok();

    // The environment, for the record.
    let counts: Vec<String> = Kind::ALL
        .iter()
        .map(|&k| {
            format!(
                "{:?}: {}",
                k.name(),
                samples.iter().filter(|s| s.kind == k).count()
            )
        })
        .collect();
    eprintln!(
        "env: {{\"workload\": {:?}, \"seed\": {}, \"default_seed\": {DEFAULT_SEED}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"seconds\": {}, \"trace\": {}, \"available_parallelism\": {}, \"git_commit\": {:?}, \
         \"server_flags\": {:?}, \"store_fs\": {:?}, \"host_steal_share\": {steal}, \"samples\": {{{}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        git_commit(),
        flags.join(" "),
        store_fs,
        counts.join(", ")
    );
    match &checked {
        Ok(n) => eprintln!("oracle: {n} replies match the twin engines ({oracle_s:.1} s)"),
        Err(divergences) => {
            for d in divergences.iter().take(10) {
                eprintln!("oracle divergence: {d}");
            }
        }
    }

    let (metrics, accounting_ok) = if let Some(report) = trace_report {
        report.metrics(&samples)?
    } else {
        let done_s = sorted(
            samples
                .iter()
                .filter(|s| s.ms.is_finite())
                .map(|s| (s.done - started).as_secs_f64())
                .collect(),
        );
        let completed = done_s.len();
        // Latency per request kind, under its own name. The kinds a
        // workload is built around must meet the percentile rule.
        for kind in Kind::ALL {
            let n = samples.iter().filter(|s| s.kind == kind).count();
            let required = kind == Kind::Edit || kind == analysis_kind(args.workload);
            match p50_p99(&samples, kind) {
                Ok((p50, p99)) => eprintln!(
                    "{0}_p50_ms {p50:.4} ms, {0}_p99_ms {p99:.4} ms ({n} samples)",
                    kind.name()
                ),
                Err(e) if required => return Err(e),
                Err(_) if n > 0 => {
                    let p50 = percentile(&sorted(latencies(&samples, kind)), 50)?;
                    eprintln!(
                        "{}_p50_ms {p50:.4} ms ({n} samples, too few for a p99)",
                        kind.name()
                    );
                }
                Err(_) => {}
            }
        }
        let cpu_ms = server_ticks as f64 * 1e3 / ticks_per_second() / completed as f64;
        eprintln!("server_cpu_ms_per_req {cpu_ms:.4} ms");
        eprintln!(
            "failed_share {:.6} ({failed} of {attempted})",
            failed as f64 / attempted as f64
        );
        if !args.workload.closed_loop() {
            let lag = sorted(samples.iter().map(|s| s.lag_ms).collect());
            eprintln!("loadgen.lag_p99_ms {:.4} ms", percentile(&lag, 99)?);
        }
        // The closed loops report their median block rate; the open loop
        // its whole-phase rate, which stays at the offered rate unless
        // the server falls behind it.
        let whole_rps = completed as f64 / elapsed;
        eprintln!("whole-phase rate {whole_rps:.4} req/s over {elapsed:.3} s");
        let throughput = if args.workload.closed_loop() {
            blocked_rate(&done_s)?
        } else {
            whole_rps
        };
        let metrics = vec![
            metric("setup_s", median(&setups), "s"),
            metric("throughput_rps", throughput, "1/s"),
            metric("server_rss_mb", rss_mb, "MB"),
        ];
        (metrics, true)
    };
    for m in &metrics {
        eprintln!("{:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct && accounting_ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    let _ = std::fs::remove_dir_all(run_dir());
    // Only removes the work directory if no other run is using it.
    let _ = std::fs::remove_dir(".bench_work");
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}
