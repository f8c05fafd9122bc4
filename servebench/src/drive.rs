//! The untraced load generator: warm-up, the closed loop and the open
//! loop. One thread per connection; connection `c` carries the tenants
//! of shard `c`.

use crate::oracle::{Entry, Outcome};
use crate::wire::{decode_response, encode_request, Conn, FrameBuf};
use crate::workload::{Kind, Op, Spec};
use gmaa_serve::Request;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    /// Latency in ms, `f64::INFINITY` when the request failed. Closed
    /// loop: encode → decoded reply. Open loop: due time → decoded reply.
    pub ms: f64,
    /// Send → decoded reply, in ms (equal to `ms` in the closed loop).
    pub round_trip_ms: f64,
    /// How late the request was sent, in ms (open loop only).
    pub lag_ms: f64,
    /// When the reply was decoded.
    pub done: Instant,
    /// Whether any request, on either connection, was still in flight
    /// when this one was sent (open loop only).
    pub queued: bool,
}

/// What one connection's thread brings back.
#[derive(Default)]
pub struct ConnLog {
    pub samples: Vec<Sample>,
    /// `(tenant, request, reply)` in send order.
    pub entries: Vec<(usize, Entry)>,
}

impl ConnLog {
    fn record(&mut self, tenant: usize, request: Request, outcome: Outcome, sample: Sample) {
        let ms = if outcome.failed() {
            f64::INFINITY
        } else {
            sample.ms
        };
        self.samples.push(Sample { ms, ..sample });
        self.entries.push((tenant, Entry { request, outcome }));
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// What the load generator knows of each tenant's state: its latest
/// intensity ranking and the row its last `SetPerf` edited (these
/// resolve symbolic edits into requests).
pub struct Rankings {
    ranking: Vec<Vec<usize>>,
    last_alt: Vec<usize>,
}

impl Rankings {
    pub fn new(spec: &Spec) -> Rankings {
        Rankings {
            ranking: spec
                .tenants
                .iter()
                .map(|t| (0..t.model.num_alternatives()).collect())
                .collect(),
            last_alt: vec![0; spec.tenants.len()],
        }
    }

    /// The request for `op`, given what the tenant's replies said so far.
    pub fn request(&mut self, spec: &Spec, op: &Op) -> Request {
        let t = op.tenant();
        let request = spec.request(op, &self.ranking[t], self.last_alt[t]);
        if let Request::SetPerf { alternative, .. } = request {
            self.last_alt[t] = alternative;
        }
        request
    }

    pub fn update(&mut self, tenant: usize, outcome: &Outcome) {
        if let Some(r) = outcome.ranking() {
            self.ranking[tenant] = r;
        }
    }
}

/// Send one request and wait for its reply. Transport failures abort the
/// run; error replies come back as [`Outcome::Failed`].
pub fn call(conn: &mut Conn, request: &Request) -> Result<Outcome, String> {
    let payload = encode_request(request);
    let reply = conn.call(&payload).map_err(|e| e.to_string())?;
    Ok(Outcome::of(decode_response(&reply)?))
}

/// Create every tenant of connection `c` and serve its first full cycle.
/// The warm-up replies join the oracle's log.
pub fn warm_up(
    spec: &Spec,
    conn: &mut Conn,
    c: usize,
    rankings: &mut Rankings,
) -> Result<ConnLog, String> {
    let mut log = ConnLog::default();
    for (t, tenant) in spec.tenants.iter().enumerate().filter(|(_, t)| t.conn == c) {
        let create = Request::CreateSession {
            session: tenant.name.clone(),
            model: tenant.model.clone(),
        };
        match call(conn, &create)? {
            Outcome::Created => {}
            other => return Err(format!("create {}: {other:?}", tenant.name)),
        }
        let op = spec.warmup_op(t);
        let request = rankings.request(spec, &op);
        let outcome = call(conn, &request)?;
        if outcome.failed() {
            return Err(format!("warm-up of {}: {outcome:?}", tenant.name));
        }
        rankings.update(t, &outcome);
        log.entries.push((t, Entry { request, outcome }));
    }
    Ok(log)
}

/// Closed loop on one connection until `deadline`: each request is sent
/// when the previous reply has been decoded.
pub fn closed_loop(
    spec: &Spec,
    conn: &mut Conn,
    ops: &mut impl Iterator<Item = Op>,
    rankings: &mut Rankings,
    deadline: Instant,
) -> Result<ConnLog, String> {
    let mut log = ConnLog::default();
    while Instant::now() < deadline {
        let op = ops.next().expect("closed streams are endless");
        let tenant = op.tenant();
        let request = rankings.request(spec, &op);
        let started = Instant::now();
        let outcome = call(conn, &request)?;
        let ms = ms_since(started);
        rankings.update(tenant, &outcome);
        let sample = Sample {
            kind: op.kind(),
            ms,
            round_trip_ms: ms,
            lag_ms: 0.0,
            done: Instant::now(),
            queued: false,
        };
        log.record(tenant, request, outcome, sample);
    }
    Ok(log)
}

/// How often the open loop looks for replies while requests are in flight.
const POLL: Duration = Duration::from_micros(100);

struct InFlight {
    due: Instant,
    sent: Instant,
    queued: bool,
    tenant: usize,
    kind: Kind,
    request: Request,
}

/// Open loop on one connection: send each scheduled request at its due
/// time (pipelined; replies come back in order) and read replies in
/// between. Latency counts from the due time. `in_flight` counts the
/// requests in flight on all connections.
pub fn open_loop(
    spec: &Spec,
    conn: &mut Conn,
    schedule: &[(u64, Op)],
    rankings: &mut Rankings,
    start: Instant,
    in_flight: &AtomicUsize,
) -> Result<ConnLog, String> {
    let mut log = ConnLog::default();
    let mut pending: VecDeque<InFlight> = VecDeque::new();
    let mut next = 0;
    let mut chunk = vec![0u8; 64 * 1024];
    let io = |e: std::io::Error| format!("transport: {e}");
    conn.stream.set_nonblocking(true).map_err(io)?;
    loop {
        let now = Instant::now();
        while let Some((due_ns, op)) = schedule.get(next) {
            let due = start + Duration::from_nanos(*due_ns);
            if due > now {
                break;
            }
            let request = rankings.request(spec, op);
            let sent = Instant::now();
            write_all_polling(
                &mut conn.stream,
                &crate::wire::frame(&encode_request(&request)),
            )
            .map_err(io)?;
            pending.push_back(InFlight {
                due,
                sent,
                queued: in_flight.fetch_add(1, Ordering::Relaxed) > 0,
                tenant: op.tenant(),
                kind: op.kind(),
                request,
            });
            next += 1;
        }
        if next == schedule.len() && pending.is_empty() {
            conn.stream.set_nonblocking(false).map_err(io)?;
            return Ok(log);
        }
        // Socket read timeouts tick at the kernel's timer granularity
        // (up to 10 ms), far too coarse for due times; instead poll the
        // non-blocking socket and sleep (high-resolution) in between.
        match conn.stream.read(&mut chunk) {
            Ok(0) => return Err(conn.fb.at_eof().to_string()),
            Ok(n) => {
                conn.fb.push(&chunk[..n]);
                drain_replies(&mut conn.fb, &mut pending, &mut log, in_flight)?;
                continue;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(e) => return Err(io(e)),
        }
        let until_due = schedule.get(next).map(|(due_ns, _)| {
            (start + Duration::from_nanos(*due_ns)).saturating_duration_since(Instant::now())
        });
        let wait = match (until_due, pending.is_empty()) {
            (Some(d), true) => d,
            (Some(d), false) => d.min(POLL),
            (None, _) => POLL,
        };
        std::thread::sleep(wait);
        if next == schedule.len()
            && start.elapsed() > schedule_end(schedule) + Duration::from_secs(60)
        {
            return Err(format!(
                "{} replies still missing 60 s after the schedule ended",
                pending.len()
            ));
        }
    }
}

/// `write_all` on a non-blocking socket: wait out a full send buffer.
fn write_all_polling(w: &mut impl Write, mut buf: &[u8]) -> std::io::Result<()> {
    while !buf.is_empty() {
        match w.write(buf) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                std::thread::sleep(POLL)
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn schedule_end(schedule: &[(u64, Op)]) -> Duration {
    Duration::from_nanos(schedule.last().map_or(0, |(due, _)| *due))
}

fn drain_replies(
    fb: &mut FrameBuf,
    pending: &mut VecDeque<InFlight>,
    log: &mut ConnLog,
    in_flight: &AtomicUsize,
) -> Result<(), String> {
    while let Some(payload) = fb
        .pop(gmaa_serve::net::DEFAULT_MAX_FRAME_BYTES)
        .map_err(|e| e.to_string())?
    {
        let outcome = Outcome::of(decode_response(&payload)?);
        let done = Instant::now();
        let f = pending
            .pop_front()
            .ok_or("reply without a request in flight")?;
        in_flight.fetch_sub(1, Ordering::Relaxed);
        let sample = Sample {
            kind: f.kind,
            ms: (done - f.due).as_secs_f64() * 1e3,
            round_trip_ms: (done - f.sent).as_secs_f64() * 1e3,
            lag_ms: (f.sent.saturating_duration_since(f.due)).as_secs_f64() * 1e3,
            done,
            queued: f.queued,
        };
        log.record(f.tenant, f.request, outcome, sample);
    }
    Ok(())
}
