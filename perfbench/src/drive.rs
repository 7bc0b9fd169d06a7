//! The load generator. Three shapes, each over at most `nproc`
//! connections from this one process:
//!
//! * [`closed_loop`]: each caller sends its next request when the previous
//!   reply lands;
//! * [`pipelined`]: closed loop, each caller keeping a fixed-depth batch in
//!   flight;
//! * [`open_loop`]: a precomputed schedule of due times; latency counts
//!   from the due time, so a stall shows up in every request it delays.
//!
//! Every operation of the closed and open loops becomes one [`Rec`] (the
//! pipelined phase keeps a [`Tally`]). `intended_ns` is when the
//! operation was due (the schedule, or the previous reply for a closed
//! loop); latency counts from it. `ready_ns` is when the generator could
//! first send it: the due time, or later if the connection was still
//! waiting for an earlier reply. `sent_ns - ready_ns` is the generator's
//! own lateness; `ready_ns - intended_ns` is queueing behind busy
//! connections, which the latency includes.

use pitex_live::UpdateOp;
use pitex_serve::{QueryRequest, ReloadReply, Request, Response, ServeClient, TraceRequest};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub enum Op {
    Query { user: u32, k: usize },
    Update(UpdateOp),
    Reload,
}

impl Op {
    pub fn is_write(&self) -> bool {
        !matches!(self, Op::Query { .. })
    }

    fn request(&self, traced: bool) -> Request {
        match self {
            Op::Query { user, k } if traced => {
                Request::Trace(TraceRequest { query: QueryRequest::new(*user, *k), trace_id: None })
            }
            Op::Query { user, k } => Request::Query(QueryRequest::new(*user, *k)),
            Op::Update(op) => Request::Update(op.clone()),
            Op::Reload => Request::Reload,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Ok,
    Busy,
    /// `ERR …` (deadline included) or a reply of the wrong kind.
    Error,
    Transport,
}

/// A query answer as served.
#[derive(Clone, Debug)]
pub struct Answer {
    pub tags: Vec<u32>,
    pub spread_bits: u64,
    pub cached: bool,
    /// Server-side handling time the reply reports.
    pub server_us: u64,
}

/// A span the server reported in a `TRACED` reply (offsets in µs from the
/// server's admission of the request).
#[derive(Clone, Debug)]
pub struct ServerSpan {
    pub name: String,
    pub start_us: u64,
    pub dur_us: u64,
}

pub struct Rec {
    pub phase: &'static str,
    pub op: Op,
    pub intended_ns: u64,
    pub ready_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub status: Status,
    pub answer: Option<Answer>,
    pub reload: Option<ReloadReply>,
    /// Server spans of a traced query (`None` when sent untraced).
    pub spans: Option<Vec<ServerSpan>>,
    /// Range of snapshot epochs (counted in acknowledged `RELOAD`s since
    /// boot) that may have answered this query.
    pub epochs: (u32, u32),
}

impl Rec {
    pub fn is_query(&self) -> bool {
        matches!(self.op, Op::Query { .. })
    }

    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.intended_ns)
    }

    pub fn rtt_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.sent_ns)
    }

    /// The generator's own lateness.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.ready_ns)
    }

    /// Time the operation waited for a free connection.
    pub fn queued_ns(&self) -> u64 {
        self.ready_ns.saturating_sub(self.intended_ns)
    }
}

/// Where and how the generator connects.
#[derive(Clone, Copy)]
pub struct Target {
    pub addr: SocketAddr,
    pub binary: bool,
}

impl Target {
    pub fn connect(&self) -> std::io::Result<ServeClient> {
        if self.binary {
            ServeClient::connect_binary(self.addr)
        } else {
            ServeClient::connect(self.addr)
        }
    }
}

/// The run's clock: nanoseconds since one origin shared by every thread.
#[derive(Clone, Copy)]
pub struct Clock(pub Instant);

impl Clock {
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Waits until `due_ns` by yielding, never sleeping: a sleep overshoots
    /// by tens of microseconds, and an idle virtual CPU pays the
    /// hypervisor's wake-up cost on the next request.
    pub fn wait_until(&self, due_ns: u64) {
        while self.now() < due_ns {
            std::thread::yield_now();
        }
    }
}

/// Runs `f` while a second thread keeps a CPU busy yielding, so each of
/// the sequential round trips `f` measures does not also pay an idle
/// virtual CPU's wake-up (see [`Clock::wait_until`]). On a 2-vCPU virtual
/// machine, sequential `UPDATE` round trips measured this way read about
/// 130 us run after run, against 115 to 270 us without.
pub fn with_cpu_awake<T>(f: impl FnOnce() -> T) -> T {
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                std::thread::yield_now();
            }
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        out
    })
}

/// Bytes of one ping-pong message: about a cached query's `PFRM` frame.
const PING_BYTES: usize = 16;

/// Round trips that `pairs` threads complete in `window`, each bouncing a
/// small message off its own echo thread over loopback TCP. No program
/// code runs: it measures what a wake-up and a few socket calls cost on
/// this host at this moment, the work a cached routed query consists of.
pub fn pingpong(pairs: usize, window: Duration) -> std::io::Result<u64> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let mut links = Vec::new();
    for _ in 0..pairs {
        let client = std::net::TcpStream::connect(addr)?;
        let (echo, _) = listener.accept()?;
        client.set_nodelay(true)?;
        echo.set_nodelay(true)?;
        links.push((client, echo));
    }
    let end = Instant::now() + window;
    std::thread::scope(|scope| {
        let callers: Vec<_> = links
            .into_iter()
            .map(|(mut client, mut echo)| {
                // Ends when the caller closes its side (or fails).
                scope.spawn(move || {
                    let mut buf = [0u8; PING_BYTES];
                    while echo.read_exact(&mut buf).is_ok() && echo.write_all(&buf).is_ok() {}
                });
                scope.spawn(move || -> std::io::Result<u64> {
                    let mut buf = [0u8; PING_BYTES];
                    let mut round_trips = 0;
                    while Instant::now() < end {
                        client.write_all(&buf)?;
                        client.read_exact(&mut buf)?;
                        round_trips += 1;
                    }
                    Ok(round_trips)
                })
            })
            .collect();
        callers.into_iter().map(|h| h.join().expect("ping-pong thread panicked")).sum()
    })
}

/// Whether request number `i` of a traced run is sent as `TRACE`: half of
/// them, interleaved pseudo-randomly, so traced and untraced requests see
/// the same conditions and their difference is the tracing overhead.
fn traced_slot(trace: bool, i: usize) -> bool {
    trace && (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 1
}

fn classify(
    result: std::io::Result<Response>,
) -> (Status, Option<Answer>, Option<ReloadReply>, Option<Vec<ServerSpan>>) {
    match result {
        Ok(Response::Ok(r)) => {
            let answer = Answer {
                tags: r.tags,
                spread_bits: r.spread.to_bits(),
                cached: r.cached,
                server_us: r.us,
            };
            (Status::Ok, Some(answer), None, None)
        }
        Ok(Response::Traced(r)) => {
            let spans = r
                .spans
                .iter()
                .map(|s| ServerSpan {
                    name: s.name.clone(),
                    start_us: s.start_us,
                    dur_us: s.dur_us,
                })
                .collect();
            let answer = Answer {
                tags: r.tags,
                spread_bits: r.spread.to_bits(),
                cached: r.cached,
                server_us: r.us,
            };
            (Status::Ok, Some(answer), None, Some(spans))
        }
        Ok(Response::Updated { .. }) => (Status::Ok, None, None, None),
        Ok(Response::Reloaded(reply)) => (Status::Ok, None, Some(reply), None),
        Ok(Response::Busy) => (Status::Busy, None, None, None),
        Ok(_) => (Status::Error, None, None, None),
        Err(_) => (Status::Transport, None, None, None),
    }
}

/// Sends one operation and records it (`intended_ns` and `ready_ns` as
/// in the module docs).
fn send(
    client: &mut ServeClient,
    clock: Clock,
    phase: &'static str,
    op: &Op,
    traced: bool,
    (intended_ns, ready_ns): (u64, u64),
) -> Rec {
    let request = op.request(traced);
    let sent_ns = clock.now();
    let result = client.request(&request);
    let done_ns = clock.now();
    let transport = result.is_err();
    let (status, answer, reload, spans) = classify(result);
    if transport {
        let _ = client.reconnect();
    }
    Rec {
        phase,
        op: op.clone(),
        intended_ns,
        ready_ns,
        sent_ns,
        done_ns,
        status,
        answer,
        reload,
        spans,
        epochs: (0, 0),
    }
}

/// Sends one unscheduled operation right away.
pub fn send_now(
    client: &mut ServeClient,
    clock: Clock,
    phase: &'static str,
    op: &Op,
    traced: bool,
) -> Rec {
    let now = clock.now();
    send(client, clock, phase, op, traced, (now, now))
}

fn join_all(
    handles: Vec<std::thread::ScopedJoinHandle<'_, std::io::Result<Vec<Rec>>>>,
) -> std::io::Result<Vec<Rec>> {
    let mut recs = Vec::new();
    for handle in handles {
        recs.extend(handle.join().expect("load-generator thread panicked")?);
    }
    recs.sort_by_key(|r| r.sent_ns);
    Ok(recs)
}

/// `callers` closed-loop callers taking `ops` in order from a shared
/// cursor: cycling through them for `window`, or, with no window, exactly
/// once.
pub fn closed_loop(
    target: Target,
    clock: Clock,
    phase: &'static str,
    callers: usize,
    ops: &[Op],
    window: Option<Duration>,
    trace: bool,
) -> std::io::Result<Vec<Rec>> {
    let cursor = AtomicUsize::new(0);
    let end = window.map(|w| clock.now() + w.as_nanos() as u64);
    std::thread::scope(|scope| {
        let handles = (0..callers)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut client = target.connect()?;
                    let mut recs = Vec::new();
                    let mut last_done = None;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let more = match end {
                            Some(end) => clock.now() < end,
                            None => i < ops.len(),
                        };
                        if !more {
                            break;
                        }
                        let ready = last_done.unwrap_or_else(|| clock.now());
                        let op = &ops[i % ops.len()];
                        let rec = send(
                            &mut client,
                            clock,
                            phase,
                            op,
                            traced_slot(trace, i),
                            (ready, ready),
                        );
                        last_done = Some(rec.done_ns);
                        recs.push(rec);
                    }
                    Ok(recs)
                })
            })
            .collect();
        join_all(handles)
    })
}

/// `((user, k), tags, spread bits)` of a served answer.
pub type ServedAnswer = ((u32, usize), Vec<u32>, u64);

/// What a pipelined phase did. It keeps counts instead of one [`Rec`] per
/// request (hundreds of thousands of them would dominate the process's
/// memory), and each distinct OK answer once, with how often it came, for
/// the oracle to check after the phase.
#[derive(Default)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub busy: u64,
    pub error: u64,
    pub transport: u64,
    /// Each distinct OK answer, and how many replies carried it.
    pub answers: HashMap<ServedAnswer, u64>,
    /// The generator's own lateness per batch (send minus the previous
    /// batch's completion), counted in 1 µs bins, the last bin holding
    /// everything beyond: a record of fixed size, so the phase's own
    /// memory does not grow with its throughput.
    pub late_us: Vec<u64>,
    /// Per batch, when traced: `(sent, done, OK replies)`.
    pub batches: Vec<(u64, u64, u64)>,
}

/// Bins of [`Tally::late_us`] (the last one collects lateness of 100 ms
/// and more).
const LATE_BINS: usize = 100_000;

impl Tally {
    pub fn merge(&mut self, t: Tally) {
        self.sent += t.sent;
        self.ok += t.ok;
        self.busy += t.busy;
        self.error += t.error;
        self.transport += t.transport;
        for (answer, n) in t.answers {
            *self.answers.entry(answer).or_default() += n;
        }
        self.late_us.resize(LATE_BINS, 0);
        for (sum, n) in self.late_us.iter_mut().zip(t.late_us) {
            *sum += n;
        }
        self.batches.extend(t.batches);
    }

    /// The recorded lateness, one value (ns, the middle of its bin) per
    /// batch.
    pub fn late_ns(&self) -> Vec<f64> {
        let mut values = Vec::new();
        for (us, &n) in self.late_us.iter().enumerate() {
            values.extend(std::iter::repeat_n((us as f64 + 0.5) * 1e3, n as usize));
        }
        values
    }
}

/// `callers` closed-loop connections, each keeping `depth` pipelined
/// requests in flight, cycling through `ops` (queries) for `window`.
/// `trace` keeps every batch's send and completion times.
#[allow(clippy::too_many_arguments)]
pub fn pipelined(
    target: Target,
    clock: Clock,
    callers: usize,
    depth: usize,
    ops: &[Op],
    window: Duration,
    trace: bool,
) -> std::io::Result<Tally> {
    let end = clock.now() + window.as_nanos() as u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                scope.spawn(move || -> std::io::Result<Tally> {
                    let mut client = target.connect()?;
                    let mut tally = Tally { late_us: vec![0; LATE_BINS], ..Tally::default() };
                    let mut pos = c * ops.len() / callers.max(1);
                    let mut last_done = None;
                    while clock.now() < end {
                        let batch = &ops[pos..pos + depth];
                        pos = (pos + depth) % (ops.len() - depth);
                        let requests: Vec<Request> =
                            batch.iter().map(|op| op.request(false)).collect();
                        let sent_ns = clock.now();
                        let late_us = last_done.map_or(0, |d| sent_ns.saturating_sub(d) / 1000);
                        tally.late_us[(late_us as usize).min(LATE_BINS - 1)] += 1;
                        let result = client.pipeline(&requests);
                        let done_ns = clock.now();
                        last_done = Some(done_ns);
                        tally.sent += depth as u64;
                        let replies = match result {
                            Ok(replies) => replies,
                            Err(_) => {
                                let _ = client.reconnect();
                                tally.transport += depth as u64;
                                if trace {
                                    tally.batches.push((sent_ns, done_ns, 0));
                                }
                                continue;
                            }
                        };
                        let mut ok = 0;
                        for (op, reply) in batch.iter().zip(replies) {
                            match classify(Ok(reply)) {
                                (Status::Ok, Some(answer), ..) => {
                                    ok += 1;
                                    let Op::Query { user, k } = *op else {
                                        unreachable!("the pipelined phase sends queries only")
                                    };
                                    *tally
                                        .answers
                                        .entry(((user, k), answer.tags, answer.spread_bits))
                                        .or_default() += 1;
                                }
                                (Status::Busy, ..) => tally.busy += 1,
                                _ => tally.error += 1,
                            }
                        }
                        tally.ok += ok;
                        if trace {
                            tally.batches.push((sent_ns, done_ns, ok));
                        }
                    }
                    Ok(tally)
                })
            })
            .collect();
        let mut total = Tally::default();
        for handle in handles {
            total.merge(handle.join().expect("load-generator thread panicked")?);
        }
        Ok(total)
    })
}

/// One operation of an open-loop schedule.
pub struct Scheduled {
    pub due_ns: u64,
    pub op: Op,
}

/// Plays `schedule` (sorted by due time, relative to `start_ns`) over
/// `conns` connections, each an independent client: queries are dealt to
/// the connections in turn and every write goes over the first one, in
/// schedule order, so a `RELOAD` folds exactly the `UPDATE`s scheduled
/// before it. Each connection sends its operations at their due times,
/// one at a time; an operation due while its connection still waits for
/// an earlier reply is sent as soon as that reply lands, and its latency
/// still counts from its due time. Queries record the range of reload
/// epochs they may have been answered from.
pub fn open_loop(
    target: Target,
    clock: Clock,
    phase: &'static str,
    conns: usize,
    start_ns: u64,
    schedule: &[Scheduled],
    trace: bool,
) -> std::io::Result<Vec<Rec>> {
    let conns = conns.max(1);
    let mut lanes: Vec<Vec<usize>> = vec![Vec::new(); conns];
    let mut queries = 0;
    for (i, item) in schedule.iter().enumerate() {
        if item.op.is_write() {
            lanes[0].push(i);
        } else {
            lanes[queries % conns].push(i);
            queries += 1;
        }
    }
    let reloads_started = AtomicU32::new(0);
    let reloads_acked = AtomicU32::new(0);
    std::thread::scope(|scope| {
        let handles = lanes
            .iter()
            .map(|lane| {
                let (reloads_started, reloads_acked) = (&reloads_started, &reloads_acked);
                scope.spawn(move || {
                    let mut client = target.connect()?;
                    let mut recs = Vec::with_capacity(lane.len());
                    let mut free_ns = 0;
                    for &i in lane {
                        let item = &schedule[i];
                        let due = start_ns + item.due_ns;
                        clock.wait_until(due);
                        let is_reload = matches!(item.op, Op::Reload);
                        if is_reload {
                            reloads_started.fetch_add(1, Ordering::SeqCst);
                        }
                        let lo = reloads_acked.load(Ordering::SeqCst);
                        let ready = due.max(free_ns);
                        let mut rec = send(
                            &mut client,
                            clock,
                            phase,
                            &item.op,
                            traced_slot(trace, i),
                            (due, ready),
                        );
                        free_ns = rec.done_ns;
                        if is_reload && rec.status == Status::Ok {
                            reloads_acked.fetch_add(1, Ordering::SeqCst);
                        }
                        rec.epochs = (lo, reloads_started.load(Ordering::SeqCst));
                        recs.push(rec);
                    }
                    Ok(recs)
                })
            })
            .collect();
        join_all(handles)
    })
}
