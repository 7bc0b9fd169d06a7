//! The readiness-driven event-loop front end.
//!
//! The `pitex-front` thread owns the listener and every pipelined binary
//! connection behind an epoll-backed poller (the vendored [`polling`]
//! shim), registered **level-triggered**: interest stays armed across
//! deliveries, so the steady-state round trip costs no `epoll_ctl` at all
//! — the loop caches each connection's armed interest and issues a
//! `modify` only when it actually changes (a partial write, a drain, a
//! close). Text-protocol and HTTP clients are *sniffed* off the
//! first bytes and handed to the [`crate::frontend`] line loop on threads
//! of their own, so every protocol shares one port; binary `PFRM` clients
//! stay on the loop with a non-blocking per-connection state machine:
//!
//! * **Batch admission** — a readable burst is drained into the frame
//!   buffer and every complete frame is admitted in one pass: `PING` and
//!   cache hits answer inline, cache-miss queries dispatch to the worker
//!   pool with an [`EventSink`] (no thread blocks per in-flight request),
//!   and every other verb goes to the slow-lane thread so a long admin
//!   fold can never stall the loop. Frames that cannot be served get the
//!   front door's replies (oversized: one `ERR`, then close).
//! * **Completion queue** — workers finish queries on their own threads
//!   (cache insert, counters, flight record — see
//!   [`super::complete_query`]), encode the reply frame, and push it to a
//!   mutex-guarded queue, waking the loop through the poller's `eventfd`
//!   notifier. A completion whose connection has since died is dropped and
//!   counted under `conn_aborted` — keys are monotonically assigned and
//!   never reused, so a late reply can never reach the wrong client.
//! * **Vectored flush** — all queued reply frames for a connection are
//!   written with as few `writev` calls as possible ([`WRITEV_BATCH`]
//!   slices per call).
//!
//! The loop caps per-connection pipelining at [`DEFAULT_PIPELINE_CAP`]
//! in-flight queries; past that, further queries in the burst shed as
//! `BUSY` exactly like a full worker queue would.
//!
//! Where the platform has no epoll (`Poller::new` fails) or the listener
//! cannot be registered, the shard serves every protocol through the
//! [`crate::frontend`] blocking acceptor instead.

use super::{
    complete_query, prepare_query, shed_query, Job, PreparedQuery, QueryCtx, ReplySink, Shard,
    Shared, WorkerReply, DEFAULT_PIPELINE_CAP,
};
use crate::frame::{self, could_be_frame, FrameBuf, MAX_REQUEST_FRAME_BYTES};
use crate::frontend::{self, Handled, Service, POLL};
use crate::protocol::{ErrorCode, Request, Response};
use pitex_live::Snapshot;
use polling::{Event, Events, PollMode, Poller};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// The poller key reserved for the listener; connections start at 1.
const LISTENER_KEY: usize = 0;

/// Max `IoSlice`s handed to one `write_vectored` call. Linux caps a single
/// writev at `IOV_MAX` (1024) slices; staying well under it keeps each
/// syscall's copy bounded.
const WRITEV_BATCH: usize = 64;

/// What worker threads and the slow lane share with the loop: the poller
/// (for `notify`) and the completed-reply queue.
pub(super) struct LoopShared {
    poller: Poller,
    completions: Mutex<Vec<Completion>>,
}

/// A reply frame finished off-loop, addressed by connection key.
struct Completion {
    key: usize,
    frame: Vec<u8>,
    close: bool,
}

impl LoopShared {
    fn push(&self, completion: Completion) {
        self.completions.lock().unwrap().push(completion);
        // A failed wake-up is harmless: the loop also wakes on its POLL
        // timeout and drains the queue then.
        let _ = self.poller.notify();
    }

    fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock().unwrap())
    }
}

/// The event-loop reply sink a dispatched query carries instead of a
/// blocked connection thread. The worker finishes the query (cache,
/// counters, recording), encodes the frame, and pushes it to the
/// completion queue. A sink dropped without delivering (worker pool
/// drained at shutdown) still completes the request with an error so the
/// client is never left waiting on a swallowed id.
pub(super) struct EventSink {
    shared: Arc<Shared>,
    lp: Arc<LoopShared>,
    key: usize,
    id: u64,
    ctx: Option<QueryCtx>,
}

impl EventSink {
    pub(super) fn deliver(mut self, reply: WorkerReply) {
        if let Some(ctx) = self.ctx.take() {
            let response = complete_query(&self.shared, &ctx, reply);
            self.lp.push(Completion {
                key: self.key,
                frame: frame::encode_response(self.id, &response),
                close: false,
            });
        }
    }
}

impl Drop for EventSink {
    fn drop(&mut self) {
        if let Some(ctx) = self.ctx.take() {
            let response = super::abandoned_query(&self.shared, &ctx);
            self.lp.push(Completion {
                key: self.key,
                frame: frame::encode_response(self.id, &response),
                close: false,
            });
        }
    }
}

/// A verb the loop must not run inline (admin folds, stats scrapes,
/// blocking `EXPLAIN`/`TRACE` dispatches), bound for the slow lane.
struct SlowTask {
    key: usize,
    id: u64,
    request: Request,
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// First bytes while the protocol is still undecided.
    head: Vec<u8>,
    sniffing: bool,
    frames: FrameBuf,
    /// Completed reply frames not yet (fully) written.
    out: VecDeque<Vec<u8>>,
    /// Bytes of `out[0]` already written.
    out_off: usize,
    /// Queries + slow-lane verbs dispatched but not yet completed.
    in_flight: usize,
    /// The peer half-closed. Frames already buffered are still admitted
    /// (their replies flush before the hang-up), but nothing more is read.
    eof: bool,
    /// Stop admitting (QUIT/SHUTDOWN admitted or a fatal frame error
    /// replied): drain what is pending, then close.
    draining: bool,
    /// Close once `out` is flushed and `in_flight` drains to zero.
    close_after_flush: bool,
    /// The `(readable, writable)` interest currently armed in the poller.
    /// Registrations are level-triggered, so this only changes on a
    /// partial write, a half-close, or a drain — the cache is what lets
    /// the steady state skip `epoll_ctl` entirely.
    armed: (bool, bool),
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            head: Vec::with_capacity(4),
            sniffing: true,
            frames: FrameBuf::new(MAX_REQUEST_FRAME_BYTES),
            out: VecDeque::new(),
            out_off: 0,
            in_flight: 0,
            eof: false,
            draining: false,
            close_after_flush: false,
            armed: (true, false),
        }
    }
}

/// Loop-wide context threaded through the per-connection handlers.
struct LoopCtx<'a> {
    service: &'a Arc<Shard>,
    lp: &'a Arc<LoopShared>,
    slow_tx: &'a mpsc::Sender<SlowTask>,
}

/// What one connection event resolved to.
enum Outcome {
    /// Still on the loop — flush and re-arm.
    Keep,
    /// Sniffed as text/HTTP: hand the stream to a blocking thread.
    HandOffText,
    /// Dead (bad magic, torn read, write failure): drop it.
    Drop,
}

/// Runs the event loop until shutdown, or the blocking front end where
/// the platform has no poller.
pub(super) fn run(service: Arc<Shard>, listener: TcpListener) {
    let Ok(poller) = Poller::new() else { return frontend::serve(service, listener) };
    let lp = Arc::new(LoopShared { poller, completions: Mutex::new(Vec::new()) });
    // Level-triggered: as long as accepts are drained to `WouldBlock`
    // (they are — see `accept_burst`), the listener never needs re-arming.
    if unsafe { lp.poller.add_with_mode(&listener, Event::readable(LISTENER_KEY), PollMode::Level) }
        .is_err()
    {
        return frontend::serve(service, listener);
    }
    let shared = &service.shared;

    let (slow_tx, slow_rx) = mpsc::channel::<SlowTask>();
    {
        let service = service.clone();
        let lp = lp.clone();
        if let Ok(handle) = std::thread::Builder::new()
            .name("pitex-slowlane".to_string())
            .spawn(move || slow_lane(&service, &lp, &slow_rx))
        {
            shared.door.register(handle);
        }
    }

    let ctx = LoopCtx { service: &service, lp: &lp, slow_tx: &slow_tx };
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_key = LISTENER_KEY + 1;
    let mut events = Events::new();
    let mut dirty: Vec<usize> = Vec::new();
    let mut snapshot = shared.store.current();
    loop {
        events.clear();
        let _ = lp.poller.wait(&mut events, Some(POLL));
        if shared.door.stopping() {
            // A binary SHUTDOWN's BYE rides the completion queue and may
            // not have been drained yet — deliver what is (or is about to
            // be) queued and flush before going down, so binary clients
            // see an orderly reply stream, not an abrupt EOF, exactly as
            // text clients get their Bye line before the stop.
            shutdown_flush(&ctx, &mut conns);
            return;
        }
        // Re-pin the snapshot once per wake; admission below uses it.
        if shared.store.epoch() != snapshot.epoch {
            snapshot = shared.store.current();
        }

        dirty.clear();
        for completion in lp.drain() {
            match conns.get_mut(&completion.key) {
                Some(conn) => {
                    conn.in_flight -= 1;
                    conn.out.push_back(completion.frame);
                    if completion.close {
                        conn.draining = true;
                        conn.close_after_flush = true;
                    }
                    dirty.push(completion.key);
                }
                // The connection died while its reply was being computed.
                None => shared.counters.conn_aborted.inc(),
            }
        }

        for event in events.iter() {
            if event.key == LISTENER_KEY {
                accept_burst(&ctx, &listener, &mut conns, &mut next_key);
                continue;
            }
            let Some(conn) = conns.get_mut(&event.key) else { continue };
            match conn_event(&ctx, event.key, conn, event.readable, &snapshot) {
                Outcome::Keep => dirty.push(event.key),
                Outcome::HandOffText => {
                    let conn = conns.remove(&event.key).expect("present above");
                    let _ = lp.poller.delete(&conn.stream);
                    frontend::hand_off_text(&service, conn.stream, conn.head);
                }
                Outcome::Drop => drop_conn(&ctx, &mut conns, event.key),
            }
        }

        dirty.sort_unstable();
        dirty.dedup();
        for &key in &dirty {
            flush_and_rearm(&ctx, &mut conns, key);
        }
    }
}

/// The last act before the loop exits on stop: give already-dispatched
/// requests a brief, bounded window to complete (the SHUTDOWN that set the
/// stop flag has its BYE in flight on the slow lane at this very moment),
/// deliver every queued completion, and best-effort flush each
/// connection's pending output. Writes are nonblocking; a peer that will
/// not take its reply is abandoned — shutdown never stalls on a client.
fn shutdown_flush(ctx: &LoopCtx<'_>, conns: &mut HashMap<usize, Conn>) {
    let deadline = Instant::now() + POLL;
    loop {
        for completion in ctx.lp.drain() {
            if let Some(conn) = conns.get_mut(&completion.key) {
                conn.in_flight -= 1;
                conn.out.push_back(completion.frame);
            }
        }
        if !conns.values().any(|conn| conn.in_flight > 0) || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    for conn in conns.values_mut() {
        let _ = try_flush(conn);
    }
}

/// The slow-lane thread: runs every non-query verb through the same
/// [`Service::call`] the text protocol uses, then queues the encoded reply
/// back to the loop.
fn slow_lane(service: &Shard, lp: &Arc<LoopShared>, slow_rx: &mpsc::Receiver<SlowTask>) {
    loop {
        match slow_rx.recv_timeout(POLL) {
            Ok(task) => {
                let completion = match service.call(task.request) {
                    Handled::Reply(response, close) => Completion {
                        key: task.key,
                        frame: frame::encode_response(task.id, &response),
                        close,
                    },
                    Handled::Raw(text) => Completion {
                        key: task.key,
                        frame: frame::encode_raw_response(task.id, &text),
                        close: false,
                    },
                };
                lp.push(completion);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if service.shared.door.stopping() {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Accepts until the listener would block. Draining fully is what lets the
/// level-triggered listener registration go without re-arms.
fn accept_burst(
    ctx: &LoopCtx<'_>,
    listener: &TcpListener,
    conns: &mut HashMap<usize, Conn>,
    next_key: &mut usize,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                stream.set_nodelay(true).ok();
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let key = *next_key;
                *next_key += 1;
                if unsafe {
                    ctx.lp.poller.add_with_mode(&stream, Event::readable(key), PollMode::Level)
                }
                .is_ok()
                {
                    conns.insert(key, Conn::new(stream));
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
}

/// Handles one readiness event on a connection: drain the socket, decide
/// the protocol if still sniffing, and admit the whole burst of frames.
fn conn_event(
    ctx: &LoopCtx<'_>,
    key: usize,
    conn: &mut Conn,
    readable: bool,
    snapshot: &Snapshot,
) -> Outcome {
    if readable && !conn.draining && !conn.eof {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    // Half-close: frames already buffered below still get
                    // admitted and their replies flushed, then hang up.
                    conn.eof = true;
                    conn.close_after_flush = true;
                    break;
                }
                Ok(n) => {
                    if conn.sniffing {
                        conn.head.extend_from_slice(&buf[..n]);
                        if !could_be_frame(&conn.head[..conn.head.len().min(4)]) {
                            return Outcome::HandOffText;
                        }
                        if conn.head.len() >= 4 {
                            // The magic is the head of the first frame.
                            let head = std::mem::take(&mut conn.head);
                            conn.frames.extend(&head);
                            conn.sniffing = false;
                        }
                    } else {
                        conn.frames.extend(&buf[..n]);
                    }
                    // A short read means the socket buffer is drained —
                    // skip the read that would only return `WouldBlock`.
                    // Safe *because* the registration is level-triggered:
                    // bytes arriving after this instant re-report on the
                    // next wait.
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Outcome::Drop,
            }
        }
        if conn.sniffing {
            // Still fewer than 4 bytes: EOF with a partial prefix goes to
            // the text path (which drops a torn trailing line, exactly as
            // the blocking server always has).
            if conn.eof {
                return if conn.head.is_empty() { Outcome::Drop } else { Outcome::HandOffText };
            }
            return Outcome::Keep;
        }
        if !process_frames(ctx, key, conn, snapshot) {
            return Outcome::Drop;
        }
    }
    Outcome::Keep
}

/// Admits every complete frame buffered on `conn` in one pass.
/// Returns `false` when the stream desynchronized beyond recovery.
fn process_frames(ctx: &LoopCtx<'_>, key: usize, conn: &mut Conn, snapshot: &Snapshot) -> bool {
    let shared = &ctx.service.shared;
    while !conn.draining {
        let payload = match conn.frames.next_payload() {
            Ok(Some(payload)) => payload,
            Ok(None) => break,
            Err(error) => {
                // Oversized: one ERR, then disconnect. Desynchronized: drop.
                let Some(reply) = frontend::frame_error_reply(ctx.service.as_ref(), error) else {
                    return false;
                };
                conn.out.push_back(reply);
                conn.draining = true;
                conn.close_after_flush = true;
                break;
            }
        };
        match frame::decode_request(&payload) {
            Ok((id, Request::Ping)) => {
                shared.counters.requests.inc();
                conn.out.push_back(frame::encode_response(id, &Response::Pong));
            }
            Ok((id, Request::Query(q))) => {
                shared.counters.requests.inc();
                match prepare_query(shared, snapshot, &q) {
                    PreparedQuery::Ready(response) => {
                        conn.out.push_back(frame::encode_response(id, &response));
                    }
                    PreparedQuery::Dispatch(query_ctx) => {
                        if conn.in_flight >= DEFAULT_PIPELINE_CAP {
                            let response = shed_query(shared, &query_ctx);
                            conn.out.push_back(frame::encode_response(id, &response));
                            continue;
                        }
                        let sink = EventSink {
                            shared: shared.clone(),
                            lp: ctx.lp.clone(),
                            key,
                            id,
                            ctx: Some(query_ctx),
                        };
                        let job = Job {
                            user: q.user,
                            k: sink.ctx.as_ref().expect("just set").k,
                            backend: sink.ctx.as_ref().expect("just set").resolved,
                            deadline: sink.ctx.as_ref().expect("just set").deadline,
                            enqueued: Instant::now(),
                            reply: ReplySink::Event(sink),
                        };
                        match ctx.service.job_tx.try_send(job) {
                            Ok(()) => conn.in_flight += 1,
                            Err(
                                mpsc::TrySendError::Full(job)
                                | mpsc::TrySendError::Disconnected(job),
                            ) => {
                                // Take the ctx back out of the sink so the
                                // shed is booked here, not by its Drop.
                                let ReplySink::Event(mut sink) = job.reply else {
                                    unreachable!("constructed above")
                                };
                                let query_ctx = sink.ctx.take().expect("undelivered");
                                let response = shed_query(shared, &query_ctx);
                                conn.out.push_back(frame::encode_response(id, &response));
                            }
                        }
                    }
                }
            }
            Ok((id, request)) => {
                // Everything else — including QUIT/SHUTDOWN, whose `close`
                // travels back on the completion — runs on the slow lane.
                // The lane's mpsc channel is unbounded, so the pipeline
                // cap applies here too: without it one client could queue
                // arbitrarily many expensive verbs and grow the slow-lane
                // queue and reply buffers without backpressure.
                if conn.in_flight >= DEFAULT_PIPELINE_CAP {
                    shared.counters.requests.inc();
                    shared.counters.busy.inc();
                    conn.out.push_back(frame::encode_response(id, &Response::Busy));
                    continue;
                }
                let draining = matches!(request, Request::Quit | Request::Shutdown);
                match ctx.slow_tx.send(SlowTask { key, id, request }) {
                    Ok(()) => conn.in_flight += 1,
                    Err(_) => {
                        let response = Response::Err {
                            code: ErrorCode::Internal,
                            message: "server is shutting down".to_string(),
                        };
                        conn.out.push_back(frame::encode_response(id, &response));
                    }
                }
                if draining {
                    // Frames pipelined after a QUIT are never admitted —
                    // the text loop stops at QUIT the same way.
                    conn.draining = true;
                }
            }
            Err(error) => {
                let reply = frontend::malformed_frame_reply(ctx.service.as_ref(), &payload, error);
                conn.out.push_back(reply);
            }
        }
    }
    true
}

/// Removes a dead connection, booking its undeliverable replies.
fn drop_conn(ctx: &LoopCtx<'_>, conns: &mut HashMap<usize, Conn>, key: usize) {
    if let Some(conn) = conns.remove(&key) {
        // Queued-but-unwritten frames are completed replies with nowhere
        // to go; in-flight ones are counted when their completion finds
        // the key gone.
        ctx.service.shared.counters.conn_aborted.add(conn.out.len() as u64);
        let _ = ctx.lp.poller.delete(&conn.stream);
    }
}

/// Writes as much of `conn.out` as the socket accepts (vectored, at most
/// [`WRITEV_BATCH`] slices per call). `Ok(true)` = fully drained.
fn try_flush(conn: &mut Conn) -> std::io::Result<bool> {
    while !conn.out.is_empty() {
        let mut slices = Vec::with_capacity(WRITEV_BATCH.min(conn.out.len()));
        let mut iter = conn.out.iter();
        let front = iter.next().expect("non-empty");
        slices.push(IoSlice::new(&front[conn.out_off..]));
        for frame in iter.take(WRITEV_BATCH - 1) {
            slices.push(IoSlice::new(frame));
        }
        let mut written = match (&conn.stream).write_vectored(&slices) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        while written > 0 {
            let remaining = conn.out.front().expect("non-empty").len() - conn.out_off;
            if written >= remaining {
                written -= remaining;
                conn.out.pop_front();
                conn.out_off = 0;
            } else {
                conn.out_off += written;
                written = 0;
            }
        }
    }
    Ok(true)
}

/// Flushes a touched connection and updates its level-triggered interest —
/// or retires it when it is done (or its peer is gone). The armed interest
/// is cached on the connection, so the steady state (reply flushed whole,
/// still reading) issues zero `epoll_ctl` calls.
fn flush_and_rearm(ctx: &LoopCtx<'_>, conns: &mut HashMap<usize, Conn>, key: usize) {
    let Some(conn) = conns.get_mut(&key) else { return };
    match try_flush(conn) {
        Ok(_) => {}
        Err(_) => return drop_conn(ctx, conns, key),
    }
    if conn.out.is_empty() && conn.close_after_flush && conn.in_flight == 0 {
        let conn = conns.remove(&key).expect("present above");
        let _ = ctx.lp.poller.delete(&conn.stream);
        return;
    }
    let done_reading = conn.draining || conn.eof;
    // `(readable, writable)`: writable only while a partial write is
    // stuck; with no interest at all, completions re-arm via the dirty
    // pass when they land.
    let want = (!done_reading, !conn.out.is_empty());
    if want == conn.armed {
        return;
    }
    let interest = Event { key, readable: want.0, writable: want.1 };
    if ctx.lp.poller.modify_with_mode(&conn.stream, interest, PollMode::Level).is_ok() {
        conn.armed = want;
    } else {
        drop_conn(ctx, conns, key);
    }
}
