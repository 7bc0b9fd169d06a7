//! The front door: how a PITEX process takes requests off the wire and
//! puts replies back on it. Shard servers and the cluster router both
//! serve their clients through this module; what a request *means* is the
//! business of the [`Service`] behind it.
//!
//! A fresh connection is sniffed off its first bytes (at most 4): the
//! `PFRM` magic selects the pipelined binary frames, anything else the text
//! line protocol, where a `GET` request line becomes a one-shot HTTP
//! scrape. The pieces:
//!
//! * [`serve`] — the blocking acceptor: one thread per connection, blocked
//!   in `accept` with no poll sleep, woken on stop by a self-connect
//!   ([`Door::stop`]); finished connection threads are reaped as new ones
//!   register.
//! * The text/HTTP line loop. A line may arrive in fragments, and one that
//!   exceeds [`MAX_LINE_BYTES`] answers one `ERR` and closes instead of
//!   growing memory without bound.
//! * The blocking `PFRM` burst loop. Each pass admits every complete frame
//!   read so far. Consecutive `QUERY`/`EXPLAIN` frames collect into a run
//!   that ends at any other verb, at a bad frame or at the end of the
//!   burst, and each run goes to [`Service::call_run`] once. All replies of
//!   the burst leave in one write.
//! * The replies to frames that cannot be served (oversized: one `ERR`,
//!   then close; desynchronized: close; malformed payload: `ERR` under the
//!   payload's id), shared with the shard's event loop.
//!
//! The router runs entirely on [`serve`]. A shard runs its own
//! readiness-driven event loop for binary clients, hands text and HTTP
//! connections to the line loop, and falls back to [`serve`] where the
//! platform has no epoll.

use crate::frame::{self, could_be_frame, FrameBuf, FrameError, MAX_REQUEST_FRAME_BYTES};
use crate::http;
use crate::protocol::{ErrorCode, Request, Response};
use pitex_support::obs::Counter;
use std::io::{BufRead, BufReader, Cursor, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often a blocked connection thread wakes to check the stop flag.
pub(crate) const POLL: Duration = Duration::from_millis(50);

/// Longest accepted request line. Far beyond any legal request; a client
/// that exceeds it (e.g. never sends a newline) is answered once and
/// disconnected.
pub const MAX_LINE_BYTES: usize = 4 * 1024;

/// What a service made of one request: a single [`Response`] plus whether
/// the connection closes after it, or a raw multi-line payload written
/// verbatim (the `METRICS` exposition, framed by its `# EOF` terminator).
pub enum Handled {
    Reply(Response, bool),
    Raw(String),
}

/// The process behind a front door: a shard server or the router.
pub trait Service: Send + Sync + 'static {
    /// Answers one request of any verb, counted as a request.
    fn call(&self, request: Request) -> Handled;

    /// Answers a run of `QUERY`/`EXPLAIN` requests, one reply per request
    /// in request order, each counted as a request.
    fn call_run(&self, run: &[Request]) -> Vec<Response>;

    /// Answers one sniffed HTTP `GET` with a complete HTTP response.
    fn http_get(&self, path: &str) -> String;

    /// The stop flag and the connection threads.
    fn door(&self) -> &Door;

    /// The counters a request the front end refuses itself is booked in.
    fn requests(&self) -> &Counter;
    fn errors(&self) -> &Counter;
}

/// A front end's lifecycle: the stop flag every loop polls, the listening
/// address a stop wakes the acceptor through, and the threads `join` reaps.
pub struct Door {
    addr: SocketAddr,
    stop: AtomicBool,
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Set when a thread reaped mid-run had panicked, so `join` still
    /// reports it after the handle itself is gone.
    reaped_panic: AtomicBool,
}

impl Door {
    /// A door for a listener bound at `addr`.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stop: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
            reaped_panic: AtomicBool::new(false),
        }
    }

    /// Whether a stop has been requested.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// The raw stop flag, for loops outside this module that poll it.
    pub fn stop_flag(&self) -> &AtomicBool {
        &self.stop
    }

    /// Requests a stop (idempotent) and wakes an acceptor blocked in
    /// `accept` by connecting to it.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // A refused dial means nobody is accepting any more.
        let _ = TcpStream::connect_timeout(&addr, POLL);
    }

    /// Tracks a spawned thread for [`join`](Self::join), reaping finished
    /// ones as it goes so a long-lived server over many short connections
    /// does not accumulate handles.
    pub fn register(&self, handle: JoinHandle<()>) {
        let mut threads = self.threads.lock().expect("door thread list poisoned");
        let (done, mut live): (Vec<_>, Vec<_>) =
            threads.drain(..).partition(|thread| thread.is_finished());
        for thread in done {
            if thread.join().is_err() {
                self.reaped_panic.store(true, Ordering::SeqCst);
            }
        }
        live.push(handle);
        *threads = live;
    }

    /// Joins every registered thread. Returns `Err` with the panic payload
    /// if any of them panicked, reaped ones included.
    pub fn join(&self) -> std::thread::Result<()> {
        let threads = std::mem::take(&mut *self.threads.lock().expect("door thread list poisoned"));
        let mut result = Ok(());
        for thread in threads {
            if let Err(panic) = thread.join() {
                result = Err(panic);
            }
        }
        if result.is_ok() && self.reaped_panic.load(Ordering::SeqCst) {
            result = Err(Box::new("a connection thread panicked (reaped mid-run)"));
        }
        result
    }
}

/// Runs the blocking acceptor until the door stops: every connection gets
/// a thread that sniffs its protocol and serves it to the end.
pub fn serve<S: Service>(service: Arc<S>, listener: TcpListener) {
    // An event loop may have opened the listener nonblocking.
    if listener.set_nonblocking(false).is_err() {
        return;
    }
    for stream in listener.incoming() {
        if service.door().stopping() {
            return;
        }
        match stream {
            Ok(stream) => spawn(&service, move |service| connection(service, stream)),
            // Out of descriptors or the like: back off instead of spinning.
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Hands a connection whose first bytes (`head`) were sniffed as text or
/// HTTP by an event loop to a line-loop thread of its own.
pub(crate) fn hand_off_text<S: Service>(service: &Arc<S>, stream: TcpStream, head: Vec<u8>) {
    if stream.set_nonblocking(false).is_err() || stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    spawn(service, move |service| line_loop(service, stream, head));
}

/// Runs `serve_conn` on a thread registered with the service's door. A
/// failed spawn drops the connection.
fn spawn<S: Service>(service: &Arc<S>, serve_conn: impl FnOnce(&S) + Send + 'static) {
    let owned = service.clone();
    let spawned = std::thread::Builder::new()
        .name("pitex-conn".to_string())
        .spawn(move || serve_conn(&owned));
    if let Ok(handle) = spawned {
        service.door().register(handle);
    }
}

/// A read that timed out or was interrupted: the moment to poll the stop
/// flag before trying again.
fn idle(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted)
}

/// Sniffs a fresh connection's protocol off at most 4 bytes, then serves
/// it. One mismatching byte decides text at once, so a text client's first
/// request never waits for 4 bytes to accumulate.
fn connection<S: Service + ?Sized>(service: &S, stream: TcpStream) {
    // Request/response in single writes: never wait on Nagle.
    stream.set_nodelay(true).ok();
    // The read timeout keeps an idle connection responsive to a stop.
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut head = [0u8; 4];
    let mut got = 0;
    while got < head.len() && could_be_frame(&head[..got]) {
        match (&stream).read(&mut head[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if idle(&e) && !service.door().stopping() => {}
            Err(_) => return,
        }
    }
    if head == frame::MAGIC {
        binary_loop(service, stream, &head);
    } else if got > 0 {
        line_loop(service, stream, head[..got].to_vec());
    }
}

/// Counts a request the front end refuses itself and builds its
/// `ERR BAD_REQUEST`.
fn refuse<S: Service + ?Sized>(service: &S, message: String) -> Response {
    service.requests().inc();
    service.errors().inc();
    Response::Err { code: ErrorCode::BadRequest, message }
}

/// The reply to a frame the buffer cannot yield; the connection closes
/// after it either way. An oversized frame answers one `ERR` under id 0
/// (no id is recoverable from it). A desynchronized stream can frame no
/// reply at all, and counts as an error but not as a request.
pub(crate) fn frame_error_reply<S: Service + ?Sized>(
    service: &S,
    error: FrameError,
) -> Option<Vec<u8>> {
    if let FrameError::Oversized { len, cap } = error {
        let message = format!("frame payload of {len} bytes exceeds {cap} bytes");
        return Some(frame::encode_response(0, &refuse(service, message)));
    }
    service.errors().inc();
    None
}

/// The reply to a well-delimited frame whose payload does not decode: an
/// `ERR` under the payload's own id. The connection stays open.
pub(crate) fn malformed_frame_reply<S: Service + ?Sized>(
    service: &S,
    payload: &[u8],
    error: FrameError,
) -> Vec<u8> {
    let response = refuse(service, format!("malformed binary request: {error}"));
    frame::encode_response(frame::payload_id(payload), &response)
}

/// The text/HTTP loop. `head` holds the bytes the sniffer consumed;
/// chaining them in front of the stream makes the hand-off invisible to
/// the line reader.
fn line_loop<S: Service + ?Sized>(service: &S, stream: TcpStream, head: Vec<u8>) {
    let Ok(mut writer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(Cursor::new(head).chain(stream));
    let mut line = String::new();
    loop {
        // `line` may already hold a partial request from a timed-out read:
        // `read_line` appends, so fragmented writes reassemble. The
        // per-line `take` budget makes even a continuously streaming
        // newline-free client surface here once it passes the cap.
        let budget = (MAX_LINE_BYTES + 1).saturating_sub(line.len()) as u64;
        match (&mut reader).take(budget).read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if idle(&e) => {
                if service.door().stopping() {
                    return;
                }
                if line.len() <= MAX_LINE_BYTES {
                    continue;
                }
            }
            Err(_) => return,
        }
        if line.len() > MAX_LINE_BYTES {
            let response = refuse(service, format!("request line exceeds {MAX_LINE_BYTES} bytes"));
            let _ = writer.write_all(format!("{}\n", response.to_line()).as_bytes());
            return;
        }
        let request = line.trim();
        if request.is_empty() {
            line.clear();
            continue;
        }
        // A GET request line on the protocol port is a one-shot scrape:
        // answer and close.
        if let Some(path) = http::request_path(request) {
            let path = path.to_string();
            if http::drain_headers(&mut reader, service.door().stop_flag()) {
                let _ = writer.write_all(service.http_get(&path).as_bytes());
            }
            return;
        }
        let handled = match Request::parse(request) {
            Ok(request) => service.call(request),
            Err(reason) => Handled::Reply(refuse(service, reason), false),
        };
        line.clear();
        // One write per reply: a split line + '\n' would stall ~40 ms on
        // the peer's delayed ACK under Nagle.
        let (out, close) = match handled {
            Handled::Reply(response, close) => (format!("{}\n", response.to_line()), close),
            Handled::Raw(text) => (text, false),
        };
        if writer.write_all(out.as_bytes()).is_err() || close {
            return;
        }
    }
}

/// The blocking `PFRM` loop (see the module docs for runs and bursts).
fn binary_loop<S: Service + ?Sized>(service: &S, stream: TcpStream, head: &[u8]) {
    let Ok(mut writer) = stream.try_clone() else { return };
    let mut reader = stream;
    let mut frames = FrameBuf::new(MAX_REQUEST_FRAME_BYTES);
    frames.extend(head);
    // Large enough that one pass can admit a run past a shard's
    // per-connection pipelining cap.
    let mut buf = vec![0u8; 64 * 1024];
    let mut eof = false;
    // The pending run's request ids and requests, reused across passes.
    let mut ids: Vec<u64> = Vec::new();
    let mut run: Vec<Request> = Vec::new();
    loop {
        let mut out: Vec<u8> = Vec::new();
        let mut close = false;
        while !close {
            let payload = match frames.next_payload() {
                Ok(Some(payload)) => payload,
                Ok(None) => break,
                Err(error) => {
                    flush_run(service, &mut ids, &mut run, &mut out);
                    out.extend(frame_error_reply(service, error).unwrap_or_default());
                    close = true;
                    break;
                }
            };
            match frame::decode_request(&payload) {
                Ok((id, request @ (Request::Query(_) | Request::Explain(_)))) => {
                    ids.push(id);
                    run.push(request);
                }
                Ok((id, request)) => {
                    flush_run(service, &mut ids, &mut run, &mut out);
                    match service.call(request) {
                        Handled::Reply(response, close_after) => {
                            out.extend(frame::encode_response(id, &response));
                            close = close_after;
                        }
                        Handled::Raw(text) => out.extend(frame::encode_raw_response(id, &text)),
                    }
                }
                Err(error) => {
                    flush_run(service, &mut ids, &mut run, &mut out);
                    out.extend(malformed_frame_reply(service, &payload, error));
                }
            }
        }
        flush_run(service, &mut ids, &mut run, &mut out);
        if !out.is_empty() && writer.write_all(&out).is_err() {
            return;
        }
        if close || eof {
            return;
        }
        match reader.read(&mut buf) {
            // Half-close: the client may still read replies, so admit what
            // is buffered in one more pass before hanging up.
            Ok(0) => eof = true,
            Ok(n) => frames.extend(&buf[..n]),
            Err(e) if idle(&e) && !service.door().stopping() => {}
            Err(_) => return,
        }
    }
}

/// Answers the pending run, if any, appending its replies under the
/// client's request ids, and empties it.
fn flush_run<S: Service + ?Sized>(
    service: &S,
    ids: &mut Vec<u64>,
    run: &mut Vec<Request>,
    out: &mut Vec<u8>,
) {
    if run.is_empty() {
        return;
    }
    for (id, response) in ids.drain(..).zip(service.call_run(run)) {
        out.extend(frame::encode_response(id, &response));
    }
    run.clear();
}
