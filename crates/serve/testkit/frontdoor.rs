//! Front-door checks that run against any address speaking the PITEX
//! protocol, so the shard server's tests and the router's run the same
//! assertions. Every server under test serves the paper's Fig. 2 model
//! (`QUERY 0 2` answers `{w3, w4}`). Each check opens its own connections
//! and leaves the server running.
//!
//! The including module brings `frame`, `frontend`, `ErrorCode` and
//! `Response` into scope: `pitex_serve`'s own unit tests and the workspace
//! integration tests name the crate differently.

use super::{frame, frontend, ErrorCode, Response};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn roundtrip(stream: &mut TcpStream, line: &str) -> Response {
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    Response::parse(&reply).unwrap()
}

/// Sniffed `GET`s answer HTTP scrapes; the line protocol shares the port.
pub fn http_get_is_sniffed_on_the_protocol_port(addr: SocketAddr) {
    let scrape = |request: &str| -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        reply
    };
    let metrics = scrape("GET /metrics HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n");
    assert!(metrics.starts_with("HTTP/1.0 200 OK\r\n"), "{metrics}");
    assert!(metrics.contains("pitex_requests"), "{metrics}");
    assert!(metrics.trim_end().ends_with("# EOF"), "{metrics}");
    let health = scrape("GET /health HTTP/1.0\r\n\r\n");
    assert!(health.starts_with("HTTP/1.0 200 OK\r\n"), "{health}");
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    let missing = scrape("GET /series HTTP/1.0\r\n\r\n");
    assert!(missing.starts_with("HTTP/1.0 400"), "{missing}");
    let lost = scrape("GET /frobnicate HTTP/1.0\r\n\r\n");
    assert!(lost.starts_with("HTTP/1.0 404"), "{lost}");
    let mut stream = TcpStream::connect(addr).unwrap();
    assert_eq!(roundtrip(&mut stream, "PING"), Response::Pong);
}

/// A request split across two writes, with a pause longer than the
/// front door's read-poll interval in between, still answers: the partial
/// line survives the timed-out read (interactive `telnet` sessions type
/// this slowly).
pub fn fragmented_request_lines_reassemble(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"QUE").unwrap();
    std::thread::sleep(Duration::from_millis(150));
    stream.write_all(b"RY 0 2\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let Response::Ok(reply) = Response::parse(&reply).unwrap() else {
        panic!("fragmented request must still answer OK, got {reply:?}")
    };
    assert_eq!(reply.tags, vec![2, 3]);
}

/// A newline-free flood past the line cap answers one `ERR`, then the
/// connection closes.
pub fn oversized_request_line_is_rejected_and_disconnected(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&vec![b'Q'; frontend::MAX_LINE_BYTES + 1000]).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    match Response::parse(&reply).unwrap() {
        Response::Err { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("exceeds"), "{message}");
        }
        other => panic!("expected ERR, got {other:?}"),
    }
    reply.clear();
    assert_eq!(reader.read_line(&mut reply).unwrap(), 0, "server closed the connection");
}

/// A client streaming newline-free bytes without pausing is cut off at the
/// cap by the per-line read budget rather than buffered.
pub fn continuously_streaming_client_is_cut_off(addr: SocketAddr) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let feeder = std::thread::spawn(move || {
        let chunk = [b'X'; 1024];
        for _ in 0..1024 {
            if writer.write_all(&chunk).is_err() {
                break; // the server hung up, as it should
            }
        }
    });
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    match Response::parse(&reply).unwrap() {
        Response::Err { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected ERR, got {other:?}"),
    }
    feeder.join().unwrap();
}

/// "PF" matches the magic's first two bytes and the third diverges: the
/// connection is text, which rejects the line as an unknown verb and keeps
/// serving.
pub fn near_magic_garbage_falls_back_to_text(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let Response::Err { code, .. } = roundtrip(&mut stream, "PFOO") else { panic!("expected ERR") };
    assert_eq!(code, ErrorCode::BadRequest);
    assert_eq!(roundtrip(&mut stream, "PING"), Response::Pong);
}

/// A frame header declaring a payload past the cap answers one `ERR`
/// under id 0, then the connection closes.
pub fn oversized_frame_answers_one_err_and_disconnects(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let oversized = (frame::MAX_REQUEST_FRAME_BYTES + 1) as u32;
    let mut header = Vec::from(frame::MAGIC);
    header.extend_from_slice(&oversized.to_le_bytes());
    stream.write_all(&header).unwrap();
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).unwrap();
    let mut frames = frame::FrameBuf::new(frame::MAX_REPLY_FRAME_BYTES);
    frames.extend(&reply);
    let payload = frames.next_payload().unwrap().expect("one ERR before the cut");
    let (id, reply) = frame::decode_response(&payload).unwrap();
    assert_eq!(id, 0, "no request id is recoverable from an oversized frame");
    match reply {
        frame::WireReply::Response(Response::Err { code, .. }) => {
            assert_eq!(code, ErrorCode::BadRequest)
        }
        other => panic!("expected ERR, got {other:?}"),
    }
    assert_eq!(frames.next_payload().unwrap(), None, "nothing after the ERR");
}

/// Fresh connections are served at once: 20 in a row, each opened, sent
/// `PING` and closed, finish within 250 ms. An acceptor that sleeps
/// between polls of a nonblocking listener takes about 1 s.
pub fn fresh_connections_are_served_promptly(addr: SocketAddr) {
    let started = Instant::now();
    for _ in 0..20 {
        let mut stream = TcpStream::connect(addr).unwrap();
        assert_eq!(roundtrip(&mut stream, "PING"), Response::Pong);
    }
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_millis(250), "20 fresh PINGs took {elapsed:?}");
}
