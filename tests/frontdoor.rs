//! The router's front door: the same checks the shard server's unit tests
//! run against a shard (`crates/serve/testkit/frontdoor.rs`), here against
//! a router in front of one Fig. 2 shard.

use pitex::cluster::{Router, RouterHandle, RouterOptions, ShardMap};
use pitex::prelude::*;
use pitex::serve::{frame, frontend, ErrorCode, Response, ServeOptions, Server, ServerHandle};
use std::sync::Arc;

#[path = "../crates/serve/testkit/frontdoor.rs"]
mod checks;

fn boot() -> (ServerHandle, RouterHandle) {
    let model = Arc::new(TicModel::paper_example());
    let handle = EngineHandle::new(model, EngineBackend::Exact, PitexConfig::default()).unwrap();
    let shard = Server::spawn(handle, ("127.0.0.1", 0), ServeOptions::default()).unwrap();
    let map = ShardMap::new(vec![vec![shard.addr().to_string()]]).unwrap();
    let router = Router::spawn(map, ("127.0.0.1", 0), RouterOptions::default()).unwrap();
    (shard, router)
}

fn on_router(check: fn(std::net::SocketAddr)) {
    let (shard, router) = boot();
    check(router.addr());
    router.stop().expect("no router thread may panic");
    shard.stop().expect("no shard thread may panic");
}

#[test]
fn router_oversized_request_line_is_rejected_and_disconnected() {
    on_router(checks::oversized_request_line_is_rejected_and_disconnected);
}

#[test]
fn router_fragmented_request_lines_reassemble() {
    on_router(checks::fragmented_request_lines_reassemble);
}

#[test]
fn router_continuously_streaming_client_is_cut_off() {
    on_router(checks::continuously_streaming_client_is_cut_off);
}

#[test]
fn router_near_magic_garbage_falls_back_to_text() {
    on_router(checks::near_magic_garbage_falls_back_to_text);
}

#[test]
fn router_oversized_frame_answers_one_err_and_disconnects() {
    on_router(checks::oversized_frame_answers_one_err_and_disconnects);
}

#[test]
fn router_http_get_is_sniffed_on_the_protocol_port() {
    on_router(checks::http_get_is_sniffed_on_the_protocol_port);
}

#[test]
fn router_fresh_connections_are_served_promptly() {
    on_router(checks::fresh_connections_are_served_promptly);
}
