//! Sharded serving — what the router costs and what the barrier stalls.
//!
//! A 2-shard × 1-replica loopback cluster behind a `pitex_cluster` router,
//! compared against talking to a shard directly:
//!
//! * `cluster_ping_direct` / `cluster_ping_router` — the protocol floor on
//!   each path (the router answers `PING` locally, so this isolates the
//!   router's own connection handling);
//! * `cluster_query_direct_cached` / `cluster_query_router_cached` — the
//!   **hop overhead**: a routed query pays one extra TCP round-trip plus
//!   the pool checkout, everything else being a shard-side cache hit (the
//!   router→shard hop itself is binary-framed by default);
//! * `cluster_query_direct_cached_binary` / `cluster_query_router_cached_binary`
//!   — the same two paths with the *client* leg also on `PFRM` binary
//!   frames, so text parsing is off both hops end to end;
//! * `cluster_pipeline_depth16_router_cached_binary` — 4 binary clients
//!   each pipelining one batch of 16 cached queries through the router
//!   per iteration (the routed twin of `bench_serve`'s
//!   `serve_pipeline_depth16_cached`): each batch crosses the shard hop as
//!   one pipelined exchange, not 16 round trips. The clients stay
//!   connected across iterations — the router's acceptor polls, so a
//!   fresh connection per iteration would time the poll interval;
//! * `cluster_scatter_stats` — a full scatter-gather: every replica's
//!   `STATS` fetched and merged (histograms bucket-wise);
//! * `cluster_reload_barrier` — one `UPDATE` + the two-phase cluster
//!   `RELOAD` (PREPARE everywhere, then the commit wave under the write
//!   gate); its time bounds the stall concurrent readers can observe.
//!
//! The printed summary reports the hop overhead explicitly — the number
//! that says what "drop-in for a single server" costs per query.

use criterion::{criterion_group, criterion_main, Criterion};
use pitex_bench::banner;
use pitex_cluster::{Router, RouterOptions, ShardMap};
use pitex_core::{EngineBackend, EngineHandle, PitexConfig};
use pitex_live::UpdateOp;
use pitex_model::TicModel;
use pitex_serve::{
    QueryRequest, Request, Response, ServeClient, ServeOptions, Server, ServerHandle,
};
use std::sync::Arc;
use std::time::Instant;

fn boot_shard() -> ServerHandle {
    let model = Arc::new(TicModel::paper_example());
    let handle = EngineHandle::new(model, EngineBackend::Exact, PitexConfig::default()).unwrap();
    Server::spawn(handle, ("127.0.0.1", 0), ServeOptions::default()).unwrap()
}

fn expect_ok(response: Response) {
    let Response::Ok(_) = response else { panic!("expected OK, got {response:?}") };
}

fn bench_cluster(c: &mut Criterion) {
    banner(
        "bench_cluster: router hop overhead, scatter STATS cost, reload-barrier stall",
        "2 shards x 1 replica on loopback; Fig. 2 model, EXACT backend",
    );
    let shards: Vec<ServerHandle> = (0..2).map(|_| boot_shard()).collect();
    let map = ShardMap::new(shards.iter().map(|s| vec![s.addr().to_string()]).collect()).unwrap();
    let router = Router::spawn(map, ("127.0.0.1", 0), RouterOptions::default()).unwrap();

    let mut direct = ServeClient::connect(shards[0].addr()).unwrap();
    let mut routed = ServeClient::connect(router.addr()).unwrap();
    // Warm both paths so the measured queries are shard-side cache hits.
    expect_ok(direct.query(0, 2).unwrap());
    expect_ok(routed.query(0, 2).unwrap());

    c.bench_function("cluster_ping_direct", |b| b.iter(|| direct.ping().unwrap()));
    c.bench_function("cluster_ping_router", |b| b.iter(|| routed.ping().unwrap()));
    c.bench_function("cluster_query_direct_cached", |b| {
        b.iter(|| expect_ok(direct.query(0, 2).unwrap()))
    });
    c.bench_function("cluster_query_router_cached", |b| {
        b.iter(|| expect_ok(routed.query(0, 2).unwrap()))
    });
    let mut direct_binary = ServeClient::connect_binary(shards[0].addr()).unwrap();
    let mut routed_binary = ServeClient::connect_binary(router.addr()).unwrap();
    c.bench_function("cluster_query_direct_cached_binary", |b| {
        b.iter(|| expect_ok(direct_binary.query(0, 2).unwrap()))
    });
    c.bench_function("cluster_query_router_cached_binary", |b| {
        b.iter(|| expect_ok(routed_binary.query(0, 2).unwrap()))
    });
    let batch = vec![Request::Query(QueryRequest::new(0, 2)); 16];
    let mut pipelined: Vec<ServeClient> =
        (0..4).map(|_| ServeClient::connect_binary(router.addr()).unwrap()).collect();
    c.bench_function("cluster_pipeline_depth16_router_cached_binary", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for client in &mut pipelined {
                    let batch = &batch;
                    scope.spawn(move || {
                        client.pipeline(batch).unwrap().into_iter().for_each(expect_ok)
                    });
                }
            })
        })
    });
    c.bench_function("cluster_scatter_stats", |b| b.iter(|| routed.stats().unwrap()));
    c.bench_function("cluster_reload_barrier", |b| {
        b.iter(|| {
            routed.update(UpdateOp::AddUser).unwrap();
            let reloaded = routed.reload().unwrap();
            assert!(reloaded.epoch >= 2);
            reloaded.epoch
        })
    });

    // The headline number, measured directly so it can be printed.
    const N: u32 = 2_000;
    let t = Instant::now();
    for _ in 0..N {
        expect_ok(direct.query(0, 2).unwrap());
    }
    let direct_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(N);
    let t = Instant::now();
    for _ in 0..N {
        expect_ok(routed.query(0, 2).unwrap());
    }
    let routed_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(N);
    println!(
        "cluster: router hop overhead {:.1}us/query (direct {direct_us:.1}us -> routed \
         {routed_us:.1}us, cached)",
        routed_us - direct_us
    );
    let t = Instant::now();
    for _ in 0..N {
        expect_ok(direct_binary.query(0, 2).unwrap());
    }
    let direct_bin_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(N);
    let t = Instant::now();
    for _ in 0..N {
        expect_ok(routed_binary.query(0, 2).unwrap());
    }
    let routed_bin_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(N);
    println!(
        "cluster: binary hop overhead {:.1}us/query (direct {direct_bin_us:.1}us -> routed \
         {routed_bin_us:.1}us, cached)",
        routed_bin_us - direct_bin_us
    );

    router.stop().unwrap();
    for shard in shards {
        shard.stop().unwrap();
    }
}

criterion_group!(benches, bench_cluster);
criterion_main!(benches);
