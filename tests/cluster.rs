//! Cluster integration suite: a real 2-shard × 2-replica loopback cluster
//! behind a scatter-gather router, driven over TCP.
//!
//! Asserts the acceptance scenario of the sharded-serving layer: the
//! router answers the paper's Fig. 2 ground truth for **every** user
//! exactly as a single server would, survives a replica kill with zero
//! failed queries, and runs a concurrent cluster-wide `RELOAD` under
//! 4-client load without ever yielding a torn answer or a mixed-epoch
//! scatter reply. Plus the §7.1 workload-sharding skew property: user-hash
//! sharding keeps the high/mid/low query groups within 2× of uniform.

use pitex::cluster::{PoolOptions, Router, RouterHandle, RouterOptions, ShardMap};
use pitex::prelude::*;
use pitex::serve::frame::{self, FrameBuf, WireReply, MAX_REPLY_FRAME_BYTES};
use pitex::serve::{
    ErrorCode, QueryRequest, Request, Response, ServeClient, ServeOptions, Server, ServerHandle,
    DEFAULT_PIPELINE_CAP,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeSet, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fig. 2: 7 users.
const USERS: u32 = 7;

fn boot_shard() -> ServerHandle {
    boot_shard_with(ServeOptions::default())
}

fn boot_shard_with(options: ServeOptions) -> ServerHandle {
    let model = Arc::new(TicModel::paper_example());
    let handle = EngineHandle::new(model, EngineBackend::Exact, PitexConfig::default()).unwrap();
    Server::spawn(handle, ("127.0.0.1", 0), options).unwrap()
}

struct Cluster {
    /// `servers[shard][replica]`.
    servers: Vec<Vec<ServerHandle>>,
    map: ShardMap,
    router: RouterHandle,
}

fn boot_cluster(shards: usize, replicas: usize) -> Cluster {
    boot_cluster_with(shards, replicas, ServeOptions::default())
}

fn boot_cluster_with(shards: usize, replicas: usize, options: ServeOptions) -> Cluster {
    let servers: Vec<Vec<ServerHandle>> = (0..shards)
        .map(|_| (0..replicas).map(|_| boot_shard_with(options.clone())).collect())
        .collect();
    let addrs: Vec<Vec<String>> =
        servers.iter().map(|shard| shard.iter().map(|s| s.addr().to_string()).collect()).collect();
    let map = ShardMap::new(addrs).unwrap();
    let router = Router::spawn(map.clone(), ("127.0.0.1", 0), RouterOptions::default()).unwrap();
    Cluster { servers, map, router }
}

impl Cluster {
    fn stop(self) {
        self.router.stop().expect("no router thread may panic");
        for shard in self.servers {
            for server in shard {
                server.stop().expect("no shard server thread may panic");
            }
        }
    }
}

/// `(tags, spread)` per user from the exact evaluator — the single-server
/// ground truth the cluster must reproduce bit for bit.
fn ground_truth(model: &TicModel) -> Vec<(Vec<u32>, f64)> {
    let mut engine = PitexEngine::with_exact(model, PitexConfig::default());
    (0..USERS)
        .map(|u| {
            let r = engine.query(u, 2);
            (r.tags.tags().to_vec(), r.spread)
        })
        .collect()
}

/// The router speaks `PFRM` on its one port exactly like a shard does: a
/// binary client gets bit-identical routed answers (pipelined included),
/// the scatter verbs work framed, and a text client sharing the port is
/// untouched.
#[test]
fn binary_clients_speak_to_the_router_like_a_shard() {
    let cluster = boot_cluster(2, 1);
    let truth = ground_truth(&TicModel::paper_example());
    let mut binary = ServeClient::connect_binary(cluster.router.addr()).unwrap();
    let mut text = ServeClient::connect(cluster.router.addr()).unwrap();

    binary.ping().unwrap();
    for user in 0..USERS {
        let Response::Ok(reply) = binary.query(user, 2).unwrap() else {
            panic!("user {user}: expected OK over binary")
        };
        let (tags, spread) = &truth[user as usize];
        assert_eq!(&reply.tags, tags, "user {user}: binary routed answer differs");
        assert_eq!(reply.spread, *spread, "user {user}: spread must be bit-identical");
    }

    // One pipelined burst crossing both shards comes back in request order.
    let batch: Vec<Request> =
        (0..USERS).map(|u| Request::Query(pitex::serve::QueryRequest::new(u, 2))).collect();
    let replies = binary.pipeline(&batch).unwrap();
    assert_eq!(replies.len(), USERS as usize);
    for (user, reply) in replies.iter().enumerate() {
        let Response::Ok(ok) = reply else { panic!("user {user}: expected OK in pipeline") };
        assert_eq!(ok.user, user as u32);
        assert_eq!(&ok.tags, &truth[user].0, "user {user}: pipelined answer differs");
    }

    // Scatter verbs are framed too: STATS merges both shards, METRICS is
    // the one Raw (multi-line) reply.
    let stats = binary.stats().unwrap();
    assert_eq!(stats.get_u64("shards"), Some(2));
    assert_eq!(stats.get_u64("replicas_up"), Some(2));
    let metrics = binary.metrics().unwrap();
    assert!(metrics.contains("# EOF"), "binary METRICS carries the exposition terminator");

    // The text client on the same port never noticed any of it.
    let Response::Ok(reply) = text.query(0, 2).unwrap() else { panic!("text query must OK") };
    assert_eq!(&reply.tags, &truth[0].0);
    assert_eq!(text.request(&Request::Quit).unwrap(), Response::Bye);
    cluster.stop();
}

/// Writes `burst` as one `PFRM` write on a fresh binary connection and
/// reads until every id has its reply. Fails on a reply whose id was never
/// sent or that arrives twice.
fn send_burst(addr: SocketAddr, burst: &[(u64, Request)]) -> HashMap<u64, Response> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let bytes: Vec<u8> =
        burst.iter().flat_map(|(id, request)| frame::encode_request(*id, request)).collect();
    stream.write_all(&bytes).unwrap();
    let sent: BTreeSet<u64> = burst.iter().map(|(id, _)| *id).collect();
    let mut frames = FrameBuf::new(MAX_REPLY_FRAME_BYTES);
    let mut replies = HashMap::new();
    let mut buf = vec![0u8; 64 * 1024];
    while replies.len() < burst.len() {
        if let Some(payload) = frames.next_payload().unwrap() {
            let (id, WireReply::Response(response)) = frame::decode_response(&payload).unwrap()
            else {
                panic!("unexpected raw reply")
            };
            assert!(sent.contains(&id), "reply under id {id}, which was never sent");
            assert!(replies.insert(id, response).is_none(), "two replies for id {id}");
            continue;
        }
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "router closed with {} of {} replies", replies.len(), burst.len());
        frames.extend(&buf[..n]);
    }
    replies
}

/// The router's own counters, read through a merged `STATS`.
fn router_counter(stats: &pitex::serve::StatsReply, name: &str) -> u64 {
    stats.get_u64(name).unwrap_or_else(|| panic!("STATS lacks {name}"))
}

fn query(user: u32) -> Request {
    Request::Query(QueryRequest::new(user, 2))
}

/// A binary burst mixing both shards' users, an `EXPLAIN`, and a `PING`
/// and a `STATS` mid-run is answered in full under the client's own ids,
/// bit-identical to the exact ground truth; the runs between the other
/// verbs go out as one exchange per shard, and every query is still booked
/// on its own (counters, flight ring, trace ids).
#[test]
fn binary_bursts_forward_one_exchange_per_shard_and_book_every_query() {
    let cluster = boot_cluster(2, 1);
    let truth = ground_truth(&TicModel::paper_example());
    let mut admin = ServeClient::connect(cluster.router.addr()).unwrap();
    let before = admin.stats().unwrap();

    // Runs: [Q0 Q1 Q2 E3 Q4] PING [Q5 Q6] STATS [Q0]. Ids are deliberately
    // sparse and descending, so a reply can only match by id.
    let explain = Request::Explain(QueryRequest::new(3, 2));
    let requests = vec![
        query(0),
        query(1),
        query(2),
        explain,
        query(4),
        Request::Ping,
        query(5),
        query(6),
        Request::Stats,
        query(0),
    ];
    let burst: Vec<(u64, Request)> =
        requests.into_iter().enumerate().map(|(i, r)| (9_000 - 7 * i as u64, r)).collect();
    let runs: [&[u32]; 3] = [&[0, 1, 2, 3, 4], &[5, 6], &[0]];
    let shards_of = |users: &[u32]| -> BTreeSet<usize> {
        users.iter().map(|&u| cluster.map.shard_of(u)).collect()
    };
    assert_eq!(shards_of(runs[0]).len(), 2, "the first run must span both shards");
    let exchanges: usize = runs.iter().map(|users| shards_of(users).len()).sum();
    let queries = runs.iter().map(|users| users.len()).sum::<usize>() as u64;

    let replies = send_burst(cluster.router.addr(), &burst);
    for (id, request) in &burst {
        let reply = &replies[id];
        match (request, reply) {
            (Request::Query(q), Response::Ok(ok)) => {
                assert_eq!(ok.user, q.user, "id {id}");
                let (tags, spread) = &truth[q.user as usize];
                assert_eq!(&ok.tags, tags, "user {}: routed answer differs", q.user);
                assert_eq!(ok.spread.to_bits(), spread.to_bits(), "user {}", q.user);
            }
            (Request::Explain(q), Response::Explained(explained)) => {
                let (tags, spread) = &truth[q.user as usize];
                assert_eq!(&explained.tags, tags, "EXPLAIN user {}", q.user);
                assert_eq!(explained.spread.to_bits(), spread.to_bits(), "EXPLAIN user {}", q.user);
            }
            (Request::Ping, Response::Pong) => {}
            (Request::Stats, Response::Stats(stats)) => {
                assert_eq!(stats.get_u64("shards"), Some(2), "mid-run STATS is the merged view");
            }
            (request, reply) => panic!("id {id}: {request:?} answered {reply:?}"),
        }
    }

    let after = admin.stats().unwrap();
    let delta = |name: &str| router_counter(&after, name) - router_counter(&before, name);
    // The PING and STATS in the burst and the STATS reading the counters
    // are requests too; only the queries are OK answers.
    assert_eq!(delta("router_requests"), queries + 3);
    assert_eq!(delta("router_ok"), queries);
    assert_eq!(delta("router_busy") + delta("router_errors"), 0);
    assert_eq!(delta("router_hop_frames"), queries, "every query rode one exchange");
    assert_eq!(delta("router_hop_exchanges"), exchanges as u64, "one exchange per shard per run");
    let metrics = admin.metrics().unwrap();
    for name in ["pitex_router_hop_exchanges ", "pitex_router_hop_frames "] {
        assert!(metrics.contains(name), "METRICS exports {name}");
    }

    // One flight entry per query, each under its own trace id.
    let flight = admin.flight().unwrap();
    assert_eq!(flight.recorded, queries);
    assert_eq!(flight.entries.len() as u64, queries);
    let ids: BTreeSet<u64> = flight.entries.iter().map(|e| e.trace_id).collect();
    assert_eq!(ids.len() as u64, queries, "trace ids are distinct");
    let explains = flight.entries.iter().filter(|e| e.verb == "EXPLAIN").count();
    assert_eq!(explains, 1);
    assert!(flight.entries.iter().all(|e| e.outcome == "ok"));
    cluster.stop();
}

/// Killing the favorite replica between bursts costs the next burst one
/// failover for the whole group that favored it, not one per frame, and
/// every query in it still answers OK with the exact answer.
#[test]
fn a_dead_favorite_fails_over_once_per_exchange() {
    let mut cluster = boot_cluster(1, 2);
    let truth = ground_truth(&TicModel::paper_example());
    let burst: Vec<(u64, Request)> = (0..USERS).map(|u| (u64::from(u) + 1, query(u))).collect();
    let check = |replies: &HashMap<u64, Response>| {
        for (id, request) in &burst {
            let Request::Query(q) = request else { unreachable!() };
            let Response::Ok(ok) = &replies[id] else {
                panic!("user {}: expected OK, got {:?}", q.user, replies[id])
            };
            assert_eq!(ok.tags, truth[q.user as usize].0, "user {}", q.user);
            assert_eq!(ok.spread.to_bits(), truth[q.user as usize].1.to_bits(), "user {}", q.user);
        }
    };
    check(&send_burst(cluster.router.addr(), &burst));

    // Both replicas are somebody's favorite, so the burst went out as two
    // exchanges, one per replica.
    let served: Vec<u64> = cluster.servers[0]
        .iter()
        .map(|s| ServeClient::connect(s.addr()).unwrap().stats().unwrap().get_u64("ok").unwrap())
        .collect();
    assert!(served.iter().all(|&ok| ok > 0), "both replicas are favorites: {served:?}");
    let mut admin = ServeClient::connect(cluster.router.addr()).unwrap();
    let before = admin.stats().unwrap();
    assert_eq!(router_counter(&before, "router_hop_exchanges"), 2);

    let victim = cluster.servers[0].remove(0);
    victim.stop().unwrap();
    check(&send_burst(cluster.router.addr(), &burst));
    let after = admin.stats().unwrap();
    let delta = |name: &str| router_counter(&after, name) - router_counter(&before, name);
    assert_eq!(delta("router_failovers"), 1, "one failover for the dead favorite's exchange");
    assert_eq!(delta("router_ok"), u64::from(USERS));
    assert_eq!(delta("router_hop_exchanges"), 2);
    assert_eq!(after.get_u64("replicas_up"), Some(1));
    cluster.stop();
}

/// A run longer than the shards' per-connection pipelining cap, every
/// frame a cache miss (the shards cache nothing, so each frame is a job on
/// the shard's queue), goes out as exchanges of at most `max_in_flight`
/// frames. The shards' job queues (as deep as `max_in_flight` by default)
/// take every frame, and nothing answers `BUSY`.
#[test]
fn a_long_uncached_run_is_split_and_answered_in_full() {
    let uncached = ServeOptions { cache_capacity: 0, ..ServeOptions::default() };
    let cluster = boot_cluster_with(2, 1, uncached);
    let truth = ground_truth(&TicModel::paper_example());
    let mut admin = ServeClient::connect(cluster.router.addr()).unwrap();
    let before = admin.stats().unwrap();

    let n = DEFAULT_PIPELINE_CAP as u64 + 100;
    let burst: Vec<(u64, Request)> = (0..n).map(|i| (i + 1, query((i % 7) as u32))).collect();
    let replies = send_burst(cluster.router.addr(), &burst);
    for (id, request) in &burst {
        let Request::Query(q) = request else { unreachable!() };
        let Response::Ok(ok) = &replies[id] else { panic!("id {id}: {:?}", replies[id]) };
        let (tags, spread) = &truth[q.user as usize];
        assert_eq!((&ok.tags, ok.spread.to_bits()), (tags, spread.to_bits()), "id {id}");
        assert!(!ok.cached, "id {id}: the shards cache nothing");
    }

    let after = admin.stats().unwrap();
    let delta = |name: &str| router_counter(&after, name) - router_counter(&before, name);
    assert_eq!(delta("router_ok"), n);
    assert_eq!(delta("router_busy"), 0);
    assert_eq!(after.get_u64("busy"), Some(0), "no shard shed a frame");
    assert_eq!(delta("router_hop_frames"), n);
    // One connection: every exchange finds all slots free, so each shard's
    // share of the run goes out in full exchanges of `max_in_flight`.
    let slots = PoolOptions::default().max_in_flight as u64;
    let exchanges: u64 = (0..2)
        .map(|shard| {
            let frames = burst
                .iter()
                .filter(|(_, r)| matches!(r, Request::Query(q) if cluster.map.shard_of(q.user) == shard))
                .count() as u64;
            frames.div_ceil(slots)
        })
        .sum();
    assert_eq!(delta("router_hop_exchanges"), exchanges);
    cluster.stop();
}

#[test]
fn router_answers_every_user_like_a_single_server() {
    let cluster = boot_cluster(2, 2);
    let truth = ground_truth(&TicModel::paper_example());
    let mut client = ServeClient::connect(cluster.router.addr()).unwrap();

    client.ping().unwrap();
    assert_eq!(client.epoch().unwrap(), 1, "all shards boot at epoch 1");

    for user in 0..USERS {
        let Response::Ok(reply) = client.query(user, 2).unwrap() else {
            panic!("user {user}: expected OK")
        };
        let (tags, spread) = &truth[user as usize];
        assert_eq!(&reply.tags, tags, "user {user}: routed answer differs from single-server");
        assert_eq!(reply.spread, *spread, "user {user}: spread must be bit-identical");
        assert_eq!(reply.user, user);
    }

    // Error paths forward verbatim: the cluster is a drop-in server.
    match client.query(4_000_000, 2).unwrap() {
        Response::Err { code, .. } => assert_eq!(code, ErrorCode::UnknownUser),
        other => panic!("unknown user must ERR, got {other:?}"),
    }
    match client.query(0, 0).unwrap() {
        Response::Err { code, .. } => assert_eq!(code, ErrorCode::BadK),
        other => panic!("k = 0 must ERR, got {other:?}"),
    }

    // The scatter view sees the whole cluster.
    let stats = client.stats().unwrap();
    assert_eq!(stats.get_u64("shards"), Some(2));
    assert_eq!(stats.get_u64("replicas"), Some(4));
    assert_eq!(stats.get_u64("replicas_up"), Some(4));
    assert_eq!(stats.get_u64("epoch"), Some(1));
    assert_eq!(stats.get_u64("ok"), Some(USERS as u64), "shard ok counters sum");
    assert!(stats.get_u64("router_ok").unwrap() >= USERS as u64);
    assert!(stats.get("lat_hist").is_some(), "merged histogram is re-exported");
    cluster.stop();
}

#[test]
fn replica_kill_loses_zero_queries() {
    let mut cluster = boot_cluster(2, 2);
    let truth = ground_truth(&TicModel::paper_example());
    let mut client = ServeClient::connect(cluster.router.addr()).unwrap();

    // Warm every pool path, then kill one replica of shard 0 outright.
    for user in 0..USERS {
        let Response::Ok(_) = client.query(user, 2).unwrap() else { panic!() };
    }
    let victim = cluster.servers[0].remove(1);
    victim.stop().unwrap();

    // Every query keeps succeeding with the exact answer: failover is
    // invisible to the client (pooled-dead-connection and fresh-dial paths
    // both covered by repeating rounds).
    for round in 0..6 {
        for user in 0..USERS {
            let Response::Ok(reply) = client.query(user, 2).unwrap() else {
                panic!("round {round} user {user}: query failed after replica kill")
            };
            let (tags, spread) = &truth[user as usize];
            assert_eq!(&reply.tags, tags, "round {round} user {user}");
            assert_eq!(reply.spread, *spread, "round {round} user {user}");
        }
    }

    // The scatter still works and reports the dead replica.
    let stats = client.stats().unwrap();
    assert_eq!(stats.get_u64("replicas"), Some(4));
    assert!(
        stats.get_u64("replicas_up").unwrap() <= 3,
        "the killed replica must be marked down by now"
    );
    assert!(stats.get_u64("router_failovers").unwrap() >= 1, "at least one failover hid the kill");
    cluster.stop();
}

/// The tentpole acceptance test: a cluster-wide `RELOAD` races 4 query
/// clients and a scatter client. Every answer must match one world
/// *exactly* (old tags + old spread, or new tags + new spread); every
/// scatter must succeed with a single coherent epoch — the router's
/// commit-wave write gate is what makes both guarantees hold.
#[test]
fn cluster_reload_under_load_is_never_torn_or_mixed_epoch() {
    let cluster = boot_cluster(2, 2);
    let addr = cluster.router.addr();

    let old_model = TicModel::paper_example();
    let old_truth = ground_truth(&old_model);
    let ops = [
        UpdateOp::parse_text("DETACH_TAG 2").unwrap(),
        UpdateOp::parse_text("DETACH_TAG 3").unwrap(),
    ];
    let mut overlay = ModelOverlay::new(Arc::new(old_model));
    overlay.apply_all(ops.iter().cloned()).unwrap();
    let new_model = overlay.compact();
    let new_truth = ground_truth(&new_model);
    assert_ne!(old_truth[0], new_truth[0], "the update must flip u1's optimum");

    const CLIENTS: usize = 4;
    const ROUNDS: usize = 25;
    let finished = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for client_id in 0..CLIENTS {
            let (old_truth, new_truth, finished) = (&old_truth, &new_truth, &finished);
            scope.spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                for round in 0..ROUNDS {
                    for user in 0..USERS {
                        let Response::Ok(reply) = client.query(user, 2).unwrap() else {
                            panic!("client {client_id} round {round}: query failed mid-reload")
                        };
                        let old = &old_truth[user as usize];
                        let new = &new_truth[user as usize];
                        let old_world = reply.tags == old.0 && reply.spread == old.1;
                        let new_world = reply.tags == new.0 && reply.spread == new.1;
                        assert!(
                            old_world || new_world,
                            "client {client_id} round {round} user {user}: torn answer \
                             {:?} spread {}",
                            reply.tags,
                            reply.spread
                        );
                    }
                }
                finished.fetch_add(1, Ordering::SeqCst);
            });
        }
        // The scatter client: STATS through the reload storm must never
        // fail — a mixed-epoch scatter would answer ERR INTERNAL and
        // panic this unwrap.
        {
            let finished = &finished;
            scope.spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                let mut scatters = 0u64;
                while finished.load(Ordering::SeqCst) < CLIENTS {
                    let stats = client
                        .stats()
                        .expect("scatter STATS must never fail (mixed-epoch would ERR)");
                    let epoch = stats.get_u64("epoch").unwrap();
                    assert!(epoch == 1 || epoch == 2, "impossible epoch {epoch}");
                    scatters += 1;
                }
                assert!(scatters > 0);
            });
        }
        // The admin: stage the update cluster-wide and run the barrier
        // mid-storm.
        {
            let ops = &ops;
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                let mut admin = ServeClient::connect(addr).unwrap();
                for op in ops {
                    admin.update(op.clone()).unwrap();
                }
                let reloaded = admin.reload().unwrap();
                assert_eq!(reloaded.epoch, 2, "one barrier -> every shard at epoch 2");
                // DETACH_TAG broadcasts: 2 ops x 4 replicas fold.
                assert_eq!(reloaded.folded, 8);
            });
        }
    });

    // Post-barrier: only the new world is served, and every shard replica
    // agrees on the epoch — asked directly, not through the router.
    let mut client = ServeClient::connect(addr).unwrap();
    for user in 0..USERS {
        let Response::Ok(reply) = client.query(user, 2).unwrap() else { panic!() };
        assert_eq!(reply.tags, new_truth[user as usize].0, "stale answer after the barrier");
        assert_eq!(reply.spread, new_truth[user as usize].1);
    }
    assert_eq!(client.epoch().unwrap(), 2);
    for shard in &cluster.servers {
        for server in shard {
            let mut direct = ServeClient::connect(server.addr()).unwrap();
            assert_eq!(direct.epoch().unwrap(), 2, "every replica took the epoch bump");
        }
    }
    cluster.stop();
}

#[test]
fn auto_and_explain_forward_through_the_router() {
    let cluster = boot_cluster(2, 1);
    let mut client = ServeClient::connect(cluster.router.addr()).unwrap();

    // `backend=auto` forwards verbatim and resolves shard-side: the Fig. 2
    // optimum comes back for u1 whatever the planner picked.
    let Response::Ok(reply) = client.query_with_backend(0, 2, None, EngineBackend::Auto).unwrap()
    else {
        panic!("auto through the router must answer OK")
    };
    assert_eq!(reply.tags, vec![2, 3]);

    // EXPLAIN forwards verbatim too, decision trace included.
    let explained = client.explain(0, 2, None, Some(EngineBackend::Auto)).unwrap();
    assert_ne!(explained.backend, EngineBackend::Auto, "resolved on the shard");
    assert_eq!(explained.tags, vec![2, 3]);
    assert!(!explained.rejected.is_empty());

    // The scatter view merges the planner counters and EWMAs.
    let stats = client.stats().unwrap();
    let plan_total: u64 = EngineBackend::ALL
        .iter()
        .filter_map(|b| stats.get_u64(&format!("plan_{}", b.cli_name())))
        .sum();
    assert!(plan_total >= 2, "both auto decisions surface in the merged STATS");
    let chosen = explained.backend.cli_name();
    assert!(
        stats.get_f64(&format!("ewma_{chosen}_us")).unwrap() > 0.0,
        "the executed backend has a merged EWMA"
    );
    cluster.stop();
}

#[test]
fn identical_queries_warm_one_replica_cache() {
    // 1 shard x 3 replicas: the router's (user, k) affinity must pin the
    // repeated query to one replica so one LRU warms instead of three.
    let cluster = boot_cluster(1, 3);
    let mut client = ServeClient::connect(cluster.router.addr()).unwrap();
    const REPEATS: u64 = 6;
    for _ in 0..REPEATS {
        let Response::Ok(_) = client.query(0, 2).unwrap() else { panic!() };
    }
    let mut ok_counts = Vec::new();
    for server in &cluster.servers[0] {
        let mut direct = ServeClient::connect(server.addr()).unwrap();
        let stats = direct.stats().unwrap();
        ok_counts.push((stats.get_u64("ok").unwrap(), stats.get_u64("cache_hits").unwrap()));
    }
    let served: Vec<_> = ok_counts.iter().filter(|&&(ok, _)| ok > 0).collect();
    assert_eq!(served.len(), 1, "exactly one replica served the repeats: {ok_counts:?}");
    assert_eq!(served[0].0, REPEATS);
    assert_eq!(served[0].1, REPEATS - 1, "all but the first repeat hit that replica's cache");
    cluster.stop();
}

#[test]
fn edge_updates_route_to_the_owning_shard_only() {
    let cluster = boot_cluster(2, 1);
    let mut client = ServeClient::connect(cluster.router.addr()).unwrap();

    // An edge op is anchored at its source user; only that shard folds it.
    let owner = cluster.map.shard_of(5);
    let op = UpdateOp::parse_text("SET_EDGE 5 6 2:0.9").unwrap();
    client.update(op).unwrap();
    let reloaded = client.reload().unwrap();
    assert_eq!(reloaded.epoch, 2);
    assert_eq!(reloaded.folded, 1, "one op folded, on one replica of one shard");

    for (shard, servers) in cluster.servers.iter().enumerate() {
        let mut direct = ServeClient::connect(servers[0].addr()).unwrap();
        let stats = direct.stats().unwrap();
        let expected = u64::from(shard == owner);
        assert_eq!(
            stats.get_u64("updates_applied"),
            Some(expected),
            "shard {shard}: edge ops reach only the owner (owner = {owner})"
        );
        assert_eq!(
            stats.get_u64("epoch"),
            Some(2),
            "shard {shard}: the barrier still advances every shard's epoch"
        );
    }
    cluster.stop();
}

#[test]
fn router_rejects_shard_level_barrier_verbs() {
    let cluster = boot_cluster(1, 1);
    let mut client = ServeClient::connect(cluster.router.addr()).unwrap();
    for line in ["PREPARE", "COMMIT"] {
        let raw = client.roundtrip_line(line).unwrap();
        match Response::parse(&raw).unwrap() {
            Response::Err { code, message } => {
                assert_eq!(code, ErrorCode::BadRequest, "{line}");
                assert!(message.contains("RELOAD"), "{line}: {message}");
            }
            other => panic!("{line}: expected ERR, got {other:?}"),
        }
    }
    // SYNC/DISCARD are likewise shard-level: the router's own prober
    // drives catch-up, a client must not run it through the front door.
    for line in ["SYNC 1", "DISCARD"] {
        let raw = client.roundtrip_line(line).unwrap();
        match Response::parse(&raw).unwrap() {
            Response::Err { code, message } => {
                assert_eq!(code, ErrorCode::BadRequest, "{line}");
                assert!(message.contains("prober"), "{line}: {message}");
            }
            other => panic!("{line}: expected ERR, got {other:?}"),
        }
    }
    cluster.stop();
}

/// The PR 6 self-healing acceptance test — the flip of PR 4's "a stale
/// replica stays quarantined": a replica that died, missed acknowledged
/// `UPDATE`s *and* the reload wave that folded them, and came back at the
/// old epoch rejoins automatically — no operator resync — with zero failed
/// queries through the whole catch-up window and answers bit-identical to
/// the replica that never died.
#[test]
fn killed_replica_rejoins_with_zero_failed_queries_and_identical_answers() {
    let a = boot_shard();
    let b = boot_shard();
    let b_addr = b.addr();
    let map = ShardMap::new(vec![vec![a.addr().to_string(), b.addr().to_string()]]).unwrap();
    let options =
        RouterOptions { probe_interval: Duration::from_millis(50), ..RouterOptions::default() };
    let router = Router::spawn(map, ("127.0.0.1", 0), options).unwrap();
    let mut client = ServeClient::connect(router.addr()).unwrap();

    // Warm the pools, then kill replica b outright.
    for user in 0..USERS {
        let Response::Ok(_) = client.query(user, 2).unwrap() else { panic!() };
    }
    b.stop().unwrap();

    // The cluster mutates while b is dead: two acknowledged updates and
    // the barrier that folds them. b missed all of it.
    let ops = [
        UpdateOp::parse_text("DETACH_TAG 2").unwrap(),
        UpdateOp::parse_text("DETACH_TAG 3").unwrap(),
    ];
    for op in &ops {
        client.update(op.clone()).unwrap();
    }
    assert_eq!(client.reload().unwrap().epoch, 2);
    let mut overlay = ModelOverlay::new(Arc::new(TicModel::paper_example()));
    overlay.apply_all(ops.iter().cloned()).unwrap();
    let new_truth = ground_truth(&overlay.compact());

    // Restart b on its old address with the *pre-update* model: alive but
    // one epoch and two ops behind the shard.
    let model = Arc::new(TicModel::paper_example());
    let handle = EngineHandle::new(model, EngineBackend::Exact, PitexConfig::default()).unwrap();
    let b2 = Server::spawn(handle, b_addr, ServeOptions::default()).unwrap();

    // Zero failed queries through the catch-up window: hammer the router
    // until the prober has healed and readmitted b. Every answer along the
    // way must be the post-update truth — never an error, never the stale
    // world the rejoiner came back with.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut rejoined = false;
    while std::time::Instant::now() < deadline {
        for user in 0..USERS {
            let Response::Ok(reply) = client.query(user, 2).unwrap() else {
                panic!("user {user}: query failed during the catch-up window")
            };
            assert_eq!(reply.tags, new_truth[user as usize].0, "user {user}: stale answer");
            assert_eq!(reply.spread, new_truth[user as usize].1, "user {user}");
        }
        let stats = client.stats().expect("scatter STATS must keep working");
        if stats.get_u64("replicas_up") == Some(2) {
            rejoined = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(rejoined, "the killed replica never rejoined within 10s");

    // The heal is visible in the router's STATS...
    let stats = client.stats().unwrap();
    assert!(stats.get_u64("router_catchup_replicas").unwrap() >= 1, "the prober healed b");
    assert!(stats.get_u64("router_catchup_ops").unwrap() >= 2, "both missed ops replayed");
    assert_eq!(stats.get_u64("epoch"), Some(2), "one coherent epoch across the scatter");

    // ...and the healed replica answers bit-identically to the one that
    // never died, for every user, asked directly.
    let mut on_a = ServeClient::connect(a.addr()).unwrap();
    let mut on_b = ServeClient::connect(b_addr).unwrap();
    assert_eq!(on_b.epoch().unwrap(), 2, "b resumed the shard epoch");
    for user in 0..USERS {
        let Response::Ok(from_a) = on_a.query(user, 2).unwrap() else { panic!() };
        let Response::Ok(from_b) = on_b.query(user, 2).unwrap() else { panic!() };
        assert_eq!(from_a.tags, from_b.tags, "user {user}: healed replica diverges");
        assert_eq!(from_a.spread, from_b.spread, "user {user}: spread diverges");
        assert_eq!(from_b.tags, new_truth[user as usize].0, "user {user}");
    }

    router.stop().expect("no router thread may panic");
    a.stop().unwrap();
    b2.stop().unwrap();
}

// §7.1 workload sharding skew: hash-sharding the high/mid/low query
// groups keeps per-shard load within 2x of uniform at 4/8/16 shards —
// both for each group's member set (where the group is large enough to
// balance at all) and for the paper's combined 3 x 100-query workload.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn hash_sharding_keeps_user_groups_within_2x_of_uniform(seed in 0u64..1_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = pitex::graph::gen::preferential_attachment(3_000, 3, 0.3, &mut rng);
        let groups = UserGroups::from_graph(&graph);

        for shards in [4usize, 8, 16] {
            let map = ShardMap::with_seed(
                vec![vec!["shard:0".to_string()]; shards],
                seed ^ 0xC1A5,
            ).unwrap();

            // Per-group member balance, whenever the group can balance at
            // all (below ~4 users per shard, "2x of uniform" is noise).
            for group in UserGroup::ALL {
                let members = groups.members(group);
                if members.len() < shards * 4 {
                    continue;
                }
                let mut load = vec![0usize; shards];
                for &u in members {
                    load[map.shard_of(u)] += 1;
                }
                let uniform = members.len().div_ceil(shards);
                for (s, &l) in load.iter().enumerate() {
                    prop_assert!(
                        l <= 2 * uniform,
                        "{} group, {shards} shards: shard {s} holds {l} members \
                         (uniform {uniform})",
                        group.label()
                    );
                }
            }

            // The paper's workload: 100 queries per group, combined.
            let mut load = vec![0usize; shards];
            let mut total = 0usize;
            for group in UserGroup::ALL {
                let mut qrng = StdRng::seed_from_u64(seed ^ 0xBEEF);
                for u in groups.sample(group, 100, &mut qrng) {
                    load[map.shard_of(u)] += 1;
                    total += 1;
                }
            }
            let uniform = total.div_ceil(shards);
            for (s, &l) in load.iter().enumerate() {
                prop_assert!(
                    l <= 2 * uniform,
                    "{shards} shards: shard {s} takes {l} of {total} queries \
                     (uniform {uniform})"
                );
            }
        }
    }
}
