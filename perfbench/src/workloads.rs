//! The three workloads: deployment, inputs, timed phases, oracle and
//! metrics. See `README.md` in this directory for why each exists.

use crate::drive::{self, Clock, Op, Rec, Scheduled, Status, Target};
use crate::layers::{self, Estimator};
use crate::oracle::{self, Key, RefAnswer, Snapshot};
use crate::rng::{Rng, Zipf};
use crate::stats::{binned_quantile, median, quantile};
use crate::trace::{Trace, NO_PARENT};
use crate::{Args, Report};
use pitex_cluster::{Router, RouterHandle, RouterOptions, ShardMap};
use pitex_core::{EngineBackend, EngineHandle, PitexConfig, QueryStats};
use pitex_datasets::{DatasetProfile, UserGroup, UserGroups};
use pitex_index::{IndexBudget, RrIndex};
use pitex_live::UpdateOp;
use pitex_model::TicModel;
use pitex_serve::{ServeOptions, Server, ServerHandle};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 3] = ["online-lazy", "hot-routed", "index-writes"];

/// Seed of every RR index the benchmark builds (part of the deployment,
/// not of the inputs, so it does not vary with `--seed`).
const INDEX_SEED: u64 = 0x1d3e_5eed;
/// Deployments set up per run: at least `SETUP_MIN`, and more while the
/// set-ups so far took under `SETUP_BUDGET_NS` (a set-up of a few
/// milliseconds is noisy), at most `SETUP_MAX`. `setup_s` is their median.
const SETUP_MIN: usize = 7;
const SETUP_MAX: usize = 50;
const SETUP_BUDGET_NS: u64 = 2_000_000_000;
/// `UPDATE` batches (each followed by a `RELOAD`) of the write tail that
/// online-lazy and hot-routed run after their timed phases.
const TAIL_BATCHES: usize = 16;
const BATCH: usize = 16;
/// Round trips per unloaded probe (pings, routed-vs-direct hop).
const PROBE_COUNT: usize = 200;
/// `(user, W*)` pairs the estimator probes run on.
const ESTIMATE_PAIRS: usize = 256;

// online-lazy
const LAZY_K: usize = 2;
const LAZY_STRATA: usize = 256;
// hot-routed
const HOT_K: usize = 2;
const HOT_USERS: usize = 64;
const HOT_RATE: f64 = 1000.0;
/// Share of `--seconds` the open loop (phase A) runs; the pipelined phase
/// (phase B) gets the rest, since its rate is the gated figure.
const HOT_OPEN_SHARE: f64 = 1.0 / 3.0;
const HOT_DEPTH: usize = 16;
/// Rounds the pipelined phase is split into; `throughput_qps` is the
/// median of their host-corrected rates. Each round spends its last
/// third on a loopback ping-pong (see `PINGPONG_REFERENCE`).
const HOT_ROUNDS: usize = 24;
/// Loopback ping-pong round trips per CPU-second that hot-routed's rate
/// is scaled to: about what a 2-vCPU virtual machine measured with its
/// host quiet. A cached routed query is almost nothing but wake-ups and
/// socket calls, whose cost on a shared host drifts by a fifth over
/// minutes; the rate over the ping-pong's, measured right after it, does
/// not drift with it (see `README.md`).
const PINGPONG_REFERENCE: f64 = 75_000.0;
// index-writes
const WRITES_K: usize = 3;
/// One eligible user in this many goes to the closed passes.
const WRITES_PASS_EVERY: usize = 3;
/// Closed passes over that list; `throughput_qps` is their median rate.
const WRITES_PASSES: usize = 5;
/// Share of `--seconds` the open loop runs (the closed passes are fixed
/// work: about 8 s on a 2-vCPU virtual machine).
const WRITES_OPEN_SHARE: f64 = 2.0 / 3.0;
const WRITES_QUERY_RATE: f64 = 100.0;
const WRITES_UPDATE_RATE: f64 = 5.0;
/// Updates per `RELOAD` in index-writes (one reload every ~3 s).
const WRITES_BATCH: usize = 16;

fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// How one deployment is built.
struct Plan {
    name: &'static str,
    profile: DatasetProfile,
    backend: EngineBackend,
    index: bool,
    shards: usize,
    router: bool,
    cache: usize,
}

struct Deployment {
    snap: Snapshot,
    shards: Vec<ServerHandle>,
    router: Option<RouterHandle>,
    map: Option<ShardMap>,
    wal_dirs: Vec<PathBuf>,
}

impl Deployment {
    fn shard_target(&self, shard: usize, binary: bool) -> Target {
        Target { addr: self.shards[shard].addr(), binary }
    }

    fn front(&self, binary: bool) -> Target {
        match &self.router {
            Some(router) => Target { addr: router.addr(), binary },
            None => self.shard_target(0, binary),
        }
    }

    fn stop(self) {
        if let Some(router) = self.router {
            router.stop().expect("router thread panicked");
        }
        for shard in self.shards {
            shard.stop().expect("server thread panicked");
        }
        for dir in self.wal_dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Timings of one setup.
struct SetupTimes {
    total_ns: u64,
    gen_ns: u64,
    build_ns: u64,
}

fn io_err(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// Generates the dataset, builds the index, boots the shards (each with a
/// WAL) and the router, then runs `warm`: everything before the first
/// timed request.
fn boot(
    plan: &Plan,
    out: &Path,
    warm: &dyn Fn(&Deployment) -> std::io::Result<Vec<Rec>>,
) -> std::io::Result<(Deployment, Vec<Rec>, SetupTimes)> {
    let start = Instant::now();
    let model = Arc::new(plan.profile.generate());
    let gen_ns = start.elapsed().as_nanos() as u64;
    let built = Instant::now();
    let index = plan
        .index
        .then(|| Arc::new(RrIndex::build(&model, IndexBudget::PerVertex(8.0), INDEX_SEED)));
    let build_ns = if plan.index { built.elapsed().as_nanos() as u64 } else { 0 };
    let mut shards = Vec::new();
    let mut wal_dirs = Vec::new();
    for s in 0..plan.shards {
        let dir = out.join(format!("wal-{}-{s}", plan.name));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = EngineHandle::with_indexes(
            model.clone(),
            plan.backend,
            index.clone(),
            None,
            PitexConfig::default(),
        )
        .map_err(io_err)?;
        let options = ServeOptions {
            workers: nproc(),
            cache_capacity: plan.cache,
            wal: Some(dir.clone()),
            ..ServeOptions::default()
        };
        shards.push(Server::spawn(handle, ("127.0.0.1", 0), options)?);
        wal_dirs.push(dir);
    }
    let (router, map) = if plan.router {
        let map = ShardMap::new(shards.iter().map(|s| vec![s.addr().to_string()]).collect())
            .map_err(io_err)?;
        (Some(Router::spawn(map.clone(), ("127.0.0.1", 0), RouterOptions::default())?), Some(map))
    } else {
        (None, None)
    };
    let deployment = Deployment { snap: Snapshot { model, index }, shards, router, map, wal_dirs };
    let warmed = warm(&deployment)?;
    let total_ns = start.elapsed().as_nanos() as u64;
    Ok((deployment, warmed, SetupTimes { total_ns, gen_ns, build_ns }))
}

/// Sets the deployment up again and stops it, until `times` holds enough
/// set-ups (see `SETUP_MIN`). Runs after the timed phase and the resident
/// memory reading, which therefore see only the first deployment.
fn more_setups(
    plan: &Plan,
    out: &Path,
    warm: &dyn Fn(&Deployment) -> std::io::Result<Vec<Rec>>,
    times: &mut Vec<SetupTimes>,
) -> std::io::Result<Vec<Rec>> {
    let mut warmed = Vec::new();
    loop {
        let spent: u64 = times.iter().map(|t| t.total_ns).sum();
        if times.len() >= SETUP_MAX || (times.len() >= SETUP_MIN && spent >= SETUP_BUDGET_NS) {
            return Ok(warmed);
        }
        let (deployment, recs, t) = boot(plan, out, warm)?;
        times.push(t);
        warmed.extend(recs);
        deployment.stop();
    }
}

/// Pings the front end over a text and a binary connection.
fn warm_pings(d: &Deployment) -> std::io::Result<Vec<Rec>> {
    for binary in [false, true] {
        d.front(binary).connect()?.ping()?;
    }
    Ok(Vec::new())
}

/// Eligible users (out-degree ≥ 1, §7.1), by descending out-degree.
fn eligible(model: &TicModel) -> Vec<u32> {
    let groups = UserGroups::from_graph(model.graph());
    UserGroup::ALL.iter().flat_map(|&g| groups.members(g).iter().copied()).collect()
}

/// `SetEdgeTopics` on `count` existing edges chosen by `rng`, each
/// topic probability scaled by a factor in `[0.5, 1.5)` (capped at 1).
fn edge_updates(model: &TicModel, count: usize, rng: &mut Rng) -> Vec<UpdateOp> {
    let edges: Vec<(u32, u32, u32)> = model.graph().edges().collect();
    (0..count)
        .map(|_| {
            let (e, src, dst) = edges[rng.below(edges.len())];
            let topics = model
                .edge_topics()
                .row(e as _)
                .map(|(z, p)| (z, (p * (0.5 + rng.unit() as f32)).min(1.0)))
                .collect();
            UpdateOp::SetEdgeTopics { src, dst, topics }
        })
        .collect()
}

/// Sends `batches` sequentially over one text connection, each followed
/// by a `RELOAD`.
fn write_tail(
    target: Target,
    batches: &[Vec<UpdateOp>],
    clock: Clock,
) -> std::io::Result<Vec<Rec>> {
    let mut client = target.connect()?;
    Ok(drive::with_cpu_awake(|| {
        let mut recs = Vec::new();
        for batch in batches {
            for op in batch {
                let update = Op::Update(op.clone());
                recs.push(drive::send_now(&mut client, clock, "tail", &update, false));
            }
            recs.push(drive::send_now(&mut client, clock, "tail", &Op::Reload, false));
        }
        recs
    }))
}

fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn ns_of(recs: &[&Rec], f: impl Fn(&Rec) -> u64) -> Vec<f64> {
    recs.iter().map(|r| f(r) as f64).collect()
}

/// Server time no named span claims: the reply's `us` minus the union of
/// its spans.
fn unattributed_us(rec: &Rec) -> Option<u64> {
    let spans = rec.spans.as_ref()?;
    let total = rec.answer.as_ref()?.server_us;
    Some(
        total
            - crate::trace::covered(
                0,
                total,
                spans.iter().map(|s| (s.start_us, s.start_us + s.dur_us)),
            ),
    )
}

fn span_us(recs: &[&Rec], names: &[&str]) -> Vec<u64> {
    recs.iter()
        .filter_map(|r| r.spans.as_ref())
        .flat_map(|spans| {
            spans.iter().filter(|s| names.contains(&s.name.as_str())).map(|s| s.dur_us)
        })
        .collect()
}

/// Adds a traced round trip to the span trace: the client span, the
/// server span (centred in the round trip) and the server's own spans.
fn trace_rec(trace: &mut Trace, rec: &Rec) {
    let (Some(spans), Some(answer)) = (&rec.spans, &rec.answer) else { return };
    let req = trace.begin();
    let root = trace.span(req, NO_PARENT, "client.request", rec.sent_ns, rec.done_ns);
    let server_ns = answer.server_us * 1000;
    let server_start = rec.sent_ns + rec.rtt_ns().saturating_sub(server_ns) / 2;
    let server = trace.span(req, root, "server", server_start, server_start + server_ns);
    for s in spans {
        let start = server_start + s.start_us * 1000;
        trace.span(req, server, &s.name, start, start + s.dur_us * 1000);
    }
}

/// Sent/ok/busy/error counts of one phase.
fn phase_line(phase: &str, recs: &[Rec]) -> String {
    let of = |st: Status| recs.iter().filter(|r| r.phase == phase && r.status == st).count();
    let sent = recs.iter().filter(|r| r.phase == phase).count();
    format!(
        "phase {phase}: sent={sent} ok={} busy={} error={} transport={}",
        of(Status::Ok),
        of(Status::Busy),
        of(Status::Error),
        of(Status::Transport)
    )
}

fn stats_total(answers: &[&RefAnswer]) -> QueryStats {
    let mut total = QueryStats::default();
    for a in answers {
        let s = &a.stats;
        total.tag_sets_evaluated += s.tag_sets_evaluated;
        total.tag_sets_infeasible += s.tag_sets_infeasible;
        total.partials_pruned += s.partials_pruned;
        total.bounds_computed += s.bounds_computed;
        total.samples_used += s.samples_used;
        total.edges_visited += s.edges_visited;
    }
    total
}

/// Evenly spaced picks of at most `n` items (a deterministic subset).
fn spaced<T: Clone>(items: &[T], n: usize) -> Vec<T> {
    if items.len() <= n {
        return items.to_vec();
    }
    (0..n).map(|i| items[i * items.len() / n].clone()).collect()
}

/// What a workload hands to the common accounting.
struct Run {
    plan: Plan,
    /// The snapshot every server booted from.
    snap: Snapshot,
    deployment: Option<Deployment>,
    setups: Vec<SetupTimes>,
    /// Every operation sent, warm-up and probes included, except those of
    /// the pipelined phase, which only keeps a tally.
    recs: Vec<Rec>,
    pipelined: Option<drive::Tally>,
    /// The closed-loop phases whose median rate is `throughput_qps`.
    rates: Vec<Rate>,
    /// A loopback ping-pong after each of `rates` (hot-routed), or none:
    /// each rate is then scaled to `PINGPONG_REFERENCE`.
    pingpong: Vec<Rate>,
    /// Phase whose per-request latency is `query_p50/p99_us`.
    latency_phase: &'static str,
    /// Length of the request list a closed-loop latency phase cycles
    /// through: latency counts whole passes only, so every run measures
    /// the same multiset of requests.
    cycle: Option<usize>,
    /// Phases whose requests the generator scheduled (lateness, `gen.sent`).
    timed_phases: Vec<&'static str>,
    rss_mib: f64,
    /// The write batches in the order their `RELOAD`s were acknowledged.
    batches: Vec<Vec<UpdateOp>>,
    /// Answers computed in-process at epoch 0 for the work ledger.
    ledger: Vec<(Key, RefAnswer)>,
    /// Index the live-layer repair is measured on when the deployment has
    /// none (online-lazy's traced run).
    probe_index: Option<(Arc<RrIndex>, u64)>,
    /// Ordinal checks and other report lines produced on the way.
    notes: Vec<String>,
    trace: Trace,
    /// Per-layer values measured by the workload itself.
    layer: Vec<(&'static str, f64, &'static str)>,
}

pub fn run(args: &Args, out: &Path) -> std::io::Result<Report> {
    let clock = Clock(Instant::now());
    let before = cpu_ticks();
    let mut run = match args.workload.as_str() {
        "online-lazy" => online_lazy(args, out, clock)?,
        "hot-routed" => hot_routed(args, out, clock)?,
        "index-writes" => index_writes(args, out, clock)?,
        other => return Err(io_err(format!("unknown workload {other:?}"))),
    };
    if let (Some((steal0, total0)), Some((steal1, total1))) = (before, cpu_ticks()) {
        let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        run.notes.push(format!(
            "host: {:.1}% of CPU time stolen by the hypervisor while the workload ran",
            share * 100.0
        ));
    }
    finish(args, out, clock, run)
}

/// CPU time (user and system) the whole process has used, in seconds:
/// `utime` and `stime` of `/proc/self/stat`, in clock ticks of 1/100 s.
/// Time the hypervisor stole from the virtual CPUs is not counted.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_name = stat.rfind(')').map_or("", |i| &stat[i + 1..]);
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    // Fields 14 and 15 of the file, counted from the state (field 3).
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// A closed-loop phase's OK query replies, its wall time and the CPU time
/// the process used meanwhile.
struct Rate {
    phase: &'static str,
    ok: u64,
    wall_s: f64,
    cpu_s: f64,
}

impl Rate {
    /// Runs `phase`, whose result has `ok(..)` OK query replies.
    fn measure<T>(
        name: &'static str,
        phase: impl FnOnce() -> std::io::Result<T>,
        ok: impl Fn(&T) -> u64,
    ) -> std::io::Result<(T, Rate)> {
        let (cpu0, wall0) = (process_cpu_s(), Instant::now());
        let result = phase()?;
        let (cpu_s, wall_s) = (process_cpu_s() - cpu0, wall0.elapsed().as_secs_f64());
        let rate = Rate { phase: name, ok: ok(&result), wall_s, cpu_s };
        Ok((result, rate))
    }

    /// OK replies per CPU-second, times `nproc`: the rate of a phase that
    /// keeps every CPU busy, had it had them to itself.
    fn qps(&self) -> f64 {
        self.ok as f64 / self.cpu_s * nproc() as f64
    }
}

fn ok_query_count(recs: &[Rec]) -> u64 {
    recs.iter().filter(|r| r.is_query() && r.status == Status::Ok).count() as u64
}

/// `(steal, total)` CPU ticks from `/proc/stat`, where available.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

fn online_lazy(args: &Args, out: &Path, clock: Clock) -> std::io::Result<Run> {
    let plan = Plan {
        name: "online-lazy",
        profile: DatasetProfile::lastfm_like(),
        backend: EngineBackend::Lazy,
        index: false,
        shards: 1,
        router: false,
        cache: 0,
    };
    let (deployment, warmed, setup) = boot(&plan, out, &warm_pings)?;
    let model = deployment.snap.model.clone();
    let eligible = eligible(&model);

    // The middle user of each of LAZY_STRATA equal out-degree strata, in
    // bit-reversed stratum order (every prefix of the cycle spans the
    // degree range), rotated by seed. The users do not vary with the seed:
    // with per-seed draws the median query cost alone moved 2x between
    // seeds.
    let bits = LAZY_STRATA.trailing_zeros();
    let rotation = Rng::new(args.seed, 1).below(LAZY_STRATA);
    let users: Vec<u32> = (0..LAZY_STRATA)
        .map(|i| {
            let s = ((i + rotation) % LAZY_STRATA) as u32;
            let s = s.reverse_bits() as usize >> (32 - bits);
            eligible[(2 * s + 1) * eligible.len() / (2 * LAZY_STRATA)]
        })
        .collect();
    let ops: Vec<Op> = users.iter().map(|&user| Op::Query { user, k: LAZY_K }).collect();
    // Whole passes over the list until `--seconds` is spent: a pass is
    // fixed work, while a time window ends in a partial pass whose few
    // hub queries (seconds each) moved the rate by several percent.
    let window = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let front = deployment.front(true);
    let mut recs = warmed;
    let mut rates = Vec::new();
    while rates.is_empty() || started.elapsed() < window {
        let (pass, rate) = Rate::measure(
            "closed",
            || drive::closed_loop(front, clock, "closed", nproc(), &ops, None, args.trace),
            |recs| ok_query_count(recs),
        )?;
        recs.extend(pass);
        rates.push(rate);
    }
    let rss = rss_mib();

    let mut run = Run::new(plan, deployment, setup, recs, rss);
    run.latency_phase = "closed";
    run.cycle = Some(ops.len());
    run.rates = rates;
    run.timed_phases = vec!["closed"];
    if args.trace {
        let direct = run.deployment.as_ref().expect("deployment is live").shard_target(0, true);
        let cheapest = *eligible.last().expect("eligible users exist");
        let cold: Vec<_> = cold_keys(&model).into_iter().map(|k| (direct, k)).collect();
        probe_network(&mut run, direct, None, (cheapest, LAZY_K), &cold, clock)?;
    }
    let tail = tail_batches(&model, args.seed);
    let d = run.deployment.as_ref().expect("deployment is live");
    run.recs.extend(write_tail(d.front(false), &tail, clock)?);
    run.batches = tail;

    // The ledger is the whole request list at epoch 0; it doubles as the
    // oracle's epoch-0 answers.
    let mut keys: Vec<Key> = users.iter().map(|&u| (u, LAZY_K)).collect();
    keys.sort_unstable();
    keys.dedup();
    run.stop();
    let extra = more_setups(&run.plan, out, &warm_pings, &mut run.setups)?;
    run.recs.extend(extra);
    let snap = Snapshot { model: model.clone(), index: None };
    run.ledger = keys
        .iter()
        .copied()
        .zip(oracle::answers(
            &snap,
            EngineBackend::Lazy,
            PitexConfig::default(),
            &keys,
            nproc(),
            clock,
        ))
        .collect();

    if args.trace {
        // Fig. 13: LAZY probes fewer edges than MC, on a seeded handful of
        // mid-group users from the list, each with its served W*.
        let groups = UserGroups::from_graph(model.graph());
        let mut picks: Vec<(u32, Vec<u32>)> = run
            .ledger
            .iter()
            .filter(|((u, _), _)| groups.members(UserGroup::Mid).contains(u))
            .map(|((u, _), a)| (*u, a.tags.clone()))
            .collect();
        Rng::new(args.seed, 7).shuffle(&mut picks);
        picks.truncate(4);
        let config = PitexConfig::default();
        let lazy = layers::estimate_all(
            Estimator::Lazy,
            &model,
            None,
            &picks,
            config,
            clock,
            &mut run.trace,
        );
        let mc = layers::estimate_all(
            Estimator::Mc,
            &model,
            None,
            &picks,
            config,
            clock,
            &mut run.trace,
        );
        run.notes.push(format!(
            "check lazy_lt_mc ({} mid users): LAZY edges_visited={} MC edges_visited={} -> {}",
            picks.len(),
            lazy.edges_visited,
            mc.edges_visited,
            if lazy.edges_visited < mc.edges_visited { "pass" } else { "FAIL" }
        ));
        let start = Instant::now();
        let index = Arc::new(RrIndex::build(&model, IndexBudget::PerVertex(8.0), INDEX_SEED));
        run.probe_index = Some((index, start.elapsed().as_nanos() as u64));
    }
    Ok(run)
}

fn hot_routed(args: &Args, out: &Path, clock: Clock) -> std::io::Result<Run> {
    let plan = Plan {
        name: "hot-routed",
        profile: DatasetProfile::lastfm_like(),
        backend: EngineBackend::IndexEstPlus,
        index: true,
        shards: 2,
        router: true,
        cache: 1024,
    };
    // The hot set is drawn from the (deterministic) dataset by seed, half
    // from each shard, alternating in Zipf rank: every seed then splits
    // the load between the shards alike (the shard map is a pure function
    // of the user id and the shard count).
    let model = plan.profile.generate();
    let mut rng = Rng::new(args.seed, 2);
    let mut pool = eligible(&model);
    rng.shuffle(&mut pool);
    drop(model);
    let owners =
        ShardMap::new(vec![vec!["127.0.0.1:1".to_string()]; plan.shards]).map_err(io_err)?;
    let per_shard: Vec<Vec<u32>> = (0..plan.shards)
        .map(|s| pool.iter().copied().filter(|&u| owners.shard_of(u) == s).collect())
        .collect();
    let hot: Vec<u32> =
        (0..HOT_USERS).map(|i| per_shard[i % plan.shards][i / plan.shards]).collect();
    let warm = |d: &Deployment| -> std::io::Result<Vec<Rec>> {
        warm_pings(d)?;
        let mut client = d.front(true).connect()?;
        Ok(hot
            .iter()
            .map(|&user| {
                drive::send_now(&mut client, clock, "warm", &Op::Query { user, k: HOT_K }, false)
            })
            .collect())
    };
    let (deployment, warmed, setup) = boot(&plan, out, &warm)?;
    let model = deployment.snap.model.clone();

    let zipf = Zipf::new(hot.len(), 1.0);
    let open = args.seconds * HOT_OPEN_SHARE;
    let mut schedule = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.exp(1.0 / HOT_RATE);
        if t >= open {
            break;
        }
        schedule.push(Scheduled {
            due_ns: (t * 1e9) as u64,
            op: Op::Query { user: hot[zipf.sample(&mut rng)], k: HOT_K },
        });
    }
    let cycle: Vec<Op> =
        (0..4096).map(|_| Op::Query { user: hot[zipf.sample(&mut rng)], k: HOT_K }).collect();

    let front = deployment.front(true);
    let mut recs = warmed;
    let start = clock.now() + 1_000_000;
    recs.extend(drive::open_loop(front, clock, "open", nproc(), start, &schedule, args.trace)?);
    let mut tally = drive::Tally::default();
    let mut rates = Vec::new();
    let mut pingpong = Vec::new();
    let round = Duration::from_secs_f64(args.seconds - open) / HOT_ROUNDS as u32;
    let (work, reference) = (round * 2 / 3, round / 3);
    for _ in 0..HOT_ROUNDS {
        let (t, rate) = Rate::measure(
            "pipelined",
            || drive::pipelined(front, clock, nproc(), HOT_DEPTH, &cycle, work, args.trace),
            |t| t.ok,
        )?;
        tally.merge(t);
        rates.push(rate);
        let (_, host) = Rate::measure("ping-pong", || drive::pingpong(nproc(), reference), |&n| n)?;
        pingpong.push(host);
    }
    let rss = rss_mib();

    // The hot keys' reference answers, which also check the pipelined
    // phase's answers.
    let keys: Vec<Key> = hot.iter().map(|&u| (u, HOT_K)).collect();
    let answers = oracle::answers(
        &deployment.snap,
        EngineBackend::IndexEstPlus,
        PitexConfig::default(),
        &keys,
        nproc(),
        clock,
    );
    let mut run = Run::new(plan, deployment, setup, recs, rss);
    run.pipelined = Some(tally);
    run.ledger = keys.into_iter().zip(answers).collect();
    run.latency_phase = "open";
    run.rates = rates;
    run.pingpong = pingpong;
    run.timed_phases = vec!["open", "pipelined"];
    if args.trace {
        let d = run.deployment.as_ref().expect("deployment is live");
        let map = d.map.clone().expect("hot-routed has a shard map");
        let key = (hot[0], HOT_K);
        let direct = d.shard_target(map.shard_of(key.0), true);
        let cold: Vec<_> = cold_keys(&model)
            .into_iter()
            .map(|k| (d.shard_target(map.shard_of(k.0), true), k))
            .collect();
        probe_network(&mut run, direct, Some(front), key, &cold, clock)?;
    }
    let tail = tail_batches(&model, args.seed);
    let d = run.deployment.as_ref().expect("deployment is live");
    run.recs.extend(write_tail(d.front(false), &tail, clock)?);
    run.batches = tail;
    run.stop();
    let extra = more_setups(&run.plan, out, &warm, &mut run.setups)?;
    run.recs.extend(extra);
    Ok(run)
}

fn index_writes(args: &Args, out: &Path, clock: Clock) -> std::io::Result<Run> {
    let plan = Plan {
        name: "index-writes",
        profile: DatasetProfile::diggs_like(),
        backend: EngineBackend::IndexEstPlus,
        index: true,
        shards: 1,
        router: false,
        cache: ServeOptions::default().cache_capacity,
    };
    let (deployment, warmed, setup) = boot(&plan, out, &warm_pings)?;
    let model = deployment.snap.model.clone();
    let eligible = eligible(&model);

    // The closed passes take every WRITES_PASS_EVERY-th eligible user, the
    // same list for every seed, costliest (highest out-degree) first so
    // the connections finish together. The open loop draws from the other
    // users by seed, without replacement (no reply comes from the cache),
    // at a fixed Poisson rate; Poisson updates, with a RELOAD right after
    // every WRITES_BATCH-th.
    let pass: Vec<Op> = eligible
        .iter()
        .step_by(WRITES_PASS_EVERY)
        .map(|&user| Op::Query { user, k: WRITES_K })
        .collect();
    let mut others: Vec<u32> = eligible
        .iter()
        .enumerate()
        .filter(|(i, _)| i % WRITES_PASS_EVERY != 0)
        .map(|(_, &u)| u)
        .collect();
    let mut rng = Rng::new(args.seed, 3);
    rng.shuffle(&mut others);
    let window = Duration::from_secs_f64(args.seconds * WRITES_OPEN_SHARE);
    let poisson = |rng: &mut Rng, rate: f64| -> Vec<u64> {
        let mut due = Vec::new();
        let mut t = rng.exp(1.0 / rate);
        while t < window.as_secs_f64() {
            due.push((t * 1e9) as u64);
            t += rng.exp(1.0 / rate);
        }
        due
    };
    let mut items: Vec<Scheduled> = poisson(&mut rng, WRITES_QUERY_RATE)
        .into_iter()
        .enumerate()
        .map(|(i, due_ns)| Scheduled {
            due_ns,
            op: Op::Query { user: others[i % others.len()], k: WRITES_K },
        })
        .collect();
    let update_due = poisson(&mut rng, WRITES_UPDATE_RATE);
    let updates = edge_updates(&model, update_due.len(), &mut rng);
    for (n, (due_ns, op)) in update_due.into_iter().zip(updates).enumerate() {
        items.push(Scheduled { due_ns, op: Op::Update(op) });
        if (n + 1) % WRITES_BATCH == 0 {
            items.push(Scheduled { due_ns: due_ns + 1, op: Op::Reload });
        }
    }
    items.sort_by_key(|s| s.due_ns);

    let front = deployment.front(false);
    let mut recs = warmed;
    let mut rates = Vec::new();
    for _ in 0..WRITES_PASSES {
        let (closed, rate) = Rate::measure(
            "closed",
            || drive::closed_loop(front, clock, "closed", nproc(), &pass, None, args.trace),
            |recs| ok_query_count(recs),
        )?;
        rates.push(rate);
        recs.extend(closed);
    }
    let start = clock.now() + 1_000_000;
    recs.extend(drive::open_loop(front, clock, "open", nproc(), start, &items, args.trace)?);
    let rss = rss_mib();

    // The batches each acknowledged RELOAD folded, in order.
    let mut batches = Vec::new();
    let mut current = Vec::new();
    for rec in recs.iter().filter(|r| r.phase == "open") {
        match &rec.op {
            Op::Update(op) if rec.status == Status::Ok => current.push(op.clone()),
            Op::Reload if rec.status == Status::Ok => batches.push(std::mem::take(&mut current)),
            _ => {}
        }
    }
    let mut run = Run::new(plan, deployment, setup, recs, rss);
    run.latency_phase = "open";
    run.rates = rates;
    run.timed_phases = vec!["closed", "open"];
    run.batches = batches;
    if args.trace {
        let direct = run.deployment.as_ref().expect("deployment is live").shard_target(0, true);
        let cheapest = *eligible.last().expect("eligible users exist");
        let first_probe = run.recs.len();
        let cold: Vec<_> = cold_keys(&model).into_iter().map(|k| (direct, k)).collect();
        probe_network(&mut run, direct, None, (cheapest, WRITES_K), &cold, clock)?;
        let last = run.batches.len() as u32;
        for rec in &mut run.recs[first_probe..] {
            rec.epochs = (last, last);
        }
    }
    run.stop();
    let extra = more_setups(&run.plan, out, &warm_pings, &mut run.setups)?;
    run.recs.extend(extra);

    if args.trace {
        // The ledger: every query of the timed phases, answered at epoch 0.
        let mut keys: Vec<Key> = pass
            .iter()
            .chain(items.iter().map(|s| &s.op))
            .filter_map(|op| match *op {
                Op::Query { user, k } => Some((user, k)),
                _ => None,
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let index = run.snap.index.clone();
        let snap = Snapshot { model: model.clone(), index: index.clone() };
        let answers = oracle::answers(
            &snap,
            EngineBackend::IndexEstPlus,
            PitexConfig::default(),
            &keys,
            nproc(),
            clock,
        );
        run.ledger = keys.into_iter().zip(answers).collect();

        // §6: cut filtering never probes more edges than plain INDEXEST.
        let pairs: Vec<(u32, Vec<u32>)> =
            run.ledger.iter().map(|((u, _), a)| (*u, a.tags.clone())).collect();
        let config = PitexConfig::default();
        let index = index.as_deref();
        let mut scratch = Trace::default();
        let plain = layers::estimate_all(
            Estimator::IndexEst,
            &model,
            index,
            &pairs,
            config,
            clock,
            &mut scratch,
        );
        let plus = layers::estimate_all(
            Estimator::IndexEstPlus,
            &model,
            index,
            &pairs,
            config,
            clock,
            &mut scratch,
        );
        run.notes.push(format!(
            "check indexest_plus_le_indexest ({} users): INDEXEST+ edges_visited={} INDEXEST edges_visited={} -> {}",
            pairs.len(),
            plus.edges_visited,
            plain.edges_visited,
            if plus.edges_visited <= plain.edges_visited { "pass" } else { "FAIL" }
        ));
    }
    Ok(run)
}

/// The write tail's batches, drawn by seed.
fn tail_batches(model: &TicModel, seed: u64) -> Vec<Vec<UpdateOp>> {
    let mut rng = Rng::new(seed, 4);
    (0..TAIL_BATCHES).map(|_| edge_updates(model, BATCH, &mut rng)).collect()
}

/// Unloaded probes for the traced run: direct text and binary pings, a
/// routed-vs-direct comparison of `key` (through `routed`, or a one-shard
/// router started for the probe), and `cold` queries on keys never asked
/// before, sent to their shards, which reach the queue and a worker even
/// when the timed phase only hit the cache.
fn probe_network(
    run: &mut Run,
    direct: Target,
    routed: Option<Target>,
    key: Key,
    cold: &[(Target, Key)],
    clock: Clock,
) -> std::io::Result<()> {
    let spawned = match routed {
        Some(_) => None,
        None => {
            let map = ShardMap::new(vec![vec![direct.addr.to_string()]]).map_err(io_err)?;
            Some(Router::spawn(map, ("127.0.0.1", 0), RouterOptions::default())?)
        }
    };
    let routed = routed.unwrap_or_else(|| Target {
        addr: spawned.as_ref().expect("spawned").addr(),
        binary: true,
    });
    let measured = drive::with_cpu_awake(|| -> std::io::Result<_> {
        Ok((
            layers::pings(Target { binary: false, ..direct }, PROBE_COUNT, clock)?,
            layers::pings(direct, PROBE_COUNT, clock)?,
            layers::pings(Target { binary: false, ..routed }, PROBE_COUNT, clock)?,
            layers::pings(routed, PROBE_COUNT, clock)?,
            layers::hop_probe(direct, routed, key, PROBE_COUNT, clock)?,
        ))
    });
    if let Some(router) = spawned {
        router.stop().expect("probe router panicked");
    }
    let (text, binary, routed_text, routed_binary, (direct_recs, routed_recs)) = measured?;

    let ok = |recs: &[Rec]| -> Vec<f64> {
        recs[1..].iter().filter(|r| r.status == Status::Ok).map(|r| r.rtt_ns() as f64).collect()
    };
    let (direct_rtt, routed_rtt) = (median(&ok(&direct_recs)), median(&ok(&routed_recs)));
    let routed_ok: Vec<&Rec> = routed_recs[1..].iter().filter(|r| r.status == Status::Ok).collect();
    let router_self: Vec<u64> = routed_ok.iter().filter_map(|r| unattributed_us(r)).collect();
    let hop: Vec<u64> = span_us(&routed_ok, &["net"]);
    for rec in direct_recs.iter().chain(&routed_recs) {
        trace_rec(&mut run.trace, rec);
    }
    run.notes.push(format!(
        "ping p50: direct text {:.1} us, direct binary {:.1} us, routed text {:.1} us, routed binary {:.1} us",
        us(median(&text)),
        us(median(&binary)),
        us(median(&routed_text)),
        us(median(&routed_binary))
    ));
    run.notes.push(format!(
        "hop (user {} k {}, binary TRACE): direct RTT p50 {:.1} us, routed RTT p50 {:.1} us, router self p50 {:.2} us, router->shard net p50 {:.2} us",
        key.0,
        key.1,
        us(direct_rtt),
        us(routed_rtt),
        binned_quantile(&router_self, 0.5),
        binned_quantile(&hop, 0.5)
    ));
    run.layer.extend([
        ("serve.ping_text_us_p50", us(median(&text)), "us"),
        ("serve.ping_binary_us_p50", us(median(&binary)), "us"),
        ("cluster.route_us_p50", binned_quantile(&router_self, 0.5), "us"),
        ("cluster.shard_hop_us_p50", binned_quantile(&hop, 0.5), "us"),
        ("cluster.hop_overhead_us", us(routed_rtt - direct_rtt), "us"),
    ]);
    run.recs.extend(direct_recs);
    run.recs.extend(routed_recs);
    for &(target, key) in cold {
        run.recs.push(layers::cold_probe(target, key, clock)?);
    }
    Ok(())
}

/// 32 keys no workload requests (`k = 1`) for the cold probe.
fn cold_keys(model: &TicModel) -> Vec<Key> {
    let groups = UserGroups::from_graph(model.graph());
    groups.members(UserGroup::Low).iter().take(32).map(|&u| (u, 1)).collect()
}

impl Run {
    fn new(
        plan: Plan,
        deployment: Deployment,
        setup: SetupTimes,
        recs: Vec<Rec>,
        rss_mib: f64,
    ) -> Self {
        Run {
            plan,
            snap: deployment.snap.clone(),
            deployment: Some(deployment),
            setups: vec![setup],
            recs,
            pipelined: None,
            rates: Vec::new(),
            pingpong: Vec::new(),
            latency_phase: "",
            cycle: None,
            timed_phases: Vec::new(),
            rss_mib,
            batches: Vec::new(),
            ledger: Vec::new(),
            probe_index: None,
            notes: Vec::new(),
            trace: Trace::default(),
            layer: Vec::new(),
        }
    }

    fn stop(&mut self) {
        if let Some(d) = self.deployment.take() {
            d.stop();
        }
    }
}

/// Oracle, metrics and report, common to every workload.
fn finish(args: &Args, out: &Path, clock: Clock, mut run: Run) -> std::io::Result<Report> {
    run.stop();
    let mut lines = Vec::new();
    let config = PitexConfig::default();
    let index = run.snap.index.clone().or_else(|| run.probe_index.as_ref().map(|(i, _)| i.clone()));
    let base = Snapshot { model: run.snap.model.clone(), index };

    // Oracle.
    let preset: HashMap<Key, RefAnswer> = run.ledger.iter().cloned().collect();
    let single_index_shard = run.plan.index && run.plan.shards == 1;
    let verdict = oracle::verify(
        &run.recs,
        base,
        &run.batches,
        run.plan.backend,
        config,
        preset.clone(),
        single_index_shard,
        nproc(),
        clock,
    );
    // The pipelined phase's answers, against the epoch-0 reference.
    let tally = run.pipelined.take().unwrap_or_default();
    let pipelined_mismatches: u64 = tally
        .answers
        .iter()
        .filter(|((key, tags, bits), _)| {
            preset.get(key).is_none_or(|r| r.tags != *tags || r.spread_bits != *bits)
        })
        .map(|(_, n)| n)
        .sum();
    let failed_ops =
        run.recs.iter().filter(|r| r.status != Status::Ok).count() as u64 + tally.sent - tally.ok;
    let mismatches = verdict.mismatches + pipelined_mismatches;
    let failed = failed_ops + mismatches;
    let attempted = run.recs.len() as u64 + tally.sent;
    let correct = mismatches == 0 && failed_ops == 0;
    lines.push(format!(
        "oracle: {} OK replies checked bit for bit, {mismatches} mismatches",
        verdict.checked + tally.ok
    ));
    lines.extend(verdict.notes.iter().map(|n| format!("oracle: {n}")));

    // Per-phase counts and generator lateness.
    let mut phases: Vec<&str> = run.recs.iter().map(|r| r.phase).collect();
    phases.sort_unstable();
    phases.dedup();
    lines.extend(phases.iter().map(|p| phase_line(p, &run.recs)));
    if tally.sent > 0 {
        lines.push(format!(
            "phase pipelined: sent={} ok={} busy={} error={} transport={} (depth {HOT_DEPTH})",
            tally.sent, tally.ok, tally.busy, tally.error, tally.transport
        ));
    }
    let timed: Vec<&Rec> =
        run.recs.iter().filter(|r| run.timed_phases.contains(&r.phase)).collect();
    // The generator's lateness p99 of its most delayed phase.
    let mut late_p99 = 0.0f64;
    let sent = timed.len() as u64 + tally.sent;
    for phase in &run.timed_phases {
        let in_phase: Vec<&Rec> = timed.iter().copied().filter(|r| r.phase == *phase).collect();
        let (late, queued) = if *phase == "pipelined" {
            (tally.late_ns(), Vec::new())
        } else {
            (ns_of(&in_phase, Rec::late_ns), ns_of(&in_phase, Rec::queued_ns))
        };
        late_p99 = late_p99.max(us(quantile(&late, 0.99)));
        let behind = us(quantile(&late, 0.99)) > 1000.0;
        let waited = queued.iter().filter(|&&q| q > 0.0).count();
        let wait_q = |q| if queued.is_empty() { 0.0 } else { us(quantile(&queued, q)) };
        lines.push(format!(
            "generator {phase}: own lateness p50 {:.1} us, p99 {:.1} us, max {:.1} us; waited for a busy connection: {waited} of {} requests ({:.1}%), wait p50 {:.1} us, p99 {:.1} us{}",
            us(quantile(&late, 0.5)),
            us(quantile(&late, 0.99)),
            us(quantile(&late, 1.0)),
            queued.len(),
            100.0 * waited as f64 / queued.len().max(1) as f64,
            wait_q(0.5),
            wait_q(0.99),
            if behind { " FLAG: generator fell behind its schedule" } else { "" }
        ));
    }
    lines.push(format!(
        "failures: {failed} of {attempted} operations (fail_ratio {})",
        failed as f64 / attempted as f64
    ));

    // End-to-end metrics.
    let ok_queries = |phase: &str| -> Vec<&Rec> {
        run.recs
            .iter()
            .filter(|r| r.phase == phase && r.is_query() && r.status == Status::Ok)
            .collect()
    };
    let mut lat_recs = ok_queries(run.latency_phase);
    lat_recs.sort_by_key(|r| r.sent_ns);
    if let Some(cycle) = run.cycle.filter(|&c| lat_recs.len() >= c) {
        lat_recs.truncate(lat_recs.len() / cycle * cycle);
    }
    let latency = ns_of(&lat_recs, Rec::latency_ns);
    let (p50, p99) = (us(quantile(&latency, 0.5)), us(quantile(&latency, 0.99)));
    if let Some(first) = run.rates.first() {
        let list = |f: fn(&Rate) -> f64| -> String {
            run.rates.iter().map(|r| format!("{:.0}", f(r))).collect::<Vec<_>>().join(" ")
        };
        lines.push(format!(
            "throughput ({} phase, rounds: {}): OK replies per CPU-second x {}: {}; wall-clock OK replies/s: {}; CPU busy %: {}",
            first.phase,
            run.rates.len(),
            nproc(),
            list(Rate::qps),
            list(|r| r.ok as f64 / r.wall_s),
            list(|r| 100.0 * r.cpu_s / (r.wall_s * nproc() as f64)),
        ));
    }
    let mut rates: Vec<f64> = run.rates.iter().map(Rate::qps).collect();
    if !run.pingpong.is_empty() {
        let per_cpu_s: Vec<f64> = run.pingpong.iter().map(|p| p.ok as f64 / p.cpu_s).collect();
        for (rate, host) in rates.iter_mut().zip(&per_cpu_s) {
            *rate *= PINGPONG_REFERENCE / host;
        }
        let list = |v: &[f64]| v.iter().map(|x| format!("{x:.0}")).collect::<Vec<_>>().join(" ");
        lines.push(format!(
            "throughput host reference: loopback ping-pong round trips per CPU-second after each round: {}; rate scaled to {PINGPONG_REFERENCE:.0} of them: {}",
            list(&per_cpu_s),
            list(&rates)
        ));
    }
    let qps = median(&rates);
    let writes = |is: fn(&Op) -> bool| -> Vec<f64> {
        run.recs
            .iter()
            .filter(|r| is(&r.op) && r.status == Status::Ok)
            .map(|r| r.rtt_ns() as f64)
            .collect()
    };
    let update = writes(|op| matches!(op, Op::Update(_)));
    let reload = writes(|op| matches!(op, Op::Reload));
    let setup_s = median(&run.setups.iter().map(|s| s.total_ns as f64 / 1e9).collect::<Vec<_>>());
    lines.push(format!(
        "latency ({} phase, {} samples, {} beyond p99): p50 {:.1} us, p99 {:.1} us",
        run.latency_phase,
        latency.len(),
        latency.len() / 100,
        p50,
        p99
    ));
    let (update_p50, reload_p50) = (us(median(&update)), median(&reload) / 1e6);
    lines.push(format!(
        "writes: {} updates, round trip p50 {update_p50:.1} us; {} reloads, p50 {reload_p50:.2} ms",
        update.len(),
        reload.len()
    ));
    if let Some(window) = timed_window(&run.recs, run.latency_phase) {
        let busy = |is: fn(&Op) -> bool| -> f64 {
            let ns: u64 = run
                .recs
                .iter()
                .filter(|r| r.phase == run.latency_phase && is(&r.op))
                .map(Rec::rtt_ns)
                .sum();
            100.0 * ns as f64 / window as f64
        };
        let (updating, reloading) =
            (busy(|op| matches!(op, Op::Update(_))), busy(|op| matches!(op, Op::Reload)));
        if updating + reloading > 0.0 {
            lines.push(format!(
                "writes in the {} phase: an UPDATE was in flight {updating:.1}% and a RELOAD {reloading:.1}% of its wall time",
                run.latency_phase
            ));
        }
    }
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    if !args.trace {
        metrics = vec![
            ("setup_s", setup_s, "s"),
            ("throughput_qps", qps, "1/s"),
            ("rss_mib", run.rss_mib, "MiB"),
        ];
    } else {
        let mut trace = std::mem::take(&mut run.trace);
        let layer = layer_metrics(&run, &mut trace, clock, out, &verdict, &lat_recs, &mut lines)?;
        let mut traced = Vec::new();
        let mut untraced = Vec::new();
        for r in &lat_recs {
            if r.spans.is_some() { &mut traced } else { &mut untraced }.push(r.latency_ns() as f64);
        }
        let overhead = us(median(&traced) - median(&untraced));
        metrics.extend(layer);
        metrics.extend(run.layer.iter().copied());
        metrics.extend([
            ("query_p50_us", us(median(&untraced)), "us"),
            ("query_p99_us", p99, "us"),
            ("update_p50_us", update_p50, "us"),
            ("reload_p50_ms", reload_p50, "ms"),
            ("obs.trace_overhead_us", overhead, "us"),
            ("gen.late_p99_us", late_p99, "us"),
            ("gen.sent", sent as f64, "count"),
        ]);
        for &(start, end, _) in &tally.batches {
            trace.call("client.pipeline", start, end);
        }
        let path = out.join(format!("spans-{}.tsv", run.plan.name));
        trace.write_tsv(&path)?;
        lines.push(format!("trace: {} spans written to {}", trace.len(), path.display()));
        lines.push(format!(
            "end-to-end in this traced run (for reference only): query_p50_us {p50:.1} (traced half minus untraced half {overhead:.1})"
        ));
    }
    lines.extend(run.notes.iter().cloned());
    Ok(Report { correct, attempted, failed, metrics, lines })
}

/// Wall time from the first due time to the last reply of `phase`.
fn timed_window(recs: &[Rec], phase: &str) -> Option<u64> {
    let in_phase = recs.iter().filter(|r| r.phase == phase);
    let start = in_phase.clone().map(|r| r.intended_ns).min()?;
    let end = in_phase.map(|r| r.done_ns).max()?;
    Some(end.saturating_sub(start).max(1))
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    run: &Run,
    trace: &mut Trace,
    clock: Clock,
    out: &Path,
    verdict: &oracle::Verdict,
    lat_recs: &[&Rec],
    lines: &mut Vec<String>,
) -> std::io::Result<Vec<(&'static str, f64, &'static str)>> {
    let config = PitexConfig::default();
    let model = run.snap.model.clone();
    let med_s = |v: Vec<u64>| median(&v.iter().map(|&n| n as f64 / 1e9).collect::<Vec<_>>());
    let gen_s = med_s(run.setups.iter().map(|s| s.gen_ns).collect());
    let (build_s, index) = if let Some(index) = run.snap.index.clone() {
        (med_s(run.setups.iter().map(|s| s.build_ns).collect()), index)
    } else {
        let (index, ns) = run.probe_index.clone().expect("traced online-lazy builds a probe index");
        (ns as f64 / 1e9, index)
    };

    // Core: the work ledger over the deterministic request list.
    let answers: Vec<&RefAnswer> = run.ledger.iter().map(|(_, a)| a).collect();
    for a in &answers {
        trace.call("core.query", a.start_ns, a.end_ns);
    }
    let core_ns: Vec<f64> = answers.iter().map(|a| (a.end_ns - a.start_ns) as f64).collect();
    let total = stats_total(&answers);
    lines.push(format!(
        "ledger ({} queries at epoch 0): tag_sets_evaluated={} tag_sets_infeasible={} partials_pruned={} bounds_computed={} samples_used={} edges_visited={}",
        answers.len(),
        total.tag_sets_evaluated,
        total.tag_sets_infeasible,
        total.partials_pruned,
        total.bounds_computed,
        total.samples_used,
        total.edges_visited
    ));

    // Sampling (LAZY) and index (INDEXEST+) estimators on (user, W*).
    let pairs: Vec<(u32, Vec<u32>)> =
        spaced(&run.ledger, ESTIMATE_PAIRS).into_iter().map(|((u, _), a)| (u, a.tags)).collect();
    let lazy = layers::estimate_all(Estimator::Lazy, &model, None, &pairs, config, clock, trace);
    let plus = layers::estimate_all(
        Estimator::IndexEstPlus,
        &model,
        Some(&index),
        &pairs,
        config,
        clock,
        trace,
    );

    // Serve: server spans of the traced half of the latency phase (the
    // cold probe when that phase never reached a worker).
    let traced: Vec<&Rec> = lat_recs.iter().copied().filter(|r| r.spans.is_some()).collect();
    for rec in &traced {
        trace_rec(trace, rec);
    }
    let mut queue = span_us(&traced, &["queue", "shard.queue"]);
    let mut execute = span_us(&traced, &["execute", "shard.execute"]);
    if queue.len() < 20 {
        let cold: Vec<&Rec> =
            run.recs.iter().filter(|r| r.phase == "probe.cold" && r.status == Status::Ok).collect();
        for rec in &cold {
            trace_rec(trace, rec);
        }
        queue = span_us(&cold, &["queue"]);
        execute = span_us(&cold, &["execute"]);
        lines.push(format!("serve queue/execute from {} cold-probe queries (the timed phase never reached a worker)", cold.len()));
    }
    let cache = span_us(&traced, &["cache", "shard.cache"]);
    let hits = lat_recs.iter().filter(|r| r.answer.as_ref().is_some_and(|a| a.cached)).count();
    let net: Vec<f64> = lat_recs
        .iter()
        .map(|r| r.rtt_ns() as f64 - r.answer.as_ref().map_or(0.0, |a| a.server_us as f64 * 1e3))
        .collect();
    let unattributed: Vec<u64> = traced.iter().filter_map(|r| unattributed_us(r)).collect();

    // Live: the same batches folded and repaired in-process.
    let folds = &verdict.folds;
    for f in folds {
        trace.call("live.compact", f.fold_start_ns, f.fold_end_ns);
        if let Some((s, e)) = f.repair {
            trace.call("live.repair_rr_index", s, e);
        }
    }
    let fold_ms: Vec<f64> =
        folds.iter().map(|f| (f.fold_end_ns - f.fold_start_ns) as f64 / 1e6).collect();
    let repair_ms: Vec<f64> =
        folds.iter().filter_map(|f| f.repair).map(|(s, e)| (e - s) as f64 / 1e6).collect();
    let resampled: u64 = folds.iter().map(|f| f.resampled).sum();
    let theta: u64 = folds.iter().map(|f| f.theta).sum();
    let (wal_ns, compactions) = layers::wal_appends(
        &out.join(format!("wal-probe-{}", run.plan.name)),
        &model,
        &run.batches,
        clock,
        trace,
    )?;

    Ok(vec![
        ("model.gen_s", gen_s, "s"),
        ("index.build_s", build_s, "s"),
        ("index.bytes", index.heap_bytes() as f64, "bytes"),
        ("core.query_us_p50", us(quantile(&core_ns, 0.5)), "us"),
        ("core.query_us_p99", us(quantile(&core_ns, 0.99)), "us"),
        ("core.tag_sets_evaluated", total.tag_sets_evaluated as f64, "count"),
        ("core.partials_pruned", total.partials_pruned as f64, "count"),
        ("core.bounds_computed", total.bounds_computed as f64, "count"),
        (
            "core.prune_ratio",
            total.partials_pruned as f64 / total.bounds_computed.max(1) as f64,
            "ratio",
        ),
        ("sampling.samples_used", lazy.samples_used as f64, "count"),
        ("sampling.edges_visited", lazy.edges_visited as f64, "count"),
        ("sampling.estimate_us_p50", us(median(&lazy.ns)), "us"),
        ("index.edges_visited", plus.edges_visited as f64, "count"),
        ("index.estimate_us_p50", us(median(&plus.ns)), "us"),
        ("serve.queue_us_p50", binned_quantile(&queue, 0.5), "us"),
        ("serve.queue_us_p99", binned_quantile(&queue, 0.99), "us"),
        ("serve.execute_us_p50", binned_quantile(&execute, 0.5), "us"),
        ("serve.cache_us_p50", binned_quantile(&cache, 0.5), "us"),
        ("serve.cache_hit_ratio", hits as f64 / lat_recs.len().max(1) as f64, "ratio"),
        ("serve.net_us_p50", us(median(&net)), "us"),
        ("live.fold_ms_p50", median(&fold_ms), "ms"),
        ("live.repair_ms_p50", median(&repair_ms), "ms"),
        ("live.resampled_ratio", resampled as f64 / theta.max(1) as f64, "ratio"),
        ("wal.append_us_p50", us(median(&wal_ns)), "us"),
        ("wal.compactions", compactions as f64, "count"),
        ("attr.unattributed_us_p50", binned_quantile(&unattributed, 0.5), "us"),
    ])
}
