//! Probes of single layers for the traced run: in-process calls into each
//! crate's public functions, and small unloaded network probes. Each
//! returns raw samples; the workload turns them into metrics.

use crate::drive::{self, Clock, Op, Rec, Target};
use crate::trace::Trace;
use pitex_core::{PitexConfig, PitexEngine};
use pitex_index::{IndexEstimator, IndexPlusEstimator, RrIndex};
use pitex_live::{UpdateOp, Wal, WalOptions};
use pitex_model::{PosteriorEdgeProbs, TagSet, TicModel};
use pitex_sampling::{Estimate, LazySampler, McSampler, SpreadEstimator};
use std::path::Path;

/// Which estimator a probe runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Estimator {
    Lazy,
    Mc,
    IndexEst,
    IndexEstPlus,
}

impl Estimator {
    pub fn name(self) -> &'static str {
        match self {
            Estimator::Lazy => "sampling.lazy_estimate",
            Estimator::Mc => "sampling.mc_estimate",
            Estimator::IndexEst => "index.indexest_estimate",
            Estimator::IndexEstPlus => "index.indexest_plus_estimate",
        }
    }
}

/// Totals of one estimator over a list of `(user, W*)` pairs.
#[derive(Default)]
pub struct EstimateTotals {
    pub samples_used: u64,
    pub edges_visited: u64,
    pub ns: Vec<f64>,
}

/// Estimates `E[I(u|W*)]` for every pair with one estimator, under the
/// engine's sampling parameters for `|W*|`, recording one span per call.
/// Infeasible tag sets (empty posterior) are skipped, as the engine does.
pub fn estimate_all(
    which: Estimator,
    model: &TicModel,
    index: Option<&RrIndex>,
    pairs: &[(u32, Vec<u32>)],
    config: PitexConfig,
    clock: Clock,
    trace: &mut Trace,
) -> EstimateTotals {
    let n = model.graph().num_nodes();
    let mut estimator: Box<dyn SpreadEstimator + '_> = match which {
        Estimator::Lazy => Box::new(LazySampler::new(n)),
        Estimator::Mc => Box::new(McSampler::new(n)),
        Estimator::IndexEst => {
            Box::new(IndexEstimator::new(index.expect("index probe needs an index")))
        }
        Estimator::IndexEstPlus => Box::new(IndexPlusEstimator::new(
            index.expect("index probe needs an index"),
            model.edge_topics(),
        )),
    };
    let engine = PitexEngine::with_lazy(model, config);
    let mut cache = model.new_prob_cache();
    let mut totals = EstimateTotals::default();
    for (user, tags) in pairs {
        let tags = TagSet::from_slice(tags);
        let posterior = model.posterior(&tags);
        if posterior.is_empty() {
            continue;
        }
        let params = engine.sampling_params(tags.len().max(1));
        let mut probs = PosteriorEdgeProbs::new(model.edge_topics(), &posterior, &mut cache);
        let start = clock.now();
        let est: Estimate = estimator.estimate(model.graph(), *user, &mut probs, &params);
        let end = clock.now();
        trace.call(which.name(), start, end);
        totals.samples_used += est.samples_used;
        totals.edges_visited += est.edges_visited;
        totals.ns.push((end - start) as f64);
    }
    totals
}

/// Appends every op of `batches` to a fresh WAL in `dir` (one commit
/// record per batch), timing each fsynced `append_staged`. Returns the
/// append times and how many compactions the log's own bounds triggered.
pub fn wal_appends(
    dir: &Path,
    model: &TicModel,
    batches: &[Vec<UpdateOp>],
    clock: Clock,
    trace: &mut Trace,
) -> std::io::Result<(Vec<f64>, u64)> {
    let _ = std::fs::remove_dir_all(dir);
    let io = |e: pitex_live::WalError| std::io::Error::other(e.to_string());
    let (mut wal, _) = Wal::open(dir, 0, WalOptions::default()).map_err(io)?;
    let mut ns = Vec::new();
    let mut compactions = 0;
    for (epoch, batch) in batches.iter().enumerate() {
        for op in batch {
            let start = clock.now();
            wal.append_staged(epoch as u64, op).map_err(io)?;
            let end = clock.now();
            trace.call("wal.append_staged", start, end);
            ns.push((end - start) as f64);
        }
        wal.append_commit(epoch as u64 + 1, batch.len() as u64).map_err(io)?;
        if wal.should_compact() {
            wal.compact(model, epoch as u64 + 1, &[]).map_err(io)?;
            compactions += 1;
        }
    }
    drop(wal);
    std::fs::remove_dir_all(dir)?;
    Ok((ns, compactions))
}

/// Unloaded sequential `PING` round trips.
pub fn pings(target: Target, count: usize, clock: Clock) -> std::io::Result<Vec<f64>> {
    let mut client = target.connect()?;
    client.ping()?;
    let mut ns = Vec::with_capacity(count);
    for _ in 0..count {
        let start = clock.now();
        client.ping()?;
        ns.push((clock.now() - start) as f64);
    }
    Ok(ns)
}

/// Sequential `TRACE` requests for `key`, alternating between a shard
/// (`direct`) and a router in front of it (`routed`). The first request on
/// each side is a warm-up (it may fill the cache); callers skip it.
pub fn hop_probe(
    direct: Target,
    routed: Target,
    key: (u32, usize),
    count: usize,
    clock: Clock,
) -> std::io::Result<(Vec<Rec>, Vec<Rec>)> {
    let mut d = direct.connect()?;
    let mut r = routed.connect()?;
    let op = Op::Query { user: key.0, k: key.1 };
    let (mut direct_recs, mut routed_recs) = (Vec::new(), Vec::new());
    for _ in 0..=count {
        direct_recs.push(drive::send_now(&mut d, clock, "probe.direct", &op, true));
        routed_recs.push(drive::send_now(&mut r, clock, "probe.routed", &op, true));
    }
    Ok((direct_recs, routed_recs))
}

/// A traced query of a key never requested before, so it goes through the
/// shard's queue and a worker.
pub fn cold_probe(target: Target, (user, k): (u32, usize), clock: Clock) -> std::io::Result<Rec> {
    let mut client = target.connect()?;
    Ok(drive::send_now(&mut client, clock, "probe.cold", &Op::Query { user, k }, true))
}
