//! The answer oracle: every OK reply is compared bit for bit (tags and
//! `spread.to_bits()`) with an in-process `PitexEngine` on the same
//! snapshot. LAZY and INDEXEST+ answers do not depend on engine history,
//! so a fresh engine reproduces what any server worker computed.
//!
//! Snapshots after each `RELOAD` are rebuilt the way the server builds
//! them: `ModelOverlay` folds the batch and `repair_rr_index` repairs the
//! index. A query that overlapped a reload may match any epoch in its
//! recorded range.

use crate::drive::{Clock, Rec, Status};
use pitex_core::{EngineBackend, PitexConfig, PitexEngine, QueryStats};
use pitex_index::RrIndex;
use pitex_live::{repair_rr_index, ModelOverlay, RepairOptions, UpdateOp};
use pitex_model::TicModel;
use std::collections::HashMap;
use std::sync::Arc;

/// An in-process answer with its cost.
#[derive(Clone)]
pub struct RefAnswer {
    pub tags: Vec<u32>,
    pub spread_bits: u64,
    pub stats: QueryStats,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Clone)]
pub struct Snapshot {
    pub model: Arc<TicModel>,
    pub index: Option<Arc<RrIndex>>,
}

/// What folding one batch cost in-process.
pub struct Fold {
    pub fold_start_ns: u64,
    pub fold_end_ns: u64,
    /// Repair span, when the snapshot carries an index.
    pub repair: Option<(u64, u64)>,
    pub resampled: u64,
    pub theta: u64,
}

pub type Key = (u32, usize);

/// Answers `keys` on `snap` with `threads` engines (keys dealt round-robin
/// so the expensive ones spread out). Results are in key order.
pub fn answers(
    snap: &Snapshot,
    backend: EngineBackend,
    config: PitexConfig,
    keys: &[Key],
    threads: usize,
    clock: Clock,
) -> Vec<RefAnswer> {
    let threads = threads.max(1).min(keys.len().max(1));
    let mut out: Vec<Option<RefAnswer>> = vec![None; keys.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut engine = PitexEngine::with_backend(
                        &snap.model,
                        backend,
                        snap.index.as_deref(),
                        None,
                        config,
                    )
                    .expect("the snapshot carries the backend's index");
                    (t..keys.len())
                        .step_by(threads)
                        .map(|i| {
                            let (user, k) = keys[i];
                            let start_ns = clock.now();
                            let result = engine.query(user, k);
                            let end_ns = clock.now();
                            let answer = RefAnswer {
                                tags: result.tags.tags().to_vec(),
                                spread_bits: result.spread.to_bits(),
                                stats: result.stats,
                                start_ns,
                                end_ns,
                            };
                            (i, answer)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, answer) in handle.join().expect("oracle thread panicked") {
                out[i] = Some(answer);
            }
        }
    });
    out.into_iter().map(|a| a.expect("every key answered")).collect()
}

/// Folds `batch` into `snap` exactly as a server `RELOAD` does.
pub fn fold(snap: &Snapshot, batch: &[UpdateOp], clock: Clock) -> (Snapshot, Fold) {
    let mut overlay = ModelOverlay::new(snap.model.clone());
    for op in batch {
        overlay.apply(op.clone()).expect("generated updates are valid");
    }
    let fold_start_ns = clock.now();
    let model = Arc::new(overlay.compact());
    let fold_end_ns = clock.now();
    let mut out = Fold { fold_start_ns, fold_end_ns, repair: None, resampled: 0, theta: 0 };
    let index = snap.index.as_ref().map(|old| {
        let start = clock.now();
        let (index, report) = repair_rr_index(old, &snap.model, &model, &RepairOptions::default());
        out.repair = Some((start, clock.now()));
        out.resampled = report.resampled;
        out.theta = report.theta;
        Arc::new(index)
    });
    (Snapshot { model, index }, out)
}

/// The oracle's findings.
#[derive(Default)]
pub struct Verdict {
    pub checked: u64,
    pub mismatches: u64,
    pub notes: Vec<String>,
    pub folds: Vec<Fold>,
}

/// Checks every OK query reply in `recs` against `base` folded by
/// `batches` (batch `e` is the one the `e+1`-th acknowledged `RELOAD`
/// folded). `preset` holds answers already computed at epoch 0. With
/// `check_reloads`, each `RELOAD` reply's resampled count must also equal
/// the in-process repair's.
#[allow(clippy::too_many_arguments)]
pub fn verify(
    recs: &[Rec],
    base: Snapshot,
    batches: &[Vec<UpdateOp>],
    backend: EngineBackend,
    config: PitexConfig,
    preset: HashMap<Key, RefAnswer>,
    check_reloads: bool,
    threads: usize,
    clock: Clock,
) -> Verdict {
    let mut verdict = Verdict::default();
    let mut pending: Vec<usize> = (0..recs.len())
        .filter(|&i| recs[i].status == Status::Ok && recs[i].answer.is_some())
        .collect();
    verdict.checked = pending.len() as u64;
    let reload_replies: Vec<_> = recs.iter().filter_map(|r| r.reload).collect();
    let mut snap = base;
    let mut memo = preset;
    for epoch in 0..=batches.len() as u32 {
        if epoch > 0 {
            let (next, fold) = fold(&snap, &batches[epoch as usize - 1], clock);
            if check_reloads && fold.repair.is_some() {
                if let Some(reply) = reload_replies.get(epoch as usize - 1) {
                    if reply.resampled != fold.resampled {
                        verdict.mismatches += 1;
                        verdict.notes.push(format!(
                            "reload {epoch}: server resampled {} graphs, reference {}",
                            reply.resampled, fold.resampled
                        ));
                    }
                }
            }
            verdict.folds.push(fold);
            snap = next;
            memo = HashMap::new();
        }
        let here: Vec<usize> = pending
            .iter()
            .copied()
            .filter(|&i| recs[i].epochs.0 <= epoch && epoch <= recs[i].epochs.1)
            .collect();
        let mut missing: Vec<Key> =
            here.iter().map(|&i| key_of(&recs[i])).filter(|k| !memo.contains_key(k)).collect();
        missing.sort_unstable();
        missing.dedup();
        for (key, answer) in
            missing.iter().zip(answers(&snap, backend, config, &missing, threads, clock))
        {
            memo.insert(*key, answer);
        }
        pending.retain(|&i| {
            let rec = &recs[i];
            if rec.epochs.0 > epoch || rec.epochs.1 < epoch {
                return true;
            }
            let served = rec.answer.as_ref().expect("pending recs carry answers");
            let reference = &memo[&key_of(rec)];
            if served.tags == reference.tags && served.spread_bits == reference.spread_bits {
                return false;
            }
            if rec.epochs.1 > epoch && (epoch as usize) < batches.len() {
                return true; // a later epoch in its range may still match
            }
            verdict.mismatches += 1;
            if verdict.notes.len() < 5 {
                let (user, k) = key_of(rec);
                verdict.notes.push(format!(
                    "user {user} k {k} (epochs {}..={}): served {:?} spread {} cached {}, reference {:?} spread {}",
                    rec.epochs.0,
                    rec.epochs.1,
                    served.tags,
                    f64::from_bits(served.spread_bits),
                    served.cached,
                    reference.tags,
                    f64::from_bits(reference.spread_bits)
                ));
            }
            false
        });
    }
    verdict.mismatches += pending.len() as u64;
    verdict
}

pub fn key_of(rec: &Rec) -> Key {
    match rec.op {
        crate::drive::Op::Query { user, k } => (user, k),
        _ => unreachable!("only queries carry answers"),
    }
}
