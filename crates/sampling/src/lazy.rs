//! Lazy propagation sampling (§5.1, Algo. 2).
//!
//! MC probes every out-edge of every activated vertex in every instance; on
//! sparse influence graphs almost all of those probes fail. Lazy propagation
//! replaces per-instance Bernoulli probes with per-edge *geometric skip
//! counters*: when a vertex `v` is first activated, each live out-edge draws
//! a geometric gap `X` and fires at `v`'s `X`-th activation (counted across
//! all sample instances); on firing it re-arms `X′` activations later.
//! Lemma 6 shows the fire pattern is statistically identical to Bernoulli
//! probing, and Lemma 7 bounds the per-instance probe count by
//! `O(|R_W(u)|·E[I(u ⇝ v*|W)])` — edges are touched only when they fire.
//!
//! Bookkeeping per vertex: an activation counter `c_v` and a min-heap of
//! `(fire_at, edge)` pairs, both *persistent across instances* of one
//! estimate call (exactly the structure of Algo. 2 / Fig. 4). Appx. D of the
//! paper measures heap churn as lazy sampling's main constant-factor cost;
//! the kernel keeps it down three ways, none of which changes a draw:
//!
//! * the heaps are pooled across calls (capacity is retained);
//! * a due timer is re-armed in place (`peek_mut`: one sift-down instead of
//!   a pop and a push), with its gap drawn from `ln(1−p)` cached when its
//!   vertex was armed, so a fire costs no `EdgeProbs` call and one `ln`;
//! * while the user's earliest timer is due after its next activation,
//!   every instance activates the user alone, so the whole run of such
//!   idle instances is counted in one step.
//!
//! Keys `(fire_at, edge)` are unique within a heap, so the due order, the
//! RNG stream and the `Estimate` are the same as the plain pop/push loop
//! (kept as the test reference).

use crate::bounds::{SampleBudget, SamplingParams};
use crate::estimator::{reachable_positive, Estimate, SpreadEstimator};
use crate::geometric::{gap, ln_miss, NEVER};
use pitex_graph::traverse::BfsScratch;
use pitex_graph::{DiGraph, NodeId};
use pitex_model::EdgeProbs;
use pitex_support::EpochVisited;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

type FireHeap = BinaryHeap<Reverse<(u64, u32)>>;

/// Lazy propagation spread estimator (the paper's LAZY).
#[derive(Debug)]
pub struct LazySampler {
    /// Which call epoch each vertex's lazy state belongs to.
    init_stamp: Vec<u32>,
    call_epoch: u32,
    /// `c_v`: total activations of `v` in the current call.
    counters: Vec<u64>,
    /// Per-vertex fire heaps, pooled across calls (capacity is retained).
    heaps: Vec<FireHeap>,
    /// `ln(1−p(e))` per edge, written when `e`'s source is armed in the
    /// current call and read on every re-arm. Sized on the first call.
    ln_miss: Vec<f64>,
    visited: EpochVisited,
    frontier: Vec<NodeId>,
    reach_scratch: BfsScratch,
    reach_buf: Vec<NodeId>,
}

impl LazySampler {
    pub fn new(num_nodes: usize) -> Self {
        Self {
            init_stamp: vec![0; num_nodes],
            call_epoch: 0,
            counters: vec![0; num_nodes],
            heaps: (0..num_nodes).map(|_| FireHeap::new()).collect(),
            ln_miss: Vec::new(),
            visited: EpochVisited::new(num_nodes),
            frontier: Vec::new(),
            reach_scratch: BfsScratch::new(num_nodes),
            reach_buf: Vec::new(),
        }
    }

    fn grow(&mut self, num_nodes: usize, num_edges: usize) {
        if num_nodes > self.heaps.len() {
            self.init_stamp.resize(num_nodes, 0);
            self.counters.resize(num_nodes, 0);
            self.heaps.resize_with(num_nodes, FireHeap::new);
            self.visited.grow(num_nodes);
        }
        if num_edges > self.ln_miss.len() {
            self.ln_miss.resize(num_edges, 0.0);
        }
    }
}

impl SpreadEstimator for LazySampler {
    fn estimate(
        &mut self,
        graph: &DiGraph,
        user: NodeId,
        probs: &mut dyn EdgeProbs,
        params: &SamplingParams,
    ) -> Estimate {
        reachable_positive(graph, user, probs, &mut self.reach_scratch, &mut self.reach_buf);
        let reachable = self.reach_buf.len();
        if reachable <= 1 {
            return Estimate::isolated();
        }
        self.grow(graph.num_nodes(), graph.num_edges());
        // New call: lazily invalidate all per-vertex state.
        if self.call_epoch == u32::MAX {
            self.init_stamp.fill(0);
            self.call_epoch = 0;
        }
        self.call_epoch += 1;

        let mut rng =
            StdRng::seed_from_u64(params.seed ^ (user as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let max_iters = params.max_iterations(reachable);
        // For an integer `accumulated`, `accumulated as f64 ≥ Λ·|R_W(u)|`
        // holds exactly when `accumulated ≥ ⌈Λ·|R_W(u)|⌉`.
        let stop_at = match params.budget {
            SampleBudget::Adaptive => params.stop_threshold(reachable).ceil() as u64,
            SampleBudget::Fixed(_) => u64::MAX,
        };
        let ui = user as usize;

        let mut accumulated = 0u64;
        let mut edges_visited = 0u64;
        let mut iterations = 0u64;

        while iterations < max_iters {
            // Idle run: the user is activated once per instance, so until
            // its activation count reaches its earliest timer no edge fires
            // and each instance activates the user alone, drawing nothing.
            // Every timer left in the heap is due after the count (the due
            // ones were re-armed past it), so the subtraction cannot wrap.
            if self.init_stamp[ui] == self.call_epoch {
                let next_fire = self.heaps[ui].peek().map_or(NEVER, |t| t.0 .0);
                let idle = (next_fire - 1 - self.counters[ui])
                    .min(max_iters - iterations)
                    .min(stop_at.saturating_sub(accumulated));
                if idle > 0 {
                    self.counters[ui] += idle;
                    accumulated += idle;
                    iterations += idle;
                    if accumulated >= stop_at {
                        break;
                    }
                    continue;
                }
            }

            // One sample instance.
            self.visited.reset();
            self.frontier.clear();
            self.visited.insert(user);
            self.frontier.push(user);
            let mut activated = 1u64;

            while let Some(v) = self.frontier.pop() {
                let vi = v as usize;
                let heap = &mut self.heaps[vi];
                // First activation in this call: reset and arm timers.
                if self.init_stamp[vi] != self.call_epoch {
                    self.init_stamp[vi] = self.call_epoch;
                    self.counters[vi] = 0;
                    heap.clear();
                    for (e, _) in graph.out_edges(v) {
                        let p = probs.prob(e);
                        if p > 0.0 {
                            let ln_q = ln_miss(p);
                            self.ln_miss[e as usize] = ln_q;
                            let x = gap(ln_q, &mut rng);
                            if x != NEVER {
                                heap.push(Reverse((x, e)));
                            }
                        }
                    }
                }
                self.counters[vi] += 1;
                let c = self.counters[vi];
                // Fire every timer that has come due at activation `c`.
                while let Some(mut top) = heap.peek_mut() {
                    let Reverse((fire_at, e)) = *top;
                    if fire_at > c {
                        break;
                    }
                    edges_visited += 1;
                    // Re-arm: next fire X' activations from now (Lemma 6's
                    // memorylessness keeps instances i.i.d.). A gap that
                    // saturates at NEVER never comes due.
                    *top = Reverse((c.saturating_add(gap(self.ln_miss[e as usize], &mut rng)), e));
                    let t = graph.edge_target(e);
                    if self.visited.insert(t) {
                        self.frontier.push(t);
                        activated += 1;
                    }
                }
            }

            accumulated += activated;
            iterations += 1;
            if accumulated >= stop_at {
                break;
            }
        }

        Estimate {
            spread: accumulated as f64 / iterations as f64,
            samples_used: iterations,
            edges_visited,
            reachable,
        }
    }

    fn name(&self) -> &'static str {
        "LAZY"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometric::geometric;
    use pitex_graph::gen;
    use pitex_model::FixedEdgeProbs;
    use rand::Rng;

    /// The plain Algo. 2 loop, with fresh state per call: pop a due timer,
    /// look its probability up again, draw a new gap from it, push it back;
    /// one instance at a time, stopping on the `f64` threshold.
    fn reference_estimate(
        graph: &DiGraph,
        user: NodeId,
        probs: &mut dyn EdgeProbs,
        params: &SamplingParams,
    ) -> Estimate {
        let n = graph.num_nodes();
        let mut reach = Vec::new();
        reachable_positive(graph, user, probs, &mut BfsScratch::new(n), &mut reach);
        let reachable = reach.len();
        if reachable <= 1 {
            return Estimate::isolated();
        }
        let mut armed = vec![false; n];
        let mut counters = vec![0u64; n];
        let mut heaps: Vec<FireHeap> = (0..n).map(|_| FireHeap::new()).collect();
        let mut visited = EpochVisited::new(n);
        let mut frontier = Vec::new();
        let mut rng =
            StdRng::seed_from_u64(params.seed ^ (user as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let threshold = params.stop_threshold(reachable);
        let max_iters = params.max_iterations(reachable);
        let (mut accumulated, mut edges_visited, mut iterations) = (0u64, 0u64, 0u64);
        while iterations < max_iters {
            visited.reset();
            visited.insert(user);
            frontier.push(user);
            let mut activated = 1u64;
            while let Some(v) = frontier.pop() {
                let vi = v as usize;
                if !armed[vi] {
                    armed[vi] = true;
                    for (e, _) in graph.out_edges(v) {
                        let p = probs.prob(e);
                        if p > 0.0 {
                            let x = geometric(p, &mut rng);
                            if x != NEVER {
                                heaps[vi].push(Reverse((x, e)));
                            }
                        }
                    }
                }
                counters[vi] += 1;
                let c = counters[vi];
                while let Some(&Reverse((fire_at, e))) = heaps[vi].peek() {
                    if fire_at > c {
                        break;
                    }
                    heaps[vi].pop();
                    edges_visited += 1;
                    let x = geometric(probs.prob(e), &mut rng);
                    heaps[vi].push(Reverse((c.saturating_add(x), e)));
                    let t = graph.edge_target(e);
                    if visited.insert(t) {
                        frontier.push(t);
                        activated += 1;
                    }
                }
            }
            accumulated += activated;
            iterations += 1;
            if matches!(params.budget, SampleBudget::Adaptive) && accumulated as f64 >= threshold {
                break;
            }
        }
        Estimate {
            spread: accumulated as f64 / iterations as f64,
            samples_used: iterations,
            edges_visited,
            reachable,
        }
    }

    fn assert_same(got: &Estimate, want: &Estimate, ctx: &str) {
        assert_eq!(got.spread.to_bits(), want.spread.to_bits(), "{ctx}: spread");
        assert_eq!(got.samples_used, want.samples_used, "{ctx}: samples_used");
        assert_eq!(got.edges_visited, want.edges_visited, "{ctx}: edges_visited");
        assert_eq!(got.reachable, want.reachable, "{ctx}: reachable");
    }

    /// Edge probabilities drawn from one of several mixes, each including
    /// certain (`p = 1`) and dead (`p = 0`) edges.
    fn probability_mix(m: usize, mix: u32, rng: &mut StdRng) -> FixedEdgeProbs {
        let probs = (0..m)
            .map(|_| match (mix, rng.gen_range(0..10u32)) {
                (_, 0) => 0.0,
                (_, 1) => 1.0,
                (0, _) => rng.gen_range(0.001..0.05),
                (1, _) => rng.gen_range(0.0..1.0),
                (2, 2) => 1e-17,
                (2, _) => rng.gen_range(0.05..0.3),
                _ => [0.01, 0.1, 0.5][rng.gen_range(0..3usize)],
            })
            .collect();
        FixedEdgeProbs::new(probs)
    }

    /// The kernel (in-place re-arm, cached `ln(1−p)`, idle-run skip) must
    /// reproduce the reference loop bit for bit, on one sampler reused
    /// across calls.
    #[test]
    fn kernel_matches_reference_loop() {
        for case in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(0x1A2_u64 ^ case);
            let g = match case % 3 {
                0 => gen::random_dag(40, 0.12, &mut rng),
                1 => gen::star_low_impact(60),
                _ => gen::preferential_attachment(80, 3, 0.6, &mut rng),
            };
            // The highest out-degree vertex: the hub users that dominate
            // LAZY's cost, plus one drawn at random.
            let hub = g.nodes().max_by_key(|&v| g.out_degree(v)).unwrap();
            let users = [hub, rng.gen_range(0..g.num_nodes() as u32)];
            let mut lazy = LazySampler::new(g.num_nodes());
            for round in 0..3u32 {
                let mut probs = probability_mix(g.num_edges(), (case as u32 + round) % 4, &mut rng);
                for &user in &users {
                    for budget in [SampleBudget::Adaptive, SampleBudget::Fixed(700)] {
                        let mut params = SamplingParams::enumeration(0.5, 100.0, 10, 2)
                            .with_seed(rng.gen_range(0..1u64 << 40));
                        params.budget = budget;
                        let want = reference_estimate(&g, user, &mut probs, &params);
                        let got = lazy.estimate(&g, user, &mut probs, &params);
                        let ctx = format!("case {case} round {round} user {user} {budget:?}");
                        assert_same(&got, &want, &ctx);
                    }
                }
            }
        }
    }

    #[test]
    fn vanishing_probability_edges_never_fire() {
        // p = 1e-17 has `1 − p == 1`; such an edge used to fire on every
        // activation. Now it draws a gap of ~1e17 and stays silent.
        let g = gen::star_low_impact(20);
        let mut probs = FixedEdgeProbs::uniform(g.num_edges(), 1e-17);
        let mut lazy = LazySampler::new(g.num_nodes());
        let est = lazy.estimate(&g, 0, &mut probs, &params_fixed(1_000));
        assert_eq!(est.spread, 1.0);
        assert_eq!(est.edges_visited, 0);
        assert_eq!(est.samples_used, 1_000);
    }

    fn params_fixed(n: u64) -> SamplingParams {
        SamplingParams::enumeration(0.5, 100.0, 10, 2).with_fixed_budget(n)
    }

    #[test]
    fn certain_path_gives_exact_spread() {
        let g = gen::path(5);
        let mut probs = FixedEdgeProbs::uniform(g.num_edges(), 1.0);
        let mut lazy = LazySampler::new(g.num_nodes());
        let est = lazy.estimate(&g, 0, &mut probs, &params_fixed(100));
        assert_eq!(est.spread, 5.0);
        // p = 1 edges fire on every activation: 4 fires per instance.
        assert_eq!(est.edges_visited, 400);
    }

    #[test]
    fn isolated_user_short_circuits() {
        let g = gen::path(3);
        let mut probs = FixedEdgeProbs::uniform(g.num_edges(), 0.0);
        let mut lazy = LazySampler::new(g.num_nodes());
        let est = lazy.estimate(&g, 0, &mut probs, &params_fixed(10));
        assert_eq!(est.spread, 1.0);
    }

    #[test]
    fn star_estimate_converges_to_closed_form() {
        let n = 50usize;
        let g = gen::star_low_impact(n);
        let mut probs = FixedEdgeProbs::uniform(g.num_edges(), 1.0 / n as f64);
        let mut lazy = LazySampler::new(g.num_nodes());
        let est = lazy.estimate(&g, 0, &mut probs, &params_fixed(20_000));
        assert!((est.spread - 2.0).abs() < 0.1, "got {}", est.spread);
    }

    #[test]
    fn lazy_visits_orders_of_magnitude_fewer_edges_than_mc_on_star() {
        // The §5.1 claim: on Fig. 3(a) MC probes n edges per instance while
        // lazy fires ≈ n·p = 1 per instance.
        let n = 100usize;
        let iters = 2_000u64;
        let g = gen::star_low_impact(n);
        let p = 1.0 / n as f64;

        let mut probs = FixedEdgeProbs::uniform(g.num_edges(), p);
        let mut lazy = LazySampler::new(g.num_nodes());
        let lazy_est = lazy.estimate(&g, 0, &mut probs, &params_fixed(iters));

        let mut mc = crate::mc::McSampler::new(g.num_nodes());
        let mc_est = mc.estimate(&g, 0, &mut probs, &params_fixed(iters));

        assert!(
            lazy_est.edges_visited * 20 < mc_est.edges_visited,
            "lazy {} vs mc {}",
            lazy_est.edges_visited,
            mc_est.edges_visited
        );
        // Expected fires ≈ iters·n·p = iters.
        let expected = iters as f64;
        assert!(
            (lazy_est.edges_visited as f64 - expected).abs() < 0.2 * expected,
            "fires {} vs expected {expected}",
            lazy_est.edges_visited
        );
    }

    #[test]
    fn fire_counts_match_bernoulli_rate() {
        // Single edge with p = 0.3 probed over θ instances must fire
        // ≈ Binomial(θ, p) times (Lemma 6).
        let g = gen::path(2);
        let theta = 50_000u64;
        let mut probs = FixedEdgeProbs::uniform(1, 0.3);
        let mut lazy = LazySampler::new(g.num_nodes());
        let est = lazy.estimate(&g, 0, &mut probs, &params_fixed(theta));
        let rate = est.edges_visited as f64 / theta as f64;
        assert!((rate - 0.3).abs() < 0.01, "fire rate {rate}");
        // And the spread estimate follows: 1 + p.
        assert!((est.spread - 1.3).abs() < 0.01, "spread {}", est.spread);
    }

    #[test]
    fn agrees_with_mc_on_a_random_dag() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(8);
        let g = gen::random_dag(25, 0.15, &mut rng);
        let mut probs = FixedEdgeProbs::uniform(g.num_edges(), 0.4);
        let p = params_fixed(30_000);
        let mut lazy = LazySampler::new(g.num_nodes());
        let mut mc = crate::mc::McSampler::new(g.num_nodes());
        let a = lazy.estimate(&g, 0, &mut probs, &p).spread;
        let b = mc.estimate(&g, 0, &mut probs, &p).spread;
        assert!((a - b).abs() < 0.05 * b.max(1.0), "lazy {a} vs mc {b}");
    }

    #[test]
    fn state_is_isolated_between_calls() {
        // Different tag sets (here: different probabilities) must not leak
        // timers armed for the previous probabilities.
        let g = gen::path(3);
        let mut lazy = LazySampler::new(g.num_nodes());
        let mut hot = FixedEdgeProbs::uniform(2, 1.0);
        let est_hot = lazy.estimate(&g, 0, &mut hot, &params_fixed(500));
        assert_eq!(est_hot.spread, 3.0);
        let mut cold = FixedEdgeProbs::uniform(2, 0.01);
        let est_cold = lazy.estimate(&g, 0, &mut cold, &params_fixed(500));
        assert!(est_cold.spread < 1.2, "stale p=1 timers leaked: {}", est_cold.spread);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = gen::star_low_impact(40);
        let mut probs = FixedEdgeProbs::uniform(g.num_edges(), 0.1);
        let p = params_fixed(1_000);
        let mut lazy = LazySampler::new(g.num_nodes());
        let a = lazy.estimate(&g, 0, &mut probs, &p);
        let b = lazy.estimate(&g, 0, &mut probs, &p);
        assert_eq!(a, b);
    }
}
