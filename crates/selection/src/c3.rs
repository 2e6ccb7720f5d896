//! The C3 replica-ranking algorithm (Suresh et al., NSDI'15).
//!
//! C3 scores each replica `s` with
//!
//! ```text
//! Ψ(s) = R̄_s − T̄_s + q̂_s^b · T̄_s
//! q̂_s = 1 + os_s · n + q̄_s
//! ```
//!
//! where `R̄_s` is the EWMA of response times this RSNode observed from
//! `s`, `T̄_s` the EWMA of the service-time estimates `s` piggybacks,
//! `q̄_s` the EWMA of the queue sizes `s` piggybacks, `os_s` the requests
//! this RSNode currently has outstanding at `s`, `n` the number of
//! cooperating RSNodes (concurrency compensation: each RSNode assumes its
//! peers behave like it does), and `b` the queue-penalty exponent (3 in
//! the paper — the "cubic" in cubic replica selection). Lower is better.
//!
//! The cubic exponent is what suppresses herd behaviour: a replica whose
//! queue estimate is stale-low attracts traffic only until its penalty
//! term explodes, which happens *before* the queue physically builds up
//! because `os_s · n` rises instantly at the RSNode itself.

use netrs_kvstore::ServerId;
use netrs_simcore::{SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::{Feedback, ReplicaSelector};

/// C3 parameters (paper defaults in [`Default`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct C3Config {
    /// EWMA weight of the *old* value (C3 uses 0.9).
    pub alpha: f64,
    /// Queue-penalty exponent `b` (3 in C3; swept by the ABL-B ablation).
    pub exponent: f64,
    /// Concurrency compensation `n`: how many RSNodes share each server.
    /// Under CliRS this is the client count; under NetRS the (much
    /// smaller) RSNode count.
    pub concurrency: f64,
}

impl Default for C3Config {
    fn default() -> Self {
        C3Config {
            alpha: 0.9,
            exponent: 3.0,
            concurrency: 1.0,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct ServerEstimate {
    ewma_latency_ns: f64,
    ewma_service_ns: f64,
    ewma_queue: f64,
    outstanding: u32,
    responses: u64,
    timeout_penalty_ns: f64,
}

/// Additive score penalty applied after the first timeout (100 ms in
/// nanoseconds); doubles on each further timeout until a response clears
/// it. Large enough to outrank any healthy replica under normal load.
const TIMEOUT_PENALTY_BASE_NS: f64 = 100.0e6;

/// Marks a server in [`C3Selector::slots`] that has no estimate yet.
const UNSEEN: u32 = u32::MAX;

/// The C3 selector state held by one RSNode (or, under CliRS, one
/// client).
#[derive(Debug)]
pub struct C3Selector {
    cfg: C3Config,
    /// Index into `estimates` of each server's estimate, indexed by
    /// `ServerId.0` (server ids are dense) and grown on demand. A missing
    /// or [`UNSEEN`] slot means "never heard from", which is exactly the
    /// all-zero [`ServerEstimate`] — so reads fall back to the default
    /// and only writes allocate an estimate.
    slots: Vec<u32>,
    /// Estimates of the servers this selector has touched, in first-touch
    /// order. A client touches only the servers it sent to, a small share
    /// of the cluster.
    estimates: Vec<ServerEstimate>,
    rng: SimRng,
}

impl C3Selector {
    /// Creates a selector.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1)`, `exponent < 1` or
    /// `concurrency < 1`.
    #[must_use]
    pub fn new(cfg: C3Config, rng: SimRng) -> Self {
        assert!((0.0..1.0).contains(&cfg.alpha), "alpha must be in [0, 1)");
        assert!(cfg.exponent >= 1.0, "exponent must be >= 1");
        assert!(cfg.concurrency >= 1.0, "concurrency must be >= 1");
        C3Selector {
            cfg,
            slots: Vec::new(),
            estimates: Vec::new(),
            rng,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &C3Config {
        &self.cfg
    }

    /// Updates the concurrency-compensation factor (the controller resets
    /// it when the number of RSNodes changes after a re-plan).
    ///
    /// # Panics
    ///
    /// Panics if `n < 1`.
    pub fn set_concurrency(&mut self, n: f64) {
        assert!(n >= 1.0, "concurrency must be >= 1");
        self.cfg.concurrency = n;
    }

    fn est(&self, server: ServerId) -> ServerEstimate {
        match self.slots.get(server.0 as usize) {
            Some(&slot) if slot != UNSEEN => self.estimates[slot as usize],
            _ => ServerEstimate::default(),
        }
    }

    fn est_mut(&mut self, server: ServerId) -> &mut ServerEstimate {
        let i = server.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, UNSEEN);
        }
        if self.slots[i] == UNSEEN {
            self.slots[i] =
                u32::try_from(self.estimates.len()).expect("fewer estimates than u32 server ids");
            self.estimates.push(ServerEstimate::default());
        }
        &mut self.estimates[self.slots[i] as usize]
    }

    /// The Ψ score of one server (lower is better). Servers never heard
    /// from score by their compensated-outstanding penalty only, so fresh
    /// replicas are explored early.
    #[must_use]
    pub fn score(&self, server: ServerId) -> f64 {
        let est = self.est(server);
        let q_hat = 1.0 + f64::from(est.outstanding) * self.cfg.concurrency + est.ewma_queue;
        est.ewma_latency_ns - est.ewma_service_ns
            + q_hat.powf(self.cfg.exponent) * est.ewma_service_ns
            + est.timeout_penalty_ns
    }

    /// Number of responses folded in from `server` (freshness indicator).
    #[must_use]
    pub fn responses_seen(&self, server: ServerId) -> u64 {
        self.est(server).responses
    }
}

fn ewma(old: f64, sample: f64, alpha: f64, first: bool) -> f64 {
    if first {
        sample
    } else {
        alpha * old + (1.0 - alpha) * sample
    }
}

impl ReplicaSelector for C3Selector {
    fn rank(&mut self, candidates: &[ServerId], _now: SimTime) -> Vec<ServerId> {
        assert!(!candidates.is_empty(), "rank needs at least one candidate");
        // Random jitter breaks ties among equally scored (e.g. unseen)
        // servers so cold-start traffic spreads instead of herding.
        let mut scored: Vec<(f64, u64, ServerId)> = candidates
            .iter()
            .map(|&s| (self.score(s), self.rng.next_u64(), s))
            .collect();
        scored.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        scored.into_iter().map(|(_, _, s)| s).collect()
    }

    /// Allocation-free pick of the best-ranked replica: a single scan
    /// that keeps the first minimum under `rank`'s exact comparator
    /// (score, then jitter), drawing the per-candidate jitter in the
    /// same order — so the choice *and* the RNG stream match
    /// `rank(...)[0]` bit for bit without building the two vectors.
    fn select(&mut self, candidates: &[ServerId], _now: SimTime) -> ServerId {
        assert!(!candidates.is_empty(), "rank needs at least one candidate");
        let mut best = (
            self.score(candidates[0]),
            self.rng.next_u64(),
            candidates[0],
        );
        for &s in &candidates[1..] {
            let key = (self.score(s), self.rng.next_u64(), s);
            let better = match key.0.partial_cmp(&best.0) {
                Some(std::cmp::Ordering::Less) => true,
                Some(std::cmp::Ordering::Greater) => false,
                Some(std::cmp::Ordering::Equal) | None => key.1 < best.1,
            };
            if better {
                best = key;
            }
        }
        best.2
    }

    fn on_send(&mut self, server: ServerId, _now: SimTime) {
        self.est_mut(server).outstanding += 1;
    }

    fn on_response(&mut self, fb: &Feedback, _now: SimTime) {
        let alpha = self.cfg.alpha;
        let est = self.est_mut(fb.server);
        let first = est.responses == 0;
        est.ewma_latency_ns = ewma(
            est.ewma_latency_ns,
            fb.latency.as_nanos() as f64,
            alpha,
            first,
        );
        est.ewma_service_ns = ewma(
            est.ewma_service_ns,
            fb.service_time.as_nanos() as f64,
            alpha,
            first,
        );
        est.ewma_queue = ewma(est.ewma_queue, f64::from(fb.queue_len), alpha, first);
        est.outstanding = est.outstanding.saturating_sub(1);
        est.responses += 1;
        // A response proves the server answers again; drop the penalty.
        est.timeout_penalty_ns = 0.0;
    }

    fn on_timeout(&mut self, server: ServerId, _now: SimTime) {
        let est = self.est_mut(server);
        est.timeout_penalty_ns = (est.timeout_penalty_ns * 2.0).max(TIMEOUT_PENALTY_BASE_NS);
    }

    fn outstanding(&self, server: ServerId) -> u32 {
        self.est(server).outstanding
    }

    fn name(&self) -> &'static str {
        "c3"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrs_simcore::SimDuration;
    use proptest::prelude::*;

    fn fb(server: u32, queue: u32, service_ms: u64, latency_ms: u64) -> Feedback {
        Feedback {
            server: ServerId(server),
            queue_len: queue,
            service_time: SimDuration::from_millis(service_ms),
            latency: SimDuration::from_millis(latency_ms),
        }
    }

    fn c3() -> C3Selector {
        C3Selector::new(C3Config::default(), SimRng::from_seed(11))
    }

    #[test]
    fn prefers_lower_latency_server() {
        let mut s = c3();
        let t = SimTime::ZERO;
        for _ in 0..5 {
            s.on_response(&fb(0, 2, 4, 20), t);
            s.on_response(&fb(1, 2, 4, 5), t);
        }
        assert_eq!(s.select(&[ServerId(0), ServerId(1)], t), ServerId(1));
    }

    #[test]
    fn queue_penalty_is_cubic() {
        let mut s = c3();
        let t = SimTime::ZERO;
        // Same latency/service, different queues.
        s.on_response(&fb(0, 10, 4, 8), t);
        s.on_response(&fb(1, 1, 4, 8), t);
        let ratio = s.score(ServerId(0)) / s.score(ServerId(1));
        // (1+10)^3 vs (1+1)^3 dominates: ratio should be large.
        assert!(ratio > 50.0, "cubic penalty too weak: ratio {ratio}");
        assert_eq!(s.select(&[ServerId(0), ServerId(1)], t), ServerId(1));
    }

    #[test]
    fn outstanding_requests_push_score_up() {
        let mut s = c3();
        let t = SimTime::ZERO;
        s.on_response(&fb(0, 1, 4, 8), t);
        s.on_response(&fb(1, 1, 4, 8), t);
        let before = s.score(ServerId(0));
        for _ in 0..3 {
            s.on_send(ServerId(0), t);
        }
        assert_eq!(s.outstanding(ServerId(0)), 3);
        assert!(s.score(ServerId(0)) > before);
        assert_eq!(s.select(&[ServerId(0), ServerId(1)], t), ServerId(1));
        // Responses drain the outstanding count.
        s.on_response(&fb(0, 1, 4, 8), t);
        assert_eq!(s.outstanding(ServerId(0)), 2);
    }

    #[test]
    fn concurrency_compensation_amplifies_outstanding() {
        let mut low = C3Selector::new(
            C3Config {
                concurrency: 1.0,
                ..C3Config::default()
            },
            SimRng::from_seed(1),
        );
        let mut high = C3Selector::new(
            C3Config {
                concurrency: 500.0,
                ..C3Config::default()
            },
            SimRng::from_seed(1),
        );
        let t = SimTime::ZERO;
        for s in [&mut low, &mut high] {
            s.on_response(&fb(0, 1, 4, 8), t);
            s.on_send(ServerId(0), t);
        }
        assert!(high.score(ServerId(0)) > low.score(ServerId(0)) * 100.0);
    }

    #[test]
    fn unseen_servers_are_explored_first() {
        let mut s = c3();
        let t = SimTime::ZERO;
        s.on_response(&fb(0, 3, 4, 10), t);
        // Server 9 was never heard from: score 0 beats any positive score.
        assert_eq!(s.select(&[ServerId(0), ServerId(9)], t), ServerId(9));
        assert_eq!(s.responses_seen(ServerId(9)), 0);
        assert_eq!(s.responses_seen(ServerId(0)), 1);
    }

    #[test]
    fn ties_break_randomly_not_by_id() {
        let mut s = c3();
        let t = SimTime::ZERO;
        let candidates = [ServerId(0), ServerId(1), ServerId(2)];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(s.select(&candidates, t));
        }
        assert_eq!(seen.len(), 3, "cold-start picks must spread");
    }

    #[test]
    fn first_sample_initializes_ewma_exactly() {
        let mut s = c3();
        let t = SimTime::ZERO;
        s.on_response(&fb(0, 4, 2, 6), t);
        // With a single sample: R̄ = 6ms, T̄ = 2ms, q̄ = 4, q̂ = 5.
        let expected = 6.0e6 - 2.0e6 + 125.0 * 2.0e6;
        assert!((s.score(ServerId(0)) - expected).abs() < 1.0);
    }

    #[test]
    fn exponent_is_configurable() {
        let mut linear = C3Selector::new(
            C3Config {
                exponent: 1.0,
                ..C3Config::default()
            },
            SimRng::from_seed(2),
        );
        let t = SimTime::ZERO;
        linear.on_response(&fb(0, 4, 2, 6), t);
        let expected = 6.0e6 - 2.0e6 + 5.0 * 2.0e6;
        assert!((linear.score(ServerId(0)) - expected).abs() < 1.0);
    }

    #[test]
    fn rank_orders_by_score() {
        let mut s = c3();
        let t = SimTime::ZERO;
        s.on_response(&fb(0, 8, 4, 30), t);
        s.on_response(&fb(1, 2, 4, 10), t);
        s.on_response(&fb(2, 0, 1, 2), t);
        let ranked = s.rank(&[ServerId(0), ServerId(1), ServerId(2)], t);
        assert_eq!(ranked, vec![ServerId(2), ServerId(1), ServerId(0)]);
    }

    #[test]
    fn set_concurrency_takes_effect() {
        let mut s = c3();
        let t = SimTime::ZERO;
        s.on_response(&fb(0, 0, 4, 4), t);
        s.on_send(ServerId(0), t);
        let before = s.score(ServerId(0));
        s.set_concurrency(100.0);
        assert!(s.score(ServerId(0)) > before);
    }

    #[test]
    fn timeouts_demote_and_responses_forgive() {
        let mut s = c3();
        let t = SimTime::ZERO;
        s.on_response(&fb(0, 1, 4, 8), t);
        s.on_response(&fb(1, 1, 4, 8), t);
        // One timeout pushes server 0 behind server 1 — even behind a
        // never-seen server (whose score is 0).
        s.on_timeout(ServerId(0), t);
        assert_eq!(s.select(&[ServerId(0), ServerId(1)], t), ServerId(1));
        assert_eq!(s.select(&[ServerId(0), ServerId(9)], t), ServerId(9));
        // Repeated timeouts double the penalty.
        let one = s.score(ServerId(0));
        s.on_timeout(ServerId(0), t);
        assert!(s.score(ServerId(0)) > one + TIMEOUT_PENALTY_BASE_NS * 0.9);
        // A successful response clears it entirely.
        s.on_response(&fb(0, 1, 4, 8), t);
        assert!(s.score(ServerId(0)) < TIMEOUT_PENALTY_BASE_NS);
    }

    #[test]
    fn holds_one_estimate_per_touched_server() {
        let mut s = c3();
        let t = SimTime::ZERO;
        // Scattered ids, each touched several times and by every kind of
        // write; reads of unseen servers allocate nothing.
        let touched = [1_999, 3, 700, 42, 1_000];
        for (k, &id) in touched.iter().enumerate() {
            for _ in 0..3 {
                s.on_send(ServerId(id), t);
                s.on_response(&fb(id, 1, 4, 8), t);
                s.on_timeout(ServerId(id), t);
            }
            let _ = s.score(ServerId(id + 1));
            let _ = s.select(&[ServerId(5), ServerId(id)], t);
            assert_eq!(s.estimates.len(), k + 1);
        }
        assert_eq!(s.slots.len(), 2_000);
    }

    /// The selector as it was before estimates were stored compactly: one
    /// dense estimate per server id up to the largest touched. The
    /// reference the compact selector must match bit for bit.
    struct DenseC3 {
        cfg: C3Config,
        servers: Vec<ServerEstimate>,
        rng: SimRng,
    }

    impl DenseC3 {
        fn est(&self, server: ServerId) -> ServerEstimate {
            self.servers
                .get(server.0 as usize)
                .copied()
                .unwrap_or_default()
        }

        fn est_mut(&mut self, server: ServerId) -> &mut ServerEstimate {
            let i = server.0 as usize;
            if i >= self.servers.len() {
                self.servers.resize_with(i + 1, ServerEstimate::default);
            }
            &mut self.servers[i]
        }

        fn score(&self, server: ServerId) -> f64 {
            let est = self.est(server);
            let q_hat = 1.0 + f64::from(est.outstanding) * self.cfg.concurrency + est.ewma_queue;
            est.ewma_latency_ns - est.ewma_service_ns
                + q_hat.powf(self.cfg.exponent) * est.ewma_service_ns
                + est.timeout_penalty_ns
        }

        fn rank(&mut self, candidates: &[ServerId]) -> Vec<ServerId> {
            let mut scored: Vec<(f64, u64, ServerId)> = candidates
                .iter()
                .map(|&s| (self.score(s), self.rng.next_u64(), s))
                .collect();
            scored.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.1.cmp(&b.1))
            });
            scored.into_iter().map(|(_, _, s)| s).collect()
        }

        fn on_response(&mut self, fb: &Feedback) {
            let alpha = self.cfg.alpha;
            let est = self.est_mut(fb.server);
            let first = est.responses == 0;
            est.ewma_latency_ns = ewma(
                est.ewma_latency_ns,
                fb.latency.as_nanos() as f64,
                alpha,
                first,
            );
            est.ewma_service_ns = ewma(
                est.ewma_service_ns,
                fb.service_time.as_nanos() as f64,
                alpha,
                first,
            );
            est.ewma_queue = ewma(est.ewma_queue, f64::from(fb.queue_len), alpha, first);
            est.outstanding = est.outstanding.saturating_sub(1);
            est.responses += 1;
            est.timeout_penalty_ns = 0.0;
        }

        fn on_timeout(&mut self, server: ServerId) {
            let est = self.est_mut(server);
            est.timeout_penalty_ns = (est.timeout_penalty_ns * 2.0).max(TIMEOUT_PENALTY_BASE_NS);
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Send(usize),
        Response(usize, u32, u64, u64),
        Timeout(usize),
        Concurrency(f64),
        Select(Vec<usize>),
        Rank(Vec<usize>),
        Score(usize),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let idx = || any::<usize>();
        let cands = || proptest::collection::vec(any::<usize>(), 1..6);
        prop_oneof![
            idx().prop_map(Op::Send),
            (idx(), 0u32..50, 1u64..20_000, 1u64..200_000)
                .prop_map(|(i, q, svc, lat)| Op::Response(i, q, svc, lat)),
            idx().prop_map(Op::Timeout),
            (1.0f64..600.0).prop_map(Op::Concurrency),
            cands().prop_map(Op::Select),
            cands().prop_map(Op::Rank),
            idx().prop_map(Op::Score),
        ]
    }

    proptest! {
        /// Random operation sequences over server ids 0..2 000, touched in
        /// any order: every score, pick and ranking of the compact
        /// selector equals the dense reference's, so the RNG streams stay
        /// in step too.
        #[test]
        fn compact_estimates_match_the_dense_reference(
            seed in any::<u64>(),
            pool in proptest::collection::vec(0u32..2_000, 1..12),
            ops in proptest::collection::vec(arb_op(), 1..200),
        ) {
            let cfg = C3Config::default();
            let mut compact = C3Selector::new(cfg, SimRng::from_seed(seed));
            let mut dense = DenseC3 {
                cfg,
                servers: Vec::new(),
                rng: SimRng::from_seed(seed),
            };
            let t = SimTime::ZERO;
            let id = |i: usize| ServerId(pool[i % pool.len()]);
            for op in ops {
                match op {
                    Op::Send(i) => {
                        compact.on_send(id(i), t);
                        dense.est_mut(id(i)).outstanding += 1;
                    }
                    Op::Response(i, q, svc, lat) => {
                        let f = Feedback {
                            server: id(i),
                            queue_len: q,
                            service_time: SimDuration::from_micros(svc),
                            latency: SimDuration::from_micros(lat),
                        };
                        compact.on_response(&f, t);
                        dense.on_response(&f);
                    }
                    Op::Timeout(i) => {
                        compact.on_timeout(id(i), t);
                        dense.on_timeout(id(i));
                    }
                    Op::Concurrency(n) => {
                        compact.set_concurrency(n);
                        dense.cfg.concurrency = n;
                    }
                    Op::Select(c) => {
                        let c: Vec<ServerId> = c.into_iter().map(id).collect();
                        prop_assert_eq!(compact.select(&c, t), dense.rank(&c)[0]);
                    }
                    Op::Rank(c) => {
                        let c: Vec<ServerId> = c.into_iter().map(id).collect();
                        prop_assert_eq!(compact.rank(&c, t), dense.rank(&c));
                    }
                    Op::Score(i) => {
                        prop_assert_eq!(compact.score(id(i)).to_bits(), dense.score(id(i)).to_bits());
                    }
                }
                for &s in &pool {
                    let s = ServerId(s);
                    prop_assert_eq!(compact.score(s).to_bits(), dense.score(s).to_bits());
                    prop_assert_eq!(compact.outstanding(s), dense.est(s).outstanding);
                    prop_assert_eq!(compact.responses_seen(s), dense.est(s).responses);
                }
            }
            let mut distinct = pool.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert!(compact.estimates.len() <= distinct.len());
        }
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidates_panic() {
        let mut s = c3();
        let _ = s.rank(&[], SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_rejected() {
        let _ = C3Selector::new(
            C3Config {
                alpha: 1.0,
                ..C3Config::default()
            },
            SimRng::from_seed(0),
        );
    }
}
