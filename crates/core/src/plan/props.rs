//! Property tests of the placement solvers on random and degenerate
//! instances.

use std::collections::{BTreeSet, HashMap};

use netrs_simcore::SimRng;
use netrs_topology::HostId;
use proptest::prelude::*;

use super::*;
use crate::group::Granularity;

/// A degenerate shape forced onto an otherwise random instance.
#[derive(Debug, Clone, Copy)]
enum Degenerate {
    ZeroCapacity,
    ZeroHopBudget,
    SingleGroup,
    AllExcluded,
    ZeroRate,
}

impl Degenerate {
    const ALL: [Degenerate; 5] = [
        Degenerate::ZeroCapacity,
        Degenerate::ZeroHopBudget,
        Degenerate::SingleGroup,
        Degenerate::AllExcluded,
        Degenerate::ZeroRate,
    ];
}

/// A placement instance drawn from a seed: random clients and servers,
/// rates, capacity overrides (zero included), disjoint shared
/// accelerators, hop budget (zero, finite or unbounded), exclusions,
/// core-candidate cap and response load factor.
struct Instance {
    topo: FatTree,
    groups: TrafficGroups,
    traffic: TrafficMatrix,
    cons: PlanConstraints,
    excluded: Vec<SwitchId>,
}

impl Instance {
    fn draw(seed: u64, arity: u32, max_clients: usize, degenerate: Option<Degenerate>) -> Self {
        let mut rng = SimRng::from_seed(seed);
        let topo = FatTree::new(arity).expect("even arity");
        let hosts = topo.num_hosts() as usize;
        let n_servers = 1 + rng.index(8);
        let (servers, clients): (Vec<HostId>, Vec<HostId>) =
            if let Some(Degenerate::SingleGroup) = degenerate {
                // Clients in one rack, servers anywhere outside it.
                let per_rack = topo.hosts_per_rack();
                let rack = rng.index(topo.num_tors() as usize) as u32;
                let mut in_rack: Vec<HostId> = topo.hosts_in_rack(rack).collect();
                rng.shuffle(&mut in_rack);
                in_rack.truncate(1 + rng.index(per_rack as usize));
                let others: Vec<HostId> = topo
                    .hosts()
                    .filter(|&h| topo.rack_of_host(h) != rack)
                    .collect();
                let servers = rng
                    .sample_indices(others.len(), n_servers)
                    .into_iter()
                    .map(|i| others[i])
                    .collect();
                (servers, in_rack)
            } else {
                let n_clients = 1 + rng.index((hosts - n_servers).min(max_clients));
                let picks = rng.sample_indices(hosts, n_servers + n_clients);
                let mut picks: Vec<HostId> = picks.into_iter().map(|h| HostId(h as u32)).collect();
                let clients = picks.split_off(n_servers);
                (picks, clients)
            };
        // Per-host groups and uniform rates make ties in the greedy's
        // absorb order and in its choice of operator.
        let granularity = [
            Granularity::Rack,
            Granularity::Host,
            Granularity::SubRack(2),
        ][rng.index(3)];
        let groups = if let Some(Degenerate::SingleGroup) = degenerate {
            TrafficGroups::rack_level(&topo, &clients)
        } else {
            TrafficGroups::build(&topo, &clients, granularity)
        };
        let zero_rate = matches!(degenerate, Some(Degenerate::ZeroRate)) || rng.chance(0.1);
        let uniform = rng.chance(0.3).then(|| rng.f64() * 400.0);
        let rates: Vec<(HostId, f64)> = clients
            .iter()
            .map(|&h| {
                let rate = if zero_rate || rng.chance(0.1) {
                    0.0
                } else {
                    uniform.unwrap_or_else(|| rng.f64() * 400.0)
                };
                (h, rate)
            })
            .collect();
        let traffic = TrafficMatrix::oracle(&topo, &groups, &rates, &servers);

        let response_load_factor = if rng.chance(0.5) { 0.0 } else { 1.0 };
        let max_load = (0..groups.len() as GroupId)
            .map(|g| traffic.group_total(g) * (1.0 + response_load_factor))
            .fold(1.0, f64::max);
        let draw_cap = |rng: &mut SimRng, scale: f64| {
            if rng.chance(0.2) {
                0.0
            } else {
                rng.f64() * scale * max_load
            }
        };
        let switches: Vec<SwitchId> = topo.switches().collect();
        let mut capacity_overrides = HashMap::new();
        let override_share = [0.0, 0.3, 1.0][rng.index(3)];
        for sw in &switches {
            if rng.chance(override_share) {
                capacity_overrides.insert(sw.0, draw_cap(&mut rng, 2.0));
            }
        }
        let mut pool: Vec<u32> = switches.iter().map(|sw| sw.0).collect();
        rng.shuffle(&mut pool);
        let mut shared_accelerators = Vec::new();
        for _ in 0..rng.index(3) {
            let take = (2 + rng.index(3)).min(pool.len());
            let set = pool.split_off(pool.len() - take);
            shared_accelerators.push((set, draw_cap(&mut rng, 3.0)));
        }
        let extra_hop_budget = match rng.index(3) {
            0 => 0.0,
            1 => rng.f64() * traffic.total(),
            _ => f64::INFINITY,
        };
        let core_candidates = if rng.chance(0.5) {
            0
        } else {
            1 + rng.index(topo.num_cores() as usize) as u32
        };
        let exclude_share = [0.0, 0.15, 0.7][rng.index(3)];
        let mut excluded: Vec<SwitchId> = (switches.iter().copied())
            .filter(|_| rng.chance(exclude_share))
            .collect();
        let mut cons = PlanConstraints {
            capacity_overrides,
            extra_hop_budget,
            response_load_factor,
            core_candidates,
            shared_accelerators,
            ..PlanConstraints::default()
        };
        match degenerate {
            Some(Degenerate::ZeroCapacity) => {
                cons.capacity_overrides = switches.iter().map(|sw| (sw.0, 0.0)).collect();
                for (_, cap) in &mut cons.shared_accelerators {
                    *cap = 0.0;
                }
            }
            Some(Degenerate::ZeroHopBudget) => cons.extra_hop_budget = 0.0,
            Some(Degenerate::AllExcluded) => excluded = switches,
            Some(Degenerate::SingleGroup | Degenerate::ZeroRate) | None => {}
        }
        Instance {
            topo,
            groups,
            traffic,
            cons,
            excluded,
        }
    }

    fn problem(&self) -> PlacementProblem<'_> {
        PlacementProblem::new(&self.topo, &self.groups, &self.traffic, &self.cons)
            .without_operators(self.excluded.iter().copied())
    }
}

/// Asserts that `rsp` places every group exactly once, on a legal
/// candidate, within every capacity and the hop budget.
fn assert_plan_is_sound(p: &PlacementProblem<'_>, cons: &PlanConstraints, rsp: &Rsp) {
    let n = p.groups.len() as GroupId;
    let tol = |limit: f64| 1e-6 * limit.abs().max(1.0);
    for g in 0..n {
        assert!(
            rsp.assignment.contains_key(&g) != rsp.drs.contains(&g),
            "group {g} must be in exactly one of assignment and drs: {rsp:?}"
        );
    }
    assert!(rsp.assignment.keys().chain(&rsp.drs).all(|&g| g < n));
    let mut load: BTreeMap<SwitchId, f64> = BTreeMap::new();
    let mut hops = 0.0;
    for (&g, &sw) in &rsp.assignment {
        assert!(p.candidates(g).contains(&sw), "{sw} is no candidate of {g}");
        *load.entry(sw).or_default() += p.load_of(g);
        hops += p.extra_hop_rate(g, sw);
    }
    for (&sw, &l) in &load {
        let cap = p.capacity_of(sw);
        assert!(l <= cap + tol(cap), "{sw} carries {l} > {cap}");
    }
    for (set, cap) in &cons.shared_accelerators {
        let l: f64 = (load.iter())
            .filter(|(sw, _)| set.contains(&sw.0))
            .map(|(_, l)| l)
            .sum();
        assert!(
            l <= cap + tol(*cap),
            "shared set {set:?} carries {l} > {cap}"
        );
    }
    let budget = cons.extra_hop_budget;
    assert!(hops <= budget + tol(budget), "spent {hops} hops > {budget}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The indexed greedy makes the old greedy's decision at every step:
    /// the plans are equal, candidate lists included.
    #[test]
    fn indexed_greedy_matches_the_reference(
        seed in any::<u64>(),
        arity in prop_oneof![Just(4u32), Just(8u32)],
        degenerate in 0usize..10,
    ) {
        let inst = Instance::draw(seed, arity, 24, Degenerate::ALL.get(degenerate).copied());
        let p = inst.problem();
        for g in 0..inst.groups.len() as GroupId {
            prop_assert_eq!(p.candidates(g), p.reference_candidates(g));
        }
        prop_assert_eq!(p.solve_greedy(), p.reference_greedy());
    }

    /// The indexed model builder numbers variables and orders rows and
    /// terms exactly as the old one, for any DRS set.
    #[test]
    fn indexed_ilp_matches_the_reference(
        seed in any::<u64>(),
        arity in prop_oneof![Just(4u32), Just(8u32)],
        drs_mask in any::<u64>(),
    ) {
        let inst = Instance::draw(seed, arity, 24, None);
        let p = inst.problem();
        let drs: BTreeSet<GroupId> = (0..inst.groups.len() as GroupId)
            .filter(|g| drs_mask >> (g % 64) & 1 == 1)
            .collect();
        prop_assert_eq!(p.to_ilp(&drs), p.reference_to_ilp(&drs));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// Every solver returns a sound plan on degenerate instances: zero
    /// capacity, zero hop budget, a single group, every operator
    /// excluded, zero-rate traffic.
    #[test]
    fn degenerate_instances_get_sound_plans(
        seed in any::<u64>(),
        arity in prop_oneof![Just(4u32), Just(8u32)],
        degenerate in 0usize..5,
    ) {
        let inst = Instance::draw(seed, arity, 8, Some(Degenerate::ALL[degenerate]));
        let p = inst.problem();
        for solver in [
            PlanSolver::Greedy,
            PlanSolver::Exact { node_limit: 100 },
            PlanSolver::Auto { node_limit: 50 },
        ] {
            let rsp = p.solve(solver);
            assert_plan_is_sound(&p, &inst.cons, &rsp);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The capacity floor never exceeds a plan's RSNode count, and
    /// certifying the greedy plan changes no plan: Auto returns what its
    /// warm-started branch-and-bound returns without the certificate.
    #[test]
    fn capacity_floor_is_a_valid_bound_and_certifying_changes_no_plan(
        seed in any::<u64>(),
        arity in prop_oneof![Just(4u32), Just(8u32)],
        degenerate in 0usize..10,
    ) {
        let inst = Instance::draw(seed, arity, 8, Degenerate::ALL.get(degenerate).copied());
        let p = inst.problem();
        let exact = p.solve(PlanSolver::Exact { node_limit: 200 });
        if exact.proven_optimal {
            let floor = p.capacity_floor(&exact.drs);
            prop_assert!(
                floor.is_some_and(|f| f <= exact.rsnodes().len()),
                "floor {:?} above the optimum {:?}", floor, exact
            );
        }

        // The uncertified Auto path: one warm-started solve over the
        // greedy's DRS set.
        let greedy = p.solve_greedy();
        let drs: BTreeSet<GroupId> = p.stranded().chain(greedy.drs.iter().copied()).collect();
        let (problem, pvars, dvars) = p.to_ilp(&drs);
        let mut warm = vec![0.0; problem.num_vars()];
        for &(g, sw, v) in &pvars {
            if greedy.assignment.get(&g) == Some(&sw) {
                warm[v] = 1.0;
                warm[dvars[&sw]] = 1.0;
            }
        }
        let bnb = BranchAndBound { node_limit: 200, ..BranchAndBound::default() };
        // A failed solve leads into the DRS retries; only a first solve
        // that succeeds is compared.
        if let Ok(sol) = bnb.solve_from(&problem, Some(&warm)) {
            let (auto, stats) = p.solve_with_stats(PlanSolver::Auto { node_limit: 200 });
            let uncertified = PlacementProblem::plan_from(&sol.values, &pvars, drs, false);
            prop_assert_eq!(&auto.assignment, &uncertified.assignment);
            prop_assert_eq!(&auto.drs, &uncertified.drs);
            prop_assert_eq!(stats.objective, sol.objective);
        }
    }
}
