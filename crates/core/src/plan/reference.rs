//! The placement code as it stood before [`PlacementIndex`] existed,
//! kept verbatim as a test oracle: it recomputes every candidate list,
//! load and hop rate on demand, and re-sorts the takers of every
//! operator in every greedy round. The property tests assert that the
//! indexed [`PlacementProblem::solve_greedy`] and
//! [`PlacementProblem::to_ilp`] reproduce it exactly.
//!
//! [`PlacementIndex`]: super::PlacementIndex

use std::collections::{BTreeMap, BTreeSet, HashMap};

use netrs_ilp::{Problem, Sense, VarId};
use netrs_netdev::GroupId;
use netrs_topology::SwitchId;

use super::{AssignmentVars, PlacementProblem, Rsp};

impl PlacementProblem<'_> {
    /// How many core-switch candidates the model instantiates.
    fn reference_core_candidate_count(&self) -> u32 {
        if self.cons.core_candidates > 0 {
            return self.cons.core_candidates.min(self.topo.num_cores());
        }
        // Enough cores to absorb the entire load, plus one slack.
        let total_load: f64 = (0..self.groups.len() as GroupId)
            .map(|g| self.load_of(g))
            .sum();
        let core_cap = self.capacity_of(self.topo.core(0)).max(1e-9);
        // Saturating: a zero-capacity core needs every core, not a wrap.
        let needed = ((total_load / core_cap).ceil() as u32).saturating_add(1);
        needed.clamp(1, self.topo.num_cores())
    }

    /// The candidate operators of a group, per the R-matrix rules of
    /// §III-B: own ToR, own-pod aggregation switches, core switches
    /// (symmetry-reduced), minus excluded devices.
    pub(super) fn reference_candidates(&self, g: GroupId) -> Vec<SwitchId> {
        let info = self.groups.info(g);
        let pod = self
            .topo
            .pod_of_switch(info.tor)
            .expect("group ToRs always have a pod");
        let mut out = Vec::new();
        if !self.excluded.contains(&info.tor) {
            out.push(info.tor);
        }
        for i in 0..self.topo.arity() / 2 {
            let agg = self.topo.agg(pod, i);
            if !self.excluded.contains(&agg) {
                out.push(agg);
            }
        }
        for c in 0..self.reference_core_candidate_count() {
            let core = self.topo.core(c);
            if !self.excluded.contains(&core) {
                out.push(core);
            }
        }
        out
    }

    /// Builds the ILP over the groups *not* in `drs`. Returns the model
    /// and the variable maps (`P` variables as `(group, operator, var)`
    /// triples and `D` variables per operator).
    pub(super) fn reference_to_ilp(
        &self,
        drs: &BTreeSet<GroupId>,
    ) -> (Problem, AssignmentVars, BTreeMap<SwitchId, VarId>) {
        let mut p = Problem::minimize();
        let mut pvars: AssignmentVars = Vec::new();
        let mut dvars: BTreeMap<SwitchId, VarId> = BTreeMap::new();
        let active: Vec<GroupId> = (0..self.groups.len() as GroupId)
            .filter(|g| !drs.contains(g))
            .collect();

        // D variables first (cost 1 each, Eq. 1), then P variables
        // (cost 0) for each (group, candidate) pair — Eq. 4 by
        // construction.
        for &g in &active {
            for sw in self.reference_candidates(g) {
                dvars.entry(sw).or_insert_with(|| p.add_binary(1.0));
            }
        }
        for &g in &active {
            for sw in self.reference_candidates(g) {
                let v = p.add_binary(0.0);
                pvars.push((g, sw, v));
            }
        }

        // Eq. 5: exactly one RSNode per group.
        for &g in &active {
            let terms: Vec<(VarId, f64)> = pvars
                .iter()
                .filter(|&&(pg, _, _)| pg == g)
                .map(|&(_, _, v)| (v, 1.0))
                .collect();
            if !terms.is_empty() {
                p.add_constraint(terms, Sense::Eq, 1.0);
            }
        }

        let big_g = active.len().max(1) as f64;
        for (&sw, &dv) in &dvars {
            let assigned: Vec<&(GroupId, SwitchId, VarId)> =
                pvars.iter().filter(|&&(_, s, _)| s == sw).collect();
            // Eq. 3 (aggregated linking).
            let mut link: Vec<(VarId, f64)> = assigned.iter().map(|&&(_, _, v)| (v, 1.0)).collect();
            link.push((dv, -big_g));
            p.add_constraint(link, Sense::Le, 0.0);
            // Eq. 6 (capacity).
            let cap_terms: Vec<(VarId, f64)> = assigned
                .iter()
                .map(|&&(g, _, v)| (v, self.load_of(g)))
                .collect();
            p.add_constraint(cap_terms, Sense::Le, self.capacity_of(sw));
        }

        // §III-B's shared-accelerator variant of Eq. 6: the summed load
        // of all switches wired to one accelerator stays within that
        // accelerator's capacity.
        for (set, cap) in &self.cons.shared_accelerators {
            let members: BTreeSet<u32> = set.iter().copied().collect();
            let terms: Vec<(VarId, f64)> = pvars
                .iter()
                .filter(|&&(_, sw, _)| members.contains(&sw.0))
                .map(|&(g, _, v)| (v, self.load_of(g)))
                .collect();
            if !terms.is_empty() {
                p.add_constraint(terms, Sense::Le, *cap);
            }
        }

        // Eq. 7 (global extra-hop budget), only if finite.
        if self.cons.extra_hop_budget.is_finite() {
            let terms: Vec<(VarId, f64)> = pvars
                .iter()
                .map(|&(g, sw, v)| (v, self.extra_hop_rate(g, sw)))
                .filter(|&(_, c)| c > 0.0)
                .collect();
            p.add_constraint(terms, Sense::Le, self.cons.extra_hop_budget);
        }

        (p, pvars, dvars)
    }

    /// Index of the shared-accelerator set a switch belongs to, if any.
    fn reference_shared_set_of(&self, sw: SwitchId) -> Option<usize> {
        self.cons
            .shared_accelerators
            .iter()
            .position(|(set, _)| set.contains(&sw.0))
    }

    /// The greedy heuristic: repeatedly open (or extend) the operator
    /// that absorbs the most remaining load within its capacity (own and
    /// shared-accelerator, if any) and the global hop budget; groups
    /// nothing can absorb fall back to DRS — highest-traffic groups are
    /// preferred for DRS exactly as §III-C prescribes.
    pub(super) fn reference_greedy(&self) -> Rsp {
        let mut remaining: BTreeSet<GroupId> = (0..self.groups.len() as GroupId).collect();
        let mut cap_left: HashMap<SwitchId, f64> = HashMap::new();
        let mut shared_left: Vec<f64> = self
            .cons
            .shared_accelerators
            .iter()
            .map(|&(_, cap)| cap)
            .collect();
        let mut opened: BTreeSet<SwitchId> = BTreeSet::new();
        let mut hops_left = self.cons.extra_hop_budget;
        let mut rsp = Rsp::default();

        // Candidate operator universe.
        let mut universe: BTreeSet<SwitchId> = BTreeSet::new();
        for g in remaining.iter().copied() {
            universe.extend(self.reference_candidates(g));
        }

        while !remaining.is_empty() {
            let mut best: Option<(f64, bool, SwitchId, Vec<GroupId>, f64)> = None;
            for &sw in &universe {
                let mut cap = *cap_left.entry(sw).or_insert_with(|| self.capacity_of(sw));
                if let Some(set) = self.reference_shared_set_of(sw) {
                    cap = cap.min(shared_left[set]);
                }
                let mut hops = hops_left;
                // Absorb cheap-hop, heavy groups first.
                let mut takers: Vec<GroupId> = remaining
                    .iter()
                    .copied()
                    .filter(|&g| self.reference_candidates(g).contains(&sw))
                    .collect();
                takers.sort_by(|&a, &b| {
                    let ka = (self.extra_hop_rate(a, sw), -self.load_of(a));
                    let kb = (self.extra_hop_rate(b, sw), -self.load_of(b));
                    ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
                });
                let mut taken = Vec::new();
                let mut taken_load = 0.0;
                let mut hops_used = 0.0;
                for g in takers {
                    let load = self.load_of(g);
                    let hr = self.extra_hop_rate(g, sw);
                    if load <= cap + 1e-9 && hr <= hops + 1e-9 {
                        cap -= load;
                        hops -= hr;
                        hops_used += hr;
                        taken_load += load;
                        taken.push(g);
                    }
                }
                if taken.is_empty() {
                    continue;
                }
                let already_open = opened.contains(&sw);
                let key = (taken_load, already_open, sw, taken, hops_used);
                let better = match &best {
                    None => true,
                    Some((bl, bo, ..)) => {
                        key.0 > *bl + 1e-9 || ((key.0 - *bl).abs() <= 1e-9 && key.1 && !bo)
                    }
                };
                if better {
                    best = Some(key);
                }
            }

            match best {
                Some((_, _, sw, taken, hops_used)) => {
                    opened.insert(sw);
                    let shared = self.reference_shared_set_of(sw);
                    let cap = cap_left.get_mut(&sw).expect("entry created above");
                    for g in taken {
                        let load = self.load_of(g);
                        *cap -= load;
                        if let Some(set) = shared {
                            shared_left[set] -= load;
                        }
                        remaining.remove(&g);
                        rsp.assignment.insert(g, sw);
                    }
                    hops_left -= hops_used;
                }
                None => {
                    // Nothing can take anything: degrade the
                    // highest-traffic remaining group (§III-C).
                    let g = remaining
                        .iter()
                        .copied()
                        .max_by(|&a, &b| {
                            self.load_of(a)
                                .partial_cmp(&self.load_of(b))
                                .unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .expect("remaining is non-empty");
                    remaining.remove(&g);
                    rsp.drs.insert(g);
                }
            }
        }
        rsp
    }
}
