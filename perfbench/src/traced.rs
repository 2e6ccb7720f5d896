//! The traced run: spans around the benchmark's calls into each crate,
//! in four parts.
//!
//! 1. Rebuild set-up step by step from the crates' public functions,
//!    repeating what `Cluster::new` does internally.
//! 2. `Cluster::new` + `prime`, then the event loop with the perf probe.
//! 3. `Cluster::stats`, then the report.
//! 4. Replay each layer's hot call on inputs drawn from the workload's
//!    configuration and seed.
//!
//! Parts 1 and 2 build the same set-up twice, and the result is checked:
//! the rebuilt plan must equal `Cluster::current_plan()` and the rebuilt
//! solve's statistics must equal the control stream's `solve` record, so
//! `core.*` and `ilp.*` time the solve the program runs.

use std::hint::black_box;
use std::time::Instant;

use netrs::{
    ControllerConfig, NetRsController, PlacementProblem, PlanSolveStats, Rsp, TrafficGroups,
    TrafficMatrix,
};
use netrs_kvstore::{Ring, ServerId};
use netrs_netdev::{CacheAdmission, CacheWritePolicy, HotCacheConfig, HotKeyCache};
use netrs_selection::{C3Config, C3Selector, Feedback, ReplicaSelector};
use netrs_sim::{perf::kind_names, ControlRecord, Scheme, SimConfig};
use netrs_simcore::{
    EventQueue, Histogram, NoProbe, PerfProbe, SimDuration, SimRng, SimTime, Zipf,
};
use netrs_topology::{FatTree, HostId};

use crate::spans::Spans;
use crate::workload::{self, Outcome, Streams, Workload};

/// Operations per replayed hot call.
const REPLAY_OPS: usize = 200_000;

/// Everything the traced run measured.
pub struct Traced {
    /// Per-layer metrics, by name.
    pub metrics: Vec<(String, f64)>,
    /// Broken checks.
    pub broken: Vec<String>,
    /// The traced run's stats digest.
    pub digest: String,
    /// The traced run's outcome (stats and host times).
    pub outcome: Outcome<PerfProbe>,
    /// Host seconds of parts 1 to 3.
    pub traced_wall_s: f64,
    /// Wall seconds of the same workload with every stream off, when the
    /// workload has streams on (0 otherwise).
    pub nosinks_wall_s: f64,
    /// The spans.
    pub spans: Spans,
}

/// Set-up rebuilt from public functions.
struct Rebuilt {
    topo: FatTree,
    ring: Ring,
    server_hosts: Vec<HostId>,
    client_hosts: Vec<HostId>,
    groups: Option<TrafficGroups>,
    plan: Option<Rsp>,
    solve: Option<PlanSolveStats>,
    model_size: usize,
}

/// Part 1: the steps `Cluster::new` takes, one span per crate call.
fn rebuild(cfg: &SimConfig, spans: &mut Spans) -> Rebuilt {
    let root = SimRng::from_seed(cfg.seed);
    let topo = spans.time("topology.FatTree::new", |_| {
        FatTree::new(cfg.arity).expect("workload arity is valid")
    });
    // Host roles: the same forks and draws `Core::new` makes.
    let (server_hosts, client_hosts) = spans.time("simcore.SimRng::sample_indices+shuffle", |_| {
        let mut rng = root.fork(0);
        let picks = rng.sample_indices(
            topo.num_hosts() as usize,
            (cfg.servers + cfg.clients) as usize,
        );
        let mut picks: Vec<HostId> = picks.into_iter().map(|h| HostId(h as u32)).collect();
        rng.shuffle(&mut picks);
        let clients = picks.split_off(cfg.servers as usize);
        (picks, clients)
    });
    let ring = spans.time("kvstore.Ring::new", |_| {
        Ring::new(
            cfg.servers,
            cfg.vnodes,
            cfg.replication,
            root.fork(1).next_u64(),
        )
        .expect("workload ring parameters are valid")
    });
    let mut rebuilt = Rebuilt {
        topo,
        ring,
        server_hosts,
        client_hosts,
        groups: None,
        plan: None,
        solve: None,
        model_size: 0,
    };
    if !cfg.scheme.is_in_network() {
        return rebuilt;
    }
    let topo = &rebuilt.topo;
    let groups = spans.time("core.TrafficGroups::build", |_| {
        TrafficGroups::build(topo, &rebuilt.client_hosts, cfg.granularity)
    });
    let mut controller = NetRsController::new(
        topo.clone(),
        ControllerConfig {
            constraints: cfg.plan.clone(),
        },
    );
    let rsp = if cfg.scheme == Scheme::NetRsIlp {
        // Every workload spreads load evenly over its clients.
        let rate = cfg.arrival_rate() / f64::from(cfg.clients);
        let rates: Vec<(HostId, f64)> = rebuilt.client_hosts.iter().map(|&h| (h, rate)).collect();
        let traffic = spans.time("core.TrafficMatrix::oracle", |_| {
            TrafficMatrix::oracle(topo, &groups, &rates, &rebuilt.server_hosts)
        });
        let problem = PlacementProblem::new(topo, &groups, &traffic, &cfg.plan);
        rebuilt.model_size = spans.time("core.PlacementProblem::candidates", |_| {
            (0..groups.len() as u32)
                .map(|g| problem.candidates(g).len())
                .sum()
        });
        let (rsp, stats) = spans.time("core.PlacementProblem::solve_with_stats", |_| {
            problem.solve_with_stats(cfg.plan_solver)
        });
        rebuilt.solve = Some(stats);
        rsp
    } else {
        spans.time("core.Rsp::tor_plan", |_| Rsp::tor_plan(&groups))
    };
    controller.install(rsp);
    let rules = spans.time("core.NetRsController::deploy", |_| {
        controller.deploy(&groups)
    });
    black_box(rules.len());
    rebuilt.plan = Some(controller.current_plan().clone());
    rebuilt.groups = Some(groups);
    rebuilt
}

/// Runs the traced workload.
pub fn run(w: Workload, seed: u64, requests: u64) -> Traced {
    let cfg = w.config(seed, requests);
    let finalized = cfg.clone().finalize();
    let mut broken = Vec::new();
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| metrics.push((name.to_string(), v));

    let nosinks_wall_s = if w.sinks() {
        let plain = workload::run(
            Instant::now(),
            cfg.clone(),
            &Streams::default(),
            NoProbe,
            &mut Spans::off(),
        );
        plain.wall_s
    } else {
        0.0
    };

    let mut spans = Spans::on();
    let t0 = Instant::now();
    let rebuilt = spans.time("perfbench.rebuild", |s| rebuild(&finalized, s));
    let streams = if w.sinks() {
        Streams::all()
    } else {
        Streams::control_only()
    };
    let probe = PerfProbe::new(kind_names(), PerfProbe::DEFAULT_STRIDE);
    let out = spans.time("perfbench.workload", |s| {
        workload::run(Instant::now(), cfg.clone(), &streams, probe, s)
    });
    let traced_wall_s = t0.elapsed().as_secs_f64();
    broken.extend(workload::check(&out.stats));
    let digest = workload::digest(&out.report);

    // The rebuild must reproduce the set-up the program ran.
    if rebuilt.plan != out.plan {
        broken.push("rebuilt plan differs from Cluster::current_plan()".into());
    }
    let control = streams
        .control
        .as_ref()
        .map(|c| c.head())
        .unwrap_or_default();
    let bootstrap_solve = control
        .lines()
        .filter_map(|l| serde_json::from_str::<ControlRecord>(l).ok())
        .find_map(|r| match r {
            ControlRecord::Plan(p) if p.trigger == "initial" => Some(p.solve),
            _ => None,
        })
        .flatten();
    match (&rebuilt.solve, &bootstrap_solve) {
        (None, None) => {}
        (Some(s), Some(r))
            if s.greedy == r.greedy
                && s.variables as u64 == r.variables
                && s.constraints as u64 == r.constraints
                && s.lp_iterations == r.lp_iterations
                && s.branch_nodes == r.branch_nodes
                && s.objective == r.objective => {}
        _ => broken.push(format!(
            "rebuilt solve {:?} differs from the control stream's {:?}",
            rebuilt.solve, bootstrap_solve
        )),
    }

    // core and ilp.
    let plan = rebuilt.plan.as_ref();
    put("core.groups_s", spans.total_s("core.TrafficGroups::build"));
    put(
        "core.traffic_s",
        spans.total_s("core.TrafficMatrix::oracle"),
    );
    put(
        "core.placement_s",
        spans.total_s("core.PlacementProblem::solve_with_stats")
            + spans.total_s("core.Rsp::tor_plan"),
    );
    put(
        "core.deploy_s",
        spans.total_s("core.NetRsController::deploy"),
    );
    put("core.model_size", rebuilt.model_size as f64);
    put("core.rsnodes", plan.map_or(0, |p| p.rsnodes().len()) as f64);
    put("core.drs_groups", plan.map_or(0, |p| p.drs.len()) as f64);
    let solve = rebuilt.solve.unwrap_or_default();
    put("ilp.lp_iterations", solve.lp_iterations as f64);
    put("ilp.branch_nodes", solve.branch_nodes as f64);
    put("ilp.variables", solve.variables as f64);
    put("ilp.constraints", solve.constraints as f64);
    put(
        "ilp.ns_per_lp_iteration",
        if solve.lp_iterations > 0 {
            spans.total_s("core.PlacementProblem::solve_with_stats") * 1e9
                / solve.lp_iterations as f64
        } else {
            0.0
        },
    );
    put("topology.build_s", spans.total_s("topology.FatTree::new"));
    put("kvstore.ring_build_s", spans.total_s("kvstore.Ring::new"));

    // simcore, selection, netdev, sim: the event loop.
    let report = out.probe.report();
    put("simcore.events", out.profile.events as f64);
    put(
        "simcore.queue_high_water",
        out.profile.queue_high_water as f64,
    );
    let select = report.kinds.iter().find(|k| k.name == "Select");
    put("selection.selects", select.map_or(0, |k| k.count) as f64);
    let rw = out.stats.rw.unwrap_or_default();
    let lookups = rw.cache_hits + rw.cache_misses;
    put(
        "netdev.cache_hit_ratio",
        if lookups > 0 {
            rw.cache_hits as f64 / lookups as f64
        } else {
            0.0
        },
    );
    put("netdev.cache_evictions", rw.cache_evictions as f64);
    put("netdev.cache_invalidations", rw.cache_invalidations as f64);
    put("netdev.stale_reads", rw.stale_reads as f64);
    put("netdev.accel_util_mean", out.stats.mean_accel_utilization);
    put(
        "netdev.accel_wait_us",
        out.stats.mean_selection_wait.as_nanos() as f64 * 1e-3,
    );
    for k in &report.kinds {
        put(&format!("sim.kind.{}.count", k.name), k.count as f64);
        let ns = if k.count > 0 {
            k.est_total_ns() as f64 / k.count as f64
        } else {
            0.0
        };
        put(&format!("sim.kind.{}.ns_per_event", k.name), ns);
    }
    put(
        "sim.attributed_frac",
        report.attributed_ns() as f64 * 1e-9 / out.loop_s,
    );
    put("sim.stats_s", spans.total_s("sim.Cluster::stats"));
    put("sim.report_s", spans.total_s("sim.report"));
    put(
        "sim.write_p50_ms",
        out.stats.write_latency.p50.as_nanos() as f64 * 1e-6,
    );
    put(
        "sim.write_p99_ms",
        out.stats.write_latency.p99.as_nanos() as f64 * 1e-6,
    );
    let [trace, devices, control_bytes, timeseries] = streams.bytes();
    put("obs.trace_bytes", trace as f64);
    put("obs.devices_bytes", devices as f64);
    put(
        "obs.control_bytes",
        if w.sinks() { control_bytes as f64 } else { 0.0 },
    );
    put("obs.timeseries_bytes", timeseries as f64);

    // Part 4: replays.
    spans.time("perfbench.replay", |s| {
        replay(&finalized, &rebuilt, &out, s, &mut put)
    });

    Traced {
        metrics,
        broken,
        digest,
        outcome: out,
        traced_wall_s,
        nosinks_wall_s,
        spans,
    }
}

/// Nanoseconds per operation of `ops` calls made by `f`.
fn per_op(spans: &mut Spans, name: &'static str, ops: usize, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    spans.time(name, |_| f());
    t.elapsed().as_nanos() as f64 / ops as f64
}

/// Part 4: each layer's hot call on the workload's own inputs.
fn replay(
    cfg: &SimConfig,
    rebuilt: &Rebuilt,
    out: &Outcome<PerfProbe>,
    spans: &mut Spans,
    put: &mut impl FnMut(&str, f64),
) {
    // The workload's first requests, drawn the way the generators draw
    // them: (client, key).
    let zipf = Zipf::new(cfg.keys, cfg.zipf);
    let gen_gap = SimDuration::from_secs_f64(f64::from(cfg.generators) / cfg.arrival_rate());
    let mut rng = SimRng::from_seed(cfg.seed).fork(2);
    let stream: Vec<(usize, u64)> = (0..REPLAY_OPS)
        .map(|_| {
            rng.exp_duration(gen_gap);
            let client = rng.below(u64::from(cfg.clients)) as usize;
            let key = zipf.sample(&mut rng);
            if cfg.write_fraction > 0.0 {
                rng.chance(cfg.write_fraction);
            }
            (client, key)
        })
        .collect();

    let mut zrng = SimRng::from_seed(cfg.seed).fork(3);
    put(
        "simcore.zipf_sample_ns",
        per_op(spans, "replay.simcore.Zipf::sample", REPLAY_OPS, || {
            for _ in 0..REPLAY_OPS {
                black_box(zipf.sample(&mut zrng));
            }
        }),
    );

    let ring = &rebuilt.ring;
    put(
        "kvstore.lookup_ns",
        per_op(
            spans,
            "replay.kvstore.Ring::replicas_for_key",
            REPLAY_OPS,
            || {
                for &(_, key) in &stream {
                    black_box(ring.replicas_for_key(black_box(key)));
                }
            },
        ),
    );

    // Client → RSNode → server triples under the installed plan.
    let triples: Vec<(HostId, Option<netrs_topology::SwitchId>, HostId, u64)> = stream
        .iter()
        .enumerate()
        .map(|(i, &(client, key))| {
            let src = rebuilt.client_hosts[client];
            let replicas = ring.replicas_for_key(key);
            let server = replicas[i % replicas.len()];
            let dst = rebuilt.server_hosts[server.0 as usize];
            let via = match (&rebuilt.plan, &rebuilt.groups) {
                (Some(plan), Some(groups)) => groups
                    .group_of_host(src)
                    .and_then(|g| plan.assignment.get(&g).copied()),
                _ => None,
            };
            (src, via, dst, key)
        })
        .collect();
    let topo = &rebuilt.topo;
    put(
        "topology.path_ns",
        per_op(spans, "replay.topology.FatTree::path", REPLAY_OPS, || {
            for &(src, via, dst, hash) in &triples {
                let p = match via {
                    Some(sw) => topo.path_via(src, sw, dst, hash),
                    None => topo.path(src, dst, hash),
                };
                black_box(p);
            }
        }),
    );

    // The event queue held at the workload's high-water depth.
    let depth = out.profile.queue_high_water.max(1);
    let mean_gap = SimDuration::from_nanos(
        (out.stats.sim_end.as_nanos() / out.profile.events.max(1)).max(1) * depth as u64,
    );
    let mut qrng = SimRng::from_seed(cfg.seed).fork(4);
    let gaps: Vec<SimDuration> = (0..REPLAY_OPS)
        .map(|_| qrng.exp_duration(mean_gap))
        .collect();
    let mut queue: EventQueue<u64> = EventQueue::new();
    for (i, &g) in gaps.iter().take(depth).enumerate() {
        queue.schedule_after(g, i as u64);
    }
    put(
        "simcore.queue_op_ns",
        per_op(
            spans,
            "replay.simcore.EventQueue::pop+schedule_after",
            REPLAY_OPS,
            || {
                for &g in &gaps {
                    let (_, ev) = queue.pop().expect("the queue stays at its depth");
                    queue.schedule_after(g, ev);
                }
            },
        ),
    );

    let mean_latency = out.stats.latency.mean.max(SimDuration::from_nanos(1));
    let lats: Vec<SimDuration> = (0..REPLAY_OPS)
        .map(|_| qrng.exp_duration(mean_latency))
        .collect();
    let mut hist = Histogram::new();
    put(
        "simcore.hist_record_ns",
        per_op(
            spans,
            "replay.simcore.Histogram::record",
            REPLAY_OPS,
            || {
                for &d in &lats {
                    hist.record(black_box(d));
                }
            },
        ),
    );
    black_box(hist.count());

    // C3 on replayed feedback: one select + on_send + on_response cycle
    // per request, with the concurrency the scheme gives its selectors.
    let concurrency = match &rebuilt.plan {
        Some(plan) => plan.rsnodes().len().max(1) as f64,
        None => f64::from(cfg.clients),
    };
    let mut selector = C3Selector::new(
        C3Config {
            concurrency,
            ..cfg.c3
        },
        SimRng::from_seed(cfg.seed).fork(5),
    );
    let feedback: Vec<(usize, u32, SimDuration, SimDuration)> = (0..REPLAY_OPS)
        .map(|i| {
            (
                i,
                qrng.below(8) as u32,
                qrng.exp_duration(cfg.server.base_service_time),
                qrng.exp_duration(mean_latency),
            )
        })
        .collect();
    let tick = SimDuration::from_nanos(gen_gap.as_nanos() / u64::from(cfg.generators).max(1));
    put(
        "selection.c3_select_ns",
        per_op(
            spans,
            "replay.selection.C3Selector::select",
            REPLAY_OPS,
            || {
                let mut now = SimTime::ZERO;
                for &(i, queue_len, service_time, latency) in &feedback {
                    now += tick;
                    let server = selector.select(ring.replicas_for_key(stream[i].1), now);
                    selector.on_send(server, now);
                    selector.on_response(
                        &Feedback {
                            server,
                            queue_len,
                            service_time,
                            latency,
                        },
                        now,
                    );
                }
            },
        ),
    );

    // The hot-key cache kept full and fed the workload's keys: the
    // workload's own cache configuration, or the rw-cache one.
    let cache_cfg = cfg.hot_cache.unwrap_or(HotCacheConfig {
        capacity: 1024,
        admission: CacheAdmission::Lru,
        write_policy: CacheWritePolicy::Invalidate,
    });
    let mut cache = HotKeyCache::new(cache_cfg);
    for i in 0..cache_cfg.capacity as u64 {
        cache.admit(u64::MAX - i, 1, ServerId(0));
    }
    put(
        "netdev.cache_lookup_ns",
        per_op(
            spans,
            "replay.netdev.HotKeyCache::lookup",
            REPLAY_OPS,
            || {
                for &(_, key) in &stream {
                    black_box(cache.lookup(key));
                }
            },
        ),
    );
    put(
        "netdev.cache_admit_ns",
        per_op(
            spans,
            "replay.netdev.HotKeyCache::admit",
            REPLAY_OPS,
            || {
                for &(i, key) in &stream {
                    black_box(cache.admit(key, 1, ServerId((i % cfg.servers as usize) as u32)));
                }
            },
        ),
    );
}
