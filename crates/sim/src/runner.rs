//! Experiment execution: single runs (instrumented or not), multi-seed
//! repetition, and scheme sweeps.

use std::time::{Duration, Instant};

use netrs_simcore::{
    DeviceProbe, DeviceStatsRegistry, Engine, EngineProfile, NoDeviceProbe, NoProbe, PerfProbe,
    PerfReport, Probe,
};

use crate::cluster::Cluster;
use crate::config::{Scheme, SimConfig};
use crate::obs::{DeviceStatsReport, ObsOptions, TimeSeries};
use crate::perf::{self, AllocStats, HostMeta, HostProfile, QueueStats, PERF_SCHEMA_VERSION};
use crate::stats::RunStats;

/// Everything an observed run produces.
#[derive(Debug)]
pub struct RunOutput {
    /// The run's statistics (identical to what [`run`] returns).
    pub stats: RunStats,
    /// The engine's self-measurement.
    pub profile: EngineProfile,
    /// The sampler's time series, if [`ObsOptions::timeseries`] was set.
    pub timeseries: Option<TimeSeries>,
    /// Per-device telemetry, if [`ObsOptions::device_stats`] was set.
    pub devices: Option<DeviceStatsReport>,
    /// The host-performance profile, if [`ObsOptions::perf`] was set.
    pub perf: Option<HostProfile>,
}

/// Runs one configuration to completion and returns its statistics.
///
/// # Panics
///
/// Panics if the configuration is invalid (see [`SimConfig::validate`]).
///
/// # Examples
///
/// ```
/// use netrs_sim::{run, SimConfig};
///
/// let mut cfg = SimConfig::small();
/// cfg.requests = 500;
/// let stats = run(cfg);
/// assert_eq!(stats.completed, 500);
/// ```
#[must_use]
pub fn run(cfg: SimConfig) -> RunStats {
    run_observed(cfg, ObsOptions::default()).stats
}

/// Runs one configuration with observability attached: an optional JSONL
/// request tracer, the virtual-time sampler, and a stderr progress
/// heartbeat. With default options this is exactly [`run`].
///
/// # Panics
///
/// Panics if the configuration is invalid (see [`SimConfig::validate`]).
#[must_use]
pub fn run_observed(cfg: SimConfig, obs: ObsOptions) -> RunOutput {
    // Dispatch once on the probe type so the default path keeps the
    // monomorphized no-op probe (acceptance: disabled telemetry is
    // byte-for-byte the uninstrumented simulation).
    if obs.device_stats {
        run_observed_with(cfg, obs, DeviceStatsRegistry::default())
    } else {
        run_observed_with(cfg, obs, NoDeviceProbe)
    }
}

fn run_observed_with<D: DeviceProbe>(cfg: SimConfig, mut obs: ObsOptions, devices: D) -> RunOutput {
    // Second dispatch: the perf probe is monomorphized in exactly like
    // the device probe, so a non-profiled run keeps NoProbe and its
    // compiled-away hooks.
    match obs.perf.take() {
        Some(popt) => {
            let scheme = cfg.scheme;
            let seed = cfg.seed;
            let requests = cfg.requests;
            let alloc_before = alloc_mark();
            let probe = PerfProbe::new(perf::kind_names(), popt.stride);
            let (mut out, probe) = run_engine(cfg, obs, devices, probe);
            out.perf = Some(host_profile(
                scheme,
                seed,
                requests,
                &out.profile,
                &probe.report(),
                alloc_since(alloc_before),
            ));
            out
        }
        None => run_engine(cfg, obs, devices, NoProbe).0,
    }
}

fn run_engine<D: DeviceProbe, P: Probe>(
    cfg: SimConfig,
    obs: ObsOptions,
    devices: D,
    probe: P,
) -> (RunOutput, P) {
    let total_requests = cfg.requests;
    let mut cluster = Cluster::with_device_probe(cfg, devices);
    if let Some(w) = obs.trace {
        cluster.set_tracer(w);
    }
    if let Some(spec) = obs.timeseries {
        cluster.enable_sampler(spec);
    }
    if obs.trace_hops {
        cluster.enable_hop_tracing();
    }
    if let Some(w) = obs.control {
        cluster.set_control(w);
    }
    let mut engine = Engine::with_probe(cluster, probe);
    {
        // Split borrows: prime needs the world and the queue.
        let engine = &mut engine;
        let mut queue = std::mem::take(engine.queue_mut());
        engine.world_mut().prime(&mut queue);
        *engine.queue_mut() = queue;
    }
    if obs.progress {
        run_with_heartbeat(&mut engine, total_requests);
    } else {
        engine.run();
    }
    let profile = engine.profile();
    let now = engine.now();
    let events = engine.processed();
    let (mut cluster, probe) = engine.into_parts();
    debug_assert!(cluster.drained(), "simulation ended with work outstanding");
    cluster.flush_tracer();
    cluster.flush_control(now);
    let timeseries = cluster.take_timeseries();
    let devices = cluster.take_device_report(now);
    let stats = cluster.stats(now, events);
    (
        RunOutput {
            stats,
            profile,
            timeseries,
            devices,
            perf: None,
        },
        probe,
    )
}

/// Assembles the versioned run profile from the engine's
/// self-measurement and the perf probe's report.
fn host_profile(
    scheme: Scheme,
    seed: u64,
    requests: u64,
    profile: &EngineProfile,
    report: &PerfReport,
    alloc: Option<AllocStats>,
) -> HostProfile {
    HostProfile {
        label: scheme.label().into(),
        schema_version: PERF_SCHEMA_VERSION,
        scheme: scheme.label().into(),
        seed,
        requests,
        events: profile.events,
        wall_s: profile.wall_seconds,
        events_per_sec: profile.events_per_sec,
        peak_rss_kb: profile.peak_rss_kb,
        stride: u64::from(report.stride),
        attributed_ns: report.attributed_ns(),
        host: HostMeta::detect(),
        queue: QueueStats {
            pushes: profile.pushes,
            pops: profile.pops,
            high_water: profile.queue_high_water as u64,
            depth_hist: HostProfile::trim_depth_hist(&report.depth_hist),
        },
        alloc,
        kinds: HostProfile::kinds_from_report(report),
    }
}

#[cfg(feature = "alloc-profile")]
fn alloc_mark() -> netrs_allocprobe::AllocSnapshot {
    netrs_allocprobe::snapshot()
}

/// Allocation activity since `mark`, or `None` when the counting
/// allocator was never registered (all counters zero — a real process
/// always allocates at startup).
#[cfg(feature = "alloc-profile")]
fn alloc_since(mark: netrs_allocprobe::AllocSnapshot) -> Option<AllocStats> {
    let now = netrs_allocprobe::snapshot();
    if now.is_empty() {
        return None;
    }
    let delta = now.delta(&mark);
    Some(AllocStats {
        allocs: delta.allocs,
        deallocs: delta.deallocs,
        peak_bytes: delta.peak_bytes,
    })
}

#[cfg(not(feature = "alloc-profile"))]
struct AllocMark;

#[cfg(not(feature = "alloc-profile"))]
fn alloc_mark() -> AllocMark {
    AllocMark
}

#[cfg(not(feature = "alloc-profile"))]
fn alloc_since(_mark: AllocMark) -> Option<AllocStats> {
    None
}

/// Drains the engine while printing a once-per-second progress line to
/// stderr (issued/completed counts, sim time, wall-clock event rate,
/// queue churn and peak RSS).
fn run_with_heartbeat<D: DeviceProbe, P: Probe>(
    engine: &mut Engine<Cluster<D>, P>,
    total_requests: u64,
) {
    const CHUNK: u32 = 16_384;
    let start = Instant::now();
    let mut last_beat = Instant::now();
    loop {
        let mut exhausted = false;
        for _ in 0..CHUNK {
            if engine.step().is_none() {
                exhausted = true;
                break;
            }
        }
        if last_beat.elapsed() >= Duration::from_secs(1) {
            last_beat = Instant::now();
            let w = engine.world();
            let q = engine.queue();
            let rate = engine.processed() as f64 / start.elapsed().as_secs_f64().max(1e-9);
            eprintln!(
                "[simulate] issued {}/{} · completed {} · sim {} · {} events ({:.0}/s) · \
                 queue {} ({} pushes / {} pops) · peak RSS {} kB",
                w.issued(),
                total_requests,
                w.completed(),
                engine.now(),
                engine.processed(),
                rate,
                q.len(),
                q.pushes(),
                q.pops(),
                netrs_simcore::peak_rss_kb(),
            );
        }
        if exhausted {
            break;
        }
    }
}

/// Runs the same configuration under `seeds.len()` different seeds (the
/// paper repeats every experiment 3 times with different random
/// deployments), fanned across cores by the sweep executor
/// ([`crate::sweep::run_grid`]). Results come back in `seeds` order.
#[must_use]
pub fn run_seeds(cfg: &SimConfig, seeds: &[u64]) -> Vec<RunStats> {
    let jobs: Vec<crate::sweep::SweepJob> = seeds
        .iter()
        .map(|&seed| crate::sweep::SweepJob {
            label: cfg.scheme.label().into(),
            cfg: cfg.clone(),
            seed,
        })
        .collect();
    crate::sweep::run_grid(&jobs, 0)
        .into_iter()
        .map(|cell| cell.stats)
        .collect()
}

/// Runs every scheme of the paper's comparison under the same base
/// configuration and seeds. Returns `(scheme, per-seed stats)` in the
/// paper's ordering.
#[must_use]
pub fn run_all_schemes(base: &SimConfig, seeds: &[u64]) -> Vec<(Scheme, Vec<RunStats>)> {
    Scheme::ALL
        .iter()
        .map(|&scheme| {
            let mut cfg = base.clone();
            cfg.scheme = scheme;
            (scheme, run_seeds(&cfg, seeds))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(scheme: Scheme) -> SimConfig {
        let mut cfg = SimConfig::small();
        cfg.requests = 2_000;
        cfg.scheme = scheme;
        cfg.seed = 7;
        cfg
    }

    #[test]
    fn clirs_run_completes_all_requests() {
        let stats = run(tiny(Scheme::CliRs));
        assert_eq!(stats.issued, 2_000);
        assert_eq!(stats.completed, 2_000);
        assert!(stats.latency.count > 0);
        assert!(stats.latency.mean > netrs_simcore::SimDuration::ZERO);
        assert_eq!(stats.rsnode_count, 0);
        assert_eq!(stats.duplicates, 0);
    }

    #[test]
    fn netrs_tor_run_completes_with_rsnodes() {
        let stats = run(tiny(Scheme::NetRsToR));
        assert_eq!(stats.completed, 2_000);
        assert!(stats.rsnode_count > 0);
        assert_eq!(
            stats.rsnode_census[2], stats.rsnode_count,
            "NetRS-ToR places every RSNode on a ToR: {:?}",
            stats.rsnode_census
        );
        assert!(stats.mean_accel_utilization > 0.0);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = run(tiny(Scheme::NetRsIlp));
        let b = run(tiny(Scheme::NetRsIlp));
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.events, b.events);
        let mut other = tiny(Scheme::NetRsIlp);
        other.seed = 8;
        let c = run(other);
        assert_ne!(a.latency, c.latency, "different seeds should differ");
    }

    #[test]
    fn run_seeds_parallel_matches_sequential_runs() {
        // Thread scheduling must not leak into results: each seed's run
        // is self-contained, so the parallel fan-out serializes to the
        // same bytes as running the seeds one after another.
        let cfg = tiny(Scheme::NetRsToR);
        let seeds = [11u64, 12, 13];
        let parallel = run_seeds(&cfg, &seeds);
        for (&seed, p) in seeds.iter().zip(&parallel) {
            let mut one = cfg.clone();
            one.seed = seed;
            let s = run(one);
            assert_eq!(
                serde_json::to_string_pretty(p).expect("stats serialize"),
                serde_json::to_string_pretty(&s).expect("stats serialize"),
                "seed {seed}: parallel and sequential runs diverged"
            );
        }
    }

    #[test]
    fn perf_profile_counts_sum_to_total_events() {
        let obs = ObsOptions {
            perf: Some(crate::obs::PerfOptions::default()),
            ..ObsOptions::default()
        };
        let out = run_observed(tiny(Scheme::NetRsToR), obs);
        let perf = out.perf.expect("perf requested");
        assert_eq!(perf.events, out.stats.events);
        assert_eq!(perf.kind_count_sum(), out.stats.events);
        assert_eq!(perf.queue.pops, out.stats.events);
        assert!(perf.queue.pushes >= perf.queue.pops);
        assert_eq!(perf.schema_version, PERF_SCHEMA_VERSION);
        // The profiler observes; it must not perturb the simulation.
        let plain = run(tiny(Scheme::NetRsToR));
        assert_eq!(out.stats.latency, plain.latency);
        assert_eq!(out.stats.events, plain.events);
    }

    #[test]
    fn run_seeds_spawns_one_run_per_seed() {
        let runs = run_seeds(&tiny(Scheme::CliRs), &[1, 2, 3]);
        assert_eq!(runs.len(), 3);
        assert!(runs.iter().all(|r| r.completed == 2_000));
        let means: std::collections::HashSet<u64> =
            runs.iter().map(|r| r.latency.mean.as_nanos()).collect();
        assert!(means.len() > 1, "seeds should differ");
    }
}
