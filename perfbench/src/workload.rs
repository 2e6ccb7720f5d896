//! The four workloads, and one run of a workload through the
//! simulator's public sequential API: `Cluster::new` (or
//! `Cluster::with_device_probe` when the device stream is on), `prime`,
//! the event loop (`Engine::step` until the queue drains, timed in
//! chunks), then `Cluster::stats` and the JSON report.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use netrs::Rsp;
use netrs_sim::{
    CacheAdmission, CacheWritePolicy, Cluster, HotCacheConfig, RunStats, SamplerSpec, Scheme,
    SimConfig, WriteConsistency,
};
use netrs_simcore::{DeviceProbe, DeviceStatsRegistry, Engine, EngineProfile, Probe};

use crate::spans::Spans;

/// A benchmark workload. Arrivals are open-loop Poisson in every one;
/// README.md says why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §V-A setting under NetRS-ILP (exact placement solve).
    PaperIlp,
    /// k=32 under NetRS-ILP (greedy placement: the model is too large
    /// for the exact solver).
    ScaleIlp,
    /// The paper topology under NetRS-ToR with writes and hot-key caches.
    RwCache,
    /// The `ScaleIlp` cluster and keys under CliRS at 60 % load, with
    /// every stream on.
    ScaleClirsSinks,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperIlp,
        Workload::ScaleIlp,
        Workload::RwCache,
        Workload::ScaleClirsSinks,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperIlp => "paper-ilp",
            Workload::ScaleIlp => "scale-ilp",
            Workload::RwCache => "rw-cache",
            Workload::ScaleClirsSinks => "scale-clirs-sinks",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated requests in a full-length run.
    pub fn requests(self) -> u64 {
        match self {
            Workload::PaperIlp => 1_000_000,
            Workload::ScaleIlp => 600_000,
            Workload::RwCache => 300_000,
            Workload::ScaleClirsSinks => 100_000,
        }
    }

    /// Whether every observability stream is on.
    pub fn sinks(self) -> bool {
        self == Workload::ScaleClirsSinks
    }

    /// The streams an untraced run of the workload writes.
    pub fn streams(self) -> Streams {
        if self.sinks() {
            Streams::all()
        } else {
            Streams::default()
        }
    }

    /// The simulator configuration for `seed`, before `finalize` (which
    /// `Cluster::new` applies, deriving the hop budget from this
    /// configuration's arrival rate).
    pub fn config(self, seed: u64, requests: u64) -> SimConfig {
        let mut cfg = SimConfig::paper();
        match self {
            Workload::PaperIlp => cfg.scheme = Scheme::NetRsIlp,
            Workload::ScaleIlp | Workload::ScaleClirsSinks => {
                cfg.arity = 32;
                cfg.servers = 1_000;
                cfg.clients = 5_000;
                // At the paper's Zipf 0.99 the hot replicas' backlog grows
                // with run length at this scale (README.md, "Steadiness").
                cfg.zipf = 0.8;
                if self == Workload::ScaleIlp {
                    cfg.scheme = Scheme::NetRsIlp;
                } else {
                    cfg.scheme = Scheme::CliRs;
                    // At 90 % load the CliRS read p99 still grows with run
                    // length at this size (README.md, "Steadiness").
                    cfg.utilization = 0.6;
                }
            }
            Workload::RwCache => {
                cfg.scheme = Scheme::NetRsToR;
                cfg.utilization = 0.6;
                // At Zipf 0.99 the read p99 depends on where the seed puts
                // the hottest replica group (37–66 ms over seeds 1–4).
                cfg.zipf = 0.9;
                cfg.write_fraction = 0.2;
                cfg.write_consistency = WriteConsistency::Quorum { w: 2 };
                cfg.hot_cache = Some(HotCacheConfig {
                    capacity: 1024,
                    admission: CacheAdmission::Lru,
                    write_policy: CacheWritePolicy::Invalidate,
                });
            }
        }
        cfg.requests = requests;
        cfg.seed = seed;
        cfg
    }
}

/// A stream sink that counts the bytes written to it and keeps the first
/// `keep` of them (none by default), so disk speed stays out of the
/// figures.
#[derive(Clone, Default)]
pub struct Tap {
    bytes: Arc<AtomicU64>,
    head: Arc<Mutex<Vec<u8>>>,
    keep: usize,
}

impl Tap {
    /// A sink that counts and keeps the first `keep` bytes.
    pub fn keeping(keep: usize) -> Tap {
        Tap {
            keep,
            ..Tap::default()
        }
    }

    /// Bytes written so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// The kept bytes as text.
    pub fn head(&self) -> String {
        let head = self.head.lock().expect("no writer panicked");
        String::from_utf8_lossy(&head).into_owned()
    }
}

impl Write for Tap {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        if self.keep > 0 {
            let mut head = self.head.lock().expect("no writer panicked");
            let room = self.keep.saturating_sub(head.len());
            head.extend_from_slice(&buf[..room.min(buf.len())]);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Which streams a run writes.
#[derive(Default)]
pub struct Streams {
    /// Request trace with hop spans, device records and time series.
    pub data: Option<DataStreams>,
    /// The control stream.
    pub control: Option<Tap>,
}

/// The request-trace, device and time-series sinks.
#[derive(Default)]
pub struct DataStreams {
    /// Request trace (with hop spans).
    pub trace: Tap,
    /// Per-device records.
    pub devices: Tap,
    /// Sampler time series.
    pub timeseries: Tap,
}

impl Streams {
    /// Every stream on, each into a counting sink. The control sink keeps
    /// its head, where the bootstrap plan record sits.
    pub fn all() -> Streams {
        Streams {
            data: Some(DataStreams::default()),
            control: Some(Tap::keeping(CONTROL_HEAD)),
        }
    }

    /// Only the control stream.
    pub fn control_only() -> Streams {
        Streams {
            data: None,
            control: Some(Tap::keeping(CONTROL_HEAD)),
        }
    }

    /// Bytes per stream: trace, devices, control, timeseries.
    pub fn bytes(&self) -> [u64; 4] {
        let data = |f: fn(&DataStreams) -> &Tap| self.data.as_ref().map_or(0, |d| f(d).bytes());
        [
            data(|d| &d.trace),
            data(|d| &d.devices),
            self.control.as_ref().map_or(0, Tap::bytes),
            data(|d| &d.timeseries),
        ]
    }
}

/// Control-stream bytes kept for the set-up check: enough for the
/// bootstrap plan record of a 512-rack topology.
const CONTROL_HEAD: usize = 1 << 16;

/// Events per timed chunk of the event loop. A median over many short
/// chunks rides out host slowdowns that a whole-loop rate takes in full.
const CHUNK_EVENTS: u64 = 1 << 14;

/// CPU seconds used so far by every thread of this process
/// (`CLOCK_PROCESS_CPUTIME_ID`). Unlike wall time it leaves out the time
/// the process waits for a CPU while other processes run.
pub fn cpu_s() -> f64 {
    // `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec`; the C library that std
    // links provides `clock_gettime`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// What one run of a workload produced.
pub struct Outcome<P> {
    /// The run's statistics.
    pub stats: RunStats,
    /// `stats` as the pretty JSON report.
    pub report: String,
    /// The engine's counters.
    pub profile: EngineProfile,
    /// The plan the cluster installed, if its scheme has one.
    pub plan: Option<Rsp>,
    /// The engine's probe, handed back.
    pub probe: P,
    /// Host seconds from workload start until the queue was primed.
    pub setup_s: f64,
    /// CPU seconds the process spent on the same set-up.
    pub setup_cpu_s: f64,
    /// Host seconds in the event loop.
    pub loop_s: f64,
    /// Events per CPU second in each chunk of `CHUNK_EVENTS` events of
    /// the loop (the whole loop's rate when it is shorter than a chunk).
    pub chunk_rates: Vec<f64>,
    /// Host seconds from workload start until report and streams were
    /// written.
    pub wall_s: f64,
}

/// Runs `cfg` to completion. `t0` is the workload's start; `streams`
/// says which sinks to attach.
pub fn run<P: Probe>(
    t0: Instant,
    cfg: SimConfig,
    streams: &Streams,
    probe: P,
    spans: &mut Spans,
) -> Outcome<P> {
    let cpu0 = cpu_s();
    if streams.data.is_some() {
        let cluster = spans.time("sim.Cluster::with_device_probe", |_| {
            Cluster::with_device_probe(cfg, DeviceStatsRegistry::default())
        });
        let engine = primed(cluster, streams, probe, spans);
        drive(t0, cpu0, engine, streams, spans)
    } else {
        let cluster = spans.time("sim.Cluster::new", |_| Cluster::new(cfg));
        let engine = primed(cluster, streams, probe, spans);
        drive(t0, cpu0, engine, streams, spans)
    }
}

/// Attaches the streams and primes the event queue.
fn primed<D: DeviceProbe, P: Probe>(
    mut cluster: Cluster<D>,
    streams: &Streams,
    probe: P,
    spans: &mut Spans,
) -> Engine<Cluster<D>, P> {
    if let Some(data) = &streams.data {
        cluster.set_tracer(Box::new(data.trace.clone()));
        cluster.enable_hop_tracing();
        cluster.enable_sampler(SamplerSpec::default());
    }
    if let Some(control) = &streams.control {
        cluster.set_control(Box::new(control.clone()));
    }
    let mut engine = Engine::with_probe(cluster, probe);
    spans.time("sim.Cluster::prime", |_| {
        let mut queue = std::mem::take(engine.queue_mut());
        engine.world_mut().prime(&mut queue);
        *engine.queue_mut() = queue;
    });
    engine
}

/// Runs the primed engine to completion. `t0` and `cpu0` are the wall
/// clock and the process CPU time at the workload's start.
fn drive<D: DeviceProbe, P: Probe>(
    t0: Instant,
    cpu0: f64,
    mut engine: Engine<Cluster<D>, P>,
    streams: &Streams,
    spans: &mut Spans,
) -> Outcome<P> {
    let setup_s = t0.elapsed().as_secs_f64();
    let loop_cpu0 = cpu_s();
    let setup_cpu_s = loop_cpu0 - cpu0;
    let t1 = Instant::now();
    let mut chunk_rates = Vec::new();
    spans.time("simcore.Engine::step", |_| {
        let mut start = loop_cpu0;
        loop {
            let mut done = 0;
            while done < CHUNK_EVENTS && engine.step().is_some() {
                done += 1;
            }
            if done < CHUNK_EVENTS {
                break;
            }
            let end = cpu_s();
            chunk_rates.push(done as f64 / (end - start));
            start = end;
        }
    });
    let loop_s = t1.elapsed().as_secs_f64();
    if chunk_rates.is_empty() {
        chunk_rates.push(engine.processed() as f64 / (cpu_s() - loop_cpu0));
    }
    let profile = engine.profile();
    let now = engine.now();
    let events = engine.processed();
    let (mut cluster, probe) = engine.into_parts();
    let stats = spans.time("sim.Cluster::stats", |_| {
        cluster.flush_tracer();
        cluster.flush_control(now);
        cluster.stats(now, events)
    });
    let report = spans.time("sim.report", |_| {
        if let Some(data) = &streams.data {
            let mut ts = data.timeseries.clone();
            if let Some(series) = cluster.take_timeseries() {
                series.write_jsonl(&mut ts).expect("a tap never fails");
            }
            let mut dev = data.devices.clone();
            if let Some(report) = cluster.take_device_report(now) {
                report.write_jsonl(&mut dev).expect("a tap never fails");
            }
        }
        serde_json::to_string_pretty(&stats).expect("stats serialize")
    });
    let wall_s = t0.elapsed().as_secs_f64();
    Outcome {
        plan: cluster.current_plan().cloned(),
        stats,
        report,
        profile,
        probe,
        setup_s,
        setup_cpu_s,
        loop_s,
        chunk_rates,
        wall_s,
    }
}

/// The output checks every run must pass. Returns the broken ones.
pub fn check(stats: &RunStats) -> Vec<String> {
    let mut broken = Vec::new();
    let timeouts = stats.availability.as_ref().map_or(0, |a| a.timeouts);
    if stats.completed + timeouts != stats.issued {
        broken.push(format!(
            "completed {} + timeouts {timeouts} != issued {}",
            stats.completed, stats.issued
        ));
    }
    if let Some(rw) = &stats.rw {
        let reads = stats.issued - stats.writes_issued;
        if rw.writes_completed != stats.writes_issued {
            broken.push(format!(
                "rw.writes_completed {} != writes_issued {}",
                rw.writes_completed, stats.writes_issued
            ));
        }
        if rw.cache_hits + rw.cache_misses > reads {
            broken.push(format!(
                "cache_hits {} + cache_misses {} > reads {reads}",
                rw.cache_hits, rw.cache_misses
            ));
        }
        if rw.stale_reads > rw.cache_hits {
            broken.push(format!(
                "stale_reads {} > cache_hits {}",
                rw.stale_reads, rw.cache_hits
            ));
        }
    }
    // p99.9 is reported only with at least 10 samples beyond it.
    if stats.latency.count < 10_000 {
        broken.push(format!(
            "{} post-warmup reads leave fewer than 10 samples beyond p99.9",
            stats.latency.count
        ));
    }
    broken
}

/// FNV-1a 64 of the report: the run's stats digest.
pub fn digest(report: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in report.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_catch_broken_accounting() {
        let mut cfg = Workload::RwCache.config(1, 20_000);
        cfg.arity = 8;
        cfg.servers = 16;
        cfg.clients = 32;
        let out = run(
            Instant::now(),
            cfg,
            &Streams::default(),
            netrs_simcore::NoProbe,
            &mut Spans::off(),
        );
        assert!(check(&out.stats).is_empty(), "{:?}", check(&out.stats));
        let mut broken = out.stats.clone();
        broken.completed -= 1;
        assert_eq!(check(&broken).len(), 1);
        let mut rw = out.stats.rw.expect("rw block");
        rw.stale_reads = rw.cache_hits + 1;
        broken.rw = Some(rw);
        assert_eq!(check(&broken).len(), 2);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
