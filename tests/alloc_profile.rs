//! Allocation-tracking integration test (requires the `alloc-profile`
//! feature). Lives in its own test binary because registering a global
//! allocator is process-wide.

use std::sync::Mutex;

use netrs_allocprobe::CountingAllocator;
use netrs_sim::{run_observed, ObsOptions, PerfOptions, Scheme, SimConfig};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The counters are process-wide and the peak never resets, so tests in
/// this binary run one at a time: a sibling's allocations would land in
/// another test's measurement.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    // A sibling that panicked leaves no state behind the lock.
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn perf_profile_reports_allocation_counters_when_allocator_registered() {
    let _serial = serial();
    let mut cfg = SimConfig::small();
    cfg.requests = 2_000;
    cfg.scheme = Scheme::NetRsIlp;
    cfg.seed = 7;
    let obs = ObsOptions {
        perf: Some(PerfOptions::default()),
        ..ObsOptions::default()
    };
    let out = run_observed(cfg, obs);
    let perf = out.perf.expect("perf profile requested");
    let alloc = perf
        .alloc
        .expect("counting allocator is registered, so alloc stats must be present");
    // Building the cluster allocates (topology, dense tables, policy).
    assert!(alloc.allocs > 0, "{alloc:?}");
    assert!(alloc.deallocs > 0, "{alloc:?}");
    assert!(alloc.peak_bytes > 0, "{alloc:?}");
    // The serialized profile carries the alloc block.
    let json = serde_json::to_string(&perf).unwrap();
    assert!(json.contains("\"alloc\""), "{json}");
    assert!(json.contains("\"peak_bytes\""), "{json}");
}

#[test]
fn hot_loop_allocation_rate_is_bounded() {
    let _serial = serial();
    // The hot-path overhaul proved the steady-state loop allocation-free
    // per event; the counting allocator must agree at whole-run scale —
    // allocations amortize to (well under) one per event.
    let mut cfg = SimConfig::small();
    cfg.requests = 5_000;
    cfg.scheme = Scheme::CliRs;
    cfg.seed = 1;
    let obs = ObsOptions {
        perf: Some(PerfOptions::default()),
        ..ObsOptions::default()
    };
    let out = run_observed(cfg, obs);
    let perf = out.perf.unwrap();
    let alloc = perf.alloc.unwrap();
    assert!(
        alloc.allocs < perf.events,
        "allocs {} should amortize below one per event ({})",
        alloc.allocs,
        perf.events
    );
}

#[test]
fn per_client_memory_stays_small() {
    // Only CliRS-R95 keeps a full latency histogram (~59 KB) per client,
    // and a client's C3 selector holds estimates only for the servers it
    // touched. So on the paper topology, adding 500 CliRS clients at a
    // fixed request count must cost a few KB each, not tens of KB.
    let _serial = serial();
    let peak = |clients: u32| {
        let mut cfg = SimConfig::paper();
        cfg.servers = 24; // room for 1 000 clients among 1 024 hosts
        cfg.clients = clients;
        cfg.requests = 5_000;
        cfg.scheme = Scheme::CliRs;
        cfg.seed = 3;
        let obs = ObsOptions {
            perf: Some(PerfOptions::default()),
            ..ObsOptions::default()
        };
        let perf = run_observed(cfg, obs).perf.expect("perf profile requested");
        perf.alloc
            .expect("counting allocator is registered")
            .peak_bytes
    };
    // The peak never resets: the smaller run must raise it, or the
    // difference below would compare against an earlier test's peak.
    let before = netrs_allocprobe::snapshot().peak_bytes;
    let small = peak(500);
    assert!(small > before, "500-client run left the peak at {before} B");
    let large = peak(1_000);
    let per_client = large.saturating_sub(small) / 500;
    assert!(
        per_client < 8 * 1024,
        "peak heap grew {per_client} B per added client ({small} -> {large} B)"
    );
}
