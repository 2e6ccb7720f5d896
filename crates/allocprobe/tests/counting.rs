//! Integration test that actually registers the counting allocator.
//!
//! This lives in an integration test (its own process) so registering
//! the global allocator cannot leak into other tests. The counters are
//! process-wide, so each test runs its body in a child copy of this
//! binary that runs only that test: a sibling test thread, or the harness
//! finishing one, would otherwise allocate or free inside its measurement
//! windows.

use std::process::Command;

use netrs_allocprobe::{snapshot, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Set in the child process that runs a test body.
const CHILD_ENV: &str = "NETRS_ALLOCPROBE_COUNTING_CHILD";

/// Runs `body` here if this is the child, else re-runs this binary on
/// the test `name` alone and asserts that it ran and passed.
fn isolated(name: &str, body: fn()) {
    if std::env::var_os(CHILD_ENV).is_some() {
        body();
        return;
    }
    let out = Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", name, "--test-threads=1"])
        .env(CHILD_ENV, "1")
        .output()
        .expect("spawn the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "child run of {name} failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn counters_track_alloc_dealloc_and_peak() {
    isolated("counters_track_alloc_dealloc_and_peak", || {
        let before = snapshot();
        assert!(
            !before.is_empty(),
            "the test harness itself allocates before the test body runs"
        );

        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        let mid = snapshot();
        drop(v);
        let after = snapshot();

        let during = mid.delta(&before);
        assert!(during.allocs >= 1, "Vec::with_capacity must allocate");
        assert!(
            mid.live_bytes >= before.live_bytes + (1 << 20),
            "a live 1 MiB buffer must show in live_bytes"
        );
        assert!(
            mid.peak_bytes >= mid.live_bytes.min(before.live_bytes + (1 << 20)),
            "peak must be at least the observed live high"
        );

        let total = after.delta(&before);
        assert!(total.deallocs >= 1, "dropping the Vec must deallocate");
        assert!(
            after.live_bytes < mid.live_bytes,
            "live bytes must fall after the drop"
        );
        // Peak never decreases.
        assert!(after.peak_bytes >= mid.peak_bytes);
    });
}

#[test]
fn grow_via_realloc_keeps_byte_accounting_exact() {
    isolated("grow_via_realloc_keeps_byte_accounting_exact", || {
        let before = snapshot();
        let mut v: Vec<u8> = vec![0; 16];
        v.reserve_exact(1 << 16); // forces realloc on the existing block
        let mid = snapshot();
        assert!(mid.live_bytes >= before.live_bytes + (1 << 16));
        drop(v);
        let after = snapshot();
        assert!(after.live_bytes <= mid.live_bytes - (1 << 16) + 64);
    });
}
