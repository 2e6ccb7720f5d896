//! `perfbench` — one run of a benchmark workload, printed as one JSON
//! line. `run.py` in this directory drives it; README.md describes the
//! workloads and metrics.
//!
//! ```text
//! perfbench run   --workload NAME --seed N [--requests N] [--inject invariant]
//! perfbench trace --workload NAME --seed N [--requests N] [--inject digest] [--spans FILE]
//! ```
//!
//! `run` measures the end-to-end metrics of one untraced run. `trace`
//! makes the traced run and measures the per-layer metrics. The first
//! line printed announces the simulated request count. `--inject`
//! breaks an output check on purpose, so the benchmark's own tests can
//! show that a broken check fails the command.

mod spans;
mod traced;
mod workload;

use std::time::Instant;

use netrs_simcore::NoProbe;
use serde::Value;

use crate::spans::Spans;
use crate::workload::Workload;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench run|trace --workload paper-ilp|scale-ilp|rw-cache|scale-clirs-sinks \
         --seed N [--requests N] [--inject invariant|digest] [--spans FILE]"
    );
    std::process::exit(2);
}

/// A JSON object from `(key, value)` pairs.
fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(v: f64) -> Value {
    assert!(v.is_finite(), "a measured value is not finite");
    Value::F(v)
}

fn int(v: u64) -> Value {
    Value::U(u128::from(v))
}

fn text(v: &str) -> Value {
    Value::Str(v.to_string())
}

fn texts(vs: &[String]) -> Value {
    Value::Arr(vs.iter().map(|v| text(v)).collect())
}

fn line(v: &Value) -> String {
    serde_json::to_string(v).expect("a JSON value serializes")
}

/// The median of a non-empty list.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ms(d: netrs_simcore::SimDuration) -> f64 {
    d.as_nanos() as f64 * 1e-6
}

/// `perfbench run`: one untraced run and its end-to-end metrics.
fn run(w: Workload, seed: u64, requests: u64, inject: Option<&str>) -> String {
    let t0 = Instant::now();
    let cfg = w.config(seed, requests);
    let mut out = workload::run(t0, cfg.clone(), &w.streams(), NoProbe, &mut Spans::off());
    let peak_rss_kb = netrs_simcore::peak_rss_kb();
    if inject == Some("invariant") {
        out.stats.completed -= 1;
    }
    let broken = workload::check(&out.stats);
    let lat = &out.stats.latency;
    let wl = &out.stats.write_latency;
    line(&obj([
        ("workload", text(w.name())),
        ("seed", int(seed)),
        ("digest", text(&workload::digest(&out.report))),
        ("broken", texts(&broken)),
        ("issued", int(out.stats.issued)),
        ("completed", int(out.stats.completed)),
        ("setup_s", num(out.setup_cpu_s)),
        ("setup_wall_s", num(out.setup_s)),
        ("loop_s", num(out.loop_s)),
        ("wall_s", num(out.wall_s)),
        ("run_s", num(out.wall_s - out.setup_s)),
        ("events", int(out.profile.events)),
        ("events_per_cpu_s", num(median(out.chunk_rates))),
        ("peak_rss_mb", num(peak_rss_kb as f64 / 1024.0)),
        ("read_samples", int(lat.count)),
        ("sim_read_p50_ms", num(ms(lat.p50))),
        ("sim_read_p99_ms", num(ms(lat.p99))),
        ("sim_read_p999_ms", num(ms(lat.p999))),
        ("write_samples", int(wl.count)),
        ("sim_write_p50_ms", num(ms(wl.p50))),
        ("sim_write_p99_ms", num(ms(wl.p99))),
    ]))
}

/// `perfbench trace`: the traced run and its per-layer metrics.
fn trace(
    w: Workload,
    seed: u64,
    requests: u64,
    inject: Option<&str>,
    spans_path: Option<&str>,
) -> String {
    // Injecting a digest mismatch runs the traced model on another seed.
    let model_seed = if inject == Some("digest") {
        seed + 1
    } else {
        seed
    };
    let t = traced::run(w, model_seed, requests);
    if let Some(path) = spans_path {
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(path).unwrap_or_else(|e| panic!("cannot create {path}: {e}")),
        );
        t.spans
            .write_jsonl(&mut f)
            .and_then(|()| std::io::Write::flush(&mut f))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    }
    let metrics = obj(t.metrics.iter().map(|(name, v)| (name.as_str(), num(*v))));
    let spans = obj(t.spans.totals().into_iter().map(|(name, totals)| {
        let totals = obj([
            ("calls", int(totals.calls)),
            ("total_s", num(totals.total_s)),
            ("self_s", num(totals.self_s)),
        ]);
        (name, totals)
    }));
    line(&obj([
        ("workload", text(w.name())),
        ("seed", int(seed)),
        ("digest", text(&t.digest)),
        ("broken", texts(&t.broken)),
        ("issued", int(t.outcome.stats.issued)),
        ("completed", int(t.outcome.stats.completed)),
        ("traced_wall_s", num(t.traced_wall_s)),
        ("nosinks_wall_s", num(t.nosinks_wall_s)),
        ("metrics", metrics),
        ("spans", spans),
    ]))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first().cloned() else {
        usage()
    };
    let (mut workload, mut seed, mut requests) = (None, None, None);
    let (mut inject, mut spans_path) = (None, None);
    let mut i = 1;
    while i < args.len() {
        let value = args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--workload" => workload = Some(Workload::parse(&value).unwrap_or_else(|| usage())),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage())),
            "--requests" => requests = Some(value.parse::<u64>().unwrap_or_else(|_| usage())),
            "--inject" => inject = Some(value),
            "--spans" => spans_path = Some(value),
            _ => usage(),
        }
        i += 2;
    }
    let (Some(w), Some(seed)) = (workload, seed) else {
        usage()
    };
    let requests = requests.unwrap_or_else(|| w.requests());
    // Announced first, so a run that dies still tells how many requests
    // it was to issue.
    println!("{}", line(&obj([("requests", int(requests))])));
    let result = match mode.as_str() {
        "run" => run(w, seed, requests, inject.as_deref()),
        "trace" => trace(w, seed, requests, inject.as_deref(), spans_path.as_deref()),
        _ => usage(),
    };
    println!("{result}");
}
