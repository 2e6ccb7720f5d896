#!/usr/bin/env python3
"""Benchmark of the NetRS simulator: one workload, one seed, one result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository. It builds the `perfbench`
package (this directory) against the repository's crates, then:

* `--trace 0` runs the workload untraced, each time in a fresh process,
  in whole rounds over the seed's simulator seeds until `--seconds` have
  passed, and reports every end-to-end metric as the median over
  simulator seeds of each seed's median;
* `--trace 1` makes one untraced and one traced run, and reports the
  per-layer metrics.

Every run's output is checked. The last line of standard output is one
JSON object: `correct`, `attempted` and `failed` (simulated requests)
and `metrics`. README.md describes the workloads and the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every `--seed` stands for this many simulator seeds. A run of the
# benchmark makes whole rounds of runs, one per simulator seed, so every
# seed weighs the same in its figures however many rounds fit.
SUBSEEDS = 3
# A run that takes longer than this has hung.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Builds the benchmark binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


class Crashed(Exception):
    """A run of the binary died; `requests` is what it was to issue."""

    def __init__(self, requests):
        super().__init__(requests)
        self.requests = requests


def invoke(binary, args):
    """Runs the binary once and returns its result line."""
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
        out = done.stdout
        code = done.returncode
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        code = "timeout"
    lines = out.strip().splitlines()
    if code == 0 and len(lines) >= 2:
        return json.loads(lines[-1])
    print(f"perfbench: {' '.join(args)} exited {code}", file=sys.stderr)
    requests = json.loads(lines[0])["requests"] if lines else 1
    raise Crashed(requests)


def sim_seed(seed, i):
    """The simulator seed of the `i`-th of `--seed`'s runs."""
    return (seed * SUBSEEDS + i % SUBSEEDS) % 2**64


def untraced(binary, args, seconds, extra):
    """`--trace 0`: rounds of fresh-process runs until the time is up."""
    runs, attempted, failed, broken = [], 0, 0, []
    start = time.monotonic()
    while len(runs) % SUBSEEDS or not runs or time.monotonic() - start < seconds:
        argv = ["run", "--workload", args.workload,
                "--seed", str(sim_seed(args.seed, len(runs)))] + extra
        try:
            r = invoke(binary, argv)
        except Crashed as e:
            # A crashed run counts every request it was to issue.
            attempted += e.requests
            failed += e.requests
            broken.append("a run crashed")
            break
        runs.append(r)
        attempted += r["issued"]
        failed += r["issued"] - r["completed"]
        broken += r["broken"]
    # Runs of one simulator seed must agree exactly.
    for i, r in enumerate(runs[SUBSEEDS:], SUBSEEDS):
        first = runs[i % SUBSEEDS]
        for k in ["digest"] + [k for k in r if k.startswith("sim_")]:
            if r[k] != first[k]:
                broken.append(f"seed {r['seed']}: {k} differs between runs")
    return runs, attempted, failed, broken


def seed_median(runs, name):
    """The median over simulator seeds of each seed's median of `name`."""
    per_seed = [statistics.median(r[name] for r in runs[i::SUBSEEDS])
                for i in range(min(SUBSEEDS, len(runs)))]
    return statistics.median(per_seed), per_seed


def main():
    bench = spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--requests", type=int,
                   help="override the simulated request count (the benchmark's tests "
                        "use short runs)")
    p.add_argument("--inject", choices=("invariant", "digest"),
                   help="break an output check on purpose (for the benchmark's tests)")
    args = p.parse_args()

    binary = build()
    length = ["--requests", str(args.requests)] if args.requests else []
    common = ["--workload", args.workload, "--seed", str(sim_seed(args.seed, 0))] + length
    inject = ["--inject", args.inject] if args.inject else []

    if args.trace == 0:
        runs, attempted, failed, broken = untraced(binary, args, args.seconds, length + inject)
        metrics = {}
        print(f"{args.workload} seed {args.seed}: {len(runs)} untraced runs; stats digest per "
              f"simulator seed: " + ", ".join(f"{r['seed']}: {r['digest']}"
                                              for r in runs[:SUBSEEDS]))
        print("  (median over simulator seeds of each seed's median; the per-seed values follow)")
        for m in bench["end_to_end"]:
            name = m["name"]
            if not runs or name not in runs[0]:
                broken.append(f"no {name}")
                continue
            med, per_seed = seed_median(runs, name)
            metrics[name] = {"value": med, "unit": m["unit"]}
            print(f"  {name:<18} {med:>16.6f} {m['unit']:<6} "
                  f"({' '.join(f'{v:.6f}' for v in per_seed)})")
        if runs:
            first = runs[:SUBSEEDS]
            print(f"  {'failed_frac':<18} {failed / max(attempted, 1):>16.6f} 1      "
                  f"({failed} of {attempted} simulated requests)")
            for name, unit, what in (
                    ("events_per_cpu_s", "1/s", "median over the loop's chunks"),
                    ("setup_wall_s", "s", "wall time of set-up"),
                    ("run_s", "s", "wall time, primed queue to report written"),
                    ("wall_s", "s", "wall time, workload start to report written")):
                med, per_seed = seed_median(runs, name)
                print(f"  {name:<18} {med:>16.6f} {unit:<6} ({what}; "
                      f"{' '.join(f'{v:.6f}' for v in per_seed)})")
            extra = [("sim_read_p999_ms", "read_samples", "post-warmup reads")]
            if first[0]["write_samples"]:
                extra += [(k, "write_samples", "post-warmup writes")
                          for k in ("sim_write_p50_ms", "sim_write_p99_ms")]
            for name, count, what in extra:
                med = statistics.median(r[name] for r in first)
                print(f"  {name:<18} {med:>16.6f} ms     (median over seeds; "
                      f"{min(r[count] for r in first)} {what} or more per seed)")
    else:
        metrics, attempted, failed, broken = {}, 0, 0, []

        def attempt(label, argv):
            nonlocal attempted, failed
            try:
                return invoke(binary, argv)
            except Crashed as e:
                attempted += e.requests
                failed += e.requests
                broken.append(f"{label} crashed")
                return None

        full = attempt("untraced run", ["run"] + common)
        traced = attempt("traced run", ["trace"] + common + inject + [
            "--spans", os.path.join(os.path.dirname(binary),
                                    f"spans-{args.workload}-{args.seed}.jsonl")])
        for label, r in (("untraced run", full), ("traced run", traced)):
            if not r:
                continue
            attempted += r["issued"]
            failed += r["issued"] - r["completed"]
            broken += [f"{label}: {b}" for b in r["broken"]]
        if full and traced:
            if traced["digest"] != full["digest"]:
                broken.append(f"traced stats digest {traced['digest']} != "
                              f"untraced {full['digest']}")
            layer = dict(traced["metrics"])
            layer["trace_overhead_s"] = traced["traced_wall_s"] - full["wall_s"]
            layer["obs.sinks_s"] = (full["wall_s"] - traced["nosinks_wall_s"]
                                    if traced["nosinks_wall_s"] > 0 else 0.0)
            layer["sim.read_samples"] = full["read_samples"]
            layer["sim.read_p999_ms"] = full["sim_read_p999_ms"]
            print(f"{args.workload} seed {args.seed}: traced run, stats digest {traced['digest']} "
                  f"(untraced {full['digest']})")
            print("  self time per span (s):")
            for name, t in sorted(traced["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
                print(f"    {name:<52} {t['self_s']:>10.6f} self {t['total_s']:>10.6f} total "
                      f"{t['calls']:>3} calls")
            for m in bench["per_layer"]:
                name = m["name"]
                if name not in layer:
                    broken.append(f"no {name}")
                    continue
                metrics[name] = {"value": layer[name], "unit": m["unit"]}
                print(f"  {name:<40} {layer[name]:>18.6f} {m['unit']}")

    if broken:
        # A failed check fails every request the command simulated.
        failed = attempted
    for b in broken:
        print(f"CHECK FAILED: {b}", file=sys.stderr)
    correct = not broken
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
