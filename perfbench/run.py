"""The ewm benchmark: one command, four workloads, correctness-gated.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an ewm checkout.  Workloads: cli-data, solvable-sweep,
lie-exceptional, roots-cold (see perfbench/README.md for why each exists).

A run is a closed loop with one client: shards of the workload run one after
another, each in a fresh single-threaded interpreter (`worker.py`), until the
timed items add up to `--seconds` (at least three shards, and no shard starts
after WALL_CAP_S).  Every shard has the same composition, so the pooled item
times cover whole shards only.

--trace 0 prints the end-to-end metrics.  --trace 1 runs shard 0 twice, untraced
and traced with every public library function wrapped, and prints the
per-layer metrics, the tracing overhead and the reproduced ROADMAP probe.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 only when every gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli-data", "solvable-sweep", "lie-exceptional", "roots-cold")
MIN_SHARDS = 3
WALL_CAP_S = 120
WORKER_TIMEOUT_S = 150

# ROADMAP baseline (Python 3.11.7, re-anchor probe), shown beside this run's
# probe.  SNF counts must match exactly; times are for comparison only.
ROADMAP = {
    "sl6": (50.9, 343), "so7": (7.5, 62), "sl3_parabolic": (1.5, 8),
    "a4": (24.0, 198), "a8": (296.0, 714),
    "e6_build": (16.0, None), "e7_build": (57.0, None), "e8_build": (240.0, None),
}
ROADMAP_SL6_DISTINCT = 5


def _worker(job: dict) -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, env=env,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker for {job['workload']} shard "
                         f"{job['shard']} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def _repeat_share(types: list[str]) -> float:
    seen: set[str] = set()
    repeats = 0
    for t in types:
        repeats += t in seen
        seen.add(t)
    return repeats / len(types)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_timed(gen, workload: str, seed: int, seconds: int):
    state: dict = {}
    shards = []
    times: list[float] = []
    t_start = time.perf_counter()
    while len(shards) < MIN_SHARDS or (
            sum(times) < seconds * 1000
            and time.perf_counter() - t_start < WALL_CAP_S):
        job = gen.make_shard(workload, seed, len(shards), state)
        job.update(shard=len(shards), trace=False)
        shards.append(_worker(job))
        times += shards[-1]["times_ms"]
    failures = [f for s in shards for f in s["failures"]]
    attempted = len(times)
    metrics = {
        "item_ms_p50": _metric(statistics.median(times), "ms"),
        "item_ms_p90": _metric(_p90(times), "ms"),
        "items_per_s": _metric(attempted / (sum(times) / 1000), "1/s"),
        "setup_s": _metric(statistics.median(s["setup_s"] for s in shards), "s"),
        "peak_rss_mb": _metric(
            statistics.median(s["peak_rss_kb"] for s in shards) / 1024, "MB"),
        "ok_ratio": _metric((attempted - len(failures)) / attempted, "ratio"),
    }
    raw = [t for s in shards for t in s["raw_times_ms"]]
    kernel = [k for s in shards for k in s["kernel_ms"]]
    note = (f"{workload} seed {seed}: {attempted} items in {len(shards)} shards, "
            f"{len(failures)} failed; raw wall ms p50 {statistics.median(raw):.4g} "
            f"p90 {_p90(raw):.4g}; kernel ms median {statistics.median(kernel):.4g}")
    return metrics, attempted, failures, note


def run_traced(gen, workload: str, seed: int):
    job = gen.make_shard(workload, seed, 0, {})
    job.update(shard=0, probe=True, trace=False)
    plain = _worker(job)
    job.update(trace=True, spans_path=os.path.join(
        HERE, "out", f"spans-{workload}-seed{seed}.json"))
    traced = _worker(job)
    layers = dict(traced["layers"])
    layers.update(plain["probe"])
    layers.update(traced["probe"])
    p50_plain = statistics.median(plain["times_ms"])
    p50_traced = statistics.median(traced["times_ms"])
    layers["trace.item_ms_p50"] = p50_traced
    layers["trace.overhead_ms"] = p50_traced - p50_plain
    layers["trace.absent"] = len(traced["absent"])
    layers["input.type_repeat_share"] = _repeat_share(job["types"])
    failures = plain["failures"] + traced["failures"]
    attempted = len(plain["times_ms"]) + len(traced["times_ms"])

    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    metrics = {name: _metric(layers[name], unit) for name, unit in units.items()}
    _print_probe(layers)
    if traced["absent"]:
        print("absent wrapped names: " + ", ".join(traced["absent"]), file=sys.stderr)
    note = (f"{workload} seed {seed}: shard 0 traced, {len(traced['times_ms'])} items, "
            f"{layers['trace.spans']} spans, overhead {layers['trace.overhead_ms']:.3f} ms")
    return metrics, attempted, failures, note


def _print_probe(layers: dict) -> None:
    print("ROADMAP probe            this run ms   ROADMAP ms   SNF calls   ROADMAP",
          file=sys.stderr)
    for name, (ms, calls) in ROADMAP.items():
        got = layers.get(f"probe.{name}_snf_calls")
        line = f"  {name:<22} {layers[f'probe.{name}_ms']:>11.2f} {ms:>12.1f}"
        if calls is not None:
            line += f" {got:>11} {calls:>9}" + ("" if got == calls else "  MISMATCH")
        print(line, file=sys.stderr)
    print(f"  sl6 distinct SNF matrices: {layers['probe.sl6_snf_distinct']}"
          f" (ROADMAP {ROADMAP_SL6_DISTINCT})", file=sys.stderr)


def probe_failures(layers: dict) -> list[str]:
    out = [f"probe {name}: {layers[f'probe.{name}_snf_calls']} SNF calls, "
           f"ROADMAP {calls}"
           for name, (_, calls) in ROADMAP.items()
           if calls is not None and layers[f"probe.{name}_snf_calls"] != calls]
    if layers["probe.sl6_snf_distinct"] != ROADMAP_SL6_DISTINCT:
        out.append("probe sl6: distinct SNF matrices differ from the ROADMAP")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (os.path.isfile(os.path.join("src", "ewm", "cli.py"))
            and os.path.isdir(os.path.join("data", "golden"))):
        print("perfbench: run from the root of an ewm checkout "
              "(src/ewm and data/golden not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import gen

    if args.trace:
        metrics, attempted, failures, note = run_traced(gen, args.workload, args.seed)
        failures += probe_failures({k: v["value"] for k, v in metrics.items()})
    else:
        metrics, attempted, failures, note = run_timed(
            gen, args.workload, args.seed, args.seconds)
    print(note, file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    for f in failures[:20]:
        print("FAIL " + f, file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
