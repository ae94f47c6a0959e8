"""ztl benchmark: one workload per run, in fresh processes.

    python3 perfbench/run.py --workload cold-cell --seed 1 --seconds 15 --trace 0

Prints the environment and every metric by name with its unit, then, as
the last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Set-up is timed in this many fresh processes, half of them before the
# measured process and half after it. The machine's speed drifts by up to a
# quarter within seconds, so samples taken back to back share one drift
# state; taken about a run apart, their median straddles two.
SETUP_RUNS = 6


def load_spec() -> dict:
    """Workload and metric names and units, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def source_stamp() -> dict:
    """Git SHA when the tree is a checkout, and a digest of src/ always."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return {"git_sha": sha, "src_sha256": h.hexdigest()[:16]}


def run_child(args, setup_only: bool) -> tuple[dict, float]:
    """Run workload.py in a fresh process; returns its JSON result and the
    peak resident set (MB) of it and every process it waited for."""
    argv = [sys.executable, os.path.join(HERE, "workload.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--spawned-at", repr(time.monotonic())]
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]), usage.ru_maxrss / 1024


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten cells
    beyond it. Below 20 cells that percentile would not exceed the median,
    so it is the highest with one cell beyond it: a single stalled cell on a
    shared machine then moves the median of runs, not each run's tail."""
    s = sorted(values)
    n = len(s)
    beyond = 10 if n >= 20 else min(1, n - 1)
    return 100.0 * (n - beyond) / n, s[n - 1 - beyond]


def summarize(args, res: dict, rss_mb: float, setups: list[float]) -> tuple[dict, dict]:
    """(metrics, facts): metrics by name; facts for the report lines."""
    if args.workload == "sweep-jobs":
        # A pool cell's own seconds depend on whether its worker's memo is
        # warm, which the scheduling decides: their median flips between
        # runs of one seed. Per-cell latency here is the sweep's wall time
        # per row; the tail is taken over the seconds the pool reported.
        sweeps = res["sweeps"]
        cell_s = [s["wall_s"] / max(len(s["cell_s"]), 1) for s in sweeps]
        tail_s_values = [c for s in sweeps for c in s["cell_s"]] or cell_s
        oks = [ok for s in sweeps for ok in s["ok"]]
        digits = [d for s in sweeps for d in s["digits"]]
        n_timed = sum(len(s["cell_s"]) for s in sweeps)
        window = sum(s["wall_s"] for s in sweeps)
        problems = [f"sweep exit {s['rc']}: {s['stderr'][-300:]}" for s in sweeps if s["rc"]]
        digests = {f"{i} theta={s['theta']}": s["digest"] for i, s in enumerate(sweeps)}
        if "replay" in res:
            replay = res["replay"]
            oks.append(replay["ok"])
            if replay["digest"] != sweeps[0]["digest"]:
                problems.append("serial replay rows differ from the --jobs sweep rows")
    else:
        rows = res["rows"]
        timed = [r for r in rows if not r.get("warmup")]
        cell_s = tail_s_values = [r["seconds"] for r in timed]
        oks = [r["ok"] for r in rows]
        digits = [r["digits"] for r in timed if "digits" in r]
        n_timed = len(timed)
        window = res["window_s"]
        problems = [r["error"] for r in rows if "error" in r]
        digests = {f"{i} k={r['k']} m={r['m']} theta={r['theta']}":
                   hashlib.sha256(str(r.get("value")).encode()).hexdigest()[:12]
                   for i, r in enumerate(rows)}
    pct, tail_s = tail(tail_s_values)
    failed = oks.count(False)
    metrics = {
        "cells_per_min": 60.0 * n_timed / window,
        "cell_s_p50": statistics.median(cell_s),
        "cell_s_tail": tail_s,
        "min_digits": min(digits) if digits else 0.0,
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setups) + res["warmup_s"],
    }
    facts = {"cells": n_timed, "attempted": len(oks), "failed": failed,
             "fail_frac": failed / len(oks), "tail_percentile": pct,
             "setup_base_s": setups, "warmup_s": res["warmup_s"],
             "cell_s": [round(c, 3) for c in tail_s_values],
             "digests": digests, "problems": problems}
    return metrics, facts


def layer_report(args, res: dict, metrics: dict, facts: dict) -> dict:
    layers = dict(res["layers"])
    if args.workload == "sweep-jobs":
        sweeps = res["sweeps"]
        cell_s = [c for s in sweeps for c in s["cell_s"]]
        busy = sum(s["jobs"] * s["wall_s"] for s in sweeps)
        layers["cli.cell_s_sum"] = sum(cell_s)
        layers["cli.busy_frac"] = sum(cell_s) / busy if busy else 0.0
        layers["cli.cell_s_max"] = max(cell_s, default=0.0)
        cells = res["replay"]["cells"]
        layers["trace.cells_per_min"] = 60.0 * cells / res["replay"]["wall_s"]
    else:
        layers.update({"cli.cell_s_sum": 0.0, "cli.busy_frac": 0.0, "cli.cell_s_max": 0.0})
        layers["trace.cells_per_min"] = metrics["cells_per_min"]
    layers["fail_frac"] = facts["fail_frac"]
    return layers


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "ztl", "__init__.py")):
        print(f"error: no ztl sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    setups = [run_child(args, setup_only=True)[0]["setup_base_s"]
              for _ in range(SETUP_RUNS // 2 - 1)]
    res, rss_mb = run_child(args, setup_only=False)
    setups.append(res["setup_base_s"])
    setups += [run_child(args, setup_only=True)[0]["setup_base_s"]
               for _ in range(SETUP_RUNS - len(setups))]
    metrics, facts = summarize(args, res, rss_mb, setups)

    env = dict(res["env"], **source_stamp(), workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace,
               digits=30 if args.workload == "sweep-jobs" else 50)
    print("# env " + json.dumps(env, sort_keys=True))
    print("# facts " + json.dumps(facts, sort_keys=True))
    for problem in facts["problems"]:
        print(f"# problem: {problem}")
    if "spans_file" in res:
        print(f"# spans written to {res['spans_file']}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, unit in units.items():
        print(f"{name:<34} {metrics[name]:>14.6g} {unit}")
    print(f"{'fail_frac':<34} {facts['fail_frac']:>14.6g} ratio"
          f"   ({facts['failed']} of {facts['attempted']})")
    print(f"# cell_s_tail is p{facts['tail_percentile']:.1f} of {facts['cells']} timed cells")
    if args.trace:
        metrics = layer_report(args, res, metrics, facts)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, unit in units.items():
            print(f"{name:<34} {metrics[name]:>14.6g} {unit}")
    correct = facts["failed"] == 0 and not facts["problems"]
    print(json.dumps({
        "correct": correct, "attempted": facts["attempted"], "failed": facts["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
