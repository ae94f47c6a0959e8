"""Summarize saved benchmark outputs, or compare two sets of them.

    python3 perfbench/compare.py runs/*.out
    python3 perfbench/compare.py new/*.out --against base/*.out

Each file holds the standard output of one ``run.py`` invocation. For every
workload and metric this prints the median, the quartiles and the spread
(interquartile distance over the median) against the metric's bound in
BENCHMARK.json; with ``--against`` it also flags each median that is worse
than the base median by more than the bound. It refuses to mix results whose
mpmath backend or CPU count differ, checks that runs of the same seed and
sources produced identical result digests, and, given traced and untraced
runs of a workload, reports the tracing overhead on cells per minute.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    env = facts = result = None
    with open(path) as fh:
        for line in fh:
            if line.startswith("# env "):
                env = json.loads(line[6:])
            elif line.startswith("# facts "):
                facts = json.loads(line[8:])
            elif line.startswith("{"):
                result = json.loads(line)
    if env is None or result is None:
        raise SystemExit(f"{path}: not the output of a finished run")
    return {"path": path, "env": env, "facts": facts, "result": result}


def check_comparable(runs: list[dict]) -> None:
    for key in ("backend", "nproc"):
        seen = {r["env"][key] for r in runs}
        if len(seen) > 1:
            raise SystemExit(f"refusing to compare: results differ in {key}: {sorted(map(str, seen))}")


def check_digests(runs: list[dict]) -> list[str]:
    """Runs of one seed and sources must agree on every cell both ran (a
    time-bounded run may stop after more or fewer cells)."""
    seen: dict[tuple, dict] = {}
    problems = []
    for r in runs:
        e = r["env"]
        first = seen.setdefault((e["workload"], e["seed"], e["src_sha256"]), r)
        ours, theirs = r["facts"]["digests"], first["facts"]["digests"]
        if any(ours[cell] != theirs[cell] for cell in ours.keys() & theirs.keys()):
            problems.append(f"{r['path']} and {first['path']}: same seed and sources, "
                            "different results")
    return problems


def stats(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def by_workload(runs: list[dict], traced: int) -> dict[str, dict[str, list[float]]]:
    out: dict[str, dict[str, list[float]]] = {}
    for r in runs:
        if r["env"]["trace"] != traced:
            continue
        table = out.setdefault(r["env"]["workload"], {})
        for name, m in r["result"]["metrics"].items():
            table.setdefault(name, []).append(m["value"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("outputs", nargs="+")
    ap.add_argument("--against", nargs="+", default=[])
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    new = [load(p) for p in args.outputs]
    base = [load(p) for p in args.against]
    check_comparable(new + base)
    problems = check_digests(new + base)
    bad_runs = [r["path"] for r in new + base if not r["result"]["correct"]]
    if bad_runs:
        problems.append(f"runs with incorrect output: {bad_runs}")

    new_e2e, base_e2e = by_workload(new, 0), by_workload(base, 0)
    for workload, table in new_e2e.items():
        print(f"== {workload} ({len(next(iter(table.values())))} runs)")
        for name, values in table.items():
            med, q1, q3, spread = stats(values)
            spec_m = bounds.get(name)
            line = f"  {name:<16} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.3f}"
            if spec_m:
                line += f" / bound {spec_m['bound']}"
                if spread > spec_m["bound"]:
                    problems.append(f"{workload} {name}: spread {spread:.3f} > bound {spec_m['bound']}")
            old = base_e2e.get(workload, {}).get(name)
            if old and spec_m:
                old_med = statistics.median(old)
                change = (med - old_med) / old_med
                worse = change > spec_m["bound"] if spec_m["better"] == "lower" \
                    else -change > spec_m["bound"]
                line += f"  vs base {old_med:.6g} ({change:+.1%}){'  WORSE' if worse else ''}"
                if worse:
                    problems.append(f"{workload} {name}: {change:+.1%} against base")
            print(line)
    for workload, table in by_workload(new, 1).items():
        traced = table.get("trace.cells_per_min")
        untraced = new_e2e.get(workload, {}).get("cells_per_min")
        if traced and untraced and workload != "sweep-jobs":
            t, u = statistics.median(traced), statistics.median(untraced)
            print(f"== {workload}: traced {t:.4g} vs untraced {u:.4g} cells/min, "
                  f"tracing overhead {u / t - 1:+.1%}")
    for p in problems:
        print(f"PROBLEM: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
