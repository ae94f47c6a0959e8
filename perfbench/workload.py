"""Run one benchmark workload in this fresh process.

``run.py`` starts this file once per run (and five more times with
``--setup-only`` to time set-up again); it prints its raw results as one
JSON object on the last line of standard output. The inputs come from
``--seed`` alone. A traced run also writes its spans, one JSON object a
line, to ``perfbench/traces/<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import mpmath  # noqa: E402
from mpmath import mp  # noqa: E402

from ztl import cli, identities, special  # noqa: E402
from ztl.hp import with_precision  # noqa: E402

import spans  # noqa: E402

WORKLOADS = ("cold-cell", "theta-scan", "sweep-jobs")

# cold-cell: the acceptance grid's slowest (k, m) family, whose cold cells
# break criterion 1's 30 s per-case bound; theta from the grid. One family
# keeps a run's one cell comparable across seeds (the grid spans 20-35 s).
COLD_K, COLD_M = 3, -1
COLD_THETA = ("0", "0.3", "1.0")
# theta-scan: one (k, m) pair; after its warm-up cell every zeta and Gamma
# node is a memo hit. A second pair of another k would alternate cells of two
# costs and put the median on the boundary between them.
SCAN_K, SCAN_M = 2, 1
# Warm-up cells. A line scan evaluates nodes in chunks of 96 and stops where
# the integrand is negligible, which is not monotone in theta. These two
# reached every node of cells on a 0.05 grid of |theta| <= 1 and of 18 random
# theta at 50 digits; without the second, some cells add one cold chunk.
SCAN_WARMUP_THETAS = ("1.0", "0.05")
# sweep-jobs: every identity that `--identity all` accepts for m <= 1
SWEEP_IDENTITIES = "main,dixit,quasimodular,eta,lerch,ramanujan"
SWEEP_K = "1,2"
SWEEP_M = "1,-1"
SWEEP_DIGITS = 30
DIGITS = 50


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def memo_sizes() -> tuple[int, int, int]:
    return len(special._ZETA_MEMO), len(special._ZLINE_MEMO), len(special._GAMMA_MEMO)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def cold_cells(seed: int):
    rng = rng_for("cold-cell", seed)
    while True:
        yield COLD_K, COLD_M, rng.choice(COLD_THETA)


def scan_cells(seed: int):
    rng = rng_for("theta-scan", seed)
    while True:
        yield SCAN_K, SCAN_M, f"{rng.uniform(-1, 1):.6f}"


def sweep_thetas(seed: int):
    """One theta per sweep, |theta| in [0.4, 0.5] with either sign: the
    sweep's cost grows with |theta| (dixit most), so a narrow band keeps
    runs of different seeds comparable."""
    rng = rng_for("sweep-jobs", seed)
    while True:
        yield f"{rng.choice((-1, 1)) * rng.uniform(0.4, 0.5):.6f}"


def warm_tables(ctx) -> None:
    """Build the tables clear_caches() keeps (Bernoulli numbers and the
    Euler-Maclaurin and Stirling coefficients at this precision), then drop
    the memos the warm-up filled."""
    with ctx.scoped():
        for t in (0, 40, 120, 300):
            special.zeta(mpmath.mpc(2.5, t), ctx)
            special.zeta_vertical_run(2.5, t, 0.125, 1, ctx)
            special.gamma(mpmath.mpc(0.5, t), ctx)
    special.clear_caches()


def digits_reached(rel, ctx) -> float:
    with ctx.scoped():
        if rel == 0:
            return float(ctx.working_dps)
        return float(-mp.log10(rel))


def verify_cell(k, m, theta, ctx) -> dict:
    """One checked cell: ok only if it passed with rel_residual below the
    pass tolerance; a numerical failure is recorded, not raised."""
    row = {"identity": "main", "k": k, "m": m, "theta": theta}
    t0 = time.perf_counter()
    try:
        r = identities.verify("main", k=k, m=m, theta=theta, ctx=ctx)
    except ArithmeticError as exc:     # QuadratureError included
        row.update(seconds=time.perf_counter() - t0, ok=False,
                   error=f"{type(exc).__name__}: {exc}")
        return row
    row["seconds"] = time.perf_counter() - t0
    with ctx.scoped():
        row["ok"] = bool(r.passed and r.rel_residual < identities.pass_tolerance(ctx))
        row["digits"] = digits_reached(r.rel_residual, ctx)
        row["value"] = f"{mp.nstr(r.lhs, ctx.digits)} {mp.nstr(r.rhs, ctx.digits)}"
    return row


def run_cells(cells, seconds: float, ctx, *, cold: bool, tracer=None) -> tuple[list, float, int]:
    """Closed loop, one client: cells back to back until ``seconds`` have
    passed (at least one). Returns (rows, window seconds, peak memo size)."""
    rows = []
    memo_peak = 0
    t0 = time.perf_counter()
    while not rows or time.perf_counter() - t0 < seconds:
        k, m, theta = next(cells)
        if cold:
            special.clear_caches()
            if any(memo_sizes()):
                raise RuntimeError(f"memos not empty before a cold cell: {memo_sizes()}")
        if tracer is None:
            row = verify_cell(k, m, theta, ctx)
        else:
            with tracer.span("bench.cell", new_cell=True):
                row = verify_cell(k, m, theta, ctx)
        rows.append(row)
        memo_peak = max(memo_peak, sum(memo_sizes()))
    return rows, time.perf_counter() - t0, memo_peak


def sweep_argv(theta: str, jobs: int, out: str) -> list[str]:
    return ["sweep", "--identity", SWEEP_IDENTITIES, "--k", SWEEP_K, "--m", SWEEP_M,
            "--theta", theta, "--digits", str(SWEEP_DIGITS), "--jobs", str(jobs),
            "--timing", "--format", "json", "--out", out]


def expected_sweep_rows(theta: str) -> int:
    cfg = cli.RunConfig(digits=SWEEP_DIGITS, identity=SWEEP_IDENTITIES.split(","),
                        k_list=[1, 2], m_list=[1, -1], theta_list=[theta])
    return len(cli._sweep_grid(cfg))


def check_sweep_rows(rows: list, theta: str) -> list[bool]:
    tol = identities.pass_tolerance(with_precision(SWEEP_DIGITS))
    if len(rows) != expected_sweep_rows(theta):
        return [False] * max(len(rows), 1)
    return [bool(r["passed"]) and mpmath.mpf(r["rel_res"]) < tol for r in rows]


def rows_digest(rows: list) -> str:
    stable = [{k: v for k, v in r.items() if k != "seconds"} for r in rows]
    return hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()[:16]


def run_sweeps(thetas, seconds: float, tmp: str) -> list[dict]:
    """`ztl sweep` as a fresh subprocess per sweep, until ``seconds`` pass."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    sweeps = []
    t0 = time.perf_counter()
    while not sweeps or time.perf_counter() - t0 < seconds:
        theta = next(thetas)
        out = os.path.join(tmp, f"sweep{len(sweeps)}.json")
        jobs = nproc()
        ts = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "ztl"] + sweep_argv(theta, jobs, out),
                              env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        wall = time.perf_counter() - ts
        rows = []
        if proc.returncode == 0:
            with open(out) as fh:
                rows = json.load(fh)
        oks = check_sweep_rows(rows, theta) if rows else [False]
        sweeps.append({
            "theta": theta, "jobs": jobs, "wall_s": wall, "rc": proc.returncode,
            "stderr": proc.stderr[-2000:], "ok": oks,
            "cell_s": [r["seconds"] for r in rows],
            "digits": [digits_reached(mpmath.mpf(r["rel_res"]), with_precision(SWEEP_DIGITS))
                       for r in rows],
            "digest": rows_digest(rows),
        })
    return sweeps


def traced_sweep_replay(theta: str, tracer, tmp: str) -> dict:
    """The same grid serially in this process, so every layer's spans are
    recorded (pool workers cannot be traced from outside)."""
    out = os.path.join(tmp, "replay.json")
    buf = io.StringIO()
    t0 = time.perf_counter()
    with tracer.installed(), tracer.span("bench.replay"), contextlib.redirect_stdout(buf):
        rc = cli.main(sweep_argv(theta, 1, out))
    wall = time.perf_counter() - t0
    rows = []
    if rc == 0:
        with open(out) as fh:
            rows = json.load(fh)
    return {"rc": rc, "wall_s": wall, "cells": len(rows),
            "ok": rc == 0 and all(check_sweep_rows(rows, theta)),
            "digest": rows_digest(rows), "memo_entries": sum(memo_sizes())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, default=T_START,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ctx = with_precision(DIGITS)
    if args.workload != "sweep-jobs":
        warm_tables(ctx)
    setup_base = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_base_s": setup_base}))
        return 0

    out = {"setup_base_s": setup_base, "warmup_s": 0.0, "rows": [], "window_s": 0.0,
           "env": {"python": sys.version.split()[0], "mpmath": mpmath.__version__,
                   "backend": mpmath.libmp.BACKEND, "nproc": nproc()}}
    tracer = spans.Tracer() if args.trace else None
    if args.workload in ("cold-cell", "theta-scan"):
        cold = args.workload == "cold-cell"
        cells = cold_cells(args.seed) if cold else scan_cells(args.seed)
        if not cold:
            t0 = time.perf_counter()
            for theta in SCAN_WARMUP_THETAS:
                out["rows"].append(dict(verify_cell(SCAN_K, SCAN_M, theta, ctx), warmup=True))
            out["warmup_s"] = time.perf_counter() - t0
        if tracer is None:
            rows, window, memo = run_cells(cells, args.seconds, ctx, cold=cold)
        else:
            with tracer.installed():
                rows, window, memo = run_cells(cells, args.seconds, ctx, cold=cold, tracer=tracer)
        out["rows"] += rows
        out["window_s"] = window
        out["memo_entries"] = memo
    else:
        thetas = sweep_thetas(args.seed)
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            out["sweeps"] = run_sweeps(thetas, args.seconds, tmp)
            if tracer is not None:
                out["replay"] = traced_sweep_replay(out["sweeps"][0]["theta"], tracer, tmp)
                out["memo_entries"] = out["replay"]["memo_entries"]
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer, out["memo_entries"])
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        path = os.path.join(HERE, "traces", f"{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(path)
        out["spans_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
