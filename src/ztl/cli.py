"""Command-line surface: single verifications, parameter sweeps, Psi
evaluation, and the property self-test suite.

Exit codes are the machine contract: 0 pass, 1 identity failure, 2 usage
error, 3 numerical non-convergence. Sweep output is byte-stable across runs
(timings are zeroed unless --timing is given).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

from mpmath import mp, mpf

from .hp import PrecisionError, with_precision
from . import identities, mellin, selftest, special
from .psi import PSI_STRATEGIES, fold_line, psi

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# weight cap for negative m: beyond n^15 the series term counts explode
# before the kernel decay wins
MAX_ABS_WEIGHT = 15


class UsageError(Exception):
    pass


# flags whose value may be a comma list that starts with a minus sign
_LIST_FLAGS = ("--k", "--m", "--theta")
_NEGATIVE_LIST = re.compile(r"-\.?\d[\d.,eE+-]*")


class _Parser(argparse.ArgumentParser):
    """Reads a comma list that starts with a minus sign (``--m -2,1``) as the
    value of its flag; plain argparse takes it for an unknown option."""

    def parse_known_args(self, args=None, namespace=None):
        glued = []
        for arg in sys.argv[1:] if args is None else args:
            if glued and glued[-1] in _LIST_FLAGS and _NEGATIVE_LIST.fullmatch(arg):
                glued[-1] += "=" + arg
            else:
                glued.append(arg)
        return super().parse_known_args(glued, namespace)


@dataclass
class RunConfig:
    digits: int = 50
    identity: list[str] = field(default_factory=lambda: ["main"])
    k_list: list[int] = field(default_factory=lambda: [1])
    m_list: list[int] = field(default_factory=lambda: [1])
    theta_list: list = field(default_factory=lambda: ["0"])   # str, or mpf from --alpha
    out: str | None = None
    format: str = "csv"
    jobs: int = 0
    trace: bool = False
    timing: bool = False


def _parse_config_file(path: str) -> dict:
    """Flat key=value lines, # comments, comma-separated lists."""
    conf = {}
    try:
        with open(path) as fh:
            for ln, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{ln}: expected key=value, got {raw.strip()!r}")
                key, val = line.split("=", 1)
                conf[key.strip()] = val.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    return conf


def _digits(flag: int | None, default: int | None = None) -> int:
    """The --digits value when given, 0 included (with_precision rejects it);
    else ``default``; else ZTL_DIGITS; else 50."""
    if flag is not None:
        return flag
    if default is not None:
        return default
    env = os.environ.get("ZTL_DIGITS")
    if env:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"ZTL_DIGITS must be an integer, got {env!r}")
    return 50


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}")


def _str_list(text: str) -> list[str]:
    return [v.strip() for v in str(text).split(",") if v.strip() != ""]


def _check_identity_params(identity: str, k: int, m: int | None) -> None:
    """The identity's own rules (``identities.check_params``), then the
    weight cap of the command line."""
    identities.check_params(identity, k, m)
    if m is not None and abs(2 * m + 1) > MAX_ABS_WEIGHT:
        raise UsageError(f"|2m+1| must be <= {MAX_ABS_WEIGHT}")


def _print_trace(sink: list | None) -> None:
    if sink is not None:
        print(json.dumps(sink, indent=2))


# ---------------------------------------------------------------------------
# verify: a sweep of one cell

def cmd_verify(args) -> int:
    """One cell; --alpha becomes theta = log(alpha/pi) at the cell's working
    precision, and the cell gets that mpf."""
    row = identities.IDENTITIES[args.identity]
    digits = _digits(args.digits)
    m = args.m if args.m is not None else row.default_m()
    if args.alpha is not None:
        ctx = with_precision(digits)
        with ctx.scoped():
            alpha = mpf(args.alpha)
            if not alpha > 0:
                raise special.DomainError("alpha must be positive")
            theta = mp.log(alpha / mp.pi)
    else:
        theta = args.theta if args.theta is not None else row.default_theta
    return _run(RunConfig(
        digits=digits, identity=[args.identity], k_list=[args.k], m_list=[m],
        theta_list=[theta], out=args.out, format=args.format,
        jobs=1, trace=args.trace, timing=args.timing))


# ---------------------------------------------------------------------------
# sweep

def _sweep_cell(task, trace: bool):
    """Verify one grid cell; returns (report, the cell's quadrature traces,
    or None when tracing is off)."""
    identity, k, m, theta, digits = task
    ctx = with_precision(digits)
    with mellin.trace_sink(trace) as sink:
        report = identities.verify(identity, k=k, m=m, theta=theta, ctx=ctx)
    return report, sink


def _sweep_batch(batch: list[tuple], trace: bool) -> list:
    """Verify the cells of one batch in order, in one process, so that they
    share their lines' memos. Returns, per cell, the result of
    ``_sweep_cell`` or the ArithmeticError it raised: a cell that does not
    converge is recorded and the batch goes on. Runs in a pool worker, or
    in-process when there is one batch."""
    results = []
    for task in batch:
        try:
            results.append(_sweep_cell(task, trace))
        except ArithmeticError as exc:
            results.append(exc)
    return results


def _line_key(task):
    """(digits, the zeta abscissas of the cell's fold line): the cells of
    one key share their zeta runs when they run in one process. None for a
    cell that makes no Mellin line."""
    identity, _k, m, _theta, digits = task
    line_m = identities.IDENTITIES[identity].line_m
    return None if line_m is None else (digits, fold_line(line_m(m))[1])


def _plan(tasks: list[tuple], jobs: int) -> list[list[int]]:
    """Split the cell indices into min(jobs, cells) batches, each in grid
    order. The cells of one line key form a group, a line-free cell a group
    of its own. Largest first, each group goes to the batch with the fewest
    cells. While there are fewer groups than batches, the largest group is
    split into contiguous halves, so a scan of one line still gives every
    batch cells."""
    lines: dict = {}
    groups = []
    for i, task in enumerate(tasks):
        key = _line_key(task)
        if key is None:
            groups.append([i])
        else:
            lines.setdefault(key, []).append(i)
    groups += lines.values()
    n = min(jobs, len(tasks))
    while len(groups) < n:
        big = max(groups, key=len)
        groups.remove(big)
        groups += [big[:len(big) // 2], big[len(big) // 2:]]
    batches = [[] for _ in range(n)]
    for group in sorted(groups, key=lambda g: (-len(g), g[0])):
        min(batches, key=len).extend(group)
    return [sorted(b) for b in batches]


def _sweep_grid(cfg: RunConfig) -> list[tuple]:
    """The cells (identity, k, m, theta, digits) in grid order. Each
    identity's row in ``identities.IDENTITIES`` fixes its k or collapses the
    axes it lacks to None; under 'all' it also keeps only the m it accepts."""
    if not cfg.k_list or not cfg.m_list or not cfg.theta_list or not cfg.identity:
        raise UsageError("sweep grids must be non-empty")
    if min(cfg.k_list) < 1:
        raise UsageError("k must be a positive integer")
    expand_all = "all" in cfg.identity
    tasks = []
    for identity in identities.IDENTITY_NAMES if expand_all else cfg.identity:
        row = identities.IDENTITIES[identity]
        m_list = cfg.m_list if row.has_m else [None]
        if expand_all:
            m_list = [m for m in m_list if m is None or row.m_rule(m)]
        for k in [row.fixed_k] if row.fixed_k else cfg.k_list:
            for m in m_list:
                _check_identity_params(identity, k, m)
                for theta in cfg.theta_list if row.has_theta else [None]:
                    identities.check_theta(theta)
                    tasks.append((identity, k, m, theta, cfg.digits))
    return tasks


def cmd_sweep(args) -> int:
    return _run(_build_config(args))


def _run(cfg: RunConfig) -> int:
    """Run every cell of the grid, one batch per worker (``_plan``), print
    the reports (and traces) in grid order, write --out, and name each cell
    that did not converge; such a cell simply has no row in the output.
    An --out that cannot be written fails before any cell runs."""
    tasks = _sweep_grid(cfg)
    if cfg.out:
        _write_file(cfg.out, "", "a")
    batches = _plan(tasks, cfg.jobs or os.cpu_count() or 1)
    if len(batches) > 1:
        with ProcessPoolExecutor(max_workers=len(batches)) as pool:
            futures = [pool.submit(_sweep_batch, [tasks[i] for i in b], cfg.trace)
                       for b in batches]
            outcomes = [fut.result() for fut in futures]
    else:
        outcomes = [_sweep_batch(tasks, cfg.trace)]
    results = [None] * len(tasks)
    for batch, outcome in zip(batches, outcomes):
        for i, result in zip(batch, outcome):
            results[i] = result
    reports = []
    failures = []
    traces = [] if cfg.trace else None
    for task, result in zip(tasks, results):
        if isinstance(result, ArithmeticError):
            failures.append((task, result))
            continue
        report, cell_trace = result
        reports.append(report)
        if traces is not None:
            traces.extend(cell_trace)
    for r in reports:
        print(r)
    _print_trace(traces)
    if cfg.out:
        _write_rows(cfg.out, cfg.format, reports, timing=cfg.timing)
    for (identity, k, m, theta, _digits), exc in failures:
        cell = f"{identity} k={k}"
        if m is not None:
            cell += f" m={m}"
        if theta is not None:
            cell += f" theta={theta}"
        _print_numeric_failure(exc, f" in {cell}")
    if failures:
        return EXIT_NUMERIC
    return EXIT_PASS if all(r.passed or not r.checked for r in reports) else EXIT_FAIL


def _print_numeric_failure(exc, where=""):
    print(f"numerical non-convergence{where}: {exc}", file=sys.stderr)
    trace = getattr(exc, "trace", None)
    if trace:
        print(json.dumps(trace[-3:], indent=2), file=sys.stderr)


def _write_rows(path, fmt, reports, timing=False):
    """fmt is csv or json: argparse and ``_build_config`` reject any other."""
    if fmt == "json":
        body = json.dumps([r.json_dict(timing=timing) for r in reports], indent=2) + "\n"
    else:
        body = identities.CSV_HEADER + "\n" + "".join(
            r.csv_row(timing=timing) + "\n" for r in reports)
    _write_file(path, body)


def _write_file(path, body, mode="w"):
    """Write --out; a path that cannot be written is a usage error. Mode "a"
    with an empty body probes the path: it creates a missing file and
    truncates none."""
    try:
        with open(path, mode) as fh:
            fh.write(body)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}")


_SWITCHES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _build_config(args) -> RunConfig:
    """Flags over the config file over the defaults. A config key must name
    a RunConfig field; trace and timing take 0/1/true/false/yes/no in any
    case."""
    conf = _parse_config_file(args.config) if args.config else {}
    known = {f.name for f in fields(RunConfig)}
    for key in conf:
        if key not in known:
            raise UsageError(f"{args.config}: unknown config key {key!r}")

    def switch(flag, key):
        value = conf.get(key, "no")
        if value.lower() not in _SWITCHES:
            raise UsageError(f"{args.config}: {key} must be 0/1/true/false/yes/no, "
                             f"got {value!r}")
        return flag or _SWITCHES[value.lower()]

    def pick(flag, key, default, conv=lambda x: x):
        if flag is not None:
            return flag
        try:
            return conv(conf[key]) if key in conf else default
        except ValueError:   # int; the list converters raise UsageError
            raise UsageError(f"{args.config}: {key} must be an integer, got {conf[key]!r}")
    cfg = RunConfig(
        digits=_digits(pick(args.digits, "digits", None, int)),
        identity=pick(_str_list(args.identity) if args.identity is not None else None,
                      "identity", ["main"], _str_list),
        k_list=pick(_int_list(args.k_list) if args.k_list is not None else None,
                    "k_list", [1], _int_list),
        m_list=pick(_int_list(args.m_list) if args.m_list is not None else None,
                    "m_list", [1], _int_list),
        theta_list=pick(_str_list(args.theta_list) if args.theta_list is not None else None,
                        "theta_list", ["0"], _str_list),
        out=pick(args.out, "out", None),
        format=pick(args.format, "format", "csv"),
        jobs=pick(args.jobs, "jobs", 0, int),
        trace=switch(args.trace, "trace"),
        timing=switch(args.timing, "timing"),
    )
    if cfg.jobs < 0:
        raise UsageError("--jobs must be >= 0")
    if cfg.format not in ("csv", "json"):
        raise UsageError(f"unknown output format {cfg.format!r}")
    for name in cfg.identity:
        if name != "all" and name not in identities.IDENTITY_NAMES:
            raise UsageError(f"unknown identity {name!r}")
    return cfg


# ---------------------------------------------------------------------------
# psi

def cmd_psi(args) -> int:
    digits = _digits(args.digits)
    ctx = with_precision(digits)
    xs = _str_list(args.x)
    if not xs:
        raise UsageError("--x must give at least one positive value")
    rows = []
    with mellin.trace_sink(args.trace) as sink:
        for xs_raw in xs:
            with ctx.scoped():
                x = mpf(xs_raw)
                rho = mpf(args.rho)
            val = psi(args.k, rho, x, ctx, strategy=args.strategy)
            with ctx.scoped():
                print(f"psi(rho={mp.nstr(rho, 12)}, k={args.k}, x={mp.nstr(x, 12)}) = "
                      f"{mp.nstr(val.value, digits)}  "
                      f"(error ~ {mp.nstr(val.error_estimate, 3)}, strategy {val.strategy})")
                rows.append((mp.nstr(x, 17), mp.nstr(val.value, digits)))
    _print_trace(sink)
    if args.out:
        if args.format == "json":
            body = json.dumps([{"x": x, "psi": v} for x, v in rows], indent=2) + "\n"
        else:
            body = "x,psi\n" + "".join(f"{x},{v}\n" for x, v in rows)
        _write_file(args.out, body)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# selftest

def cmd_selftest(args) -> int:
    ok = selftest.run(digits=_digits(args.digits, 40), name_filter=args.filter or "")
    return EXIT_PASS if ok else EXIT_FAIL


# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--digits", type=int, default=None,
                   help="working precision in decimal digits (default 50, or ZTL_DIGITS)")
    p.add_argument("--out", default=None, help="write results to this path")
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.add_argument("--trace", action="store_true",
                   help="print JSON refinement traces of every quadrature")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="ztl",
        description="High-precision verification of odd-zeta transformation identities")
    sub = ap.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="verify one identity at one parameter point")
    pv.add_argument("identity", choices=identities.IDENTITY_NAMES)
    pv.add_argument("--k", type=int, default=1)
    pv.add_argument("--m", type=int, default=None)
    at = pv.add_mutually_exclusive_group()
    at.add_argument("--theta", default=None)
    at.add_argument("--alpha", default=None, help="instead of --theta: theta = log(alpha/pi)")
    pv.add_argument("--timing", action="store_true", help="include real seconds in file output")
    _add_common(pv)
    pv.set_defaults(fn=cmd_verify)

    ps = sub.add_parser("sweep", help="verify identities over a parameter grid")
    ps.add_argument("--identity", default=None,
                    help="comma list of identities or 'all' (default: main)")
    ps.add_argument("--k", dest="k_list", default=None, help="comma list of k values")
    ps.add_argument("--m", dest="m_list", default=None, help="comma list of m values")
    ps.add_argument("--theta", dest="theta_list", default=None, help="comma list of theta values")
    ps.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: available parallelism); the cells "
                         "are batched by fold line, so the cells that share a line's "
                         "zeta runs run in one worker; rows and traces stay in grid order")
    ps.add_argument("--config", default=None, help="key=value config file; flags override")
    ps.add_argument("--timing", action="store_true",
                    help="include real seconds in output (breaks byte-stability)")
    _add_common(ps)
    ps.set_defaults(fn=cmd_sweep, format=None)   # None: the config file's, else csv

    pp = sub.add_parser("psi", help="evaluate the generalized Koshliakov function")
    pp.add_argument("--rho", required=True)
    pp.add_argument("--k", type=int, default=1)
    pp.add_argument("--x", required=True, help="evaluation point, or comma list for plot data")
    pp.add_argument("--strategy", default="auto", choices=PSI_STRATEGIES)
    _add_common(pp)
    pp.set_defaults(fn=cmd_psi)

    pt = sub.add_parser("selftest", help="run the module property suites")
    pt.add_argument("--digits", type=int, default=None, help="default 40")
    pt.add_argument("--filter", default=None, help="run only checks whose name contains this")
    pt.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse uses code 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (special.DomainError, PrecisionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        _print_numeric_failure(exc)
        return EXIT_NUMERIC
    except BrokenPipeError:
        # stdout closed early (``ztl ... | head``): devnull takes the flush at exit
        sys.stdout = open(os.devnull, "w")
        return 1


if __name__ == "__main__":
    sys.exit(main())
