"""Outside-in span tracing of the ztl layers.

``Tracer.installed()`` replaces the public functions of ``ztl.special``,
``ztl.mellin``, ``ztl.psi``, ``ztl.identities`` and ``ztl.cli`` with
wrappers that record one span per call, counts the precision scopes
``ztl.hp`` hands out, and puts every original back on exit. A name another module imported directly (such as
``identities.series_L`` or ``cli.psi``) is patched wherever it is bound.
Nothing here changes what the program computes: memos are only measured
with ``len``, and the refinement traces handed to ``line_integral`` and
``cauchy_derivative`` are the lists those functions already accept.

Spans stay in memory; at the end of a run ``write_jsonl`` writes them out
and ``layer_metrics`` reduces them.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# (module, attribute) pairs that are wrapped besides every public function.
_EXTRA_TARGETS = (
    ("ztl.psi", "VerticalProduct.eval_vertical"),
    ("ztl.cli", "_sweep_cell"),
)

# span names that differ from "<layer>.<function>"
_ALIASES = {
    "special.zeta_vertical_run": "special.zeta_run",
    "mellin.line_integral": "mellin.line",
    "mellin.cauchy_derivative": "mellin.circle",
    "psi.VerticalProduct.eval_vertical": "psi.integrand",
    "cli._sweep_cell": "cli.cell",
}

# span name -> name of the special-function memo whose growth it causes
_MEMOS = {
    "special.zeta_run": "_ZLINE_MEMO",
    "special.gamma": "_GAMMA_MEMO",
    "special.zeta": "_ZETA_MEMO",
}

LAYERS = ("hp", "special", "mellin", "psi", "identities", "cli")
_WRAPPED = "__perfbench_wrapped__"


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name


def _resolve(module, dotted):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def is_wrapped(fn) -> bool:
    return getattr(fn, _WRAPPED, False)


class Tracer:
    """Span recorder. A span is ``[name, start, end, parent, cell, attrs]``;
    ``parent`` is an index into ``spans`` or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self.scoped_calls = 0
        self.cell = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []     # (owner, attr, original)

    # -- recording ---------------------------------------------------------

    def open(self, name, attrs=None) -> list:
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else -1, self.cell, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, new_cell=False):
        if new_cell:
            self.cell += 1
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        memo = None
        if name in _MEMOS:
            memo = getattr(sys.modules["ztl.special"], _MEMOS[name])
        trace_pos = {"mellin.line": 4, "mellin.circle": 4}.get(name)
        count_pos = {"special.zeta_run": 3, "psi.integrand": 4}.get(name)

        new_cell = name == "cli.cell"

        def wrapper(*args, **kwargs):
            attrs = {}
            if new_cell:
                tracer.cell += 1
            if trace_pos is not None and len(args) <= trace_pos and kwargs.get("trace") is None:
                kwargs["trace"] = []
            if count_pos is not None:
                attrs["nodes"] = args[count_pos] if len(args) > count_pos else kwargs["count"]
            if memo is not None:
                attrs["memo0"] = len(memo)
            span = tracer.open(name, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)
                if memo is not None:
                    attrs["new"] = len(memo) - attrs.pop("memo0")
                if trace_pos is not None:
                    steps = (args[trace_pos] if len(args) > trace_pos else kwargs["trace"]) or []
                    attrs["levels"] = len(steps)
                    if steps and "M" in steps[-1]:
                        attrs["M"] = steps[-1]["M"]

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__module__ = fn.__module__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        setattr(wrapper, _WRAPPED, True)
        return wrapper

    def _wrap_scoped(self, fn):
        tracer = self

        def scoped(ctx):
            tracer.scoped_calls += 1
            return fn(ctx)

        scoped.__wrapped__ = fn
        setattr(scoped, _WRAPPED, True)
        return scoped

    def targets(self):
        """[(owner, attribute, span name)] for every callable to wrap."""
        import ztl.cli  # noqa: F401  (loads every layer module)
        out = []
        for layer in LAYERS:
            module = sys.modules[f"ztl.{layer}"]
            if layer == "hp":
                continue            # only the precision scope is counted
            for name in _public_functions(module):
                out.append((module, name, f"{layer}.{name}"))
        for modname, dotted in _EXTRA_TARGETS:
            module = sys.modules[modname]
            owner, attr = _resolve(module, dotted)
            out.append((owner, attr, f"{modname[4:]}.{dotted}"))
        return out

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrapped_by_id = {}
        for owner, attr, name in self.targets():
            fn = getattr(owner, attr)
            if id(fn) in wrapped_by_id:
                continue
            wrapped_by_id[id(fn)] = (fn, self._wrap(_ALIASES.get(name, name), fn))
        # bind each wrapper everywhere its original is bound (direct imports)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "ztl" or modname.startswith("ztl.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrapped_by_id.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])
        for fn, wrapper in wrapped_by_id.values():
            qual = fn.__qualname__
            if "." in qual:                      # a method: patch its class
                owner, attr = _resolve(sys.modules[fn.__module__], qual)
                self._patch(owner, attr, wrapper)
        hp = sys.modules["ztl.hp"]
        self._patch(hp.PrecisionContext, "scoped",
                    self._wrap_scoped(hp.PrecisionContext.scoped))

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        """One JSON object per span, in the order the spans opened."""
        keys = ("name", "start", "end", "parent", "cell", "attrs")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# ---------------------------------------------------------------------------
# reduction


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def _nearest(spans, i, name):
    p = spans[i][3]
    while p >= 0 and spans[p][0] != name:
        p = spans[p][3]
    return p


def layer_metrics(tracer: Tracer, memo_entries: int) -> dict[str, float]:
    """Reduce the recorded spans to the per-layer metrics (cli.* excepted:
    those come from the sweep's own timing output)."""
    spans = tracer.spans
    selfs = self_times(spans)
    m = {}
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_sum(name):
        return sum(selfs[i] for i in by_name.get(name, ()))

    def incl_sum(name):
        return sum(spans[i][2] - spans[i][1] for i in by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(spans[i][5][key] for i in by_name.get(name, ()))

    zr_nodes = attr_sum("special.zeta_run", "nodes")
    zr_new = attr_sum("special.zeta_run", "new")
    m["special.zeta_run.calls"] = calls("special.zeta_run")
    m["special.zeta_run.nodes"] = zr_nodes
    m["special.zeta_run.nodes_new"] = zr_new
    m["special.zeta_run.self_s"] = self_sum("special.zeta_run")
    m["special.zeta_run.us_per_node"] = 1e6 * self_sum("special.zeta_run") / zr_new if zr_new else 0.0
    m["special.zeta_run.hit_ratio"] = 1 - zr_new / zr_nodes if zr_nodes else 0.0

    g_calls = calls("special.gamma")
    m["special.gamma.calls"] = g_calls
    m["special.gamma.self_s"] = self_sum("special.gamma")
    m["special.gamma.us_per_call"] = 1e6 * self_sum("special.gamma") / g_calls if g_calls else 0.0
    m["special.gamma.hit_ratio"] = 1 - attr_sum("special.gamma", "new") / g_calls if g_calls else 0.0
    m["special.zeta.calls"] = calls("special.zeta")
    m["special.zeta.self_s"] = self_sum("special.zeta")
    m["special.bessel_k0.self_s"] = self_sum("special.bessel_k0")
    m["special.lambert_series.self_s"] = self_sum("special.lambert_series")
    m["special.memo_entries"] = memo_entries

    line_nodes = 0
    for i in by_name.get("psi.integrand", ()):
        if _nearest(spans, i, "mellin.line") >= 0:
            line_nodes += spans[i][5]["nodes"]
    m["mellin.line.calls"] = calls("mellin.line")
    m["mellin.line.levels"] = attr_sum("mellin.line", "levels")
    m["mellin.line.nodes"] = line_nodes
    m["mellin.line.self_s"] = self_sum("mellin.line")
    circles = by_name.get("mellin.circle", ())
    m["mellin.circle.calls"] = len(circles)
    m["mellin.circle.M_final"] = max((spans[i][5].get("M", 0) for i in circles), default=0)
    m["mellin.circle.nodes"] = sum(spans[i][5].get("M", 0) for i in circles)
    m["mellin.circle.self_s"] = self_sum("mellin.circle")

    pi_calls = calls("psi.integrand")
    pi_nodes = attr_sum("psi.integrand", "nodes")
    m["psi.integrand.calls"] = pi_calls
    m["psi.integrand.nodes"] = pi_nodes
    m["psi.integrand.self_s"] = self_sum("psi.integrand")
    m["psi.integrand.us_per_node"] = 1e6 * self_sum("psi.integrand") / pi_nodes if pi_nodes else 0.0
    m["psi.series_L.s"] = incl_sum("psi.series_L")
    m["identities.verify.self_s"] = self_sum("identities.verify")
    m["identities.derivative_term.s"] = incl_sum("identities.derivative_term")
    m["identities.eta_derivative_term.s"] = incl_sum("identities.eta_derivative_term")
    m["hp.scoped.calls"] = tracer.scoped_calls

    layer_self = {layer: 0.0 for layer in LAYERS}
    unattributed = 0.0
    roots = 0.0
    for i, s in enumerate(spans):
        layer = s[0].split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += selfs[i]
        else:
            unattributed += selfs[i]        # the benchmark's own spans
        if s[3] < 0:
            roots += s[2] - s[1]
    for layer in ("special", "mellin", "psi", "identities"):
        m[f"{layer}.self_s"] = layer_self[layer]
    m["special.self_frac"] = layer_self["special"] / roots if roots else 0.0
    m["unattributed_s"] = unattributed
    m["traced_s"] = roots
    m["trace.spans"] = len(spans)
    return m
