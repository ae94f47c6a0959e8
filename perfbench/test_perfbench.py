"""Tests of the benchmark's own machinery: span arithmetic, wrapper
install/restore, and that untraced runs never see a wrapper.

    python3 -m pytest -q perfbench
"""

import json
import sys

import pytest

import run
import spans
import workload
from ztl.hp import with_precision


def _span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, 0, attrs]


def test_self_time_subtracts_covered_part_of_children():
    s = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),       # overlaps a: the union counts once
        _span("a1", 2.0, 3.0, 1),
        _span("c", 9.0, 12.0, 0),      # runs past its parent: clipped
    ]
    assert spans.self_times(s) == pytest.approx([10 - 5 - 1, 2.0, 3.0, 1.0, 3.0])


def test_layer_self_times_and_unattributed():
    t = spans.Tracer()
    t.spans = [
        _span("bench.cell", 0.0, 10.0, -1),
        _span("identities.verify", 0.5, 9.5, 0),
        _span("special.gamma", 1.0, 5.0, 1, {"new": 1}),
        _span("special.gamma", 6.0, 7.0, 1, {"new": 0}),
    ]
    m = spans.layer_metrics(t, memo_entries=7)
    assert m["special.self_s"] == pytest.approx(5.0)
    assert m["identities.self_s"] == pytest.approx(4.0)
    assert m["identities.verify.self_s"] == pytest.approx(4.0)
    assert m["unattributed_s"] == pytest.approx(1.0)
    assert m["special.self_frac"] == pytest.approx(0.5)
    assert m["special.gamma.calls"] == 2
    assert m["special.gamma.hit_ratio"] == pytest.approx(0.5)
    assert m["special.memo_entries"] == 7


def test_spans_are_written_as_json_lines(tmp_path):
    t = spans.Tracer()
    with t.span("bench.cell", new_cell=True):
        with t.span("identities.verify"):
            pass
    path = tmp_path / "spans.jsonl"
    t.write_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["name"], r["parent"], r["cell"]) for r in rows] == [
        ("bench.cell", -1, 0), ("identities.verify", 0, 0)]
    assert all(r["start"] <= r["end"] for r in rows)


def _bindings():
    """Every ztl module attribute and class attribute, by identity."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if modname == "ztl" or modname.startswith("ztl."):
            for attr, obj in vars(module).items():
                out[(modname, attr)] = obj
                if isinstance(obj, type) and obj.__module__ == modname:
                    for cattr, cobj in vars(obj).items():
                        out[(modname, attr, cattr)] = cobj
    return out


def _wrapped_bindings():
    return [key for key, obj in _bindings().items() if spans.is_wrapped(obj)]


def test_traced_run_records_spans_and_restores_every_attribute():
    before = _bindings()
    tracer = spans.Tracer()
    with tracer.installed():
        assert _wrapped_bindings()
        from ztl import identities
        r = identities.verify("ramanujan", m=1, theta="0.3", ctx=with_precision(20))
    assert r.passed
    names = {s[0] for s in tracer.spans}
    assert {"identities.verify", "identities.verify_ramanujan_classical",
            "special.zeta", "special.lambert_series"} <= names
    assert tracer.scoped_calls > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_direct_imports_are_wrapped_too():
    ident = sys.modules["ztl.identities"]
    psi_mod = sys.modules["ztl.psi"]
    with spans.Tracer().installed():
        assert spans.is_wrapped(ident.series_L)
        assert spans.is_wrapped(psi_mod.series_L)
        assert spans.is_wrapped(psi_mod.VerticalProduct.eval_vertical)
    assert not spans.is_wrapped(ident.series_L)


def test_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(KeyError):
        with spans.Tracer().installed():
            raise KeyError("boom")
    assert not _wrapped_bindings()
    assert all(_bindings()[k] is before[k] for k in before)


@pytest.mark.parametrize("cold", [False, True])
def test_untraced_run_installs_no_wrapper(monkeypatch, cold):
    seen = []

    def probe(k, m, theta, ctx):
        seen.append(_wrapped_bindings())
        return {"ok": True, "seconds": 0.0}

    monkeypatch.setattr(workload, "verify_cell", probe)
    rows, _, _ = workload.run_cells(iter([(1, 1, "0")] * 3), 0.0, with_precision(20), cold=cold)
    assert len(rows) == 1
    assert seen == [[]]


def test_inputs_depend_only_on_seed():
    take = lambda gen: [next(gen) for _ in range(5)]  # noqa: E731
    assert take(workload.scan_cells(3)) == take(workload.scan_cells(3))
    assert take(workload.scan_cells(3)) != take(workload.scan_cells(4))
    assert take(workload.sweep_thetas(3)) == take(workload.sweep_thetas(3))


def test_tail_keeps_cells_beyond_it():
    assert run.tail([3.0]) == (100.0, 3.0)
    assert run.tail([5.0, 1.0, 4.0, 2.0]) == (75.0, 4.0)
    values = [float(i) for i in range(1, 26)]
    assert run.tail(values) == (60.0, 15.0)
