"""Runs every `ztl selftest` property: this file is how pytest reaches
selftest.CHECKS. Each entry states the digits pytest runs it at, so the
registry is the whole table, and no other test restates an entry."""

import pytest

from ztl import cli, selftest, with_precision


@pytest.mark.parametrize("fn,digits", [pytest.param(fn, digits, id=f"{module}.{name}")
                                       for module, name, fn, digits in selftest.CHECKS])
def test_registry_entry(fn, digits):
    ok, detail = fn(with_precision(digits))
    assert ok, detail


def test_crashed_check_is_a_failed_check(monkeypatch, capsys):
    def crash(ctx):
        return 1 / 0
    monkeypatch.setattr(selftest, "CHECKS", [("hp", "crash", crash, 30)])
    assert selftest.run(digits=15) is False
    out = capsys.readouterr().out
    assert "FAIL  hp.crash" in out and "raised ZeroDivisionError" in out
    assert cli.main(["selftest", "--digits", "15"]) == 1
