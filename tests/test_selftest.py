"""Runs every `ztl selftest` property: this file is how pytest reaches
selftest.CHECKS."""

import pytest

from ztl import cli, selftest, with_precision

# digits per entry: 50 for the properties stated at 50 digits, 30 for the rest
AT_50 = ["special.lambert_two_forms", "special.bessel_k0_mpmath", "special.zeta_run_paired",
         "mellin.product_conjugate_symmetry", "mellin.cauchy_order_zero",
         "mellin.tail_below_tolerance", "mellin.fixed_line_cancellation", "psi.gamma_free_fold",
         "psi.bessel_pair_convolution",
         "identities.theta_reflection_duality",
         "identities.jets_match_circles"]
AT_30 = ["hp.add_sub_roundtrip", "special.gamma_reflection", "special.gamma_duplication",
         "special.zeta_functional_equation", "special.euler_even_zeta",
         "special.stirling_decay", "special.bernoulli_recurrence",
         "special.divisor_multiplicative", "mellin.mesh_refinement_geometric",
         "psi.strategy_agreement", "psi.shape", "psi.scaling_symmetry", "psi.series_tail",
         "identities.reindex_exact", "identities.lerch_value", "identities.residue_assembly"]
DIGITS = {**dict.fromkeys(AT_30, 30), **dict.fromkeys(AT_50, 50)}

ENTRIES = {f"{module}.{name}": fn for module, name, fn in selftest.CHECKS}


@pytest.mark.parametrize("name", DIGITS)
def test_registry_entry(name):
    ok, detail = ENTRIES[name](with_precision(DIGITS[name]))
    assert ok, detail


def test_runner_table_is_the_registry():
    assert len(DIGITS) == len(AT_30) + len(AT_50) == len(selftest.CHECKS)
    assert set(DIGITS) == set(ENTRIES)


def test_crashed_check_is_a_failed_check(monkeypatch, capsys):
    def crash(ctx):
        return 1 / 0
    monkeypatch.setattr(selftest, "CHECKS", [("hp", "crash", crash)])
    assert selftest.run(digits=15) is False
    out = capsys.readouterr().out
    assert "FAIL  hp.crash" in out and "raised ZeroDivisionError" in out
    assert cli.main(["selftest", "--digits", "15"]) == 1
