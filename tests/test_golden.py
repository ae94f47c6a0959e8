"""Sweep output pinned byte for byte, and the per-identity defaults of
`ztl verify`."""

import csv
from pathlib import Path

from ztl import cli

# ztl sweep --identity all --k 1,2 --m 1,-1,2 --theta 0.5,-0.3 --digits 15:
# all seven identities, the fixed k of ramanujan and dixit, the collapsed m
# axis of quasimodular and eta and θ axis of lerch, and 'all' keeping only
# m > 1 for eisenstein and odd m for lerch (40 rows). θ = 0 is left out:
# there α = β, so eisenstein with even m compares 0 with 0, and the eta
# rows, exact zeros, are pinned by test_eta_theta_zero_residual_is_exact_zero.
GOLDEN = Path(__file__).parent / "data" / "sweep_all_15.csv"
GOLDEN_ARGS = ["sweep", "--identity", "all", "--k", "1,2", "--m", "1,-1,2",
               "--theta", "0.5,-0.3", "--digits", "15"]


def test_sweep_all_matches_golden_csv(tmp_path, capsys):
    out = tmp_path / "all.csv"
    assert cli.main(GOLDEN_ARGS + ["--jobs", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_eta_theta_zero_residual_is_exact_zero(tmp_path, capsys):
    # at θ = 0 both sides are exactly 0: α = β, and the even θ-free jet of
    # the residue term meets the exact zeros of the e^{-kθs} jet
    out = tmp_path / "eta.csv"
    assert cli.main(["sweep", "--identity", "eta", "--k", "1,2,3", "--theta", "0",
                     "--digits", "30", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = list(csv.DictReader(out.open()))
    assert [r["k"] for r in rows] == ["1", "2", "3"]
    assert all(r["abs_res"] == r["rel_res"] == "0.0" for r in rows), rows


def test_verify_eisenstein_defaults_to_smallest_accepted_m(capsys):
    assert cli.main(["verify", "eisenstein", "--k", "1", "--digits", "15"]) == 0
    assert "PASS eisenstein k=1 m=2 " in capsys.readouterr().out
