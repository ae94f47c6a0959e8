"""Sweep output pinned byte for byte, and the per-identity defaults of
`ztl verify`."""

import csv
from pathlib import Path

import pytest

from ztl import cli, special

DATA = Path(__file__).parent / "data"


def _sweeps(tmp_path, capsys, runs, jobs):
    """The rows of the sweeps ``runs`` (each the arguments after ``sweep``)
    at --jobs ``jobs``, in order under the first one's header, as bytes.
    The memos start empty, as in a fresh ``ztl sweep`` (pool workers are
    forked from this process)."""
    special.clear_caches()
    lines = []
    for i, args in enumerate(runs):
        out = tmp_path / f"sweep{i}.csv"
        assert cli.main(["sweep", *args, "--jobs", jobs, "--out", str(out)]) == 0
        rows = out.read_bytes().splitlines(keepends=True)
        lines += rows if i == 0 else rows[1:]
    capsys.readouterr()
    return b"".join(lines)


# ztl sweep --identity all --k 1,2 --m 1,-1,2 --theta 0.5,-0.3 --digits 15:
# all seven identities, the fixed k of ramanujan and dixit, the collapsed m
# axis of quasimodular and eta and θ axis of lerch, and 'all' keeping only
# m > 1 for eisenstein and odd m for lerch (40 rows). θ = 0 is left out:
# there α = β, so eisenstein with even m compares 0 with 0, and the eta
# rows, exact zeros, are pinned by test_eta_theta_zero_residual_is_exact_zero.
GOLDEN_ARGS = ["--identity", "all", "--k", "1,2", "--m", "1,-1,2",
               "--theta", "0.5,-0.3", "--digits", "15"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_all_matches_golden_csv(tmp_path, capsys, jobs):
    assert (_sweeps(tmp_path, capsys, [GOLDEN_ARGS], jobs)
            == (DATA / "sweep_all_15.csv").read_bytes())


# The main identity on six fold lines (k = 1, 2, 3; m = ±1) at three θ each,
# 30 digits (18 rows): --jobs 2 batches the cells by fold line, and either
# way the CSV is the same.
GRID18_ARGS = ["--identity", "main", "--k", "1,2,3", "--m", "1,-1",
               "--theta", "0,0.3,1.0", "--digits", "30"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_grid18_matches_golden_csv(tmp_path, capsys, jobs):
    assert (_sweeps(tmp_path, capsys, [GRID18_ARGS], jobs)
            == (DATA / "grid18_30.csv").read_bytes())


# The edge set at 30 digits: the m = -7 fold lines (c = 15.5), m = 7 at
# θ = -2.5, k = 5, eta at k = 4 and lerch (3, 7), the rows of five sweeps
# under one header (13 rows). m = 7 at θ = 3 is left out: there k = 3 FAILs
# at 30 digits and k = 2 PASSes with sides of opposite sign, and a golden
# file must not pin a wrong PASS.
EDGE_ARGS = [["--identity", "main", "--k", "1,2,3", "--m", "-7", "--theta", "3,-2.5"],
             ["--identity", "main", "--k", "1,2,3", "--m", "7", "--theta", "-2.5"],
             ["--identity", "main", "--k", "5", "--m", "1,-1", "--theta", "0.3"],
             ["--identity", "eta", "--k", "4", "--theta", "0.5"],
             ["--identity", "lerch", "--k", "3", "--m", "7"]]


def test_edge_sweeps_match_golden_csv(tmp_path, capsys):
    runs = [args + ["--digits", "30"] for args in EDGE_ARGS]
    assert _sweeps(tmp_path, capsys, runs, "2") == (DATA / "edge_30.csv").read_bytes()


# README.md's verification table: its five sweeps at 50 digits (86 rows).
README_ARGS = [["--identity", "main", "--k", "1,2,3,4", "--m", "-2,-1,1,2", "--theta", "0,0.3,1.0"],
               ["--identity", "ramanujan", "--m", "-2,-1,1,2,3", "--theta", "0,0.5"],
               ["--identity", "dixit", "--m", "1,-1", "--theta", "0,0.3"],
               ["--identity", "eisenstein,quasimodular,eta", "--k", "1,2,3", "--m", "2",
                "--theta", "0.2,0.7"],
               ["--identity", "lerch", "--k", "1,2", "--m", "1,3,-1"]]


def test_readme_grid_matches_golden_csv(tmp_path, capsys):
    runs = [args + ["--digits", "50"] for args in README_ARGS]
    assert _sweeps(tmp_path, capsys, runs, "2") == (DATA / "readme_grid_50.csv").read_bytes()


def test_eta_theta_zero_residual_is_exact_zero(tmp_path, capsys):
    # at θ = 0 both sides are exactly 0: α = β, and the even θ-free jet of
    # the residue term meets the exact zeros of the e^{-kθs} jet
    out = tmp_path / "eta.csv"
    assert cli.main(["sweep", "--identity", "eta", "--k", "1,2,3", "--theta", "0",
                     "--digits", "30", "--out", str(out)]) == 0
    capsys.readouterr()
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["k"] for r in rows] == ["1", "2", "3"]
    assert all(r["abs_res"] == r["rel_res"] == "0.0" for r in rows), rows


def test_verify_eisenstein_defaults_to_smallest_accepted_m(capsys):
    assert cli.main(["verify", "eisenstein", "--k", "1", "--digits", "15"]) == 0
    assert "PASS eisenstein k=1 m=2 " in capsys.readouterr().out
