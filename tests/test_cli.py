"""Command-line surface: exit codes, config handling, output stability."""

import io
import json
import os
import sys

import pytest

from ztl import cli, identities, mellin


PI_60 = "3.14159265358979323846264338327950288419716939937510582097494"


def run(argv):
    return cli.main(argv)


def test_verify_pass_exit_zero(capsys):
    assert run(["verify", "ramanujan", "--m", "1", "--theta", "0.2",
                "--digits", "30"]) == 0
    out = capsys.readouterr().out
    assert "PASS ramanujan" in out


def test_verify_lerch_prints_value(capsys):
    assert run(["verify", "lerch", "--k", "1", "--m", "1", "--digits", "30"]) == 0
    out = capsys.readouterr().out
    assert "0.00187137275936" in out      # 7 pi^3/360 - zeta(3)/2


def test_usage_errors_exit_two(capsys):
    assert run(["verify", "main", "--k", "1", "--m", "0", "--digits", "30"]) == 2
    assert "m must be nonzero" in capsys.readouterr().err
    assert run(["verify", "eisenstein", "--k", "1", "--m", "1", "--digits", "30"]) == 2
    assert run(["verify", "lerch", "--k", "1", "--m", "2", "--digits", "30"]) == 2
    assert run(["verify", "main", "--k", "1", "--m", "9", "--digits", "30"]) == 2  # |2m+1| cap
    assert run(["psi", "--k", "1", "--rho", "2", "--x", "-1", "--digits", "30"]) == 2
    assert "error: rho and x must be positive" in capsys.readouterr().err
    assert run(["psi", "--k", "3", "--rho", "2", "--x", "1", "--strategy",
                "closed_form", "--digits", "30"]) == 2
    assert run(["verify", "main", "--k", "1", "--m", "1", "--digits", "10"]) == 2
    # 0 is a value, not "use the default"
    assert run(["psi", "--k", "1", "--rho", "1", "--x", "1", "--digits", "0"]) == 2
    assert run(["selftest", "--digits", "0", "--filter", "reindex"]) == 2
    assert "digits must be an integer >= 15, got 0" in capsys.readouterr().err
    assert run(["sweep", "--identity", "ramanujan", "--jobs", "-1", "--digits", "15"]) == 2
    assert "error: --jobs must be >= 0" in capsys.readouterr().err


def test_psi_single_value(capsys):
    assert run(["psi", "--k", "1", "--rho", "6.28318530717958647692528676655900576839",
                "--x", "1", "--digits", "30"]) == 0
    out = capsys.readouterr().out
    assert "0.0018709365986606" in out
    assert "closed_form" in out


def test_psi_plot_data(tmp_path, capsys):
    out = tmp_path / "psi.csv"
    assert run(["psi", "--k", "1", "--rho", "2", "--x", "1,2,3",
                "--digits", "30", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "x,psi"
    assert len(lines) == 4


def test_sweep_csv_and_json(tmp_path, capsys):
    csvp = tmp_path / "r.csv"
    code = run(["sweep", "--identity", "ramanujan", "--m", "1,-1",
                "--theta", "0,0.4", "--digits", "30", "--out", str(csvp)])
    capsys.readouterr()
    assert code == 0
    lines = csvp.read_text().splitlines()
    assert lines[0] == identities.CSV_HEADER
    assert len(lines) == 5
    jsp = tmp_path / "r.json"
    code = run(["sweep", "--identity", "ramanujan", "--m", "1", "--theta", "0",
                "--digits", "30", "--format", "json", "--out", str(jsp)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(jsp.read_text())
    assert data[0]["identity"] == "ramanujan" and data[0]["passed"]


def test_sweep_deterministic_across_jobs(tmp_path, capsys):
    # three line keys (lerch m = 1, lerch m = 3, eta) and four line-free
    # ramanujan cells, so the batches differ at every --jobs
    args = ["sweep", "--identity", "ramanujan,lerch,eta", "--k", "1", "--m", "1,3",
            "--theta", "0,0.5", "--digits", "30"]
    tasks = cli._sweep_grid(cli._build_config(cli.build_parser().parse_args(args)))
    assert len({cli._line_key(t) for t in tasks} - {None}) == 3
    outs = []
    for jobs in ("1", "2", "3", "5"):
        outs.append(tmp_path / f"jobs{jobs}.csv")
        assert run(args + ["--out", str(outs[-1]), "--jobs", jobs]) == 0
    capsys.readouterr()
    assert len(outs[0].read_text().splitlines()) == len(tasks) + 1
    assert all(o.read_bytes() == outs[0].read_bytes() for o in outs[1:])


def _grid(identity, k, m, theta, digits=30):
    return cli._sweep_grid(cli.RunConfig(identity=identity.split(","), k_list=k, m_list=m,
                                         theta_list=theta, digits=digits))


def _assert_partition(batches, tasks):
    # every cell in exactly one non-empty batch, in grid order within it
    assert sorted(i for b in batches for i in b) == list(range(len(tasks)))
    assert all(b and b == sorted(b) for b in batches)


def test_plan_batches_cells_by_fold_line():
    # the benchmark's sweep grid makes three line groups: the m = -1 line
    # (zeta abscissas {5/2, -5/2}) with quasimodular, the m = 1 line
    # ({11/2, -3/2}) and eta's line ({7/2, -3/2}); dixit and ramanujan make
    # no line
    tasks = _grid("main,dixit,quasimodular,eta,lerch,ramanujan", [1, 2], [1, -1], ["0.45"])
    assert {cli._line_key(t) for t in tasks} == {
        None, (30, frozenset((2.5, -2.5))), (30, frozenset((5.5, -1.5))),
        (30, frozenset((3.5, -1.5)))}
    batches = cli._plan(tasks, 2)
    _assert_partition(batches, tasks)
    names = [sorted({(tasks[i][0], tasks[i][2]) for i in b}) for b in batches]
    assert names == [
        [("dixit", 1), ("lerch", -1), ("main", -1), ("quasimodular", None),
         ("ramanujan", 1)],
        [("dixit", -1), ("eta", None), ("lerch", 1), ("main", 1), ("ramanujan", -1)]]
    assert cli._plan(tasks, 1) == [list(range(len(tasks)))]


def test_plan_splits_one_line_across_workers():
    # a theta scan of one line is split into contiguous halves
    tasks = _grid("main", [1], [1], ["0", "0.1", "0.2", "0.3", "0.4"])
    assert {cli._line_key(t) for t in tasks} == {(30, frozenset((5.5, -1.5)))}
    batches = cli._plan(tasks, 2)
    _assert_partition(batches, tasks)
    assert sorted(batches) == [[0, 1], [2, 3, 4]]
    # more workers than cells: one cell each
    batches = cli._plan(tasks[:3], 8)
    _assert_partition(batches, tasks[:3])
    assert len(batches) == 3


def test_sweep_failing_cell_inside_a_pool_batch(tmp_path, monkeypatch, capsys):
    real_verify = identities.verify

    def verify(identity, *, k, m, theta, ctx):
        if theta == "0":
            raise mellin.QuadratureError("forced failure", trace=[{"h": 0.5, "marker": 7}])
        return real_verify(identity, k=k, m=m, theta=theta, ctx=ctx)

    # patched before the pool forks, so the workers run the double
    monkeypatch.setattr(identities, "verify", verify)
    args = ["sweep", "--identity", "main", "--k", "1", "--m", "1",
            "--theta", "0,0.3,0.5,1.0", "--digits", "15"]
    tasks = cli._sweep_grid(cli._build_config(cli.build_parser().parse_args(args)))
    assert cli._plan(tasks, 2) == [[0, 1], [2, 3]]
    out = tmp_path / "r.csv"
    assert run(args + ["--jobs", "2", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    # the failing cell leads its batch; the cell after it still ran, and
    # the rows are in grid order
    assert [ln.split(",")[3] for ln in out.read_text().splitlines()[1:]] == ["0.3", "0.5", "1.0"]
    assert [ln.split(" theta=")[1].split(":")[0] for ln in captured.out.splitlines()] == [
        "0.3", "0.5", "1.0"]
    assert "non-convergence in main k=1 m=1 theta=0: forced failure" in captured.err
    assert '"marker": 7' in captured.err


def test_vacuous_eisenstein_cell_is_no_check(tmp_path, capsys):
    # theta = 0 makes alpha = beta, so with m even each side is X - X
    out = tmp_path / "r.json"
    assert run(["verify", "eisenstein", "--k", "1", "--theta", "0", "--digits", "15",
                "--format", "json", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("NO CHECK eisenstein k=1 m=2 theta=0.0:") and "PASS" not in printed
    [row] = json.loads(out.read_text())
    assert row["passed"] is False and row["checked"] is False
    # odd m at theta = 0, and the default theta, are real checks
    assert run(["verify", "eisenstein", "--k", "1", "--m", "3", "--theta", "0",
                "--digits", "15"]) == 0
    assert capsys.readouterr().out.startswith("PASS eisenstein k=1 m=3 theta=0.0:")
    assert run(["verify", "eisenstein", "--k", "1", "--digits", "15"]) == 0
    assert capsys.readouterr().out.startswith("PASS eisenstein k=1 m=2 theta=0.5:")


def test_vacuous_eta_cell_is_no_check(tmp_path, capsys):
    # theta = 0 makes alpha = beta: the lhs is X - X and the rhs exactly 0
    out = tmp_path / "r.json"
    assert run(["verify", "eta", "--k", "1", "--theta", "0", "--digits", "15",
                "--format", "json", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("NO CHECK eta k=1 m=None theta=0.0:") and "PASS" not in printed
    [row] = json.loads(out.read_text())
    assert row["passed"] is False and row["checked"] is False
    # the default theta is a real check
    assert run(["verify", "eta", "--k", "1", "--digits", "15"]) == 0
    assert capsys.readouterr().out.startswith("PASS eta k=1 m=None theta=0.5:")


def test_vacuous_even_m_cell_is_no_check(capsys):
    # theta = 0 with m even: the series and derivative terms cancel by
    # construction, and the cell compares an expression with itself plus
    # B(pi, pi); odd m at theta = 0 is a real check
    flags = ["--theta", "0", "--digits", "15"]
    for even, odd in ((["main", "--k", "2", "--m", "2"], ["main", "--k", "2", "--m", "1"]),
                      (["ramanujan", "--m", "-2"], ["ramanujan", "--m", "-1"]),
                      (["dixit", "--m", "2"], ["dixit", "--m", "1"])):
        assert run(["verify", *even, *flags]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith(f"NO CHECK {even[0]} ") and "PASS" not in printed
        assert run(["verify", *odd, *flags]) == 0
        assert capsys.readouterr().out.startswith(f"PASS {odd[0]} ")


@pytest.mark.parametrize("argv,shown", [
    (["verify", "main", "--k", "2", "--m", "1", "--theta", "inf"], "inf"),
    (["verify", "main", "--k", "2", "--m", "1", "--theta=-inf"], "-inf"),
    (["verify", "main", "--k", "2", "--m", "1", "--theta", "nan"], "nan"),
    (["verify", "main", "--k", "2", "--m", "1", "--alpha", "inf"], "+inf"),
    (["sweep", "--identity", "main", "--k", "2", "--m", "1", "--theta", "0.3,inf"], "inf"),
])
def test_non_finite_theta_is_a_usage_error(capsys, argv, shown):
    # rejected with the grid, before any cell runs: no row is printed
    assert run([*argv, "--digits", "15"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: theta must be finite, got {shown}\n"


def test_sweep_empty_grid_exit_two(capsys):
    assert run(["sweep", "--identity", "main", "--m", "", "--digits", "30"]) == 2
    capsys.readouterr()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("identity=ramanujan\nm_list=1\ntheta_list=0\n"
                   "digits=30    # comment\nformat=json\n")
    out = tmp_path / "o.json"
    assert run(["sweep", "--config", str(cfg), "--m", "1,-1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(json.loads(out.read_text())) == 2   # flag overrode m_list
    assert run(["sweep", "--config", str(cfg), "--format", "csv", "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(out.read_text().splitlines()) == 2   # and --format overrode format


@pytest.mark.parametrize("text,error", [
    pytest.param("this is not a key value line", "expected key=value", id="no-equals"),
    pytest.param("k = 1,2\nidentity=ramanujan", "unknown config key 'k'", id="unknown-key"),
    pytest.param("trace=on", "trace must be 0/1/true/false/yes/no, got 'on'", id="trace-on"),
    pytest.param("timing=2", "timing must be 0/1/true/false/yes/no, got '2'", id="timing-2"),
    pytest.param("jobs=-1", "--jobs must be >= 0", id="negative-jobs"),
    pytest.param("format=xml", "unknown output format 'xml'", id="format-xml"),
    pytest.param("jobs=two", "bad.cfg: jobs must be an integer, got 'two'", id="jobs-two"),
    pytest.param("digits=abc", "bad.cfg: digits must be an integer, got 'abc'", id="digits-abc"),
])
def test_config_file_bad_line(tmp_path, capsys, text, error):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + "\n")
    assert run(["sweep", "--config", str(cfg)]) == 2
    assert error in capsys.readouterr().err


def test_closed_stdout_exits_quietly(monkeypatch, capsys):
    # the reader went away (``ztl ... | head``): exit 1 with nothing on
    # stderr, and stdout left on devnull so the flush at exit cannot raise
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert run(["verify", "eisenstein", "--k", "1", "--digits", "15"]) == 1
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
    assert capsys.readouterr().err == ""


def test_env_digits_override(monkeypatch, capsys):
    monkeypatch.setenv("ZTL_DIGITS", "30")
    assert run(["verify", "ramanujan", "--m", "1", "--theta", "0"]) == 0
    out = capsys.readouterr().out
    assert "tol 1.0e-20" in out
    monkeypatch.setenv("ZTL_DIGITS", "not-a-number")
    assert run(["verify", "ramanujan", "--m", "1", "--theta", "0"]) == 2
    capsys.readouterr()


def test_alpha_flag_equivalent_to_theta(tmp_path, capsys):
    assert run(["verify", "ramanujan", "--m", "1",
                "--alpha", "3.141592653589793238462643383279502884", "--digits", "30"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    # alpha = pi to 59 decimals: theta = log(alpha/pi) ~ -1.5e-60, read at
    # the working precision, not at 53 bits (where it came out near 1e-17)
    path = tmp_path / "alpha.json"
    assert run(["verify", "ramanujan", "--m", "1", "--alpha", PI_60, "--digits", "50",
                "--format", "json", "--out", str(path)]) == 0
    capsys.readouterr()
    (row,) = json.loads(path.read_text())
    assert abs(float(row["theta"])) < 1e-50, row["theta"]


def test_alpha_must_be_positive(capsys, monkeypatch):
    def work(*a, **kw):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(mellin, "line_integral", work)
    assert run(["verify", "main", "--alpha", "-1", "--digits", "15"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: alpha must be positive\n"


def test_theta_and_alpha_together_exit_two(capsys):
    # both flags set theta, so giving both is a usage error
    assert run(["verify", "ramanujan", "--m", "1", "--theta", "0.7", "--alpha", "3.14159",
                "--digits", "15"]) == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_numerical_failure_exit_three(monkeypatch, capsys):
    def boom(*a, **kw):
        raise mellin.QuadratureError("forced failure", trace=[{"h": 0.5}])
    monkeypatch.setattr(identities, "verify", boom)
    assert run(["verify", "main", "--k", "1", "--m", "1", "--digits", "30"]) == 3
    assert "non-convergence" in capsys.readouterr().err


def test_verify_trace_output(capsys):
    assert run(["verify", "quasimodular", "--k", "1", "--theta", "0",
                "--digits", "30", "--trace"]) == 0
    out = capsys.readouterr().out
    assert '"kind": "line"' in out and '"discrepancy"' in out and '"estimate"' in out


def test_sweep_trace_output(tmp_path, capsys):
    args = ["sweep", "--identity", "quasimodular", "--k", "1", "--theta", "0,0.5",
            "--digits", "30"]
    plain = tmp_path / "plain.csv"
    assert run(args + ["--out", str(plain), "--jobs", "1"]) == 0
    assert '"kind"' not in capsys.readouterr().out
    for jobs in ("1", "2"):
        traced = tmp_path / f"traced{jobs}.csv"
        assert run(args + ["--out", str(traced), "--jobs", jobs, "--trace"]) == 0
        out = capsys.readouterr().out
        assert '"kind": "line"' in out and '"estimate"' in out
        # the traces come after the report lines, as one JSON list
        report_lines, _, dump = out.partition("\n[")
        assert report_lines.count("PASS quasimodular") == 2
        assert all(t["kind"] in ("line", "circle") for t in json.loads("[" + dump))
        assert traced.read_bytes() == plain.read_bytes()


def test_psi_trace_output(capsys):
    # psi's inverse-Mellin line passes its own step list; the sink gets it too
    assert run(["psi", "--k", "3", "--rho", "2", "--x", "1", "--digits", "15",
                "--trace"]) == 0
    out = capsys.readouterr().out
    traces = json.loads(out[out.index("\n[") + 1:])
    assert [t["kind"] for t in traces] == ["line"]
    assert len(traces[0]["steps"]) >= 2


def test_line_failure_prints_trace_tail_without_trace_flag(monkeypatch, capsys):
    monkeypatch.setattr(mellin, "_LINE_REFINE_LIMIT", 0)
    assert run(["verify", "main", "--k", "2", "--digits", "15"]) == 3
    err = capsys.readouterr().err
    assert "line quadrature did not converge within 0 refinements" in err
    assert '"h": 0.125' in err


def test_sweep_lists_may_start_with_minus_sign():
    args = cli.build_parser().parse_args(
        ["sweep", "--identity", "main", "--k", "1,2", "--m", "-2,-1,1,2",
         "--theta", "-0.3,0.5"])
    cfg = cli._build_config(args)
    assert cfg.m_list == [-2, -1, 1, 2]
    assert cfg.theta_list == ["-0.3", "0.5"]
    assert cfg.k_list == [1, 2]
    args = cli.build_parser().parse_args(["verify", "main", "--m", "-2", "--theta", "-0.3"])
    assert (args.m, args.theta) == (-2, "-0.3")


def test_sweep_trace_sink_removed_after_failing_cell(monkeypatch, capsys):
    sinks = []

    def verify(identity, *, k, m, theta, ctx):
        sinks.append(mellin._TRACE_SINK)
        raise mellin.QuadratureError("forced failure")
    monkeypatch.setattr(identities, "verify", verify)
    assert run(["sweep", "--identity", "ramanujan", "--m", "1,-1", "--digits", "30",
                "--jobs", "1", "--trace"]) == 3
    capsys.readouterr()
    # each cell got a fresh sink, and the failure did not leave one behind
    assert sinks == [[], []] and sinks[0] is not sinks[1]
    assert mellin._TRACE_SINK is None


def test_selftest_filtered(capsys):
    assert run(["selftest", "--digits", "15", "--filter", "reindex"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "identities.reindex_exact" in out


def test_selftest_unknown_filter(capsys):
    assert run(["selftest", "--digits", "15", "--filter", "zzz-no-such"]) == 1
    capsys.readouterr()


def test_selftest_gamma_filter_runs_only_gamma(capsys):
    assert run(["selftest", "--digits", "15", "--filter", "gamma"]) == 0
    out = capsys.readouterr().out
    assert "special.gamma_reflection" in out and "special.gamma_duplication" in out
    assert "zeta_functional" not in out


def test_psi_strategy_flag(capsys):
    base = ["psi", "--k", "1", "--rho", "12", "--x", "1", "--digits", "25"]
    assert run(base + ["--strategy", "closed_form"]) == 0
    a = capsys.readouterr().out
    assert run(base + ["--strategy", "inverse_mellin"]) == 0
    b = capsys.readouterr().out
    assert a.split("=")[1].split()[0][:20] == b.split("=")[1].split()[0][:20]


def test_precision_monotonicity_flagged_not_asserted(tmp_path, capsys, recwarn):
    import warnings
    from ztl import with_precision
    from ztl.identities import verify_ramanujan_classical
    lo = with_precision(30)
    hi = with_precision(50)
    for m, th in [(1, "0"), (-1, "0.3")]:
        with lo.scoped():
            a = verify_ramanujan_classical(m, lo.mpf(th), lo)
        with hi.scoped():
            b = verify_ramanujan_classical(m, hi.mpf(th), hi)
        assert a.passed and b.passed
        if not b.rel_residual <= a.rel_residual:
            warnings.warn(f"residual at 50 digits exceeds residual at 30 "
                          f"(m={m}, theta={th})")
    capsys.readouterr()


def test_sweep_grid_cardinality():
    cfg = cli.RunConfig(identity=["main"], k_list=[1, 2, 3],
                        m_list=[1, -1, 2, -2], theta_list=["0", "0.3", "1.0"],
                        digits=30)
    assert len(cli._sweep_grid(cfg)) == 36


def test_sweep_grid_all_narrows_eisenstein(capsys):
    # the README grid: 'all' drops eisenstein when no m > 1 remains
    cfg = cli.RunConfig(identity=["all"], k_list=[1, 2], m_list=[1, -1],
                        theta_list=["0", "0.5"], digits=30)
    tasks = cli._sweep_grid(cfg)
    assert len(tasks) == 28
    assert {t[0] for t in tasks} == set(identities.IDENTITY_NAMES) - {"eisenstein"}
    cfg.m_list = [1, 3]
    assert [t[2] for t in cli._sweep_grid(cfg) if t[0] == "eisenstein"] == [3] * 4
    # named explicitly, eisenstein still rejects m <= 1
    assert run(["sweep", "--identity", "eisenstein", "--m", "1", "--digits", "30"]) == 2
    assert "eisenstein requires m > 1" in capsys.readouterr().err


def test_sweep_grid_all_narrows_lerch(capsys):
    # 'all' gives lerch only its odd m and drops it when none remain
    cfg = cli.RunConfig(identity=["all"], k_list=[1], m_list=[2],
                        theta_list=["0"], digits=30)
    tasks = cli._sweep_grid(cfg)
    assert "lerch" not in {t[0] for t in tasks}
    assert {t[0] for t in tasks} == set(identities.IDENTITY_NAMES) - {"lerch"}
    cfg.m_list = [2, 3, -1]
    assert [t[2] for t in cli._sweep_grid(cfg) if t[0] == "lerch"] == [3, -1]
    # named explicitly, lerch still rejects even m
    assert run(["sweep", "--identity", "lerch", "--m", "2", "--digits", "30"]) == 2
    assert "lerch requires odd m" in capsys.readouterr().err


def test_sweep_keeps_going_after_numerical_failure(tmp_path, monkeypatch, capsys):
    real_verify = identities.verify

    def verify(identity, *, k, m, theta, ctx):
        if m == 1:
            raise mellin.QuadratureError("forced failure", trace=[{"h": 0.5, "marker": 7}])
        return real_verify(identity, k=k, m=m, theta=theta, ctx=ctx)

    monkeypatch.setattr(identities, "verify", verify)
    out = tmp_path / "r.csv"
    # the first cell fails; the second must still run and be written
    code = run(["sweep", "--identity", "ramanujan", "--m", "1,-1", "--theta", "0",
                "--digits", "30", "--jobs", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    lines = out.read_text().splitlines()
    assert lines[0] == identities.CSV_HEADER
    assert len(lines) == 2 and lines[1].startswith("ramanujan,1,-1,")
    assert "PASS ramanujan" in captured.out
    assert "non-convergence in ramanujan k=1 m=1 theta=0: forced failure" in captured.err
    assert '"marker": 7' in captured.err
