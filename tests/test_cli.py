import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import gkz_forge
from gkz_forge import cli, lattice, periods, tautsys
from gkz_forge.errors import SaturationBudgetExceeded


P1_JOB = {
    "schema_version": 1,
    "dim": 1,
    "points": [[-1], [0], [1]],
    "beta": ["1", "0"],
    "section": {"a": [[0.01, 0.0], [1.0, 0.0], [0.01, 0.0]], "i0": 1, "radii": [1.0]},
    "options": {"order": 6, "tol": 1e-10},
}

UNIPOTENT_JOB = {
    "schema_version": 1,
    "system": "p1-unipotent",
    "candidate": {"type": "monomial", "exponents": ["-1", "0", "0"]},
    "section": {"a": [[1.0, 0.0], [0.7, 0.0], [1.3, 0.0]]},
    "options": {"order": 6, "tol": 1e-10},
}

CHAIN_JOB = {
    "schema_version": 1,
    "dim": 1,
    "points": [[-1], [0], [1]],
    "section": {"a": [[1.0, 0.0], [3.0, 0.0], [1.0, 0.0]]},
    "chains": [
        {
            "segments": [
                {
                    "start": [[1.0, 0.0]],
                    "end": [[1.0, 0.0]],
                    "start_flags": [-1],
                    "end_flags": [0],
                },
                {
                    "start": [[1.0, 0.0]],
                    "end": [[1.0, 0.0]],
                    "start_flags": [0],
                    "end_flags": [1],
                },
            ]
        }
    ],
    "options": {"tol": 1e-12},
}


def write_job(tmp_path, payload, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build(tmp_path, capsys):
    code, out, _ = run(capsys, ["build", "--input", write_job(tmp_path, P1_JOB)])
    assert code == 0
    assert "d1 d3 - d2^2" in out
    assert "a1 d1 + a2 d2 + a3 d3 + 1" in out


def test_build_lists_the_toric_ideal(tmp_path, capsys):
    # the kernel basis of the twisted cubic gives d1 d4^2 - d3^3 and
    # d2 d4 - d3^2; I_A is generated by three quadrics
    job = {"schema_version": 1, "dim": 1, "points": [[0], [1], [2], [3]]}
    code, out, _ = run(capsys, ["build", "--input", write_job(tmp_path, job)])
    assert code == 0
    assert out.splitlines()[1:4] == [
        "  [0] d2 d4 - d3^2",
        "  [1] d1 d3 - d2^2",
        "  [2] d1 d4 - d2 d3",
    ]


def test_build_exits_3_when_saturation_runs_out(tmp_path, capsys, monkeypatch):
    # a set whose saturation exceeds the default step cap stops at the cap:
    # it spends the 20,000 steps, and the next one raises
    points = [[-2, 3, 2], [-1, -2, 1], [-1, 2, -1], [0, 2, 2], [2, 3, -2], [3, -1, 2]]
    job = {"schema_version": 1, "dim": 3, "points": points}
    spend, calls, raised = tautsys._spend, [], []

    def counted(budget, what):
        calls.append(what)
        try:
            spend(budget, what)
        except SaturationBudgetExceeded:
            raised.append(len(calls))
            raise

    monkeypatch.setattr(tautsys, "_spend", counted)
    code, out, err = run(capsys, ["build", "--input", write_job(tmp_path, job)])
    assert (len(calls), raised) == (20_001, [20_001])
    assert code == 3 and out == ""
    assert "cap exceeded" in err


def test_build_unipotent(tmp_path, capsys):
    code, out, _ = run(capsys, ["build", "--input", write_job(tmp_path, UNIPOTENT_JOB)])
    assert code == 0
    assert "2 a1 d2 + a2 d3" in out


@pytest.mark.parametrize("command", ["rank", "period", "chain"])
def test_unipotent_job_reads_its_points_without_building_its_system(command, capsys, monkeypatch):
    # the job once built the family's box, scaling and translation operators
    # only to read its points
    built = []
    monkeypatch.setattr(tautsys, "unipotent_p1_system", lambda: built.append(1))
    path = str(pathlib.Path(__file__).parent.parent / "jobs" / "p1_unipotent_verify.json")
    code, _, _ = run(capsys, [command, "--input", path])
    assert built == [] and code == (2 if command == "chain" else 0)


def test_build_unipotent_with_symmetry(tmp_path, capsys):
    # the symmetry block of a p1-unipotent job was dropped
    job = dict(UNIPOTENT_JOB, symmetry=[{"xi": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "beta": 1}])
    code, out, _ = run(capsys, ["build", "--input", write_job(tmp_path, job), "--report", "machine"])
    assert code == 0
    ops = json.loads(out)["operators"]
    assert len(ops) == 4 and ops[3] == "a1 d1 + a2 d2 + a3 d3 + 1"


def test_rank_families(tmp_path, capsys):
    job = dict(P1_JOB)
    code, out, _ = run(capsys, ["rank", "--input", write_job(tmp_path, job)])
    assert code == 0 and "rank = 2" in out

    hesse = {
        "schema_version": 1,
        "dim": 2,
        "points": [[0, 0], [1, 0], [0, 1], [-1, -1]],
    }
    code, out, _ = run(capsys, ["rank", "--input", write_job(tmp_path, hesse)])
    assert code == 0 and "rank = 3" in out

    simplex = {"schema_version": 1, "dim": 2, "points": [[0, 0], [1, 0], [0, 1]]}
    code, out, _ = run(capsys, ["rank", "--input", write_job(tmp_path, simplex)])
    assert code == 0 and "rank = 1" in out


def test_rank_exits_5_when_ehrhart_disagrees(tmp_path, capsys, monkeypatch):
    path = write_job(tmp_path, P1_JOB)
    reports = {r: run(capsys, ["rank", "--input", path, "--report", r]) for r in ("text", "machine")}
    real_oracle = cli.lattice.ehrhart_volume_oracle
    monkeypatch.setattr(cli.lattice, "ehrhart_volume_oracle", lambda pts: real_oracle(pts) + 1)
    code, out, err = run(capsys, ["rank", "--input", path])
    assert code == 5
    assert out == reports["text"][1] + "WARNING: Ehrhart oracle disagrees: 3\n"
    assert "Ehrhart" in err
    code, out, _ = run(capsys, ["rank", "--input", path, "--report", "machine"])
    assert code == 5
    expected = {**json.loads(reports["machine"][1]), "ehrhart": 3, "agree": False}
    assert out == json.dumps(expected, indent=2) + "\n"


def test_series_counts(tmp_path, capsys):
    code, out, _ = run(
        capsys, ["series", "--input", write_job(tmp_path, P1_JOB), "--order", "5"]
    )
    assert code == 0
    assert "2 series, 2 independent" in out


@pytest.mark.parametrize(
    "points",
    [[[-1], [0], [1], [2]], [[-2], [-1], [0], [1]], [[1, 0], [0, 1], [-1, 0], [-1, -1], [0, 0]]],
)
def test_series_rank_two_pole_exits_cleanly(tmp_path, capsys, points):
    job = {"schema_version": 1, "dim": len(points[0]), "points": points, "options": {"order": 6}}
    code, out, err = run(capsys, ["series", "--input", write_job(tmp_path, job)])
    assert code == 0
    count = 4 if len(points[0]) == 2 else 3  # the normalized volume
    assert f"{count} series, {count} independent" in out


def test_series_window_over_the_cap_exits_3(tmp_path, capsys):
    # six points on a line: kernel rank 4, a window of 17^4 offsets at order 8
    job = {"schema_version": 1, "dim": 1, "points": [[k] for k in range(6)]}
    code, out, err = run(capsys, ["series", "--input", write_job(tmp_path, job), "--order", "8"])
    assert code == 3
    assert out == "" and err.startswith("error: lattice window of 83521 offsets")


def test_series_exits_3_when_the_search_finds_no_basis(tmp_path, capsys):
    # the segment with the origin at a vertex: a limit of the current search
    # that bases from the standard pairs of in_w(I_A) should lift
    job = {"schema_version": 1, "dim": 1, "points": [[-2], [-1], [0]]}
    code, out, err = run(capsys, ["series", "--input", write_job(tmp_path, job)])
    assert (code, out) == (3, "")
    assert err == "error: no base exponent and kernel direction yields a full basis\n"


def test_verify_unipotent_golden(tmp_path, capsys):
    code, out, _ = run(capsys, ["verify", "--input", write_job(tmp_path, UNIPOTENT_JOB)])
    assert code == 0
    assert out.count("clean") >= 3
    assert "NONZERO" not in out


def test_verify_constant_flags_euler(tmp_path, capsys):
    job = dict(P1_JOB)
    job.pop("section")
    job["candidate"] = {"type": "constant", "value": 1}
    code, out, _ = run(capsys, ["verify", "--input", write_job(tmp_path, job)])
    assert code == 5
    assert "NONZERO" in out


def test_verify_period_series_clean(tmp_path, capsys):
    job = dict(P1_JOB)
    job["candidate"] = {"type": "period-series"}
    code, out, _ = run(
        capsys,
        ["verify", "--input", write_job(tmp_path, job), "--report", "machine"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_clean"] is True


def test_verify_period_series_rounding_floor_has_no_order(tmp_path, capsys):
    # the box residual of the P1 period series is last-bit rounding of the
    # samples amplified by the stencil: no convergence order to observe
    job = dict(P1_JOB)
    job["candidate"] = {"type": "period-series"}
    code, out, _ = run(capsys, ["verify", "--input", write_job(tmp_path, job)])
    assert code == 0
    fd = {
        line.split("]")[0].strip(" ["): line.split("observed order ")[1]
        for line in out.split("finite-difference residuals")[1].splitlines()
        if "observed order" in line
    }
    assert fd["d1 d3 - d2^2"] == "n/a"
    assert 3.5 < float(fd["a1 d1 + a2 d2 + a3 d3 + 1"]) < 4.5


def test_exit_code_5_on_failed_certificate(tmp_path, capsys):
    job = dict(UNIPOTENT_JOB)
    job["candidate"] = {"type": "monomial", "exponents": ["-2", "0", "0"]}
    code, out, err = run(
        capsys,
        ["verify", "--input", write_job(tmp_path, job), "--report", "machine"],
    )
    assert code == 5
    data = json.loads(out)
    assert data["verdict"] == "failed" and data["all_clean"] is False
    assert "a1 d1 + a2 d2 + a3 d3 + 1" in err

    code, out, _ = run(
        capsys,
        ["verify", "--input", write_job(tmp_path, UNIPOTENT_JOB), "--report", "machine"],
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "certified"


def test_verify_exits_5_when_the_fd_residual_does_not_converge(tmp_path, capsys):
    # z = a1 a3 / a2^2 = 0.36 lies outside the period series' disc |z| < 1/4:
    # the truncated series is symbolically clean but no solution there
    job = dict(P1_JOB)
    job["section"] = {"a": [0.6, 1, 0.6], "i0": 1}
    job["candidate"] = {"type": "period-series"}
    job["options"] = {"order": 16}
    path = write_job(tmp_path, job)
    code, out, err = run(capsys, ["verify", "--input", path, "--report", "machine"])
    assert code == 5
    data = json.loads(out)
    assert data["all_clean"] is True and data["verdict"] == "failed"
    assert "finite-difference" in err and "d1 d3 - d2^2" in err
    code, out, _ = run(capsys, ["verify", "--input", path])
    assert code == 5
    assert "[d1 d3 - d2^2] |res| = 5.367e+04, observed order -0.00 FAILED" in out


@pytest.mark.parametrize(
    "section",
    [
        # z = 0.04: the box and Euler residuals converge at order 4 with
        # Richardson values of 1.7e-6 and 7.2e-9, above tol 1e-10 but far
        # below it relative to their stencil sums
        (0.02, 0.1, 0.02),
        # the box residual is 1.3 times its floor at h and below it at h/2
        (0.03, 0.8, 0.03),
    ],
)
def test_verify_certifies_the_period_series_inside_its_disc(tmp_path, capsys, section):
    job = dict(P1_JOB)
    job["section"] = {"a": list(section), "i0": 1}
    job["candidate"] = {"type": "period-series"}
    job["options"] = {"order": 16}
    code, out, err = run(
        capsys, ["verify", "--input", write_job(tmp_path, job), "--report", "machine"]
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "certified"


def _fd_report(r1, r2, f1, f2):
    return periods.OperatorFD(object(), r1, r2, f1, f2)


def test_fd_verdict_rule():
    ok = periods.OperatorFD.holds
    # converging at order 4, Richardson (16 r2 - r1) / 15 within tol of the
    # stencil sums (floor / eps = 4.5e4 at f2 = 1e-11)
    assert ok(_fd_report(1.6e-3 + 4e-6j, 1e-4 + 4e-6j, 1e-12, 1e-11), 1e-10)
    assert not ok(_fd_report(1.6e-3 + 5e-6j, 1e-4 + 5e-6j, 1e-12, 1e-11), 1e-10)
    # observed order 3.4 or 4.6, or a residual that does not shrink
    for r1 in (1.06e-6, 2.43e-6, 1e-7):
        assert not ok(_fd_report(r1, 1e-7, 1e-12, 1e-11), 1e-10)
    # both residuals at their floors
    assert ok(_fd_report(2e-12, 5e-12, 3e-12, 5e-12), 1e-10)
    # at the floor at h/2 and an O(h^4) residual above its floor at h
    assert ok(_fd_report(2e-10, 5e-12, 3e-12, 1.2e-11), 1e-10)
    assert not ok(_fd_report(2e-9, 5e-12, 3e-12, 1.2e-11), 1e-10)
    # a residual at its floor at h that grows at h/2
    assert not ok(_fd_report(2e-12, 1e-9, 3e-12, 1.2e-11), 1e-10)
    # a residual at twice its floor at h/2 still converges within its floors
    assert ok(_fd_report(9.6e-12, 1.1e-12, 2.6e-13, 5.1e-13), 1e-10)


def test_build_appends_symmetry_operators(tmp_path, capsys):
    xi = [[0, 1, 0], [0, 0, "1/2"], [0, 0, 0]]
    job = dict(P1_JOB, symmetry=[{"xi": xi, "beta": "1/3"}])
    expected = tautsys.symmetry_operator(
        tuple(tuple(Fraction(x) for x in row) for row in xi), Fraction(1, 3)
    ).render()
    path = write_job(tmp_path, job)
    code, out, _ = run(capsys, ["build", "--input", path, "--report", "machine"])
    assert code == 0
    operators = json.loads(out)["operators"]
    gkz = tautsys.gkz_system(lattice.homogenize(P1_JOB["points"], 1), (1, 0)).operators
    assert operators[:-1] == [op.render() for op in gkz]
    assert operators[-1] == expected
    code, out, _ = run(capsys, ["build", "--input", path])
    assert code == 0 and out.splitlines()[-1] == f"  [{len(gkz)}] {expected}"


def test_chain_with_numerator_is_the_general_type_integral(tmp_path, capsys):
    job = {
        "schema_version": 1,
        "dim": 1,
        "points": [[-1], [0], [1], [2]],
        "section": {"a": [1.0, 3.0, 2.0, 0.5]},
        "numerator": {"exponents": [[0], [1]], "b": [0.7, [-0.2, 0.4]]},
        "chains": CHAIN_JOB["chains"],
        "options": {"tol": 1e-11},
    }
    code, out, _ = run(
        capsys, ["chain", "--input", write_job(tmp_path, job), "--report", "machine"]
    )
    assert code == 0
    (got,) = json.loads(out)["chains"]
    section = periods.SectionData(
        A=lattice.homogenize(job["points"], 1),
        coeffs=(1.0, 3.0, 2.0, 0.5),
        numerator_exponents=((0,), (1,)),
        numerator_coeffs=(0.7, complex(-0.2, 0.4)),
    )
    chain = cli.Job(job).chains[0]
    quad = periods.QuadratureSettings(tol=1e-11)
    want = periods.general_type_integral(section, chain, quad)
    assert complex(*got["value"]) == want.value
    assert (got["error"], got["evaluations"]) == (want.error, want.evaluations)
    # numeric_chain_integral reads the numerator too; without one it differs
    assert periods.numeric_chain_integral(section, chain, quad) == want
    cy = periods.SectionData(A=section.A, coeffs=section.coeffs)
    assert periods.numeric_chain_integral(cy, chain, quad).value != want.value


def test_period_with_numerator_integrates_g_over_f(tmp_path, capsys):
    job = dict(P1_JOB, section={"a": [0.3, 1.0, 0.2], "radii": [1.0]})
    job["numerator"] = {"exponents": [[0], [1]], "b": [0.5, [0.1, -0.2]]}
    job["options"] = {"tol": 1e-12}
    code, out, _ = run(
        capsys, ["period", "--input", write_job(tmp_path, job), "--report", "machine"]
    )
    assert code == 0
    # the trapezoid rule on 4096 points of the unit circle
    x = np.exp(2j * np.pi * np.arange(4096) / 4096)
    want = np.mean((0.5 + (0.1 - 0.2j) * x) / (0.3 / x + 1.0 + 0.2 * x))
    assert abs(complex(*json.loads(out)["value"]) - want) < 1e-12


def test_chain_on_a_two_dimensional_job_exits_3(tmp_path, capsys):
    ends = {"start": [1.0, 1.0], "end": [1.0, 1.0]}
    job = {
        "schema_version": 1,
        "dim": 2,
        "points": [[0, 0], [1, 0], [0, 1], [-1, -1]],
        "section": {"a": [1.0, 0.05, 0.05, 0.05]},
        "chains": [{"segments": [dict(ends, start_flags=[-1, 0])]}],
    }
    code, out, err = run(capsys, ["chain", "--input", write_job(tmp_path, job)])
    assert (code, out) == (3, "")
    assert "one-dimensional charts" in err


def test_series_exits_3_when_log_multi_indices_exceed_the_cap(tmp_path, capsys):
    points = [[-2, 1, -2], [-2, 2, -2], [-1, 0, 0], [1, -2, 1], [1, 1, 2], [2, -2, 2], [0, 0, 0]]
    job = {"schema_version": 1, "dim": 3, "points": points, "options": {"order": 2}}
    code, out, err = run(capsys, ["series", "--input", write_job(tmp_path, job)])
    assert (code, out) == (3, "")
    assert "log multi-indices exceed the supported cap" in err


# drive ``python -m gkz_forge.cli`` once per argument list in one interpreter,
# so that both hash seeds cost one start-up each
_CLI_DRIVER = """
import contextlib, io, json, runpy, sys
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    sys.argv = ["gkz_forge.cli"] + argv
    with contextlib.redirect_stdout(out):
        try:
            runpy.run_module("gkz_forge.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
    print(json.dumps([code, out.getvalue()]))
"""


def test_build_and_rank_do_not_depend_on_the_hash_seed(tmp_path):
    rng = random.Random(20)
    argvs = []
    for k, dim in enumerate((1, 2, 3)):
        points = set()
        while len(points) < dim + 3:
            points.add(tuple(rng.randint(-1, 2) for _ in range(dim)))
        job = {"schema_version": 1, "dim": dim, "points": [list(p) for p in sorted(points)]}
        path = write_job(tmp_path, job, f"random_{k}.json")
        argvs += [[command, "--input", path, "--report", "machine"] for command in ("build", "rank")]
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _CLI_DRIVER, json.dumps(argvs)],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("0", "1")
    ]
    outs = [proc.communicate(timeout=60)[0] for proc in procs]
    assert all(proc.returncode == 0 for proc in procs)
    runs = [[json.loads(line) for line in out.splitlines()] for out in outs]
    assert len(runs[0]) == len(argvs)
    assert all(code == 0 for code, _ in runs[0])
    assert runs[0] == runs[1]


def test_period_and_chain(tmp_path, capsys):
    code, out, _ = run(capsys, ["period", "--input", write_job(tmp_path, P1_JOB)])
    assert code == 0 and "cycle integral" in out

    code, out, _ = run(capsys, ["chain", "--input", write_job(tmp_path, CHAIN_JOB)])
    assert code == 0
    assert "0.86081788" in out


def test_machine_report_deterministic(tmp_path, capsys):
    path = write_job(tmp_path, CHAIN_JOB)
    _, out1, _ = run(capsys, ["chain", "--input", path, "--report", "machine"])
    _, out2, _ = run(capsys, ["chain", "--input", path, "--report", "machine"])
    assert out1 == out2
    json.loads(out1)


def test_exit_code_2_on_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run(capsys, ["rank", "--input", str(bad)])
    assert code == 2 and "error" in err

    code, _, _ = run(
        capsys, ["rank", "--input", write_job(tmp_path, {"schema_version": 5})]
    )
    assert code == 2

    job = {"schema_version": 1, "dim": 1, "points": [[1], [2]], "beta": ["1"]}
    code, _, _ = run(capsys, ["build", "--input", write_job(tmp_path, job)])
    assert code == 2

    job = {"schema_version": 1, "dim": 1, "points": [[1], [2]], "stray": True}
    code, _, _ = run(capsys, ["build", "--input", write_job(tmp_path, job)])
    assert code == 2


def test_exit_code_3_on_degenerate(tmp_path, capsys):
    job = {"schema_version": 1, "dim": 2, "points": [[0, 0], [1, 1], [2, 2]]}
    code, _, err = run(capsys, ["build", "--input", write_job(tmp_path, job)])
    assert code == 3

    job = {"schema_version": 1, "dim": 1, "points": [[0], [1], [1]]}
    code, _, _ = run(capsys, ["rank", "--input", write_job(tmp_path, job)])
    assert code == 3


def test_period_on_a_radius_out_of_the_float_range_exits_3(tmp_path, capsys):
    # 1e-320 ** -1 once ended in an OverflowError traceback and exit 1
    job = {"schema_version": 1, "dim": 1, "points": [[-1], [0], [1]]}
    job["section"] = {"a": [0.1, 1, 0.1], "radii": [1e-320]}
    code, out, err = run(capsys, ["period", "--input", write_job(tmp_path, job)])
    assert code == 3 and out == "" and "float range" in err


def test_main_called_twice_in_one_process(tmp_path, capsys):
    # the parser is built once per process; every call parses afresh
    assert cli.make_parser() is cli.make_parser()
    argv = ["chain", "--input", write_job(tmp_path, CHAIN_JOB), "--report", "machine"]
    first, second = run(capsys, argv), run(capsys, argv)
    assert first == second and first[0] == 0 and first[1]
    assert run(capsys, ["rank", "--input", write_job(tmp_path, P1_JOB, "p1.json")])[0] == 0
    for bad in (["orbit", "--input", argv[2]], ["rank"]):
        with pytest.raises(SystemExit) as info:
            cli.main(bad)
        assert info.value.code == 2 and "usage: gkz-forge" in capsys.readouterr().err
    assert run(capsys, argv) == first


def test_exit_code_4_on_nonconvergence(tmp_path, capsys):
    # harshly tight tolerance on a tiny grid cap is unreachable
    job = dict(P1_JOB)
    job["section"] = {
        "a": [[0.45, 0.0], [1.0, 0.0], [0.45, 0.0]],
        "i0": 1,
        "radii": [1.0],
    }
    path = write_job(tmp_path, job)
    code, _, err = run(capsys, ["period", "--input", path, "--tol", "1e-300"])
    assert code == 4


def test_jet_flag_is_rejected(tmp_path, capsys):
    # a jet order below vol - 1 printed "independent" series that were not
    # solutions; neither it nor the unused thread cap is an option any more
    path = write_job(tmp_path, P1_JOB)
    for flag in (["--jet", "0"], ["--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["series", "--input", path] + flag)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_unknown_options_key_exits_2(tmp_path, capsys):
    for key in ("jet", "ordr"):
        job = dict(P1_JOB, options={"order": 6, key: 0})
        code, out, err = run(capsys, ["series", "--input", write_job(tmp_path, job)])
        assert code == 2
        assert out == "" and repr(key) in err


def test_import_does_not_load_mpmath():
    # mpmath is an oracle of the tests only
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    probe = "import sys, gkz_forge; print('mpmath' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=src, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


# the public API, pinned so that a retired name (the reciprocal-gamma series
# engine, the kernel-basis wrapper, the separate Euler-operator constructor)
# cannot come back unnoticed
PUBLIC_API = {
    "ChainSpec", "ExponentMatrix", "GkzForgeError", "IntegrationResult", "LogSeries",
    "QuadratureSettings", "SectionData", "Segment", "SystemSpec", "WeylElement",
    "annihilate_check", "commutator", "count_independent", "cy_beta",
    "ehrhart_volume_oracle", "finite_difference_residual", "fourier_box",
    "frobenius_basis", "general_type_integral", "gkz_system", "homogenize",
    "integer_kernel", "loop_chain", "monomial_series", "multiply", "normalized_volume",
    "numeric_chain_integral", "numeric_cycle_integral", "residue_period",
    "saturate_lattice_ideal", "symmetry_operator", "torus_period_series",
    "unipotent_p1_system",
}


def test_package_exports_resolve_once():
    names = gkz_forge.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    missing = [name for name in names if not hasattr(gkz_forge, name)]
    assert not missing, f"stale exports: {missing}"
    assert set(names) == PUBLIC_API


JOBS = pathlib.Path(__file__).resolve().parents[1] / "jobs"
QUINTIC_JOB = {
    "schema_version": 1,
    "dim": 4,
    "points": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -1, -1, -1], [0, 0, 0, 0]],
    "options": {"order": 8},
}
# sha256 of the exact machine reports; a change to the series model, the
# lattice walk or the operator rendering must leave every one of them intact
MACHINE_REPORT_SHA256 = {
    ("chain_131.json", "build"): "2f7fdff37d01a20824bf50bdb4c692e173131c4c23f8ac544bef3d66496b8844",
    ("chain_131.json", "rank"): "26532913dfc7af564f65daad5f96ed5833edb10738ff70d591379e01e44a4cec",
    ("chain_131.json", "series"): "ff455308ee5e4ce6f34169a98aa569f74ac6abbc8e0997adb482cbabdd572acd",
    ("hesse.json", "build"): "df9b5920d61670ab883ff40d2fc0c08f988747d0c80e633efea9c02d551f42c3",
    ("hesse.json", "rank"): "02bb7b68f28177e117abc57f471abc5be4f0f803006699b1c69de9afc12f23f8",
    ("hesse.json", "series"): "aa1f0c90de54f17d650b75e261cb3832cbf89549c8f61df0c39865c9e480dce2",
    ("p1_cy.json", "build"): "2f7fdff37d01a20824bf50bdb4c692e173131c4c23f8ac544bef3d66496b8844",
    ("p1_cy.json", "rank"): "26532913dfc7af564f65daad5f96ed5833edb10738ff70d591379e01e44a4cec",
    ("p1_cy.json", "series"): "ff455308ee5e4ce6f34169a98aa569f74ac6abbc8e0997adb482cbabdd572acd",
    ("p1_unipotent_verify.json", "build"): "0c71c6ffaaeda9386afed5fd23551468e62d85ae17d594270d2320437ee0d296",
    ("p1_unipotent_verify.json", "rank"): "26532913dfc7af564f65daad5f96ed5833edb10738ff70d591379e01e44a4cec",
    ("quintic_mirror.json", "series"): "f1f6b3ab3f5473b6824e9e0fb3cba109d8a4d2feab8da6efb3ede2262b28a54c",
}


@pytest.mark.parametrize("job,command", sorted(MACHINE_REPORT_SHA256))
def test_exact_machine_reports_are_pinned(tmp_path, capsys, job, command):
    if job == "quintic_mirror.json":
        path = write_job(tmp_path, QUINTIC_JOB, job)
    else:
        path = str(JOBS / job)
    code, out, _ = run(capsys, [command, "--input", path, "--report", "machine"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MACHINE_REPORT_SHA256[job, command]


@pytest.mark.parametrize(
    "command,flags",
    [
        ("series", ["--order", "-1"]),
        ("period", ["--tol", "0"]),
        ("period", ["--tol", "-1"]),
        ("period", ["--tol", "nan"]),
    ],
)
def test_cli_overrides_are_checked_like_options(tmp_path, capsys, command, flags):
    path = write_job(tmp_path, P1_JOB)
    code, out, err = run(capsys, [command, "--input", path] + flags)
    assert code == 2
    assert out == "" and "options." in err


_SEGMENT = {
    "start": [[1.0, 0.0]], "end": [[1.0, 0.0]], "start_flags": [-1], "end_flags": [0],
}
DROP = object()  # a patch value that removes its key from the job
MALFORMED = {
    "radius is not a number": ("period", {"section": dict(P1_JOB["section"], radii=["a"])}),
    "radius is negative": ("period", {"section": dict(P1_JOB["section"], radii=[-1.0])}),
    "radius is zero": ("period", {"section": dict(P1_JOB["section"], radii=[0])}),
    "section a is a number": ("period", {"section": {"a": 5}}),
    "symmetry is a number": ("build", {"symmetry": 3}),
    "chains is a number": ("chain", {"chains": 3}),
    "segment is a list": ("chain", {"chains": [{"segments": [[[1.0, 0.0]]]}]}),
    "chain without segments": ("chain", {"chains": [{"segments": []}]}),
    "segment flag 2": ("chain", {"chains": [{"segments": [dict(_SEGMENT, start_flags=[2])]}]}),
    "segment flag x": ("chain", {"chains": [{"segments": [dict(_SEGMENT, end_flags=["x"])]}]}),
    "tol is NaN": ("period", {"options": {"tol": float("nan")}}),
    "true as a point entry": ("build", {"points": [[-1], [True], [1]]}),
    "true as the order": ("series", {"options": {"order": True}}),
    "rays key": ("build", {"rays": [[1], [-1]]}),
    # the symmetry and numerator keys, with the message each must print
    "symmetry matrix 2x2": (
        "build", {"symmetry": [{"xi": [[1, 0], [0, 1]]}]}, "symmetry matrix 0 must be 3x3",
    ),
    "symmetry without xi": (
        "build", {"symmetry": [{"beta": 1}]}, "each symmetry entry needs a matrix under 'xi'",
    ),
    "numerator without b": (
        "chain", {"numerator": {"exponents": [[0]]}}, "numerator needs 'exponents' and 'b'",
    ),
    "numerator lengths differ": (
        "chain",
        {"numerator": {"exponents": [[0], [1]], "b": [1.0]}},
        "numerator exponents and coefficients differ in length",
    ),
    # every other check of the job file, with its message
    "beta entry x": (
        "build", {"beta": ["x", "0"]},
        "beta entry must be an integer or a rational string like '3/4', got 'x'",
    ),
    "section coefficient x": (
        "period", {"section": {"a": ["x", 1.0, 0.01]}},
        "section coefficient must be a number or a [re, im] pair, got 'x'",
    ),
    "unknown system": ("build", {"system": "tautological"}, "system must be 'gkz' or 'p1-unipotent'"),
    "no points": ("build", {"points": DROP}, "gkz jobs need 'dim' and 'points'"),
    "dim is a string": ("build", {"dim": "1"}, "dim must be an integer"),
    "section without a": ("period", {"section": {"i0": 1}}, "section needs coefficient list 'a'"),
    "two section coefficients": (
        "period", {"section": {"a": [1.0, 1.0]}}, "section coefficient count must match the points",
    ),
    "section i0 3": ("period", {"section": dict(P1_JOB["section"], i0=3)}, "section i0 out of range"),
    "segment point of dimension 2": (
        "chain",
        {"chains": [{"segments": [dict(_SEGMENT, end=[[1.0, 0.0], [1.0, 0.0]])]}]},
        "chain 0 segment points must have dimension 1",
    ),
    "candidate without type": ("verify", {"candidate": {}}, "candidate needs a 'type'"),
    "candidate type cycle": (
        "verify", {"candidate": {"type": "cycle"}},
        "candidate type must be monomial, constant or period-series",
    ),
    "candidate type list": (
        "verify", {"candidate": {"type": ["monomial"]}},
        "candidate type must be monomial, constant or period-series",
    ),
    "options is a list": ("period", {"options": []}, "options must be an object"),
    "points empty": (
        "build", {"points": []}, "points must be a nonempty list of integer vectors",
    ),
    "no section": ("period", {"section": DROP}, "this command needs a 'section' block"),
    "candidate exponents of length 2": (
        "verify", {"candidate": {"type": "monomial", "exponents": ["-1", "0"]}},
        "candidate exponents must list 3 rationals",
    ),
    "no candidate": ("verify", {}, "verify needs a 'candidate' block"),
    "no chains": ("chain", {}, "chain command needs at least one chain"),
    # a misspelled key of a nested block ran with that key's default
    "section radius": (
        "period", {"section": {"a": P1_JOB["section"]["a"], "i0": 1, "radius": [0.001]}},
        "unknown section key 'radius'",
    ),
    "segment end_flag": (
        "chain",
        {"chains": [{"segments": [{"start": [1.0], "end": [1.0], "end_flag": [1]}]}]},
        "unknown chain 0 segment key 'end_flag'",
    ),
    "chain segment": (
        "chain", {"chains": [{"segments": [_SEGMENT], "segment": []}]}, "unknown chain 0 key 'segment'",
    ),
    "numerator coeffs": (
        "chain",
        {"numerator": {"exponents": [[0]], "b": [1.0], "coeffs": [1.0]}},
        "unknown numerator key 'coeffs'",
    ),
    "candidate exponent": (
        "verify", {"candidate": {"type": "monomial", "exponents": ["-1"], "exponent": ["-1"]}},
        "unknown candidate key 'exponent'",
    ),
    # a key of another candidate type ran as if it were absent
    "constant candidate coeff": (
        "verify", {"candidate": {"type": "constant", "coeff": 5}}, "unknown candidate key 'coeff'",
    ),
    "period-series candidate exponents": (
        "verify", {"candidate": {"type": "period-series", "exponents": [0, -1, 0]}},
        "unknown candidate key 'exponents'",
    ),
    # the family fixes its points and beta; a job's own were ignored
    "p1-unipotent with dim and points": (
        "build", {"system": "p1-unipotent"}, "p1-unipotent jobs take no 'dim': the family fixes it",
    ),
    "symmetry bet": (
        "build",
        {"symmetry": [{"xi": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "bet": 1}]},
        "unknown symmetry[0] key 'bet'",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_job_exits_2(tmp_path, capsys, case):
    command, patch, *message = MALFORMED[case]
    job = {key: value for key, value in dict(P1_JOB, **patch).items() if value is not DROP}
    code, out, err = run(capsys, [command, "--input", write_job(tmp_path, job)])
    assert code == 2
    assert out == "" and err.startswith("error: ")
    if message:
        assert err == f"error: {message[0]}\n"


def test_list_valued_job_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, ["build", "--input", write_job(tmp_path, [P1_JOB])])
    assert (code, out, err) == (2, "", "error: job file must contain a JSON object\n")


def test_missing_job_file_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, ["build", "--input", str(tmp_path / "absent.json")])
    assert code == 2
    assert out == "" and err.startswith("error: cannot read job file: ")


def test_series_of_the_unipotent_system_exits_3(tmp_path, capsys):
    code, out, err = run(capsys, ["series", "--input", write_job(tmp_path, UNIPOTENT_JOB)])
    assert (code, out) == (3, "")
    assert err == "error: series bases are defined for gkz systems only\n"
