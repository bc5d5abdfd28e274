import hashlib
import json
import pathlib
import subprocess
import sys

import pytest

from gkz_forge import cli


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


def test_build_unipotent(tmp_path, capsys):
    code, out, _ = run(capsys, ["build", "--input", write_job(tmp_path, UNIPOTENT_JOB)])
    assert code == 0
    assert "2 a1 d2 + a2 d3" in out


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
    "points,code",
    [([[-1], [0], [1], [2]], 0), ([[-2], [-1], [0], [1]], 0),
     ([[1, 0], [0, 1], [-1, 0], [-1, -1], [0, 0]], 3)],
)
def test_series_rank_two_pole_exits_cleanly(tmp_path, capsys, points, code):
    job = {"schema_version": 1, "dim": len(points[0]), "points": points, "options": {"order": 6}}
    got, out, err = run(capsys, ["series", "--input", write_job(tmp_path, job)])
    assert got == code
    if code == 0:
        assert "3 series, 3 independent" in out
    else:
        assert out == "" and err.startswith("error: ")


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
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_job_exits_2(tmp_path, capsys, case):
    command, patch = MALFORMED[case]
    job = dict(P1_JOB, **patch)
    code, out, err = run(capsys, [command, "--input", write_job(tmp_path, job)])
    assert code == 2
    assert out == "" and err.startswith("error: ")
