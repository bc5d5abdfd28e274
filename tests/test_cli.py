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


def test_series_counts(tmp_path, capsys):
    code, out, _ = run(
        capsys, ["series", "--input", write_job(tmp_path, P1_JOB), "--order", "5"]
    )
    assert code == 0
    assert "2 series, 2 independent" in out


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
