"""End-to-end CLI contract: file formats, reports, exit codes."""

import dataclasses
import json
import os
from pathlib import Path

import pytest

from cpick import KSpec, cli, roundtrip_generate, verify_interpolant
from conftest import FIXTURE_K_JSON

PROBLEM_FEASIBLE = {
    "nodes": [[0, 0], [0.5, 0]],
    "targets": [[0, 0], [0.2, 0]],
    "K": {"K": [1]},
}
PROBLEM_INFEASIBLE = {
    "nodes": [[0, 0], [0.5, 0]],
    "targets": [[0, 0], [0.3, 0]],
    "K": {"K": [1]},
}


def test_check_algebra_exit_codes(run_cli, write_json):
    code, out, _ = run_cli("check-algebra", write_json("k2.json", {"K": [2]}))
    assert code == 1
    assert json.loads(out)["is_algebra"] is False

    code, out, _ = run_cli("check-algebra", write_json("k13.json", {"K": [1, 3]}))
    assert code == 0
    doc = json.loads(out)
    assert doc["is_algebra"] is True
    assert doc["smallest_missing"] == 2
    assert doc["complement_structure"] == {"d": 1, "heads": [2, 4, 5], "n0": 6}

    code, out, _ = run_cli("check-algebra", write_json("kd2.json", {"d": 2, "gaps": [1]}))
    assert code == 0
    assert json.loads(out)["complement_structure"] == {"d": 2, "heads": [2, 3], "n0": 4}


def test_parse_errors_exit_2(run_cli, write_json, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli("check-algebra", str(bad))
    assert code == 2
    assert "line 1" in err

    code, _, err = run_cli("feasible", str(bad), "--mode", "iff")
    assert code == 2

    code, _, err = run_cli("check-algebra", str(tmp_path / "missing.json"))
    assert code == 2

    # malformed numbers are input defects, not "no" verdicts
    for name, patch, field in [
        ("radii.json", {"search": {"radii": 0.5}}, "'radii'"),
        ("tol.json", {"search": {"tol": None}}, "'tol'"),
        ("gaps.json", {"K": {"d": 2, "gaps": ["a"]}}, '"gaps"'),
        ("members.json", {"K": ["x"]}, '"K"'),
        ("tolnan.json", {"search": {"tol": float("nan")}}, "'tol'"),
        ("tolinf.json", {"search": {"tol": float("inf")}}, "'tol'"),
        ("kfloat.json", {"K": [1.7, 3.2]}, '"K"'),
        ("angles.json", {"search": {"angles": 8.7}}, "'angles'"),
        ("anglesbool.json", {"search": {"angles": True}}, "'angles'"),
        ("kbool.json", {"K": [True]}, '"K"'),
        ("dbool.json", {"K": {"d": True, "gaps": [1]}}, '"d"'),
        ("gapsbool.json", {"K": {"d": 1, "gaps": [True]}}, '"gaps"'),
        ("tolbool.json", {"search": {"tol": True}}, "'tol'"),
        ("radiibool.json", {"search": {"radii": [False, 0.5]}}, "'radii'"),
        ("tolstr.json", {"search": {"tol": "1e-8"}}, "'tol'"),
        ("radiistr.json", {"search": {"radii": ["0.5"]}}, "'radii'"),
        # json.load reads NaN and Infinity; they are malformed numbers too
        ("nannode.json", {"nodes": [[float("nan"), 0], [0.5, 0]]}, "nodes[0]: expected finite"),
        ("inftarget.json", {"targets": [[0, 0], [0.2, float("inf")]]}, "targets[1]: expected finite"),
    ]:
        code, _, err = run_cli("feasible", write_json(name, {**PROBLEM_FEASIBLE, **patch}), "--mode", "iff")
        assert code == 2, name
        assert field in err and "Traceback" not in err, err

    code, _, err = run_cli("feasible", write_json("p.json", PROBLEM_FEASIBLE), "--mode", "iff", "--tol", "nan")
    assert code == 2 and "'tol'" in err and "Traceback" not in err, err
    code, _, err = run_cli("check-algebra", write_json("kfloat-only.json", {"K": [1.7, 3.2]}))
    assert code == 2 and '"K"' in err and "Traceback" not in err, err


def test_structured_field_errors(run_cli, write_json):
    path = write_json("nok.json", {"nodes": [[0, 0]], "targets": [[0.1, 0]]})
    code, _, err = run_cli("feasible", path, "--mode", "iff")
    assert code == 2 and "'K'" in err

    path = write_json("badpair.json", {"nodes": [[0, 0], [1]], "targets": [[0, 0], [0, 0]], "K": [1]})
    code, _, err = run_cli("feasible", path, "--mode", "iff")
    assert code == 2 and "nodes[1]" in err

    # stored interpolants: m and d must be integers, low_confidence a JSON boolean
    problem = write_json("p.json", PROBLEM_FEASIBLE)
    interpolant = {"lambda": [0, 0], "m": 2, "d": 1, "schur_steps": [], "tail": [0.8, 0]}
    for name, patch, field in [
        ("mbool.json", {"m": True}, "'m'"),
        ("dbool.json", {"d": True}, "'d'"),
        ("mfloat.json", {"m": 1.5}, "'m'"),
        ("lowconf.json", {"low_confidence": "false"}, "low_confidence"),
        ("nanlam.json", {"lambda": [float("nan"), 0]}, "lambda: expected finite"),
        ("nanstep.json", {"schur_steps": [[[0.1, 0], [0, float("nan")]]]}, "schur_steps[0][1]: expected finite"),
        ("inftl.json", {"tail": [float("inf"), 0]}, "tail: expected finite"),
    ]:
        code, _, err = run_cli("verify", "--function", write_json(name, {**interpolant, **patch}), "--problem", problem)
        assert code == 2, name
        assert field in err and "Traceback" not in err, err


def test_feasible_fixture_reports(run_cli, write_json):
    code, out, _ = run_cli("feasible", write_json("p.json", PROBLEM_FEASIBLE), "--mode", "iff")
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True and doc["pinned"] is True
    assert doc["lambda"] == [0.0, 0.0]
    assert doc["certified"] is True

    code, out, _ = run_cli("feasible", write_json("q.json", PROBLEM_INFEASIBLE), "--mode", "iff")
    assert code == 1
    doc = json.loads(out)
    assert doc["feasible"] is False and doc["certified"] is True
    assert doc["best_min_eigenvalue"] < 0


def test_feasible_sufficient_pinned_negative_is_not_certified(run_cli, write_json, tmp_path):
    # the sufficient criterion fails at the pinned parameter, yet 0.9 z^2
    # interpolates in the class: a failed sufficient criterion proves nothing
    prob = write_json(
        "p13.json", {"nodes": [[0, 0], [0.5, 0]], "targets": [[0, 0], [0.225, 0]], "K": [1, 3]}
    )
    code, out, _ = run_cli("feasible", prob, "--mode", "sufficient")
    assert code == 1
    doc = json.loads(out)
    assert doc["feasible"] is False and doc["pinned"] is True
    assert doc["certified"] is False

    f = write_json("f.json", {"lambda": [0, 0], "m": 2, "d": 1, "schur_steps": [], "tail": [0.9, 0]})
    code, out, _ = run_cli("verify", "--function", f, "--problem", prob)
    assert code == 0 and json.loads(out)["passed"] is True


def test_mode_incompatible_exit_3(run_cli, write_json):
    path = write_json("p13.json", {**PROBLEM_FEASIBLE, "K": {"K": [1, 3]}})
    code, _, err = run_cli("feasible", path, "--mode", "iff")
    assert code == 3
    code, _, _ = run_cli("interpolate", path, "--mode", "iff", "--out", "f.json")
    assert code == 3


def test_interpolate_writes_artifact_and_verify_roundtrips(run_cli, write_json, tmp_path):
    prob = write_json("p.json", PROBLEM_FEASIBLE)
    out_path = tmp_path / "f.json"
    code, out, _ = run_cli("interpolate", prob, "--mode", "iff", "--out", str(out_path))
    assert code == 0
    report = json.loads(out)
    assert report["verification"]["passed"] is True
    artifact = json.loads(out_path.read_text())
    assert artifact["lambda"] == [0.0, 0.0]
    assert artifact["m"] == 2 and artifact["d"] == 1
    assert artifact["schur_steps"] == [[[0.5, 0.0], [0.8, 0.0]]]
    assert artifact["tail"] == [0.0, 0.0]

    code, out, _ = run_cli("verify", "--function", str(out_path), "--problem", prob)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_interpolate_exits_1_when_its_verification_fails(monkeypatch, capsys, write_json, tmp_path):
    def failing(f, problem, k):
        return dataclasses.replace(verify_interpolant(f, problem, k), passed=False)

    monkeypatch.setattr(cli, "verify_interpolant", failing)
    prob = write_json("p.json", PROBLEM_FEASIBLE)
    out_path = tmp_path / "f.json"
    assert cli.main(["interpolate", prob, "--mode", "iff", "--out", str(out_path)]) == 1
    assert json.loads(capsys.readouterr().out)["verification"]["passed"] is False
    # the artifact is still written, so that verify can reproduce the rejection
    assert json.loads(out_path.read_text())["m"] == 2


@pytest.mark.parametrize("k_json", FIXTURE_K_JSON, ids=json.dumps)
def test_interpolate_report_equals_verify_of_its_artifact(capsys, write_json, tmp_path, k_json):
    k = KSpec.from_json(k_json)
    problem, _ = roundtrip_generate(k, 3, 5)
    prob = write_json(
        "p.json",
        {
            "nodes": [[z.real, z.imag] for z in problem.nodes],
            "targets": [[w.real, w.imag] for w in problem.targets],
            "K": k_json,
        },
    )
    mode = "iff" if k.d == 1 and k.gaps == tuple(range(1, len(k.gaps) + 1)) else "sufficient"
    out_path = tmp_path / "f.json"
    code = cli.main(["interpolate", prob, "--mode", mode, "--out", str(out_path)])
    printed = json.loads(capsys.readouterr().out)["verification"]
    assert code == (0 if printed["passed"] else 1)
    assert cli.main(["verify", "--function", str(out_path), "--problem", prob]) == code
    assert json.loads(capsys.readouterr().out) == printed


def test_interpolate_unwritable_out_exits_2(run_cli, write_json, tmp_path):
    prob = write_json("p.json", PROBLEM_FEASIBLE)
    out_path = tmp_path / "missing-dir" / "f.json"
    code, out, err = run_cli("interpolate", prob, "--mode", "iff", "--out", str(out_path))
    assert code == 2 and out == ""
    assert str(out_path) in err and "Traceback" not in err, err


def test_pinned_feasible_at_zero_tolerance(run_cli, write_json, tmp_path):
    # f(z) = 0.4 z^2 interpolates and the pinned block's eigenvalue is 0.028,
    # but the full matrix's zero eigenvalue computes slightly negative: tol 0
    # must judge the block
    prob = write_json(
        "r.json", {"nodes": [[0.5, 0], [0, 0], [-0.5, 0]], "targets": [[0.1, 0], [0, 0], [0.1, 0]], "K": [1]}
    )
    f = write_json("f.json", {"lambda": [0, 0], "m": 2, "d": 1, "schur_steps": [], "tail": [0.4, 0]})
    assert run_cli("verify", "--function", f, "--problem", prob)[0] == 0

    code, out, _ = run_cli("feasible", prob, "--mode", "iff", "--tol", "0")
    doc = json.loads(out)
    assert code == 0 and doc["feasible"] is True and doc["pinned"] is True
    assert doc["best_min_eigenvalue"] == pytest.approx(0.028, abs=1e-12)

    out_path = tmp_path / "built.json"
    assert run_cli("interpolate", prob, "--mode", "iff", "--tol", "0", "--out", str(out_path))[0] == 0
    code, out, _ = run_cli("verify", "--function", str(out_path), "--problem", prob)
    assert code == 0 and json.loads(out)["passed"] is True


def test_interpolate_infeasible_no_file(run_cli, write_json, tmp_path):
    prob = write_json("q.json", PROBLEM_INFEASIBLE)
    out_path = tmp_path / "never.json"
    code, out, _ = run_cli("interpolate", prob, "--mode", "iff", "--out", str(out_path))
    assert code == 1
    assert not out_path.exists()
    assert json.loads(out)["certified"] is True


def test_interpolate_underflowing_node_power_exits_1(run_cli, write_json, tmp_path):
    # iff mode on K = {1, ..., 700} has E = 701, and 0.3**701 underflows to 0.0
    prob = write_json(
        "u.json", {"nodes": [[0.3, 0], [0.5, 0.1]], "targets": [[0.1, 0], [0.1, 0]], "K": list(range(1, 701))}
    )
    out_path = tmp_path / "never.json"
    code, out, err = run_cli("interpolate", prob, "--mode", "iff", "--out", str(out_path))
    assert code == 1 and "Traceback" not in err, err
    doc = json.loads(out)
    assert doc["feasible"] is False and doc["certified"] is False
    assert not out_path.exists()


def test_verify_detects_tampering(run_cli, write_json, tmp_path):
    prob = write_json("p.json", PROBLEM_FEASIBLE)
    out_path = tmp_path / "f.json"
    assert run_cli("interpolate", prob, "--mode", "iff", "--out", str(out_path))[0] == 0

    artifact = json.loads(out_path.read_text())
    artifact["lambda"] = [0.1, 0.0]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(artifact))
    code, out, _ = run_cli("verify", "--function", str(tampered), "--problem", prob)
    assert code == 1
    assert max(json.loads(out)["residuals"]) > 1e-3

    # a chain value outside the disk is a rejected function, not unreadable input
    artifact = json.loads(out_path.read_text())
    artifact["schur_steps"][0][1] = [1.5, 0.0]
    tampered.write_text(json.dumps(artifact))
    code, out, _ = run_cli("verify", "--function", str(tampered), "--problem", prob)
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_against_stricter_class(run_cli, write_json, tmp_path):
    prob = write_json("p.json", PROBLEM_FEASIBLE)
    out_path = tmp_path / "f.json"
    assert run_cli("interpolate", prob, "--mode", "iff", "--out", str(out_path))[0] == 0
    stricter = write_json("p12.json", {**PROBLEM_FEASIBLE, "K": {"K": [1, 2]}})
    code, out, _ = run_cli("verify", "--function", str(out_path), "--problem", stricter)
    assert code == 1
    violations = dict(map(tuple, json.loads(out)["taylor_violations"]))
    assert violations[2] == pytest.approx(0.8, abs=1e-9)


def test_byte_determinism(run_cli, write_json, tmp_path):
    prob = write_json("p.json", PROBLEM_FEASIBLE)
    runs = []
    for name in ("a.json", "b.json"):
        out_path = tmp_path / name
        code, out, _ = run_cli("interpolate", prob, "--mode", "iff", "--out", str(out_path), "--seed", "7")
        assert code == 0
        runs.append((out.replace(name, "X"), out_path.read_bytes()))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_search_flag_overrides(run_cli, write_json):
    prob = write_json(
        "p.json",
        {
            "nodes": [[0.5, 0]],
            "targets": [[0.7, 0]],
            "K": {"K": [1]},
            "search": {"refine_iters": 50},
        },
    )
    code, out, _ = run_cli(
        "feasible", prob, "--mode", "iff", "--radii", "0,0.7", "--angles", "8", "--tol", "1e-6"
    )
    assert code == 0
    cfg = json.loads(out)["config"]
    assert cfg["radii"] == [0.0, 0.7]
    assert cfg["angles"] == 8
    assert cfg["tol"] == 1e-6
    assert cfg["refine_iters"] == 50  # file-level setting survives flag overrides

    code, _, err = run_cli("feasible", prob, "--mode", "iff", "--radii", "2.0")
    assert code == 2  # radius outside [0, 1) is an input defect


def test_log_env_var_goes_to_stderr(run_cli, write_json):
    prob = write_json("p.json", PROBLEM_FEASIBLE)
    env = {**os.environ, "CPICK_LOG": "info"}
    code, out, err = run_cli("feasible", prob, "--mode", "iff", env=env)
    assert code == 0
    json.loads(out)  # stdout still pure JSON
    assert "cpick:" in err
