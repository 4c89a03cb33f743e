"""CLI exit codes, outputs, and byte determinism."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from poslab import InputError, certificate
from poslab.cli import main
from poslab.semialg import grid_points


def write_problem(path, n, objective, constraints, **extra):
    doc = {"n": n, "objective": objective, "constraints": constraints}
    doc.update(extra)
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def interval_problem(tmp_path):
    return write_problem(tmp_path / "p.json", 1, "x1", ["1 - x1^2"])


@pytest.fixture
def shifted_problem(tmp_path):
    return write_problem(tmp_path / "q.json", 1, "x1 + 2", ["1 - x1^2"])


# ----------------------------------------------------------------------
# solve


def test_solve_writes_bound(tmp_path, interval_problem):
    out = tmp_path / "sol.json"
    code = main(["solve", "--input", interval_problem, "--level", "2",
                 "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["lower_bound"] == pytest.approx(-1.0, abs=1e-5)
    assert data["certificate"] is not None
    assert data["verification"]["pass"] is True


def test_solve_failed_verification_exits_2(tmp_path, interval_problem, monkeypatch):
    # a negative tolerance fails every certificate: no bound may be reported
    monkeypatch.setattr(certificate, "DEFAULT_RESIDUAL_TOL", -1.0)
    out = tmp_path / "sol.json"
    code = main(["solve", "--input", interval_problem, "--level", "2",
                 "--output", str(out)])
    assert code == 2
    data = json.loads(out.read_text())
    assert data["lower_bound"] is None
    assert data["finite"] is False
    assert "residual" in data["reason"]
    assert data["certificate"] is not None
    assert data["verification"]["pass"] is False


def test_solver_counters_in_payloads(tmp_path, monkeypatch, interval_problem):
    from poslab.sdp import _Anderson

    out = tmp_path / "sol.json"
    assert main(["solve", "--input", interval_problem, "--level", "2",
                 "--output", str(out)]) == 0
    solver = json.loads(out.read_text())["solver"]
    assert solver["anderson_accepted"] > 0
    assert isinstance(solver["anderson_rejected"], int)

    # A feasibility solve (41 iterations) that fills the memory of 8 steps
    # and extrapolates; record which iterations did.
    made = []
    extrapolate = _Anderson.extrapolate

    def recording(self, s, t):
        point = extrapolate(self, s, t)
        made.append(point is not None)
        return point

    monkeypatch.setattr(_Anderson, "extrapolate", recording)
    path = write_problem(tmp_path / "c.json", 1, "x1 + 1.02", ["1 - x1^2"])
    assert main(["certify", "--input", path, "--level", "8",
                 "--output", str(out)]) == 0
    solver = json.loads(out.read_text())["solver"]
    assert solver["status"] == "feasible"
    assert solver["anderson_accepted"] > 0
    assert solver["anderson_rejected"] > 0
    # each extrapolated point is judged by the next iteration, except the
    # one the run stopped on
    assert len(made) == solver["iterations"]
    assert solver["anderson_accepted"] + solver["anderson_rejected"] == sum(made[:-1])


def test_solve_level_below_degree_exits_2(tmp_path):
    path = write_problem(tmp_path / "p.json", 1, "x1^4", ["1 - x1^2"])
    out = tmp_path / "sol.json"
    code = main(["solve", "--input", path, "--level", "2", "--output", str(out)])
    assert code == 2
    data = json.loads(out.read_text())
    assert data["finite"] is False
    assert data["lower_bound"] is None


def test_solve_unbounded_objective_ends_on_a_farkas_certificate(tmp_path):
    # -x1 is unbounded below on x1 >= 0: no shift of it lies in any level of
    # the cone, and the first Farkas check of the optimization form says so
    path = write_problem(tmp_path / "p.json", 1, "-x1", ["x1"])
    out = tmp_path / "sol.json"
    code = main(["solve", "--input", path, "--level", "2", "--output", str(out)])
    assert code == 2
    data = json.loads(out.read_text())
    assert data["lower_bound"] is None
    assert data["finite"] is False
    assert data["status"] == "infeasible-detected"
    assert "Farkas certificate for level 2: no Gram certificate exists" in data["reason"]
    assert data["solver"]["iterations"] == 25
    assert data["solver"]["farkas_rhs"] is not None


def test_solve_malformed_polynomial_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 1, "objective": "2**x1", "constraints": []}))
    assert main(["solve", "--input", str(path), "--level", "2"]) == 1


def test_solve_missing_file_exits_1(tmp_path):
    assert main(["solve", "--input", str(tmp_path / "nope.json"), "--level", "2"]) == 1


def test_solve_invalid_json_exits_1(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve", "--input", str(path), "--level", "2"]) == 1


# ----------------------------------------------------------------------
# certify / verify


def test_certify_found_and_verify_roundtrip(tmp_path, shifted_problem):
    cert_out = tmp_path / "res.json"
    code = main(["certify", "--input", shifted_problem, "--level", "2",
                 "--output", str(cert_out)])
    assert code == 0
    payload = json.loads(cert_out.read_text())
    assert payload["found"] is True
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(payload["certificate"]))
    assert main(["verify", "--input", shifted_problem,
                 "--certificate", str(cert_path)]) == 0


def test_certify_not_found_exits_2(tmp_path, interval_problem):
    # min of x1 on [-1,1] is negative, so x1 itself has no certificate
    assert main(["certify", "--input", interval_problem, "--level", "2"]) == 2


def test_certify_preordering_mode(tmp_path):
    path = write_problem(tmp_path / "p.json", 2, "x1*x2", ["x1", "x2"])
    out = tmp_path / "res.json"
    code = main(["certify", "--input", path, "--level", "2",
                 "--mode", "preordering", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["found"] is True
    # the emitted preordering certificate verifies through the CLI too
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(payload["certificate"]))
    assert main(["verify", "--input", path, "--certificate", str(cert_path)]) == 0


def test_verify_perturbed_exits_3(tmp_path, shifted_problem):
    out = tmp_path / "res.json"
    main(["certify", "--input", shifted_problem, "--level", "2",
          "--output", str(out)])
    cert = json.loads(out.read_text())["certificate"]
    cert["entries"][0]["gram"][0][0] += 0.1
    bad = tmp_path / "bad_cert.json"
    bad.write_text(json.dumps(cert))
    assert main(["verify", "--input", shifted_problem,
                 "--certificate", str(bad)]) == 3


def test_verify_scaled_certificate_exits_3(tmp_path, shifted_problem):
    # ten times a certificate of f certifies 10 f: residual 9 ||f|| = 18
    out = tmp_path / "res.json"
    main(["certify", "--input", shifted_problem, "--level", "2",
          "--output", str(out)])
    cert = json.loads(out.read_text())["certificate"]
    for entry in cert["entries"]:
        entry["gram"] = [[10 * q for q in row] for row in entry["gram"]]
    scaled = tmp_path / "scaled_cert.json"
    scaled.write_text(json.dumps(cert))
    report = tmp_path / "report.json"
    assert main(["verify", "--input", shifted_problem, "--certificate", str(scaled),
                 "--output", str(report)]) == 3
    data = json.loads(report.read_text())["report"]
    assert data["pass"] is False
    assert data["residual_norm"] == pytest.approx(18.0, rel=1e-6)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--level", "2"],
        ["certify", "--level", "2"],
        ["verify", "--certificate", "CERT"],
        ["converge", "--levels", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_no_flag_sets_the_verification_threshold(tmp_path, shifted_problem, argv):
    res = tmp_path / "res.json"
    main(["certify", "--input", shifted_problem, "--level", "2", "--output", str(res)])
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(json.loads(res.read_text())["certificate"]))
    argv = [str(cert) if a == "CERT" else a for a in argv] + ["--input", shifted_problem]
    out = tmp_path / "out.json"
    assert main(argv + ["--output", str(out)]) == 0  # succeeds without the flag
    out.unlink()
    assert main(argv + ["--tol", "1e-6", "--output", str(out)]) == 1
    assert not out.exists()


def test_verify_missing_certificate_exits_1(tmp_path, shifted_problem):
    assert main(["verify", "--input", shifted_problem,
                 "--certificate", str(tmp_path / "nope.json")]) == 1


def test_verify_mismatched_generators_exits_1(tmp_path, shifted_problem):
    out = tmp_path / "res.json"
    main(["certify", "--input", shifted_problem, "--level", "2",
          "--output", str(out)])
    cert = json.loads(out.read_text())["certificate"]
    other = write_problem(tmp_path / "other.json", 1, "x1 + 2", ["2 - x1^2"])
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    assert main(["verify", "--input", other,
                 "--certificate", str(cert_path)]) == 1


def _zero_padded(entry, row):
    """The entry with ``row`` added to its basis and a zero Gram row/column."""
    size = len(entry["gram"])
    entry["basis"].append(row)
    entry["gram"] = [r + [0.0] for r in entry["gram"]] + [[0.0] * (size + 1)]


# 2 + x1 = (sigma_0 over (1, x1)) + (1/2)(1 - x1^2), as preordering entries
_PREORDERING_CERT = {
    "mode": "preordering", "n": 1, "generators": ["-x1^2 + 1"],
    "entries": [
        {"delta": [0], "basis": [[0], [1]], "gram": [[1.5, 0.5], [0.5, 0.5]]},
        {"delta": [1], "basis": [[0]], "gram": [[0.5]]},
    ],
}


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda c: c.update(n=1.7), '"n" must be an integer'),
        (lambda c: c.update(n=True), '"n" must be an integer'),
        (lambda c: c["entries"][1].update(index=0.9), '"index" must be an integer'),
        (lambda c: c["entries"][1].update(index=True), '"index" must be an integer'),
        (lambda c: c["entries"][0]["basis"][1].__setitem__(0, 0.5),
         "a basis exponent must be an integer"),
        (lambda c: _zero_padded(c["entries"][0], [-1]), "entries >= 0"),
        (lambda c: _zero_padded(c["entries"][0], [0, 1]), "length 1"),
        (lambda c: c.update(_PREORDERING_CERT, entries=[
            dict(_PREORDERING_CERT["entries"][0], delta=[True]),
            _PREORDERING_CERT["entries"][1]]), 'a "delta" entry must be an integer'),
        (lambda c: c.update(_PREORDERING_CERT, entries=[
            dict(_PREORDERING_CERT["entries"][0], delta=[0.0]),
            _PREORDERING_CERT["entries"][1]]), 'a "delta" entry must be an integer'),
    ],
    ids=["n-float", "n-bool", "index-float", "index-bool", "exponent-float",
         "exponent-negative", "row-length", "delta-bool", "delta-float"],
)
def test_verify_reads_only_integers_where_written(
    tmp_path, capsys, shifted_problem, edit, named
):
    res = tmp_path / "res.json"
    main(["certify", "--input", shifted_problem, "--level", "2", "--output", str(res)])
    cert = json.loads(res.read_text())["certificate"]
    cert_path = tmp_path / "cert.json"
    if "delta" in named:  # the unedited preordering certificate verifies
        cert_path.write_text(json.dumps(_PREORDERING_CERT))
        assert main(["verify", "--input", shifted_problem,
                     "--certificate", str(cert_path)]) == 0
    edit(cert)
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    out = tmp_path / "out.json"
    assert main(["verify", "--input", shifted_problem, "--certificate", str(cert_path),
                 "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert named in err
    assert not out.exists()


def test_disproof_roundtrip_through_separate_processes(tmp_path):
    # negative near the origin, inside the set: in no level of the module
    path = write_problem(tmp_path / "n.json", 2, "x1^2 + x2^2 - 0.5",
                         ["1 - x1^2 - x2^2", "x1 + 0.5"])
    out = tmp_path / "res.json"
    proc = _run_module(["certify", "--input", path, "--level", "2",
                        "--output", str(out)], {})
    assert proc.returncode == 2
    payload = json.loads(out.read_text())
    assert payload["found"] is False
    assert payload["certificate"] is None
    assert payload["disproof"]["value"] < 0
    assert "no level of the cone" in payload["reason"]
    disproof = tmp_path / "disproof.json"
    disproof.write_text(json.dumps(payload["disproof"]))
    check = tmp_path / "check.json"
    proc = _run_module(["verify", "--input", path, "--disproof", str(disproof),
                        "--output", str(check)], {})
    assert proc.returncode == 0
    report = json.loads(check.read_text())["disproof"]
    assert report["pass"] is True
    assert report["point"] == payload["disproof"]["point"]
    assert report["value"] == payload["disproof"]["value"]

    # moved outside S, or to where the target is >= 0: the check fails
    for point, why in (([-0.6, 0.0], "g2 is -0.09"), ([0.75, 0.0], ">= 0")):
        disproof.write_text(json.dumps(dict(payload["disproof"], point=point)))
        proc = _run_module(["verify", "--input", path, "--disproof", str(disproof),
                            "--output", str(check)], {})
        assert proc.returncode == 3
        report = json.loads(check.read_text())["disproof"]
        assert report["pass"] is False
        assert why in report["reason"]


def test_certify_payload_has_no_disproof_for_a_member(tmp_path, shifted_problem):
    out = tmp_path / "res.json"
    assert main(["certify", "--input", shifted_problem, "--level", "2",
                 "--output", str(out)]) == 0
    assert json.loads(out.read_text())["disproof"] is None


def test_verify_disproof_value_past_the_float_range(tmp_path):
    # -x1^2 at 1e200 is -1e400: still a disproof, with no float value
    path = write_problem(tmp_path / "p.json", 1, "0 - x1^2", ["x1"])
    disproof = tmp_path / "d.json"
    disproof.write_text(json.dumps({"point": [1e200]}))
    out = tmp_path / "out.json"
    assert main(["verify", "--input", path, "--disproof", str(disproof),
                 "--output", str(out)]) == 0
    report = json.loads(out.read_text())["disproof"]
    assert report["pass"] is True
    assert report["value"] is None


def test_verify_disproof_rejects_malformed_files(tmp_path, capsys, interval_problem):
    bad = tmp_path / "bad.json"
    malformed = ('{"value": -1}', '{"point": ["a"]}', "[]", '{"point": "1"}',
                 '{"point": [true]}', '{"point": {"0": 0.5}}',
                 '{"point": [1%s]}' % ("0" * 400))
    for text in malformed:
        bad.write_text(text)
        assert main(["verify", "--input", interval_problem,
                     "--disproof", str(bad)]) == 1
        assert "malformed disproof" in capsys.readouterr().err
    for text in ('{"point": [0.0, 0.0]}', '{"point": [NaN]}'):
        bad.write_text(text)
        assert main(["verify", "--input", interval_problem,
                     "--disproof", str(bad)]) == 1
    # --certificate and --disproof exclude each other, and one is required
    assert main(["verify", "--input", interval_problem]) == 1
    assert main(["verify", "--input", interval_problem, "--disproof", str(bad),
                 "--certificate", str(bad)]) == 1


# ----------------------------------------------------------------------
# converge


def test_converge_csv_table(tmp_path, interval_problem):
    out = tmp_path / "conv.csv"
    code = main(["converge", "--input", interval_problem, "--levels", "2:6:2",
                 "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "k,f_k_star,grid_f_star,gap,gap_bound"
    assert len(lines) == 4
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [2, 4, 6]
    bounds = [float(r[1]) for r in rows]
    for a, b in zip(bounds, bounds[1:]):
        assert a <= b + 1e-6
    for r in rows:
        assert abs(float(r[3])) <= 1e-6  # exact at k = 2 already


def test_converge_levels_list_json(tmp_path, shifted_problem):
    out = tmp_path / "conv.json"
    code = main(["converge", "--input", shifted_problem, "--levels", "2,4",
                 "--format", "json", "--output", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["k"] for r in rows] == [2, 4]


def test_converge_two_dim_box_nondecreasing(tmp_path):
    path = write_problem(
        tmp_path / "p.json", 2, "x1 + x2 + 2", ["1 - x1^2", "1 - x2^2"]
    )
    out = tmp_path / "conv.csv"
    code = main(["converge", "--input", path, "--levels", "2,4",
                 "--grid", "31", "--output", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    bounds = [float(r[1]) for r in rows]
    assert bounds[0] <= bounds[1] + 1e-6


def test_converge_empty_levels_exits_1(tmp_path, interval_problem):
    assert main(["converge", "--input", interval_problem, "--levels", ""]) == 1


@pytest.mark.parametrize(
    "command, levels, options",
    [
        ("converge", "a:b", {}),
        ("converge", "2,x", {}),
        ("bounds", None, {"points_per_axis": "abc"}),
        ("converge", "2", {"feasibility_tol": "x"}),
    ],
)
def test_malformed_input_is_an_error_not_a_crash(
    tmp_path, capsys, command, levels, options
):
    # a nonempty ``options`` is written into the file, which refuses it
    extra = {"options": options} if options else {}
    path = write_problem(tmp_path / "p.json", 1, "x1", ["1 - x1^2"], **extra)
    argv = [command, "--input", path]
    if levels is not None:
        argv += ["--levels", levels]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert ("'options'" if options else "level") in err


def test_grid_over_the_cap_is_an_error_not_a_crash(tmp_path, capsys):
    path = write_problem(tmp_path / "p.json", 2, "x1 + x2", ["1 - x1^2 - x2^2"])
    out = tmp_path / "b.json"
    # 1001^2 = 1,002,001 points, one grid over MAX_GRID_POINTS
    assert main(["bounds", "--input", path, "--grid", "1001", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "exceeds the cap" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, argv, named",
    [
        ({"n": 1, "objective": "x1^2", "constraint": ["x1 - 0.5"]},
         ["solve", "--level", "2"], "'constraint'"),
        ({"n": 1, "objective": "x1^2", "constraints": ["x1 - 0.5"],
          "options": {"points_per_axis": 11}}, ["bounds"], "'options'"),
        ({"n": 1.7, "objective": "x1^2", "constraints": []},
         ["solve", "--level", "2"], '"n"'),
        ({"n": True, "objective": "x1^2", "constraints": []},
         ["solve", "--level", "2"], '"n"'),
        ({"n": 1, "objective": "x1^2", "constraints": "1"},
         ["solve", "--level", "2"], '"constraints"'),
        ({"n": 1, "objective": "x1^2", "constraints": [], "box": [[-1, "inf"]]},
         ["bounds"], "invalid box interval"),
        ({"n": 1, "objective": "x1^2", "constraints": [], "box": [["-inf", 1]]},
         ["lift"], "invalid box interval"),
    ],
    ids=["misspelt-key", "options", "n-float", "n-bool", "constraints-string",
         "box-inf", "box-minus-inf"],
)
def test_problem_document_is_read_as_written(tmp_path, capsys, doc, argv, named):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert main(argv + ["--input", str(path), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert named in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("box", [[[1, -1]], [[-1, "inf"]]], ids=["reversed", "inf"])
@pytest.mark.parametrize(
    "argv",
    [["solve", "--level", "2"], ["certify", "--level", "2"],
     ["verify", "--certificate", "missing.json"], ["bounds"]],
    ids=["solve", "certify", "verify", "bounds"],
)
def test_a_bad_box_is_refused_when_the_problem_is_loaded(tmp_path, capsys, box, argv):
    # solve, certify and verify never grid the box, yet refuse it as bounds does
    path = write_problem(tmp_path / "p.json", 1, "x1^2", ["1 - x1^2"], box=box)
    out = tmp_path / "out.json"
    assert main(argv + ["--input", path, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid box interval")
    assert "Traceback" not in err
    assert not out.exists()


def test_bounds_rejects_nan_input(tmp_path, capsys):
    out = tmp_path / "b.json"
    code = main(["bounds", "--d", "2", "--n", "1", "--norm-f", "nan",
                 "--f-star", "1", "--output", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "NaN" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["lift", "--lambda", "nan"], "lam"),
        (["lift", "--lambda", "inf"], "lam"),
        (["lift", "--c1", "nan"], "c1"),
        (["lift", "--c2", "inf"], "c2"),
        (["lift", "--c1", "1e308"], "lambda"),
        (["lift", "--c0", "nan"], "c0"),
        (["lift", "--c0", "1e308"], "c0"),
        (["estimate", "--seed", "-1"], "seed"),
        (["estimate", "--samples", "0"], "samples"),
        (["estimate", "--samples", "1000001"], "samples"),
        (["lift", "--lambda", "1", "--k-max", "0"], "k_max"),
        (["lift", "--lambda", "1", "--k-max", "-4"], "k_max"),
        (["lift", "--grid", "0"], "points_per_axis"),
        (["estimate", "--grid", "0"], "points_per_axis"),
        (["bounds", "--grid", "0"], "points_per_axis"),
        (["converge", "--levels", "2", "--grid", "0"], "points_per_axis"),
    ],
)
def test_lift_and_estimate_reject_bad_numbers(tmp_path, capsys, argv, named):
    # a problem on which every command here succeeds with its defaults; the
    # case's own flags come last, so its --grid wins over the default 101
    path = write_problem(tmp_path / "p.json", 1, "x1 + 2", ["0.25 - x1^2"])
    out = tmp_path / "out.json"
    assert main(argv[:1] + ["--input", path, "--grid", "101", "--output", str(out)]
                + argv[1:]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert named in captured.err
    assert "Traceback" not in captured.err
    assert "NaN" not in captured.out and "Infinity" not in captured.out
    assert not out.exists()


def test_converge_gap_bound_column_applicable(tmp_path, shifted_problem):
    # with c = 0.05 the validity threshold c*exp((2 d^2 n^d)^c) is tiny,
    # so the column is numeric rather than NA
    out = tmp_path / "conv.csv"
    code = main(["converge", "--input", shifted_problem, "--levels", "2,4",
                 "--c", "0.05", "--output", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    for r in rows:
        assert r[4] != "NA"
        assert float(r[4]) > 0


# ----------------------------------------------------------------------
# bounds


def test_bounds_from_flags(tmp_path):
    out = tmp_path / "b.json"
    code = main(["bounds", "--c", "1", "--d", "1", "--n", "1",
                 "--norm-f", "1", "--f-star", "1", "--level", "8",
                 "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schmuedgen_degree_bound"] == pytest.approx(2.0)
    assert data["putinar_degree_bound"]["value"] == pytest.approx(math.e)
    assert data["gap_bound"]["value"] == pytest.approx(6.0 / math.log(8.0))


def test_bounds_missing_flags_exit_1():
    assert main(["bounds", "--c", "1", "--d", "1"]) == 1


def test_bounds_from_problem_derives_inputs(tmp_path):
    path = write_problem(
        tmp_path / "p.json", 1, "x1 + 2", ["0.25 - x1^2"]
    )
    out = tmp_path / "b.json"
    code = main(["bounds", "--input", path, "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["inputs"]["d"] == 1
    assert data["inputs"]["n"] == 1
    assert data["inputs"]["norm_f"] == pytest.approx(2.0)
    assert data["inputs"]["f_star"] == pytest.approx(1.5)  # min on [-1/2,1/2]
    assert data["assumptions"]["feasible_grid_inside_unit_box"] is True


# ----------------------------------------------------------------------
# lift / estimate


def test_lift_parameters_and_search(tmp_path, shifted_problem):
    out = tmp_path / "lift.json"
    code = main(["lift", "--input", shifted_problem, "--lambda", "0.1",
                 "--grid", "10001", "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["parameters"]["L"] == pytest.approx(2.0)
    assert data["parameters"]["lambda"] == pytest.approx(4.0)
    assert data["search"]["empirical_k"] == 1


def test_lift_search_not_found_exits_2(tmp_path, shifted_problem):
    code = main(["lift", "--input", shifted_problem, "--lambda", "1e6",
                 "--k-max", "3", "--grid", "10001"])
    assert code == 2


def test_lift_search_with_a_huge_lambda_writes_nothing_to_stderr(tmp_path):
    # lam * (g - 1)^(2k) g overflows to -inf inside the disk: h has no
    # finite minimum, which is the verdict, and no numpy warning is printed
    path = write_problem(tmp_path / "p.json", 2, "x1^2 + x2 + 3", ["1 - x1^2 - x2^2"])
    out = tmp_path / "lift.json"
    proc = _run_module(["lift", "--input", path, "--grid", "5", "--lambda", "1e300",
                        "--output", str(out)], {})
    assert proc.returncode == 2
    assert proc.stderr == b""
    assert json.loads(out.read_text())["search"]["found"] is False


def test_lift_search_stops_at_the_degree_cap(tmp_path, shifted_problem):
    # With the default --k-max 20, k = 15 would lift the quadratic
    # constraint to degree 62 > 60; the search ends at k = 14, not found.
    out = tmp_path / "lift.json"
    code = main(["lift", "--input", shifted_problem, "--lambda", "1e6",
                 "--grid", "10001", "--output", str(out)])
    assert code == 2
    search = json.loads(out.read_text())["search"]
    assert search["found"] is False
    assert search["empirical_k"] is None
    assert search["k_max"] == 14  # the k actually searched, not --k-max


def test_lift_search_reuses_the_parameters_oracle_sweep(tmp_path, monkeypatch):
    # one grid_min per `lift --lambda`, and the payload the two separate
    # sweeps of lifting_parameters and find_lifting_k gave
    from poslab import bounds
    from poslab.problemio import load_problem

    path = write_problem(tmp_path / "p.json", 2, "x1^2 + x2^2 + x1 + 2",
                         ["1 - x1^2 - x2^2"])
    problem = load_problem(path)
    grid = problem.grid_spec(31)
    f, system = problem.objective, problem.system
    params = bounds.lifting_parameters(f, system, 1.0, 1.0, 1.0, grid)
    want = {
        "command": "lift",
        "parameters": params.to_dict(),
        "search": {"lambda": 3.0, "k_max": 12, "found": True,
                   "empirical_k": bounds.find_lifting_k(f, system, 3.0, grid, 12)},
    }
    calls = []
    grid_min = bounds.grid_min

    def counting(*args, **kwargs):
        calls.append(args)
        return grid_min(*args, **kwargs)

    monkeypatch.setattr("poslab.bounds.grid_min", counting)
    out = tmp_path / "lift.json"
    assert main(["lift", "--input", path, "--grid", "31", "--lambda", "3",
                 "--k-max", "12", "--output", str(out)]) == 0
    assert len(calls) == 1
    assert out.read_text() == json.dumps(want, indent=2, sort_keys=True) + "\n"


def test_lift_calls_both_lifting_functions_through_the_module(tmp_path, monkeypatch,
                                                               shifted_problem):
    # the benchmark's trace wraps these two module attributes
    from poslab import bounds

    called = []
    for name in ("lifting_parameters", "find_lifting_k"):
        original = getattr(bounds, name)

        def recording(*args, _name=name, _original=original, **kwargs):
            called.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(bounds, name, recording)
    assert main(["lift", "--input", shifted_problem, "--lambda", "0.1",
                 "--grid", "101"]) == 0
    assert called == ["lifting_parameters", "find_lifting_k"]


def test_lift_search_still_checks_constraints_above_one(tmp_path, capsys):
    # lifting_parameters has no such check; the search refuses the problem
    # with the message of a direct find_lifting_k call
    from poslab import GridSpec, SemialgebraicSystem, find_lifting_k
    from poslab import parse_polynomial as P

    path = write_problem(tmp_path / "p.json", 1, "x1 + 3", ["2 - x1^2"])
    assert main(["lift", "--input", path, "--grid", "41"]) == 0
    capsys.readouterr()
    assert main(["lift", "--input", path, "--grid", "41", "--lambda", "1"]) == 1
    err = capsys.readouterr().err
    system = SemialgebraicSystem(1, (P("2 - x1^2", 1),))
    with pytest.raises(InputError) as direct:
        find_lifting_k(P("x1 + 3", 1), system, 1.0, GridSpec(41, ((-1.0, 1.0),)))
    assert err == f"error: {direct.value}\n"
    assert "exceeds 1" in err
    # n = 2 with a constraint in x1 only: its grid values have length 1
    # along x2, and the message still names the first maximal grid point
    # in row order (x1 = 0, x2 at the box's low end), as the points give it
    box = [[-1.0, 1.0], [-0.5, 1.5]]
    path = write_problem(tmp_path / "q.json", 2, "x1 + x2 + 3", ["2 - x1^2"], box=box)
    assert main(["lift", "--input", path, "--grid", "41", "--lambda", "1"]) == 1
    err = capsys.readouterr().err
    pts = grid_points(tuple(map(tuple, box)), 41)
    vals = P("2 - x1^2", 2).evaluate_many(pts)
    worst = int(np.argmax(vals))
    point = tuple(float(v) for v in pts[worst])
    assert point == (0.0, -0.5)
    assert err.endswith(f"exceeds 1 on the box: value {vals[worst]} at {point}\n")


def test_estimate_cubic_exponent(tmp_path):
    path = write_problem(tmp_path / "p.json", 1, "x1", ["x1^3"])
    out = tmp_path / "est.json"
    code = main(["estimate", "--input", path, "--samples", "1000",
                 "--seed", "42", "--output", str(out)])
    assert code == 0
    fit = json.loads(out.read_text())["fit"]
    assert abs(fit["c2_exponent"] - 3.0) <= 0.1
    assert fit["max_violation"] == 0.0


def test_estimate_and_lift_outputs_pinned(tmp_path):
    # Payload floats recorded before the grid oracle was sped up (one power
    # table per evaluate_many, boundary-only nearest-point search); a
    # refactor of that layer must reproduce them exactly, not approximately.
    disk = write_problem(tmp_path / "e.json", 2, "x1 + 3", ["0.5 - x1^2 - x2^2"])
    out = tmp_path / "out.json"
    assert main(["estimate", "--input", disk, "--grid", "41", "--samples", "500",
                 "--seed", "3", "--output", str(out)]) == 0
    fit = json.loads(out.read_text())["fit"]
    assert fit["c2_exponent"] == 1.8122091785842014
    assert fit["c3_scale"] == 2.7251016742378047
    assert fit["sample_count"] == 500

    square = write_problem(tmp_path / "l.json", 2, "x1^2 + x2^2 + x1 + 1",
                           ["1 - x1^2", "1 - x2^2"])
    assert main(["lift", "--input", square, "--grid", "21", "--lambda", "20",
                 "--k-max", "12", "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    # h is evaluated pointwise from the grid values of f and g_i; the float
    # is also checked against the exact minimum over the 21 x 21 grid
    min_h = data["parameters"]["empirical_min_h"]
    assert min_h == -0.8665598608393894
    lam, k = Fraction(data["parameters"]["lambda"]), data["parameters"]["k"]
    values = []
    for point in grid_points(((-1.0, 1.0),) * 2, 21):
        x1, x2 = (Fraction(float(x)) for x in point)
        lift = sum((g - 1) ** (2 * k) * g for g in (1 - x1**2, 1 - x2**2))
        values.append(x1**2 + x2**2 + x1 + 1 - lam * lift)
    exact = min(values)
    assert abs(Fraction(min_h) - exact) <= 1e-15
    assert data["parameters"]["k"] == 6
    assert data["search"]["empirical_k"] == 5


@pytest.mark.parametrize(
    "n, grid, c2, c3",
    [
        (3, 31, 1.4201505214607288, 26.235118794073955),
        (4, 11, 1.3026973153885304, 134.92472105128957),
    ],
)
def test_estimate_outputs_pinned_on_large_boundaries(tmp_path, n, grid, c2, c3):
    # The unit box inside [-1.25, 1.25]^n: thousands of boundary grid points,
    # where the nearest-feasible search does most of its work.  Floats were
    # recorded with the full boundary sweep and must be reproduced exactly.
    cube = write_problem(tmp_path / "c.json", n, "x1 + 3",
                         [f"1 - x{i}^2" for i in range(1, n + 1)],
                         box=[[-1.25, 1.25]] * n)
    out = tmp_path / "out.json"
    assert main(["estimate", "--input", cube, "--grid", str(grid),
                 "--samples", "1000", "--seed", "5", "--output", str(out)]) == 0
    fit = json.loads(out.read_text())["fit"]
    assert fit["c2_exponent"] == c2
    assert fit["c3_scale"] == c3
    assert fit["sample_count"] == 1000


def test_estimate_degenerate_exits_1(tmp_path):
    path = write_problem(tmp_path / "p.json", 1, "x1", ["2 - x1^2"])
    assert main(["estimate", "--input", path]) == 1


# ----------------------------------------------------------------------
# determinism and misc


def test_outputs_byte_identical_across_runs(tmp_path, shifted_problem):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["solve", "--input", shifted_problem, "--level", "4",
                     "--output", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()

    ca, cb = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (ca, cb):
        assert main(["converge", "--input", shifted_problem, "--levels", "2,4",
                     "--output", str(out)]) == 0
    assert ca.read_bytes() == cb.read_bytes()

    ea, eb = tmp_path / "ea.json", tmp_path / "eb.json"
    path = write_problem(tmp_path / "pe.json", 1, "x1", ["x1"])
    for out in (ea, eb):
        assert main(["estimate", "--input", path, "--seed", "7",
                     "--samples", "500", "--output", str(out)]) == 0
    assert ea.read_bytes() == eb.read_bytes()


def test_converge_marks_error_rows_and_exits_4_when_all_fail(
    tmp_path, interval_problem, monkeypatch
):
    from poslab import SolverError
    from poslab import cli as cli_mod

    def boom(*args, **kwargs):
        raise SolverError("forced failure")

    monkeypatch.setattr(cli_mod.sos, "lasserre_bound", boom)
    out = tmp_path / "conv.csv"
    code = main(["converge", "--input", interval_problem, "--levels", "2,4",
                 "--output", str(out)])
    assert code == 4
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert all(r[1] == "ERROR" for r in rows)


def test_unknown_command_exits_1():
    assert main(["frobnicate"]) == 1


def test_dimension_cap_constant_override(tmp_path, shifted_problem, monkeypatch):
    from poslab import sdp

    monkeypatch.setattr(sdp, "MAX_TOTAL_DIM", 2)
    assert main(["solve", "--input", shifted_problem, "--level", "2"]) == 1
    monkeypatch.undo()
    out = tmp_path / "ok.json"
    assert main(["solve", "--input", shifted_problem, "--level", "2",
                 "--output", str(out)]) == 0


# ----------------------------------------------------------------------
# one parser per process, and ``python -m poslab``


def _run_module(args, env_extra):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import poslab

    src = str(Path(poslab.__file__).resolve().parents[1])
    env = dict(os.environ, **env_extra)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "poslab", *args],
        capture_output=True, env=env, timeout=120,
    )


def test_reused_parser_matches_separate_processes(
    interval_problem, shifted_problem, capsys, monkeypatch
):
    # usage lines wrap at the terminal width; pin it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        (["solve", "--input", interval_problem, "--level", "2"], 0),
        (["solve", "--input", interval_problem, "--level", "2", "--bogus"], 1),
        (["frobnicate"], 1),
        (["certify", "--input", shifted_problem, "--level", "2"], 0),
    ]
    for argv, expected in calls:
        code = main(argv)
        out, err = capsys.readouterr()
        separate = _run_module(argv, {"COLUMNS": "80"})
        assert code == separate.returncode == expected
        assert out.encode() == separate.stdout
        assert err.encode() == separate.stderr


def test_parser_is_built_once(interval_problem, monkeypatch, capsys):
    from poslab import cli as cli_mod

    built = []
    original = cli_mod.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli_mod, "build_parser", counting)
    cli_mod._parser.cache_clear()
    try:
        assert main(["solve", "--input", interval_problem, "--level", "2"]) == 0
        assert main(["frobnicate"]) == 1
        assert main(["solve", "--input", interval_problem, "--level", "2"]) == 0
    finally:
        cli_mod._parser.cache_clear()
    assert len(built) == 1


def test_module_entry_point_help():
    proc = _run_module(["--help"], {})
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"usage: poslab")
    assert b"certify" in proc.stdout


# ----------------------------------------------------------------------
# numbers from outside are read as written


def _strict_json(text):
    """The JSON document ``text``; NaN and Infinity, which Python writes
    but JSON has not, are refused."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "objective, term",
    [("nan*x1 + 2", "'nan*x1'"), ("inf + x1", "'inf'"), ("1e400*x1 + 2", "'1e400*x1'"),
     ("1e200*1e200*x1 + 1", "'1e200*1e200*x1'"), ("x1 - Infinity", "'Infinity'")],
)
def test_a_coefficient_that_is_not_finite_is_an_input_error(
    tmp_path, capsys, objective, term
):
    path = write_problem(tmp_path / "p.json", 1, objective, ["1 - x1^2"])
    out = tmp_path / "out.json"
    for argv in (["solve", "--level", "2"], ["certify", "--level", "2"], ["bounds"],
                 ["lift"], ["converge", "--levels", "2"]):
        assert main(argv + ["--input", path, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and term in err and "not finite" in err
        assert not out.exists()


_PLAIN_PROBLEM = {"n": 1, "objective": "1", "constraints": ["1"]}
_PLAIN_CERT = {
    "mode": "quadratic_module", "n": 1, "generators": ["1"],
    "entries": [{"index": 0, "basis": [[0]], "gram": [[1.0]]}],
}


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda c: c.update(generators="1"), '"generators" must be a list'),
        (lambda c: c.update(generators=[1]), "a generator must be a string"),
        (lambda c: c.update(generators=["inf"]), "not finite"),
        (lambda c: c.update(entries={"0": c["entries"][0]}), '"entries" must be a list'),
        (lambda c: c["entries"][0].update(basis="0"), '"basis" must be a list'),
        (lambda c: c["entries"][0].update(gram="1"), '"gram" must be a list'),
        (lambda c: c["entries"][0].update(gram=[1.0]), "a Gram row must be a list"),
        (lambda c: c["entries"][0].update(gram=[[True]]), "a Gram entry must be a finite"),
        (lambda c: c["entries"][0].update(gram=[["1.0"]]), "a Gram entry must be a finite"),
        (lambda c: c["entries"][0].update(gram=[[math.inf]]), "a Gram entry must be a finite"),
        (lambda c: c["entries"][0].update(gram=[[math.nan]]), "a Gram entry must be a finite"),
    ],
    ids=["generators-string", "generator-number", "generator-inf", "entries-object",
         "basis-string", "gram-string", "gram-row-number", "entry-bool", "entry-string",
         "entry-infinity", "entry-nan"],
)
def test_verify_reads_only_lists_and_finite_numbers_where_written(
    tmp_path, capsys, edit, named
):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(_PLAIN_PROBLEM))
    cert = json.loads(json.dumps(_PLAIN_CERT))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    argv = ["verify", "--input", str(problem), "--certificate", str(cert_path)]
    assert main(argv) == 0  # the unedited certificate verifies
    capsys.readouterr()
    edit(cert)
    cert_path.write_text(json.dumps(cert))  # Python's json writes NaN and Infinity
    out = tmp_path / "out.json"
    assert main(argv + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not out.exists()


def test_a_reconstruction_that_overflows_fails_verification(tmp_path, capsys):
    # 2 * 1e308 is past the float range: the x1 coefficient is +inf
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(_PLAIN_PROBLEM))
    cert = dict(_PLAIN_CERT, entries=[
        {"index": 0, "basis": [[0], [1]], "gram": [[1e308, 1e308], [1e308, 1e308]]},
    ])
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    out = tmp_path / "out.json"
    assert main(["verify", "--input", str(problem), "--certificate", str(cert_path),
                 "--output", str(out)]) == 3
    assert capsys.readouterr().err == ""
    report = _strict_json(out.read_text())["report"]
    assert report["pass"] is False
    assert report["residual_norm"] is None


# the objective is +inf at every grid point of the box
_OVERFLOWING = {"n": 1, "objective": "x1^2", "constraints": [], "box": [[1e200, 1e201]]}


@pytest.mark.parametrize(
    "edit, named",
    [({}, "minimum over the feasible grid"),
     # inf - inf: x1^3 - x1^2 > 0 on the box, but both powers overflow
     ({"objective": "x1", "constraints": ["x1^3 - x1^2"]}, "is NaN on the grid")],
    ids=["objective-inf", "constraint-nan"],
)
def test_a_grid_value_past_the_float_range_is_an_input_error(tmp_path, capsys, edit, named):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dict(_OVERFLOWING, **edit)))
    out = tmp_path / "out.json"
    for argv in (["bounds"], ["lift"], ["lift", "--lambda", "1"],
                 ["converge", "--levels", "2"]):
        assert main(argv + ["--input", str(path), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert not out.exists()


def test_a_constraint_that_overflows_on_the_grid_writes_no_warning(tmp_path, capsys):
    # x1^2 - 1e300 overflows to +inf on the box: every grid point is feasible
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dict(_OVERFLOWING, objective="x1",
                                    constraints=["x1^2 - 1e300"])))
    out = tmp_path / "out.json"
    assert main(["bounds", "--input", str(path), "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["inputs"]["f_star"] == 1e200


# ----------------------------------------------------------------------
# exit codes


_EXIT_TABLE = [  # the table of the cli module docstring, by error class
    ("PoslabError", 1, "error:"),
    ("InputError", 1, "error:"),
    ("DimensionMismatchError", 1, "error:"),
    ("ParseError", 1, "error:"),
    ("CapacityError", 1, "error:"),
    ("RoundingError", 1, "error:"),
    ("DegenerateFitError", 1, "error:"),
    ("InfeasibleAtResolutionError", 2, "inconclusive:"),
    ("SolverError", 4, "solver failure:"),
]


def test_the_exit_table_names_every_error_class():
    from poslab import errors

    def subclasses(cls):
        return {cls.__name__}.union(*(subclasses(c) for c in cls.__subclasses__()))

    assert subclasses(errors.PoslabError) == {name for name, _, _ in _EXIT_TABLE}


@pytest.mark.parametrize("name, code, prefix", _EXIT_TABLE)
def test_each_error_class_exits_with_its_code(
    name, code, prefix, interval_problem, monkeypatch, capsys
):
    from poslab import cli as cli_mod
    from poslab import errors

    def boom(*args, **kwargs):
        raise getattr(errors, name)("forced")

    monkeypatch.setattr(cli_mod.sos, "lasserre_bound", boom)
    assert main(["solve", "--input", interval_problem, "--level", "2"]) == code
    assert capsys.readouterr().err == f"{prefix} forced\n"
