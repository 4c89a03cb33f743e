"""CLI exit codes, outputs, and byte determinism."""

import json
import math

import pytest

from poslab.cli import main


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


def test_solve_failed_verification_exits_2(tmp_path, interval_problem):
    # a negative tolerance fails every certificate: no bound may be reported
    out = tmp_path / "sol.json"
    code = main(["solve", "--input", interval_problem, "--level", "2",
                 "--tol=-1", "--output", str(out)])
    assert code == 2
    data = json.loads(out.read_text())
    assert data["lower_bound"] is None
    assert data["finite"] is False
    assert "residual" in data["reason"]
    assert data["certificate"] is not None
    assert data["verification"]["pass"] is False


def test_solver_counters_in_payloads(tmp_path, interval_problem, shifted_problem):
    out = tmp_path / "sol.json"
    assert main(["solve", "--input", interval_problem, "--level", "2",
                 "--output", str(out)]) == 0
    solver = json.loads(out.read_text())["solver"]
    assert solver["anderson_accepted"] > 0
    assert isinstance(solver["anderson_rejected"], int)
    assert main(["certify", "--input", shifted_problem, "--level", "2",
                 "--output", str(out)]) == 0
    solver = json.loads(out.read_text())["solver"]
    assert solver["anderson_accepted"] == 0
    assert solver["anderson_rejected"] == 0


def test_solve_level_below_degree_exits_2(tmp_path):
    path = write_problem(tmp_path / "p.json", 1, "x1^4", ["1 - x1^2"])
    out = tmp_path / "sol.json"
    code = main(["solve", "--input", path, "--level", "2", "--output", str(out)])
    assert code == 2
    data = json.loads(out.read_text())
    assert data["finite"] is False
    assert data["lower_bound"] is None


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


def test_estimate_cubic_exponent(tmp_path):
    path = write_problem(tmp_path / "p.json", 1, "x1", ["x1^3"])
    out = tmp_path / "est.json"
    code = main(["estimate", "--input", path, "--samples", "1000",
                 "--seed", "42", "--output", str(out)])
    assert code == 0
    fit = json.loads(out.read_text())["fit"]
    assert abs(fit["c2_exponent"] - 3.0) <= 0.1
    assert fit["max_violation"] == 0.0


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


def test_env_cap_override(tmp_path, shifted_problem, monkeypatch):
    monkeypatch.setenv("POSLAB_MAX_SDP_DIM", "2")
    assert main(["solve", "--input", shifted_problem, "--level", "2"]) == 1
    monkeypatch.delenv("POSLAB_MAX_SDP_DIM")
    out = tmp_path / "ok.json"
    assert main(["solve", "--input", shifted_problem, "--level", "2",
                 "--output", str(out)]) == 0
