"""Certificate reconstruction, verification, rounding, square extraction."""

import numpy as np
import pytest

from conftest import random_positive_degree_polynomial
from poslab import (
    Certificate,
    CertificateEntry,
    InputError,
    MembershipProblem,
    PREORDERING,
    Polynomial,
    QUADRATIC_MODULE,
    RoundingError,
    SemialgebraicSystem,
    certificate_from_dict,
    certificate_to_dict,
    extract_squares,
    module_membership,
    lasserre_bound,
    monomial_basis,
    parse_polynomial,
    reconstruct,
    round_psd,
    verify,
    verify_disproof,
    weighted_norm,
)
from poslab.semialg import feasible_mask, grid_points

P = parse_polynomial


def interval_system():
    return SemialgebraicSystem(1, (P("1 - x1^2"),))


def hand_certificate():
    """2 + x1 = ((x1+1)^2/2 + 1) + (1/2)(1 - x1^2), written as Gram blocks."""
    basis1 = monomial_basis(1, 1)
    basis0 = monomial_basis(1, 0)
    q0 = np.array([[1.5, 0.5], [0.5, 0.5]])  # (x+1)^2/2 + 1 over (1, x)
    q1 = np.array([[0.5]])
    return Certificate(
        mode=QUADRATIC_MODULE,
        system=interval_system(),
        entries=(
            CertificateEntry(0, basis1, q0),
            CertificateEntry(1, basis0, q1),
        ),
    )


# ----------------------------------------------------------------------
# reconstruct


def test_reconstruct_constant_entry():
    cert = Certificate(
        QUADRATIC_MODULE,
        SemialgebraicSystem(1, ()),
        (CertificateEntry(0, monomial_basis(1, 0), np.array([[1.0]])),),
    )
    assert reconstruct(cert) == P("1")


def test_reconstruct_rank_one_square():
    cert = Certificate(
        QUADRATIC_MODULE,
        SemialgebraicSystem(1, ()),
        (CertificateEntry(0, monomial_basis(1, 1), np.ones((2, 2))),),
    )
    assert reconstruct(cert) == P("x1^2 + 2*x1 + 1")


def test_reconstruct_scalar_times_generator():
    cert = Certificate(
        QUADRATIC_MODULE,
        interval_system(),
        (CertificateEntry(1, monomial_basis(1, 0), np.array([[0.5]])),),
    )
    assert reconstruct(cert) == P("0.5 - 0.5*x1^2")


def test_reconstruct_hand_certificate():
    assert weighted_norm(reconstruct(hand_certificate()) - P("2 + x1")) <= 1e-12


def _sos_part(entry):
    """z^T Q z over the entry's basis, in dict-of-tuples arithmetic."""
    monos = entry.basis.monomials
    terms = {}
    for r, beta in enumerate(monos):
        for s, gamma in enumerate(monos):
            key = tuple(b + c for b, c in zip(beta, gamma))
            terms[key] = terms.get(key, 0.0) + entry.gram[r, s]
    return Polynomial(entry.basis.dimension, terms)


def _reference_reconstruct(cert):
    """sum_i sigma_i * generator_i in ``Polynomial`` arithmetic."""
    total = Polynomial.zero(cert.system.dimension)
    for entry in cert.entries:
        total = total + _sos_part(entry) * cert.generator(entry)
    return total


@pytest.mark.parametrize("mode", [QUADRATIC_MODULE, PREORDERING])
@pytest.mark.parametrize("n, level", [(1, 8), (2, 6), (3, 4), (40, 2)])
def test_reconstruct_matches_polynomial_arithmetic(mode, n, level):
    from poslab.sos import _generator_blocks

    rng = np.random.default_rng(10 * n + level)
    system = SemialgebraicSystem(n, tuple(
        random_positive_degree_polynomial(rng, n, 2, max_terms=4) for _ in range(2)
    ))
    for _ in range(3):
        entries = []
        for block in _generator_blocks(system, level, mode):
            raw = rng.normal(size=(len(block.basis), len(block.basis)))
            entries.append(CertificateEntry(block.label, block.basis, raw + raw.T))
        cert = Certificate(mode, system, tuple(entries))
        # the two sum the same products in different orders: a few ulps of
        # the largest coefficient apart (4.2e-16 relative at worst over 1,800
        # such draws, while coefficients reach 30)
        reference = _reference_reconstruct(cert)
        difference = weighted_norm(reconstruct(cert) - reference)
        assert difference <= 1e-15 * weighted_norm(reference)


# ----------------------------------------------------------------------
# verify


def test_verify_hand_certificate_passes():
    report = verify(hand_certificate(), P("2 + x1"))
    assert report.passed
    assert report.residual_norm <= 1e-12
    assert report.level == 2


def test_verify_perturbed_gram_fails():
    cert = hand_certificate()
    bad = np.array(cert.entries[0].gram, copy=True)
    bad[0, 0] += 0.1
    perturbed = Certificate(
        cert.mode,
        cert.system,
        (CertificateEntry(0, cert.entries[0].basis, bad), cert.entries[1]),
    )
    report = verify(perturbed, P("2 + x1"))
    assert not report.passed
    assert report.residual_norm == pytest.approx(0.1, rel=1e-9)


def test_verify_zero_certificate_of_zero():
    cert = Certificate(
        QUADRATIC_MODULE,
        SemialgebraicSystem(1, ()),
        (CertificateEntry(0, monomial_basis(1, 0), np.zeros((1, 1))),),
    )
    report = verify(cert, P("x1") - P("x1"))
    assert report.passed
    assert report.residual_norm <= 1e-12


def test_verify_round_trip_invariant():
    rng = np.random.default_rng(3)
    for _ in range(10):
        size = int(rng.integers(1, 4))
        basis = monomial_basis(2, size - 1) if size <= 3 else monomial_basis(2, 2)
        take = len(basis.monomials)
        raw = rng.normal(size=(take, take))
        gram = raw @ raw.T  # PSD by construction
        cert = Certificate(
            QUADRATIC_MODULE,
            SemialgebraicSystem(2, ()),
            (CertificateEntry(0, basis, gram),),
        )
        report = verify(cert, reconstruct(cert))
        assert report.passed
        assert report.residual_norm <= 1e-12


# ----------------------------------------------------------------------
# round_psd


def test_round_psd_clips_tiny_negative():
    q = np.array([[1.0, 0.0], [0.0, -1e-10]])
    out = round_psd(q)
    assert out == pytest.approx(np.array([[1.0, 0.0], [0.0, 0.0]]), abs=1e-12)


def test_round_psd_keeps_psd_input():
    q = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert round_psd(q) == pytest.approx(q, abs=1e-12)


def test_round_psd_rejects_indefinite():
    q = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(RoundingError):
        round_psd(q)


# ----------------------------------------------------------------------
# extract_squares


def test_extract_squares_rank_one():
    cert = Certificate(
        QUADRATIC_MODULE,
        SemialgebraicSystem(1, ()),
        (CertificateEntry(0, monomial_basis(1, 1), np.ones((2, 2))),),
    )
    [(gen, squares)] = extract_squares(cert)
    assert gen == P("1")
    assert len(squares) == 1
    assert weighted_norm(squares[0] * squares[0] - P("x1^2 + 2*x1 + 1")) <= 1e-9


def test_extract_squares_identity_gram():
    cert = Certificate(
        QUADRATIC_MODULE,
        SemialgebraicSystem(1, ()),
        (CertificateEntry(0, monomial_basis(1, 1), np.eye(2)),),
    )
    [(_, squares)] = extract_squares(cert)
    assert {str(p) for p in squares} == {"1.0", "x1"}


def test_extract_squares_zero_gram_empty():
    cert = Certificate(
        QUADRATIC_MODULE,
        SemialgebraicSystem(1, ()),
        (CertificateEntry(0, monomial_basis(1, 1), np.zeros((2, 2))),),
    )
    [(_, squares)] = extract_squares(cert)
    assert squares == []


def test_extract_squares_reconstruction_consistency():
    res = module_membership(MembershipProblem(P("2 + x1"), interval_system(), 4))
    assert res.found
    cert = res.certificate
    total = P("0", 1) - P("0", 1)
    for (gen, squares), entry in zip(extract_squares(cert), cert.entries):
        sigma = P("0", 1) - P("0", 1)
        for p in squares:
            sigma = sigma + p * p
        assert weighted_norm(sigma - _sos_part(entry)) <= 1e-9
        total = total + sigma * gen
    assert weighted_norm(total - reconstruct(cert)) <= 1e-9


# ----------------------------------------------------------------------
# pointwise soundness of passing certificates


def test_passing_certificate_pointwise_soundness():
    # a passing certificate pins the target down to the residual-induced
    # slack (sup bound 2 k n^k applied to the residual polynomial)
    from poslab import PREORDERING, SemialgebraicSystem as Sys, preordering_membership

    from poslab import Polynomial

    quadrant = Sys(2, (P("x1", 2), P("x2", 2)))
    hierarchy = lasserre_bound(P("x1"), interval_system(), 2)
    cases = [
        (
            P("2 + x1"),
            interval_system(),
            module_membership(
                MembershipProblem(P("2 + x1"), interval_system(), 2)
            ).verification,
        ),
        (
            P("x1") - Polynomial.constant(1, hierarchy.lower_bound),
            interval_system(),
            hierarchy.verification,
        ),
        (
            P("x1*x2"),
            quadrant,
            preordering_membership(
                MembershipProblem(P("x1*x2"), quadrant, 2, mode=PREORDERING)
            ).verification,
        ),
    ]
    rng = np.random.default_rng(8)
    for target, system, report in cases:
        assert report.passed
        n = system.dimension
        level = report.level
        slack = report.residual_norm * 2.0 * level * float(n) ** level
        pts = grid_points(((-1.0, 1.0),) * n, 101 if n == 2 else 1001)
        feas = pts[feasible_mask(system, pts, 1e-9)]
        sample = feas[rng.integers(0, feas.shape[0], size=1000)]
        values = target.evaluate_many(sample)
        assert float(values.min()) >= -slack


# ----------------------------------------------------------------------
# JSON round trip


def test_certificate_json_round_trip_exact():
    res = lasserre_bound(P("x1"), interval_system(), 2)
    cert = res.certificate
    data = certificate_to_dict(cert)
    back = certificate_from_dict(data)
    assert back.mode == cert.mode
    assert back.system.constraints == cert.system.constraints
    for a, b in zip(back.entries, cert.entries):
        assert a.index == b.index
        assert a.basis.monomials == b.basis.monomials
        assert np.array_equal(a.gram, b.gram)


def test_certificate_json_preordering_delta_keys():
    quadrant = SemialgebraicSystem(2, (P("x1", 2), P("x2", 2)))
    from poslab import PREORDERING, preordering_membership

    res = preordering_membership(
        MembershipProblem(P("x1*x2"), quadrant, 2, mode=PREORDERING)
    )
    data = certificate_to_dict(res.certificate)
    assert all("delta" in e for e in data["entries"])
    back = certificate_from_dict(data)
    assert verify(back, P("x1*x2")).passed


def test_certificate_from_dict_rejects_malformed():
    from poslab import ParseError

    with pytest.raises(ParseError):
        certificate_from_dict({"mode": "quadratic_module"})


@pytest.mark.parametrize(
    "monomials, max_degree",
    [(((0,), (-1,)), 1), (((0,), (1, 0)), 1), (((0,), (2,)), 1)],
    ids=["negative", "length", "above-max-degree"],
)
def test_certificate_entry_refuses_a_basis_the_packed_index_cannot_hold(
    monomials, max_degree
):
    from poslab import MonomialBasis

    basis = MonomialBasis(dimension=1, max_degree=max_degree, monomials=monomials)
    with pytest.raises(InputError, match="basis monomial"):
        CertificateEntry(0, basis, np.zeros((2, 2)))


def test_certificate_file_round_trip(tmp_path):
    from poslab import load_certificate, save_certificate

    res = module_membership(MembershipProblem(P("2 + x1"), interval_system(), 2))
    path = tmp_path / "cert.json"
    save_certificate(res.certificate, str(path))
    back = load_certificate(str(path))
    assert verify(back, P("2 + x1")).passed
    # byte determinism of the serialized file
    path2 = tmp_path / "cert2.json"
    save_certificate(res.certificate, str(path2))
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "certificate file not found"),
        (b"not json {", "certificate file is not valid JSON"),
        (b"\xff\xfe{", "certificate file is not valid JSON"),  # not UTF-8
        ("directory", "certificate file cannot be read"),
    ],
    ids=["missing", "not-json", "not-utf8", "directory"],
)
def test_load_certificate_unreadable_file_is_a_parse_error(tmp_path, content, message):
    from poslab import ParseError, load_certificate, load_problem

    path = tmp_path / "cert.json"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    with pytest.raises(ParseError, match=message):
        load_certificate(str(path))
    # the problem loader reads files the same way
    with pytest.raises(ParseError, match=message.replace("certificate", "problem")):
        load_problem(str(path))


# ----------------------------------------------------------------------
# disproofs


def test_disproof_is_checked_exactly_at_the_point():
    system = interval_system()
    # on the boundary g = 1 - x1^2 is exactly 0, which is feasible
    edge = verify_disproof(P("x1 - 2"), system, [1.0])
    assert edge.passed and edge.value == -1.0 and edge.reason == ""
    assert edge.to_dict() == {"point": [1.0], "value": -1.0, "pass": True, "reason": ""}
    # just outside, by one ulp
    outside = verify_disproof(P("x1 - 2"), system, [np.nextafter(1.0, 2.0)])
    assert not outside.passed and "g1" in outside.reason
    # 10 * 0.1 - 1 rounds to 0.0 in floats but is 2^-54 > 0 exactly
    rounding = verify_disproof(P("10*x1 - 1"), system, [0.1])
    assert not rounding.passed and ">= 0" in rounding.reason
    with pytest.raises(InputError):
        verify_disproof(P("x1 - 2"), system, [1.0, 0.0])
