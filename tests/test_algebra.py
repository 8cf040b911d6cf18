import math

import numpy as np
import pytest

import ghastates as g
from ghastates.errors import DimensionMismatchError, ShapeMismatchError, WrongSystemError


def test_harmonic_raising_entries():
    rep = g.build_rep(g.harmonic(), 4)
    sub = np.diag(rep.A_dag, -1)
    assert np.allclose(sub, [math.sqrt(1), math.sqrt(2), math.sqrt(3)])


def test_morse_raising_entry():
    rep = g.build_rep(g.morse(7.59), 8)
    assert rep.A_dag[1, 0] == pytest.approx(math.sqrt(14.18), rel=1e-12)


def test_type1_j0_diagonal():
    rep = g.build_rep(g.type1(), 3)
    assert np.allclose(np.diag(rep.J0), [0.0, 0.5, 2.0 / 3.0])


def test_adjoint_pairing():
    for spec, dim in [(g.type2(), 12), (g.morse(7.59), 8)]:
        rep = g.build_rep(spec, dim)
        assert np.array_equal(rep.A_dag, rep.A.T)
        assert np.array_equal(rep.D_dag, rep.D.T)
        assert np.allclose(rep.xi, rep.xi.conj().T)
        assert np.allclose(rep.rho, rep.rho.conj().T)


def test_rep_arrays_read_only():
    rep = g.build_rep(g.harmonic(), 5)
    with pytest.raises(ValueError):
        rep.J0[0, 0] = 1.0


def test_commutator_trivial_and_shapes():
    eye = np.eye(4)
    Y = np.arange(16.0).reshape(4, 4)
    assert np.all(g.commutator(eye, Y) == 0)
    with pytest.raises(ShapeMismatchError):
        g.commutator(eye, np.eye(3))


def test_canonical_pair_truncation_defect():
    rep = g.build_rep(g.harmonic(), 5)
    C = g.commutator(rep.D, rep.D_dag)
    assert np.allclose(C[:4, :4], np.eye(4)[:4, :4])
    assert C[4, 4] == pytest.approx(-4.0)


def test_morse_raising_weight_identity():
    # [J0, A_dag] equals 2 A_dag sqrt(-J0) - A_dag away from the top level
    spec = g.morse(7.59)
    rep = g.build_rep(spec, 8)
    lhs = g.commutator(rep.J0, rep.A_dag)
    rhs = 2.0 * rep.A_dag @ np.diag(np.sqrt(-np.diag(rep.J0))) - rep.A_dag
    assert np.abs(lhs - rhs)[:, :7].max() < 1e-12


def test_casimir_harmonic_constant():
    spec = g.harmonic()
    rep = g.build_rep(spec, 6)
    gamma = g.casimir(rep, spec)
    assert np.abs(gamma[:5, :5]).max() < 1e-14
    for X in (rep.J0, rep.A, rep.A_dag):
        assert np.abs(g.commutator(gamma, X))[:, :4].max() < 1e-13


def test_casimir_morse_exactly_scalar():
    spec = g.morse(7.59)
    rep = g.build_rep(spec, 8)
    gamma = g.casimir(rep, spec)
    assert np.allclose(gamma, spec.p ** 2 * np.eye(8), atol=1e-12)


def test_j0_from_ladder():
    for p in (7.59, 3.2):
        spec = g.morse(p)
        rep = g.build_rep(spec, spec.max_level + 1)
        recon = g.j0_from_ladder(rep, spec)
        assert np.abs(recon - rep.J0).max() < 1e-12 * (1 + p * p)
    with pytest.raises(WrongSystemError):
        g.j0_from_ladder(g.build_rep(g.harmonic(), 4), g.harmonic())


def test_nilpotency_exact():
    spec = g.morse(7.59)
    rep = g.build_rep(spec, 8)
    s = g.nilpotency_index(spec)
    assert not np.any(np.linalg.matrix_power(rep.A_dag, s))
    assert np.any(np.linalg.matrix_power(rep.A_dag, s - 1))


@pytest.mark.parametrize("spec,dim", [
    (g.harmonic(), 30),
    (g.q_deformed(0.5), 30),
    (g.square_well(4.0), 40),
    (g.type1(), 30),
    (g.type2(), 40),
    (g.hydrogen(), 30),
    (g.morse(7.59), 8),
    (g.morse(3.2), 4),
])
def test_verify_algebra_passes(spec, dim):
    report = g.verify_algebra(g.build_rep(spec, dim), spec, 1e-12)
    assert report.passed, report.to_text()


def test_verify_reports_boundary_separately():
    spec = g.morse(7.59)
    report = g.verify_algebra(g.build_rep(spec, 8), spec, 1e-12)
    rows = {c.name: c for c in report.checks}
    assert rows["canonical_pair"].boundary > 0.1
    assert rows["canonical_pair"].interior < 1e-12
    assert rows["bound_ladder"].boundary > 0.1


def test_verify_records_format():
    spec = g.harmonic()
    report = g.verify_algebra(g.build_rep(spec, 10), spec, 1e-12)
    for line in report.to_records():
        name, interior, boundary, status = line.split("\t")
        float(interior), float(boundary)
        assert status in ("pass", "fail")


def test_custom_table_rep_and_verify():
    table = [g.energy(g.type1(), n) for n in range(8)]
    spec = g.from_table(table)
    rep = g.build_rep(spec, 7)
    assert g.verify_algebra(rep, spec, 1e-12).passed
    # full-length rep builds, but identity checks need the image of the top
    full = g.build_rep(spec, 8)
    with pytest.raises(DimensionMismatchError):
        g.verify_algebra(full, spec)


def test_dimension_rules():
    with pytest.raises(DimensionMismatchError):
        g.build_rep(g.harmonic(), 1)
    with pytest.raises(DimensionMismatchError):
        g.build_rep(g.morse(7.59), 9)
    with pytest.raises(DimensionMismatchError):
        g.build_rep(g.morse(7.59), 7)


def test_scaled_canonical_commutator():
    rep = g.build_rep(g.harmonic(), 12, L_scale=0.3, hbar=2.0)
    C = g.commutator(rep.xi, rep.rho)
    assert np.abs(C - 2.0j * np.eye(12))[:, :11].max() < 1e-13


def test_reconstruction_check_rejects_perturbed_ladder(monkeypatch):
    from ghastates import algebra
    true_ladder = algebra.ladder_coefficients
    g.build_rep(g.type1(), 12)  # the unperturbed ladder passes
    monkeypatch.setattr(algebra, "ladder_coefficients",
                        lambda spec, count: true_ladder(spec, count) * 1.001)
    with pytest.raises(ShapeMismatchError, match="ladder reconstruction"):
        g.build_rep(g.type1(), 12)
