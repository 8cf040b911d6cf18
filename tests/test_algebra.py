import dataclasses
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


def _rep_with_ladder_moved(spec, dim, k, rel):
    # a representation whose N_k is off by a relative ``rel``, so that the
    # identities through it leave residuals near rel in columns k .. k + 2
    rep = g.build_rep(spec, dim)
    ladder = rep.ladder.copy()
    ladder[k] *= 1.0 + rel
    return dataclasses.replace(rep, ladder=ladder)


@pytest.mark.parametrize("rel, passed", [(1.5e-12, False), (0.9e-12, True)])
def test_verify_default_tolerance_edge(rel, passed):
    # the default tol is 1e-12: the worst interior residual, 0.832 rel (in
    # the ladder commutator), fails it at 1.25e-12 and passes at 0.75e-12
    spec = g.type1()
    report = g.verify_algebra(_rep_with_ladder_moved(spec, 12, 3, rel), spec)
    worst = max(c.interior for c in report.checks)
    assert worst == pytest.approx(rel * 0.832, rel=0.01)
    assert report.tol == 1e-12 and report.passed is passed


@pytest.mark.parametrize("spec, lowering_passes", [
    (g.type1(), True), (g.morse(7.59), False)], ids=["type1", "morse"])
def test_casimir_boundary_width(spec, lowering_passes):
    # N_{d-2} moved: [Gamma, A] feels it in column d - 2 alone, [Gamma,
    # A_dag] in column d - 3 too.  An infinite ladder's Casimir checks
    # leave two columns to the boundary, the wrapped Morse ladder's one.
    d = 12 if spec.max_level is None else spec.max_level + 1
    report = g.verify_algebra(_rep_with_ladder_moved(spec, d, d - 2, 1e-6),
                              spec)
    rows = {c.name: c.passed for c in report.checks}
    assert rows["casimir_lowering"] is lowering_passes
    assert rows["casimir_raising"] is False
    assert rows["casimir_number"] is True


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
    with pytest.raises(DimensionMismatchError, match="supports dim <= 3"):
        g.build_rep(g.from_table([0.0, 1.0, 3.0]), 4)


def test_reconstruction_check_rejects_perturbed_ladder(monkeypatch):
    from ghastates import algebra
    true_ladder = algebra.ladder_coefficients
    g.build_rep(g.type1(), 12)  # the unperturbed ladder passes
    monkeypatch.setattr(algebra, "ladder_coefficients",
                        lambda spec, count: true_ladder(spec, count) * 1.001)
    with pytest.raises(ShapeMismatchError, match="ladder reconstruction"):
        g.build_rep(g.type1(), 12)


def test_band_arithmetic_matches_dense():
    rng = np.random.default_rng(5)
    Band = g.algebra.Band
    for dim in (1, 2, 3, 4, 7):
        def draw(offsets, imag):
            return Band.of(dim, {
                k: rng.standard_normal(dim - abs(k))
                + imag * rng.standard_normal(dim - abs(k))
                for k in offsets if abs(k) < dim})

        X, Y = draw((-1, 0, 2), 0.0), draw((1, -1, -2), 1j)
        MX, MY = X.dense(), Y.dense()
        assert not MX.flags.writeable
        for got, want in ((X + Y, MX + MY), (X - Y, MX - MY),
                          (Y - X, MY - MX), (2.5 * X, 2.5 * MX),
                          (1j * Y, 1j * MY)):
            assert np.array_equal(got.dense(), want)
        for P, Q in ((X, Y), (Y, X), (X, X), (Y, Y)):
            np.testing.assert_allclose((P @ Q).dense(), P.dense() @ Q.dense(),
                                       rtol=1e-15, atol=1e-15)
        for M, band in ((MX, X), (MY, Y)):
            for lo, hi in ((0, dim), (0, dim - 1), (dim - 2, dim), (1, 2)):
                lo = max(lo, 0)
                want = np.abs(M[:, lo:hi]).max(initial=0.0)
                assert band.absmax(lo, hi) == want, (dim, lo, hi)


def _dense_rows(rep, spec, tol=1e-12):
    """Every verify row recomputed with dense products of the public views:
    (name, interior, boundary, passed)."""
    d = rep.dim
    eye = np.eye(d)
    if spec.system == "morse":  # the wrap f(eps_nmax) = eps_0
        fJ0 = np.diag(np.roll(g.levels(spec, d), -1))
    else:
        fJ0 = np.diag(g.levels(spec, d + 1)[1:])
    rows = []

    def scale(*mats):
        return 1.0 + max(float(np.abs(m).max()) for m in mats)

    def add(name, R, s, cols=1):
        R = np.abs(np.asarray(R, dtype=complex))
        interior = float(R[:, :d - cols].max()) / s if d > cols else 0.0
        rows.append((name, interior, float(R[:, d - cols:].max()) / s,
                     interior <= tol))

    C = g.commutator
    J0, A, A_dag = rep.J0, rep.A, rep.A_dag
    add("raising_weight", J0 @ A_dag - A_dag @ fJ0, scale(J0 @ A_dag))
    add("lowering_weight", A @ J0 - fJ0 @ A, scale(A @ J0))
    ladder = C(A, A_dag)
    add("ladder_commutator", ladder - (fJ0 - J0), scale(A @ A_dag, fJ0))
    add("number_lowering", C(rep.N_op, rep.D) + rep.D, scale(rep.N_op @ rep.D))
    add("number_raising", C(rep.N_op, rep.D_dag) - rep.D_dag,
        scale(rep.N_op @ rep.D_dag))
    add("canonical_pair", C(rep.D, rep.D_dag) - eye, scale(rep.D @ rep.D_dag))
    add("position_momentum", C(rep.xi, rep.rho) - 1j * eye,
        scale(rep.xi @ rep.rho))
    gamma = g.casimir(rep, spec)
    cols = 1 if spec.system == "morse" else 2
    gs = scale(gamma @ A_dag, gamma @ J0)
    for name, X in (("number", J0), ("lowering", A), ("raising", A_dag)):
        add(f"casimir_{name}", C(gamma, X), gs, cols)
    if spec.system == "square_well":
        rb, sqrtH = math.sqrt(spec.b), np.diag(np.sqrt(rep.eps))
        add("well_raising",
            C(J0, A_dag) - (2.0 * rb * A_dag @ sqrtH + spec.b * A_dag),
            scale(J0 @ A_dag))
        add("well_lowering", C(J0, A) + (2.0 * rb * sqrtH @ A + spec.b * A),
            scale(J0 @ A))
        add("well_ladder", ladder - (2.0 * rb * sqrtH + spec.b * eye),
            scale(A @ A_dag))
    if spec.system == "morse":
        root = np.diag(np.sqrt(-rep.eps))
        add("bound_raising", C(J0, A_dag) - (2.0 * A_dag @ root - A_dag),
            scale(J0 @ A_dag))
        add("bound_lowering", C(J0, A) - (-2.0 * root @ A + A), scale(J0 @ A))
        add("bound_ladder", ladder - (2.0 * root - eye), scale(A @ A_dag))
        add("hamiltonian_from_ladder", g.j0_from_ladder(rep, spec) - J0,
            scale(A_dag @ A, J0))
        s = g.nilpotency_index(spec)
        top = np.linalg.matrix_power(A_dag, s)
        below = np.linalg.matrix_power(A_dag, s - 1)
        rows.append(("nilpotent_power", float(np.abs(top).max()), 0.0,
                     not np.any(top)))
        rows.append(("nilpotent_sharp", float(np.abs(below).max()), 0.0,
                     bool(np.any(below))))
    return rows


_BAND_DIMS = (2, 3, 4, 5, 6, 7, 9, 16, 30, 37, 64, 100, 151, 200)
_TABLE = g.from_table(g.levels(g.type1(0.7), 201))


@pytest.mark.parametrize("spec", [
    *(g.make_spectrum(s, q=0.5) for s in g.CATALOG if s != "morse"),
    g.square_well(2.5), g.q_deformed(1.5), _TABLE,
    *(g.morse(p) for p in (7.59, 3.2, 2.5, 10.3, 1.5)),
], ids=lambda s: s.system)
def test_band_residuals_match_dense(spec):
    # verify_algebra's band arithmetic against dense products of the public
    # views: every residual within one epsilon (relative above 1), and the
    # same pass/fail on every row
    eps = np.finfo(float).eps
    dims = [spec.max_level + 1] if spec.system == "morse" else _BAND_DIMS
    for dim in dims:
        rep = g.build_rep(spec, dim)
        report = g.verify_algebra(rep, spec, 1e-12)
        rows = _dense_rows(rep, spec)
        assert [c.name for c in report.checks] == [r[0] for r in rows]
        for c, (name, interior, boundary, passed) in zip(report.checks, rows):
            for got, want in ((c.interior, interior), (c.boundary, boundary)):
                assert abs(got - want) <= eps * max(1.0, abs(want)), (dim, name)
            assert c.passed == passed, (dim, name)


def test_verify_renders_no_dense_matrix(monkeypatch):
    # every identity is checked on the bands, at any size a trace uses
    def refuse(self):
        raise AssertionError("verify_algebra rendered a dense matrix")

    monkeypatch.setattr(g.algebra.Band, "dense", refuse)
    spec = g.type1()
    report = g.verify_algebra(g.build_rep(spec, 2000), spec, 1e-12)
    assert report.passed, report.to_text()
