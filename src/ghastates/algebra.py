"""Truncated Fock-basis matrix representations and identity checks.

The generators are built directly from the ladder coefficients:
``A_dag|n> = N_n|n+1>``, ``J0|n> = eps_n|n>``, together with the canonical
pair ``D|n> = sqrt(n)|n-1>``, ``D_dag|n> = sqrt(n+1)|n+1>`` and the
position/momentum-like combinations

    xi  = (L/sqrt(2)) (D + D_dag),
    rho = (i hbar / (sqrt(2) L)) (D_dag - D).

All identities are exact on interior basis vectors; truncation necessarily
breaks ``[D, D_dag] = I`` on the last column, which is reported separately
rather than hidden.  For finite (nilpotent) ladders the last column is the
top of the physical space and plays the same boundary role.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    ShapeMismatchError,
    WrongSystemError,
    require_integer,
    require_positive,
)
from .spectrum import (
    SpectrumModel,
    ladder_coefficients,
    levels,
    nilpotency_index,
)

_SELF_CHECK_TOL = 1e-12


@dataclass(frozen=True)
class AlgebraRep:
    """All generators at one truncation dimension, stored as bands.

    ``eps`` is the J0 diagonal, ``ladder`` the subdiagonal N_n of A_dag, and
    ``xi_bands`` and ``rho_bands`` the (super, sub) diagonals of xi and rho,
    kept apart so that the oracle can check each sub-band against the
    conjugate of its super-band before it sums the super-band alone.
    The dense ``J0, A, A_dag, N_op, D, D_dag, xi, rho`` are built on first
    access and cached.  Every array is read-only, so a representation is
    safe to share between threads: a racing first access builds identical
    read-only arrays.
    """

    system: str
    eps: np.ndarray
    ladder: np.ndarray
    xi_bands: tuple[np.ndarray, np.ndarray]
    rho_bands: tuple[np.ndarray, np.ndarray]
    L_scale: float = 1.0
    hbar: float = 1.0

    dim = property(lambda s: len(s.eps))
    J0 = cached_property(lambda s: _dense(s.dim, (0, s.eps)))
    A_dag = cached_property(lambda s: _dense(s.dim, (-1, s.ladder)))
    A = cached_property(lambda s: s.A_dag.T)
    N_op = cached_property(
        lambda s: _dense(s.dim, (0, np.arange(s.dim, dtype=float))))
    D_dag = cached_property(
        lambda s: _dense(s.dim, (-1, np.sqrt(np.arange(1.0, s.dim)))))
    D = cached_property(lambda s: s.D_dag.T)
    xi = cached_property(lambda s: _dense(s.dim, *zip((1, -1), s.xi_bands)))
    rho = cached_property(lambda s: _dense(s.dim, *zip((1, -1), s.rho_bands)))


def _dense(dim: int, *bands: tuple[int, np.ndarray]) -> np.ndarray:
    """Read-only dim x dim matrix holding each (offset, values) band."""
    M = np.zeros((dim, dim), dtype=bands[0][1].dtype)
    for k, values in bands:
        np.fill_diagonal(M[max(-k, 0):, max(k, 0):], values)
    M.flags.writeable = False
    return M


def build_rep(spec: SpectrumModel, dim: int, L_scale: float = 1.0,
              hbar: float = 1.0) -> AlgebraRep:
    """Build the bands of all generators at truncation dimension ``dim``.

    Finite ladders must be represented whole: for the Morse system ``dim``
    has to equal ``n_max + 1``.  Tabulated spectra allow ``dim`` up to their
    table length.
    """
    require_integer(dim=dim)
    if dim < 2:
        raise DimensionMismatchError("representation dimension must be >= 2")
    if spec.system == "morse" and dim != spec.max_level + 1:
        raise DimensionMismatchError(
            f"a nilpotent ladder is represented whole: dim must equal "
            f"n_max + 1 = {spec.max_level + 1}, got {dim}")
    if spec.system == "custom" and dim > spec.max_level + 1:
        raise DimensionMismatchError(
            f"tabulated spectrum supports dim <= {spec.max_level + 1}")
    require_positive(L_scale=L_scale, hbar=hbar)

    eps = levels(spec, dim)
    ladder = ladder_coefficients(spec, dim - 1)
    _check_reconstruction(eps, ladder)

    # xi and rho from D (sqrt(n) above the diagonal) and D_dag (below it)
    root = np.sqrt(np.arange(1.0, dim))
    xi = (L_scale / math.sqrt(2.0)) * root.astype(complex)
    i_scale = 1j * hbar / (math.sqrt(2.0) * L_scale)
    rho = (i_scale * (-root).astype(complex), i_scale * root.astype(complex))
    for a in (eps, ladder, xi, *rho):
        a.flags.writeable = False
    return AlgebraRep(spec.system, eps, ladder, (xi, xi), rho, L_scale, hbar)


def _check_reconstruction(eps: np.ndarray, ladder: np.ndarray) -> None:
    # Construction self-check: D must also follow from the ladder route
    # D = sqrt(N+1) (f(J0) - eps_0)^{-1/2} A.  Both are zero off their first
    # superdiagonal, so only that band is compared.  A gap that is not
    # positive has no inverse root and is masked to zero.
    gaps = eps[1:] - eps[0]
    inv = np.where(gaps > 0, 1.0 / np.sqrt(np.where(gaps > 0, gaps, 1.0)), 0.0)
    root = np.sqrt(np.arange(1, len(eps), dtype=float))
    err = np.abs(root * inv * ladder - root).max()
    if err > _SELF_CHECK_TOL * (1.0 + root.max()):
        raise ShapeMismatchError(
            f"ladder reconstruction of D disagrees with the direct rule "
            f"by {err:.3e}")


def commutator(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """XY - YX for equal square shapes."""
    X = np.asarray(X)
    Y = np.asarray(Y)
    if X.ndim != 2 or X.shape[0] != X.shape[1] or X.shape != Y.shape:
        raise ShapeMismatchError(
            f"commutator needs equal square matrices, got {X.shape} and {Y.shape}")
    return X @ Y - Y @ X


def _f_diag(rep: AlgebraRep, spec: SpectrumModel) -> np.ndarray:
    """f applied entrywise to the J0 diagonal, including the finite-ladder wrap."""
    if spec.system == "custom" and rep.dim > spec.max_level:
        raise DimensionMismatchError(
            "identity checks on a tabulated spectrum need the image of every "
            f"represented level; rebuild with dim <= {spec.max_level}")
    if spec.system == "morse":  # the wrap f(eps_nmax) = eps_0
        return np.diag(np.roll(levels(spec, rep.dim), -1))
    return np.diag(levels(spec, rep.dim + 1)[1:])


def casimir(rep: AlgebraRep, spec: SpectrumModel) -> np.ndarray:
    """Gamma = A A_dag - f(J0); commutes with all generators on the interior."""
    return rep.A @ rep.A_dag - _f_diag(rep, spec)


def j0_from_ladder(rep: AlgebraRep, spec: SpectrumModel) -> np.ndarray:
    """Reconstruct J0 as A_dag A - p^2 on the finite Morse ladder."""
    if spec.system != "morse":
        raise WrongSystemError("J0 = A_dag A - p^2 holds only for the Morse ladder")
    return rep.A_dag @ rep.A - spec.p ** 2 * np.eye(rep.dim)


# ---------------------------------------------------------------------------
# identity verification

@dataclass(frozen=True)
class IdentityCheck:
    name: str
    interior: float
    boundary: float
    passed: bool


@dataclass(frozen=True)
class VerifyReport:
    system: str
    dim: int
    tol: float
    checks: tuple[IdentityCheck, ...]
    passed: bool

    def to_text(self) -> str:
        lines = [
            f"algebra verification: system={self.system} dim={self.dim} "
            f"tol={self.tol:g}",
            f"{'identity':<28}{'interior':>14}{'boundary':>14}  status",
        ]
        for c in self.checks:
            lines.append(f"{c.name:<28}{c.interior:>14.3e}{c.boundary:>14.3e}"
                         f"  {'pass' if c.passed else 'FAIL'}")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_records(self) -> list[str]:
        """One tab-separated record per identity: name, interior residual,
        boundary residual, pass/fail."""
        return [f"{c.name}\t{c.interior:.6e}\t{c.boundary:.6e}\t"
                f"{'pass' if c.passed else 'fail'}" for c in self.checks]


def _residual(R: np.ndarray, scale: float,
              boundary_cols: int = 1) -> tuple[float, float]:
    R = np.abs(R)
    split = R.shape[1] - boundary_cols
    interior = float(R[:, :split].max()) if split > 0 else 0.0
    boundary = float(R[:, split:].max())
    return interior / scale, boundary / scale


def _scale_of(*mats: np.ndarray) -> float:
    return 1.0 + max(float(np.abs(m).max()) for m in mats)


def verify_algebra(rep: AlgebraRep, spec: SpectrumModel,
                   tol: float = 1e-12) -> VerifyReport:
    """Check every algebraic identity numerically and report residuals.

    Residuals are normalized by the largest entry among the products that
    enter each identity, so the tolerance is meaningful across energy
    scales.  Interior residuals exclude the last basis column, where the
    truncation defect of the canonical pair lives; that defect is reported
    in the boundary column.  Failures are report content, never exceptions.
    """
    require_positive(tol=tol)
    d = rep.dim
    eye = np.eye(d)
    fJ0 = _f_diag(rep, spec)
    checks: list[IdentityCheck] = []

    def add(name: str, R: np.ndarray, scale: float,
            boundary_cols: int = 1) -> None:
        interior, boundary = _residual(np.asarray(R, dtype=complex), scale,
                                       boundary_cols)
        checks.append(IdentityCheck(name, interior, boundary, interior <= tol))

    up = rep.J0 @ rep.A_dag
    add("raising_weight", up - rep.A_dag @ fJ0, _scale_of(up))
    down = rep.A @ rep.J0
    add("lowering_weight", down - fJ0 @ rep.A, _scale_of(down))
    ladder_comm = commutator(rep.A, rep.A_dag)
    add("ladder_commutator", ladder_comm - (fJ0 - rep.J0),
        _scale_of(rep.A @ rep.A_dag, fJ0))
    add("number_lowering", commutator(rep.N_op, rep.D) + rep.D,
        _scale_of(rep.N_op @ rep.D))
    add("number_raising", commutator(rep.N_op, rep.D_dag) - rep.D_dag,
        _scale_of(rep.N_op @ rep.D_dag))
    add("canonical_pair", commutator(rep.D, rep.D_dag) - eye,
        _scale_of(rep.D @ rep.D_dag))
    add("position_momentum",
        commutator(rep.xi, rep.rho) - 1j * rep.hbar * eye,
        _scale_of(rep.xi @ rep.rho))

    # the Casimir's own truncation defect (its last diagonal entry) reaches
    # one column further through the ladder operators, so its commutators
    # carry a two-column boundary; only the wrapped finite ladder is exempt,
    # where the Casimir is exactly constant
    gamma = casimir(rep, spec)
    gcols = 1 if spec.system == "morse" else 2
    gscale = _scale_of(gamma @ rep.A_dag, gamma @ rep.J0)
    add("casimir_number", commutator(gamma, rep.J0), gscale, gcols)
    add("casimir_lowering", commutator(gamma, rep.A), gscale, gcols)
    add("casimir_raising", commutator(gamma, rep.A_dag), gscale, gcols)

    if spec.system == "square_well":
        rb = math.sqrt(spec.b)
        sqrtH = np.diag(np.sqrt(rep.eps))
        add("well_raising",
            commutator(rep.J0, rep.A_dag)
            - (2.0 * rb * rep.A_dag @ sqrtH + spec.b * rep.A_dag),
            _scale_of(rep.J0 @ rep.A_dag))
        add("well_lowering",
            commutator(rep.J0, rep.A)
            + (2.0 * rb * sqrtH @ rep.A + spec.b * rep.A),
            _scale_of(rep.J0 @ rep.A))
        # the diagonal form of the ladder commutator for this well
        add("well_ladder",
            ladder_comm - (2.0 * rb * sqrtH + spec.b * eye),
            _scale_of(rep.A @ rep.A_dag))

    if spec.system == "morse":
        root = np.diag(np.sqrt(-rep.eps))
        add("bound_raising",
            commutator(rep.J0, rep.A_dag)
            - (2.0 * rep.A_dag @ root - rep.A_dag),
            _scale_of(rep.J0 @ rep.A_dag))
        add("bound_lowering",
            commutator(rep.J0, rep.A) - (-2.0 * root @ rep.A + rep.A),
            _scale_of(rep.J0 @ rep.A))
        add("bound_ladder", ladder_comm - (2.0 * root - eye),
            _scale_of(rep.A @ rep.A_dag))
        add("hamiltonian_from_ladder", j0_from_ladder(rep, spec) - rep.J0,
            _scale_of(rep.A_dag @ rep.A, rep.J0))

        s = nilpotency_index(spec)
        top_power = np.linalg.matrix_power(rep.A_dag, s)
        below = np.linalg.matrix_power(rep.A_dag, s - 1)
        # structural: the s-th power must vanish identically, the (s-1)-th not
        checks.append(IdentityCheck("nilpotent_power",
                                    float(np.abs(top_power).max()), 0.0,
                                    not np.any(top_power)))
        checks.append(IdentityCheck("nilpotent_sharp",
                                    float(np.abs(below).max()), 0.0,
                                    bool(np.any(below))))

    return VerifyReport(system=spec.system, dim=d, tol=tol,
                        checks=tuple(checks),
                        passed=all(c.passed for c in checks))
