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

import numpy as np

from .errors import (
    DimensionMismatchError,
    ShapeMismatchError,
    WrongSystemError,
)
from .spectrum import (
    SpectrumModel,
    energy,
    ladder_coefficient,
    next_energy,
    nilpotency_index,
)

_SELF_CHECK_TOL = 1e-12


@dataclass(frozen=True)
class AlgebraRep:
    """Matrices of all generators at one truncation dimension.

    Arrays are read-only; a representation is safe to share between threads.
    ``xi`` and ``rho`` are zero off their first sub- and superdiagonals, which
    the banded matrix route relies on; any other entry is rejected.
    """

    system: str
    dim: int
    J0: np.ndarray
    A: np.ndarray
    A_dag: np.ndarray
    N_op: np.ndarray
    D: np.ndarray
    D_dag: np.ndarray
    xi: np.ndarray
    rho: np.ndarray
    L_scale: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for name in ("xi", "rho"):
            X = getattr(self, name)
            band = (np.count_nonzero(np.diagonal(X, 1))
                    + np.count_nonzero(np.diagonal(X, -1)))
            if np.count_nonzero(X) != band:
                raise ShapeMismatchError(
                    f"{name} has entries off its first sub- and superdiagonal")


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def build_rep(spec: SpectrumModel, dim: int, L_scale: float = 1.0,
              hbar: float = 1.0) -> AlgebraRep:
    """Build all generator matrices at truncation dimension ``dim``.

    Finite ladders must be represented whole: for the Morse system ``dim``
    has to equal ``n_max + 1``.  Tabulated spectra allow ``dim`` up to their
    table length.
    """
    if dim < 2:
        raise DimensionMismatchError("representation dimension must be >= 2")
    if spec.system == "morse" and dim != spec.max_level + 1:
        raise DimensionMismatchError(
            f"a nilpotent ladder is represented whole: dim must equal "
            f"n_max + 1 = {spec.max_level + 1}, got {dim}")
    if spec.system == "custom" and dim > spec.max_level + 1:
        raise DimensionMismatchError(
            f"tabulated spectrum supports dim <= {spec.max_level + 1}")
    if L_scale <= 0 or hbar <= 0:
        raise DimensionMismatchError("L_scale and hbar must be positive")

    eps = np.array([energy(spec, n) for n in range(dim)])
    ladder = np.array([ladder_coefficient(spec, n) for n in range(dim - 1)])

    J0 = np.diag(eps)
    A_dag = np.diag(ladder, -1)
    A = A_dag.T.copy()
    N_op = np.diag(np.arange(dim, dtype=float))
    D_dag = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), -1)
    D = D_dag.T.copy()
    xi = (L_scale / math.sqrt(2.0)) * (D + D_dag).astype(complex)
    rho = 1j * hbar / (math.sqrt(2.0) * L_scale) * (D_dag - D).astype(complex)

    _check_reconstruction(spec, A, D, eps, dim)

    _freeze(J0, A, A_dag, N_op, D, D_dag, xi, rho)
    return AlgebraRep(system=spec.system, dim=dim, J0=J0, A=A, A_dag=A_dag,
                      N_op=N_op, D=D, D_dag=D_dag, xi=xi, rho=rho,
                      L_scale=L_scale, hbar=hbar)


def _check_reconstruction(spec: SpectrumModel, A: np.ndarray, D: np.ndarray,
                          eps: np.ndarray, dim: int) -> None:
    # Construction self-check: D must also follow from the ladder route
    # D = sqrt(N+1) (f(J0) - eps_0)^{-1/2} A.  The top diagonal entry of the
    # inverse never multiplies anything (the last row of A is zero), so it
    # is masked rather than inverted.
    gaps = np.array([next_energy(spec, n) for n in range(dim - 1)]) \
        - spec.ground_energy
    inv = np.where(gaps > 0, 1.0 / np.sqrt(np.where(gaps > 0, gaps, 1.0)), 0.0)
    scale = np.zeros(dim)
    scale[:-1] = np.sqrt(np.arange(1, dim, dtype=float)) * inv
    D_alt = scale[:, None] * A
    err = np.abs(D_alt - D).max()
    if err > _SELF_CHECK_TOL * (1.0 + np.abs(D).max()):
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
    return np.diag([next_energy(spec, n) for n in range(rep.dim)])


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
    if tol <= 0:
        raise ShapeMismatchError("tolerance must be positive")
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
        sqrtH = np.diag(np.sqrt(np.diag(rep.J0)))
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
        root = np.diag(np.sqrt(-np.diag(rep.J0)))
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
