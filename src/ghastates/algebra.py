"""Truncated Fock-basis matrix representations and identity checks.

The generators are built directly from the ladder coefficients:
``A_dag|n> = N_n|n+1>``, ``J0|n> = eps_n|n>``, together with the canonical
pair ``D|n> = sqrt(n)|n-1>``, ``D_dag|n> = sqrt(n+1)|n+1>`` and the
position/momentum-like combinations, in units L = hbar = 1,

    xi  = (D + D_dag) / sqrt(2),
    rho = i (D_dag - D) / sqrt(2).

All identities are exact on interior basis vectors; truncation necessarily
breaks ``[D, D_dag] = I`` on the last column, which is reported separately
rather than hidden.  For finite (nilpotent) ladders the last column is the
top of the physical space and plays the same boundary role.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partialmethod

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


class Band:
    """A square matrix stored as its diagonals: ``diags[k]`` holds M[r, r + k]
    at index r (numpy's offset k = column - row), zero where r + k leaves the
    matrix.  Sums, products and scalar multiples of the tridiagonal
    generators stay bands, so an identity on them costs O(dim)."""

    __slots__ = ("dim", "diags")
    __array_ufunc__ = None  # numpy scalars defer to __rmul__

    def __init__(self, dim: int, diags: dict[int, np.ndarray]):
        self.dim, self.diags = dim, diags

    @classmethod
    def of(cls, dim: int, diags: dict) -> Band:
        """Band from ``np.diagonal``-style values, dim - |k| at offset k; a
        scalar fills its whole diagonal."""
        return cls(dim, {k: np.concatenate((np.zeros(max(-k, 0)),
                                            np.full(dim - abs(k), v),
                                            np.zeros(max(k, 0))))
                         for k, v in diags.items()})

    def __matmul__(self, other: Band) -> Band:
        d, out = self.dim, {}
        for a, x in self.diags.items():
            lo, hi = max(-a, 0), d - max(a, 0)
            for b, y in other.diags.items():
                if abs(a + b) < d:  # row r: M[r, r+a] N[r+a, r+a+b]
                    t = np.zeros(d, np.result_type(x, y))
                    np.multiply(x[lo:hi], y[lo + a:hi + a], out=t[lo:hi])
                    out[a + b] = out[a + b] + t if a + b in out else t
        return Band(d, out)

    def _merge(self, other: Band, op) -> Band:
        out = dict(self.diags)
        for k, v in other.diags.items():
            out[k] = op(out.get(k, 0.0), v)
        return Band(self.dim, out)

    __add__ = partialmethod(_merge, op=np.add)
    __sub__ = partialmethod(_merge, op=np.subtract)

    def __rmul__(self, scalar: complex) -> Band:
        return Band(self.dim, {k: scalar * v for k, v in self.diags.items()})

    def absmax(self, lo: int = 0, hi: int | None = None) -> float:
        """Largest |entry| in columns lo .. hi - 1; 0 when there is none."""
        hi = self.dim if hi is None else hi
        parts = [v[max(lo - k, 0):max(hi - k, 0)] for k, v in self.diags.items()]
        return float(np.abs(np.concatenate([np.zeros(0), *parts]))
                     .max(initial=0.0))

    def dense(self) -> np.ndarray:
        """The read-only dim x dim matrix."""
        d = self.dim
        M = np.zeros((d, d), np.result_type(0.0, *self.diags.values()))
        for k, v in self.diags.items():
            np.fill_diagonal(M[max(-k, 0):, max(k, 0):],
                             v[max(-k, 0):d - max(k, 0)])
        M.flags.writeable = False
        return M


@dataclass(frozen=True)
class AlgebraRep:
    """All generators at one truncation dimension, stored as bands.

    ``eps`` is the J0 diagonal, ``ladder`` the subdiagonal N_n of A_dag, and
    ``xi_bands`` and ``rho_bands`` the (super, sub) diagonals of xi and rho.
    The oracle checks xi's sub-band against the conjugate of its super-band
    before it sums that super-band alone, and reads rho's moments from the
    same sums; ``verify_algebra`` and the dense views read rho's bands.
    The ``bands`` of every generator, and their dense renderings ``J0, A,
    A_dag, N_op, D, D_dag, xi, rho``, are built on first access and cached.
    The fields and the dense views are read-only, so a representation is
    safe to share between threads: a racing first access builds identical
    objects.
    """

    system: str
    eps: np.ndarray
    ladder: np.ndarray
    xi_bands: tuple[np.ndarray, np.ndarray]
    rho_bands: tuple[np.ndarray, np.ndarray]

    dim = property(lambda s: len(s.eps))

    @cached_property
    def bands(self) -> dict[str, Band]:
        d, root = self.dim, np.sqrt(np.arange(1.0, self.dim))
        return {name: Band.of(d, diags) for name, diags in (
            ("J0", {0: self.eps}), ("N_op", {0: np.arange(d, dtype=float)}),
            ("A", {1: self.ladder}), ("A_dag", {-1: self.ladder}),
            ("D", {1: root}), ("D_dag", {-1: root}),
            ("xi", dict(zip((1, -1), self.xi_bands))),
            ("rho", dict(zip((1, -1), self.rho_bands))))}

    J0, N_op, A, A_dag, D, D_dag, xi, rho = (
        cached_property(lambda s, name=name: s.bands[name].dense())
        for name in ("J0", "N_op", "A", "A_dag", "D", "D_dag", "xi", "rho"))


def build_rep(spec: SpectrumModel, dim: int) -> AlgebraRep:
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

    eps = levels(spec, dim)
    ladder = ladder_coefficients(spec, dim - 1)
    _check_reconstruction(eps, ladder)

    # xi and rho from D (sqrt(n) above the diagonal) and D_dag (below it)
    root = np.sqrt(np.arange(1.0, dim))
    xi = (1.0 / math.sqrt(2.0)) * root.astype(complex)
    i_scale = 1j / math.sqrt(2.0)
    rho = (i_scale * (-root).astype(complex), i_scale * root.astype(complex))
    for a in (eps, ladder, xi, *rho):
        a.flags.writeable = False
    return AlgebraRep(spec.system, eps, ladder, (xi, xi), rho)


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


def _f_diag(rep: AlgebraRep, spec: SpectrumModel) -> Band:
    """f applied entrywise to the J0 diagonal, including the finite-ladder wrap."""
    if spec.system == "custom" and rep.dim > spec.max_level:
        raise DimensionMismatchError(
            "identity checks on a tabulated spectrum need the image of every "
            f"represented level; rebuild with dim <= {spec.max_level}")
    if spec.system == "morse":  # the wrap f(eps_nmax) = eps_0
        return Band.of(rep.dim, {0: np.roll(levels(spec, rep.dim), -1)})
    return Band.of(rep.dim, {0: levels(spec, rep.dim + 1)[1:]})


def casimir(rep: AlgebraRep, spec: SpectrumModel) -> np.ndarray:
    """Gamma = A A_dag - f(J0); commutes with all generators on the interior."""
    return (rep.bands["A"] @ rep.bands["A_dag"] - _f_diag(rep, spec)).dense()


def j0_from_ladder(rep: AlgebraRep, spec: SpectrumModel) -> np.ndarray:
    """Reconstruct J0 as A_dag A - p^2 on the finite Morse ladder."""
    if spec.system != "morse":
        raise WrongSystemError("J0 = A_dag A - p^2 holds only for the Morse ladder")
    return (rep.bands["A_dag"] @ rep.bands["A"]
            - Band.of(rep.dim, {0: spec.p ** 2})).dense()


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


def verify_algebra(rep: AlgebraRep, spec: SpectrumModel,
                   tol: float = 1e-12) -> VerifyReport:
    """Check every algebraic identity numerically and report residuals.

    Residuals are normalized by the largest entry among the products that
    enter each identity, so the tolerance is meaningful across energy
    scales.  Interior residuals exclude the last basis column, where the
    truncation defect of the canonical pair lives; that defect is reported
    in the boundary column.  Failures are report content, never exceptions.
    Every product is a band product, so the checks cost O(dim).
    """
    require_positive(tol=tol)
    d, b = rep.dim, rep.bands
    J0, A, A_dag = b["J0"], b["A"], b["A_dag"]
    eye, fJ0 = Band.of(d, {0: 1.0}), _f_diag(rep, spec)
    checks: list[IdentityCheck] = []

    def add(name: str, R: Band, *products: Band, cols: int = 1) -> None:
        scale = 1.0 + max(m.absmax() for m in products)
        interior = R.absmax(0, d - cols) / scale
        checks.append(IdentityCheck(name, interior, R.absmax(d - cols) / scale,
                                    interior <= tol))

    up, down, A_A_dag, A_dag_A = J0 @ A_dag, A @ J0, A @ A_dag, A_dag @ A
    ladder = A_A_dag - A_dag_A
    add("raising_weight", up - A_dag @ fJ0, up)
    add("lowering_weight", down - fJ0 @ A, down)
    add("ladder_commutator", ladder - (fJ0 - J0), A_A_dag, fJ0)
    for name, X, Y, rhs in (
            ("number_lowering", b["N_op"], b["D"], -1.0 * b["D"]),
            ("number_raising", b["N_op"], b["D_dag"], b["D_dag"]),
            ("canonical_pair", b["D"], b["D_dag"], eye),
            ("position_momentum", b["xi"], b["rho"],
             Band.of(d, {0: 1j}))):
        XY = X @ Y
        add(name, XY - Y @ X - rhs, XY)

    # the Casimir's own truncation defect (its last diagonal entry) reaches
    # one column further through the ladder operators, so its commutators
    # carry a two-column boundary; only the wrapped finite ladder is exempt,
    # where the Casimir is exactly constant
    gamma = A_A_dag - fJ0
    scaled_by = gamma @ A_dag, gamma @ J0
    for name, X in (("number", J0), ("lowering", A), ("raising", A_dag)):
        add(f"casimir_{name}", gamma @ X - X @ gamma, *scaled_by,
            cols=1 if spec.system == "morse" else 2)

    # closed forms of [J0, A_dag], [J0, A] and [A, A_dag] on two spectra
    forms = ()
    if spec.system == "square_well":
        rb, sqrtH = math.sqrt(spec.b), Band.of(d, {0: np.sqrt(rep.eps)})
        prefix, forms = "well", (
            (2.0 * rb * A_dag) @ sqrtH + spec.b * A_dag,
            -1.0 * ((2.0 * rb * sqrtH) @ A + spec.b * A),
            2.0 * rb * sqrtH + Band.of(d, {0: spec.b}))
    elif spec.system == "morse":
        root = Band.of(d, {0: np.sqrt(-rep.eps)})
        prefix, forms = "bound", ((2.0 * A_dag) @ root - A_dag,
                                  (-2.0 * root) @ A + A, 2.0 * root - eye)
    if forms:
        J0_A = J0 @ A
        add(f"{prefix}_raising", up - A_dag @ J0 - forms[0], up)
        add(f"{prefix}_lowering", J0_A - down - forms[1], J0_A)
        add(f"{prefix}_ladder", ladder - forms[2], A_A_dag)

    if spec.system == "morse":
        add("hamiltonian_from_ladder",
            A_dag_A - Band.of(d, {0: spec.p ** 2}) - J0, A_dag_A, J0)
        # structural: the s-th power must vanish identically, the (s-1)-th
        # not; each power is one band, s below the diagonal
        below = A_dag
        for _ in range(nilpotency_index(spec) - 2):
            below = below @ A_dag
        top, below = (below @ A_dag).absmax(), below.absmax()
        checks += [IdentityCheck("nilpotent_power", top, 0.0, top == 0.0),
                   IdentityCheck("nilpotent_sharp", below, 0.0, below != 0.0)]

    return VerifyReport(system=spec.system, dim=d, tol=tol,
                        checks=tuple(checks),
                        passed=all(c.passed for c in checks))
