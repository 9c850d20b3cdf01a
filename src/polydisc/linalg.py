"""Dense complex linear algebra with one shared tolerance policy.

Everything downstream (defect operators, model spaces, characteristic
functions) reduces to four primitives implemented here: Hermitian
eigendecomposition with a fixed ordering, positive-semidefinite square
roots with an explicit clamp window, deterministic range bases, and
Loewner-order comparisons.  All norms are spectral (operator 2-norm)
unless noted.  Matrices are dense complex128 ndarrays; operations are
pure functions and never mutate their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionOverflow, NotHermitian, NotPSD, NotSquare, ShapeMismatch

# The structural tolerance, the one tolerance a caller sets (CTuple.tol,
# --tol): the scale of every symmetry, identity and gate residual.
DEFAULT_TOL = 1e-10
TOL_RANK = 1e-9  # zero_cut of every rank cut and null space
TOL_PSD_CLAMP = 1e-10  # zero_cut window of a PSD matrix's eigenvalues clamped to 0
TOL_PURE = 1e-8  # pure iff every spectral radius is at most 1 - TOL_PURE

# Largest stacked array, in bytes, that an evaluation over a stack of points
# builds at once: the characteristic-function factors (charfn) and the symbol
# values and Gram residuals of the torus-grid inner check (hardy).
STACK_BYTE_BUDGET = 2**20
# Largest set of arrays, in bytes, that one step may allocate (a Hardy space,
# a symbol matrix, a torus grid, Taylor blocks, a dilation), refused before
# anything is allocated by refuse_over_budget.
BYTE_BUDGET = 2**28


def refuse_over_budget(need: int, what: str) -> None:
    """Raise DimensionOverflow when ``need`` bytes exceed BYTE_BUDGET; ``what``
    names the arrays, as in "torus grid of 200^3 points"."""
    if need > BYTE_BUDGET:
        raise DimensionOverflow(f"{what} needs {need / 2**20:.0f} MiB; budget {BYTE_BUDGET >> 20} MiB")


def zero_cut(scale: float, tol: float) -> float:
    """The one numerical-zero rule: a singular value, an eigenvalue or a
    column norm at or below tol * max(scale, 1) is zero.  Operators built
    from contractions have natural scale 1, so roundoff of a matrix that is
    zero is never promoted to rank by a cut relative to its own noise
    (numerical rank as in Golub and Van Loan, Matrix Computations)."""
    return tol * max(scale, 1.0)


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^ambient given by orthonormal basis columns."""

    ambient_dim: int
    basis: np.ndarray  # shape (ambient_dim, dim), orthonormal columns

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class LoewnerVerdict:
    holds: bool
    witness_min_eig: float


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128)


def spec_norm(a) -> float:
    """Spectral norm (largest singular value); 0.0 for empty matrices."""
    return float(spec_norms(np.atleast_2d(a)))


def spec_norms(a) -> np.ndarray:
    """Spectral norm of each matrix in a (..., m, k) stack; 0.0 for empty matrices.

    One LAPACK SVD per matrix, the same as spec_norm, so the values agree
    bit for bit."""
    a = as_complex(a)
    if a.shape[-2] == 0 or a.shape[-1] == 0:
        return np.zeros(a.shape[:-2])
    return np.linalg.norm(a, 2, axis=(-2, -1))


def stack_chunks(count: int, item_bytes: int) -> list[slice]:
    """Slices that walk a stack of ``count`` items of ``item_bytes`` each, so
    that no chunk goes over STACK_BYTE_BUDGET (a chunk holds at least one item)."""
    step = max(1, STACK_BYTE_BUDGET // max(item_bytes, 1))
    return [slice(start, start + step) for start in range(0, count, step)]


def hermitian_part(a) -> np.ndarray:
    """(A + A^H) / 2, which is exactly Hermitian in floating point."""
    a = as_complex(a)
    return 0.5 * (a + a.conj().T)


def _require_square(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")


def herm_eig(a, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns (eigenvalues, eigenvectors) with A = V diag(lam) V^H.  Raises
    NotSquare / NotHermitian if A fails the symmetry check at scale
    tol * max(||A||, 1).  Both norms are read only when A is not
    bitwise equal to its Hermitian part; otherwise the residual is 0.
    """
    a = as_complex(a)
    _require_square(a)
    herm = hermitian_part(a)
    if not np.array_equal(a, herm):
        scale = max(spec_norm(a), 1.0)
        anti = spec_norm(a - herm)
        if anti > tol * scale:
            raise NotHermitian(f"anti-Hermitian residual {anti:.3e} at scale {scale:.3e}")
    vals, vecs = np.linalg.eigh(herm)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def psd_clamp(vals: np.ndarray) -> float:
    """The NotPSD window zero_cut(||A||, TOL_PSD_CLAMP) of a Hermitian A,
    read off its descending spectrum: eigenvalues in [-window, 0) are
    roundoff of a PSD matrix, anything lower is not."""
    return zero_cut(max(float(vals[0]), -float(vals[-1])), TOL_PSD_CLAMP)


def psd_sqrt(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root with eigenvalue clamping.

    Eigenvalues in the psd_clamp window are clamped to zero; anything below
    it raises NotPSD with the offending eigenvalue.
    """
    vals, vecs = herm_eig(a, tol)
    if vals.size == 0:
        return np.zeros_like(as_complex(a))
    clamp = psd_clamp(vals)
    min_eig = float(vals[-1])
    if min_eig < -clamp:
        raise NotPSD(f"min eigenvalue {min_eig:.3e} below clamp {-clamp:.3e}", min_eig)
    root = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    return 0.5 * (root + root.conj().T)


def phase_fix(v: np.ndarray) -> np.ndarray:
    """Make the first significant coordinate of each column real positive.

    The pivot is the first coordinate with modulus above 1e-10 times the
    column max, which keeps the choice stable under tiny perturbations.
    Each phase is a scalar division, which numpy's array division is not.
    """
    v = as_complex(v).copy()
    mags = np.abs(v)
    top = mags.max(axis=0, initial=0.0)
    cols = np.flatnonzero(top != 0.0)
    if not cols.size:
        return v
    pivots = np.argmax(mags[:, cols] > 1e-10 * top[cols], axis=0)
    phase = np.array([c / abs(c) for c in v[pivots, cols]], dtype=np.complex128)
    v[:, cols] = (v[:, cols].T * np.conj(phase)[:, None]).T
    return v


def numerical_rank(s: np.ndarray) -> int:
    """The one rank rule: the count of the descending singular values s
    above zero_cut(s[0], TOL_RANK); 0 for no singular values."""
    return int(np.sum(s > zero_cut(s.max(initial=0.0), TOL_RANK)))


def range_basis(a) -> Subspace:
    """Deterministic orthonormal basis of the numerical column space.

    Columns are left singular vectors ordered by descending singular value
    (for Hermitian PSD input this is descending eigenvalue order), keeping
    sigma > zero_cut(sigma_max, TOL_RANK), with phases fixed by phase_fix.
    """
    a = np.atleast_2d(as_complex(a))
    m = a.shape[0]
    if a.size == 0 or not np.any(a):
        return Subspace(m, np.zeros((m, 0), dtype=np.complex128))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return Subspace(m, phase_fix(u[:, : numerical_rank(s)]))


def null_space(a) -> Subspace:
    """Orthonormal basis of the numerical null space of A: the right singular
    vectors whose singular value is zero by zero_cut(sigma_max, TOL_RANK)."""
    a = np.atleast_2d(as_complex(a))
    n = a.shape[1]
    if a.size == 0 or not np.any(a):
        return Subspace(n, np.eye(n, dtype=np.complex128))
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    return Subspace(n, phase_fix(vh[numerical_rank(s) :].conj().T))


def loewner_leq(a, b, tol: float = DEFAULT_TOL) -> LoewnerVerdict:
    """Test A <= B in the Loewner order.

    Holds iff the minimum eigenvalue of B - A is >= -tol *
    max(||A||, ||B||, 1); the witness eigenvalue is returned either way.
    """
    a = as_complex(a)
    b = as_complex(b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes {a.shape} and {b.shape} differ")
    vals, _ = herm_eig(b - a, tol)
    witness = float(vals[-1]) if vals.size else 0.0
    scale = max(spec_norm(a), spec_norm(b), 1.0)
    return LoewnerVerdict(witness >= -tol * scale, witness)


def projector_residual(u: Subspace, v: Subspace) -> float:
    """Distance ||P_U - P_V|| between two subspaces of the same ambient.

    Read in the thin bases as max(||(I - P_V) U||, ||(I - P_U) V||), which
    equals ||P_U - P_V|| for any two orthogonal projections (T. Kato,
    Perturbation Theory for Linear Operators, ch. I sec. 6).
    """
    if u.ambient_dim != v.ambient_dim:
        raise ShapeMismatch("subspaces live in different ambient dimensions")
    a, b = u.basis, v.basis
    return max(spec_norm(a - b @ (b.conj().T @ a)), spec_norm(b - a @ (a.conj().T @ b)))


def containment_residual(vectors, space: Subspace) -> float:
    """Largest distance ||x - Q (Q^H x)|| / max(||x||, 1) of the columns x
    from a subspace, formed in the thin basis Q, never as a projector.

    At scale 1 a column of roundoff reads as roundoff; rescaled to unit
    length its noise would grow by 1/||x|| and depend on the basis."""
    vectors = np.atleast_2d(as_complex(vectors))
    q = space.basis
    resid = np.linalg.norm(vectors - q @ (q.conj().T @ vectors), axis=0)
    return float((resid / np.maximum(np.linalg.norm(vectors, axis=0), 1.0)).max(initial=0.0))
