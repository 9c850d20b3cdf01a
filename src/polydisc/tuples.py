"""Commuting tuples of contraction matrices and their classification.

A tuple T = (T_1, ..., T_n) of commuting d x d contractions is the basic
object of the toolkit.  This module validates tuples, sorts them into the
classes that drive everything downstream (pure, Szego, Beurling), computes
the first-kind defect operator, and generates test tuples by compressing
the coordinate multiplication operators to a span of kernel functions at
chosen polydisc nodes.

Index convention: operators are numbered 0..n-1 throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NearSingularGram,
    NotCommuting,
    NotContraction,
    NotPSD,
    NotSzego,
    ParseError,
    ShapeMismatch,
)
from .linalg import (
    DEFAULT_TOL,
    TOL_PURE,
    Subspace,
    as_complex,
    herm_eig,
    hermitian_part,
    psd_sqrt,
    range_basis,
    spec_norm,
)


@dataclass(frozen=True)
class CTuple:
    """A validated tuple of n commuting contractions on C^dim.

    ``tol`` is the structural tolerance of every verdict on the tuple.
    ``norms`` holds the spectral norm of each matrix, taken once when the
    tuple is built: validate checks contractivity with them, and the
    resolvent gate and classify read them back.
    """

    n: int
    dim: int
    matrices: tuple[np.ndarray, ...]
    tol: float = DEFAULT_TOL
    norms: tuple[float, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "norms", tuple(spec_norm(m) for m in self.matrices))

    def __iter__(self):
        return iter(self.matrices)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.matrices[i]


@dataclass(frozen=True)
class BeurlingVerdict:
    holds: bool
    worst_pair: tuple[int, int] | None
    residual: float
    szego_ok: bool  # False downgrades the verdict to exploratory


@dataclass(frozen=True)
class Classification:
    is_commuting: bool
    commuting_residual: float
    is_contractive: bool
    norms: tuple[float, ...]
    is_pure: bool
    spectral_radii: tuple[float, ...]
    is_szego: bool
    szego_min_eig: float
    is_beurling: bool
    beurling_residual: float


def commutation_residual(matrices) -> tuple[float, tuple[int, int] | None]:
    """Worst pairwise commutator norm and the pair attaining it."""
    worst, pair = 0.0, None
    for i, j in itertools.combinations(range(len(matrices)), 2):
        res = spec_norm(matrices[i] @ matrices[j] - matrices[j] @ matrices[i])
        if res > worst:
            worst, pair = res, (i, j)
    return worst, pair


def validate(matrices, tol: float = DEFAULT_TOL) -> CTuple:
    """Check shapes, commutativity, and contractivity; freeze the tuple with
    its structural tolerance ``tol``.

    Raises ValueError for a negative or NaN tol, ShapeMismatch for ragged
    input, NotCommuting with the worst pair, or NotContraction with the
    first offending index.
    """
    if not tol >= 0:
        raise ValueError(f"the structural tolerance must be >= 0, got {tol!r}")
    mats = [np.atleast_2d(as_complex(m)) for m in matrices]
    if not mats:
        raise ShapeMismatch("a tuple needs at least one matrix")
    dim = mats[0].shape[0]
    for m in mats:
        if m.ndim != 2 or m.shape != (dim, dim):
            raise ShapeMismatch(f"expected all matrices {dim}x{dim}, got {m.shape}")
    frozen = []
    for m in mats:
        c = m.copy()
        c.flags.writeable = False
        frozen.append(c)
    t = CTuple(len(frozen), dim, tuple(frozen), tol)
    worst, pair = commutation_residual(mats)
    if pair is not None and worst > tol * max(max(t.norms), 1.0):
        raise NotCommuting(pair[0], pair[1], worst)
    for i, norm in enumerate(t.norms):
        if norm > 1.0 + tol:
            raise NotContraction(i, norm)
    return t


def spectral_radii(t: CTuple) -> tuple[float, ...]:
    return tuple(float(np.max(np.abs(np.linalg.eigvals(m)))) for m in t.matrices)


def is_pure(t: CTuple) -> tuple[bool, tuple[float, ...]]:
    """Pure (class C_{.0}) iff every spectral radius is <= 1 - TOL_PURE."""
    radii = spectral_radii(t)
    return all(r <= 1.0 - TOL_PURE for r in radii), radii


def push_through(t: CTuple, a: np.ndarray, ks) -> np.ndarray:
    """Apply A -> A - T_k A T_k^* for each k in ``ks``, in that order: the
    hereditary product prod_k (1 - Delta_k) on A.  The maps commute for a
    commuting tuple, so the order is a convention that fixes the roundoff."""
    for k in ks:
        a = a - t[k] @ a @ t[k].conj().T
    return a


def szego_inverse(t: CTuple) -> np.ndarray:
    """prod_k (1 - Delta_k)(I) = sum over F of (-1)^|F| T_F T_F^*, hermitized."""
    return hermitian_part(push_through(t, np.eye(t.dim, dtype=np.complex128), range(t.n)))


def is_szego(t: CTuple) -> tuple[bool, float]:
    """Szego iff pure and the Szego inverse is PSD within tolerance."""
    return _szego_verdict(t, is_pure(t)[0], szego_inverse(t))


def _szego_verdict(t: CTuple, pure: bool, s: np.ndarray) -> tuple[bool, float]:
    """is_szego from the purity flag and the Szego inverse s, computed once by the caller."""
    min_eig = float(herm_eig(s, t.tol)[0][-1])
    scale = max(spec_norm(s), 1.0)
    return pure and min_eig >= -t.tol * scale, min_eig


def defect_first_kind(t: CTuple) -> tuple[np.ndarray, Subspace]:
    """First-kind defect: PSD root of the Szego inverse, with its range.

    The range basis is read off the Szego inverse itself, not the root:
    taking square roots lifts eigenvalue noise from machine scale to its
    square root, which would inflate the numerical rank.
    """
    s = szego_inverse(t)
    try:
        root = psd_sqrt(s, t.tol)
    except NotPSD as exc:
        raise NotSzego(str(exc), exc.min_eig) from exc
    return root, range_basis(s)


def classical_defect_sq(x) -> np.ndarray:
    """I - X^H X (pass X^H to get the adjoint version I - X X^H)."""
    x = np.atleast_2d(as_complex(x))
    return hermitian_part(np.eye(x.shape[0]) - x.conj().T @ x)


def compress(mask, a: np.ndarray) -> np.ndarray:
    """P A P for a window projector P given as ``mask``, or A when mask is None:
    the one compression of a tuple-side operator by its window."""
    if mask is None:
        return a
    p = np.atleast_2d(as_complex(mask))
    return p @ a @ p


def is_beurling(t: CTuple, mask=None) -> BeurlingVerdict:
    """Do the defect roots of distinct operators annihilate each other?

    The residual is max over i != j of the norm of P D_{T_i} D_{T_j} P,
    where P is the optional mask projector (identity when absent).  A
    non-Szego tuple still gets a residual but the verdict is downgraded
    via szego_ok=False.
    """
    return _beurling_verdict(t, is_szego(t)[0], mask)


def _beurling_verdict(t: CTuple, szego_ok: bool, mask) -> BeurlingVerdict:
    """is_beurling from the Szego flag, computed once by the caller."""
    roots = [psd_sqrt(classical_defect_sq(m), t.tol) for m in t.matrices]
    worst, pair = 0.0, None
    for i, j in itertools.permutations(range(t.n), 2):
        res = spec_norm(compress(mask, roots[i] @ roots[j]))
        if res > worst:
            worst, pair = res, (i, j)
    holds = worst <= t.tol
    return BeurlingVerdict(holds and szego_ok, pair, worst, szego_ok)


def classify(t: CTuple, mask=None) -> Classification:
    """Full classification report for one tuple."""
    res, _ = commutation_residual(t.matrices)
    pure, radii = is_pure(t)
    szego, min_eig = _szego_verdict(t, pure, szego_inverse(t))
    verdict = _beurling_verdict(t, szego, mask)
    return Classification(
        is_commuting=res <= t.tol * max(max(t.norms), 1.0),
        commuting_residual=float(res),
        is_contractive=all(nm <= 1.0 + t.tol for nm in t.norms),
        norms=t.norms,
        is_pure=pure,
        spectral_radii=radii,
        is_szego=szego,
        szego_min_eig=float(min_eig),
        is_beurling=verdict.holds,
        beurling_residual=float(verdict.residual),
    )


def szego_kernel_gram(points: np.ndarray) -> np.ndarray:
    """Gram matrix G[k,l] = prod_i 1 / (1 - w_{k,i} conj(w_{l,i}))."""
    points = np.atleast_2d(as_complex(points))
    m = points.shape[0]
    g = np.ones((m, m), dtype=np.complex128)
    for i in range(points.shape[1]):
        col = points[:, i]
        g *= 1.0 / (1.0 - np.outer(col, col.conj()))
    return g


def szego_tuple_from_nodes(points) -> CTuple:
    """Compression tuple on the span of Szego kernel functions at nodes.

    ``points`` is an (m, n) array of polydisc nodes.  The adjoint of the
    i-th operator acts diagonally by conjugate node coordinates in the
    kernel basis; a Cholesky factor of the Gram matrix transports this to
    an orthonormal basis.  The result is always a pure Szego tuple with
    spectral radii max_l |w_{l,i}|, validated at DEFAULT_TOL.
    """
    points = np.atleast_2d(as_complex(points))
    m, n = points.shape
    if np.max(np.abs(points)) >= 1.0:
        raise NearSingularGram("node coordinates must have modulus < 1")
    g = szego_kernel_gram(points)
    cond = float(np.linalg.cond(g))
    if not np.isfinite(cond) or cond > 1e12:
        raise NearSingularGram(f"Gram matrix condition number {cond:.3e} exceeds 1e12")
    chol = np.linalg.cholesky(g)  # g = chol @ chol^H
    chol_h = chol.conj().T
    chol_h_inv = np.linalg.inv(chol_h)
    return validate([(chol_h @ np.diag(points[:, i].conj()) @ chol_h_inv).conj().T for i in range(n)])


def complex_to_json(a) -> list:
    """Nested lists with every complex entry written as [re, im]."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def int_from_json(value, what: str, minimum: int) -> int:
    """An integer field of an input file, at least ``minimum``; a JSON
    float, string, null or boolean is a ParseError, never converted."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ParseError(f"{what} must be a JSON integer >= {minimum}, got {value!r}")
    return value


def complex_from_json(entries, shape, what: str) -> np.ndarray:
    """Read nested [re, im] pairs back into a complex array.

    ``shape`` is the expected shape without the trailing pair axis; None
    leaves an axis free.  Raises ParseError unless every entry is a finite
    JSON number and the nesting has that shape.
    """
    if isinstance(entries, list) and not entries and shape[0] is None and len(shape) == 1:
        return np.zeros(0, dtype=np.complex128)
    arr = np.asarray(entries, dtype=object)
    if arr.ndim != len(shape) + 1 or arr.shape[-1] != 2 or any(
        want is not None and got != want for got, want in zip(arr.shape, shape)
    ):
        want = "x".join("k" if w is None else str(w) for w in shape)
        raise ParseError(f"{what}: expected {want} entries of [re, im], got shape {arr.shape}")
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in arr.flat):
        raise ParseError(f"{what}: entries must be numbers")
    try:
        arr = arr.astype(float)
    except OverflowError as exc:
        raise ParseError(f"{what}: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"{what}: entries must be finite numbers")
    return arr[..., 0] + 1j * arr[..., 1]


def tuple_to_json(t: CTuple) -> dict:
    """Serializable form: matrices as nested lists of [re, im] entries."""
    return {"n": t.n, "dim": t.dim, "matrices": [complex_to_json(m) for m in t.matrices]}


def tuple_from_json(obj, tol: float = DEFAULT_TOL) -> tuple[CTuple, np.ndarray | None]:
    """Parse the tuple file format; returns (tuple, optional window projector).

    Schema: {"n": int, "dim": int, "matrices": [...]} with each matrix a
    dim x dim array of [re, im] pairs.  An optional "window" field holds an
    orthogonal projector in the same entry format, used by masked CLI
    checks; a window P with ||P^2 - P|| or ||P - P^H|| above
    tol max(||P||, 1) is a ParseError.
    """
    if not isinstance(obj, dict):
        raise ParseError("tuple file must be a JSON object")
    for key in ("n", "dim", "matrices"):
        if key not in obj:
            raise ParseError(f"tuple file missing field {key!r}")
    n, dim = int_from_json(obj["n"], "field 'n'", 1), int_from_json(obj["dim"], "field 'dim'", 1)
    if not isinstance(obj["matrices"], list):
        raise ParseError("field 'matrices' must be a list")
    if len(obj["matrices"]) != n:
        raise ParseError(f"expected {n} matrices, got {len(obj['matrices'])}")
    mats = [complex_from_json(m, (dim, dim), f"matrix {i}") for i, m in enumerate(obj["matrices"])]
    window = complex_from_json(obj["window"], (dim, dim), "window") if "window" in obj else None
    t = validate(mats, tol)
    if window is not None:
        gap = max(spec_norm(window @ window - window), spec_norm(window - window.conj().T))
        if not gap <= tol * max(spec_norm(window), 1.0):
            raise ParseError(f"window is not an orthogonal projector (residual {gap:.3e})")
    return t, window
