"""Canonical dilation of a pure Szego tuple into a truncated Hardy space.

The dilation sends h to the coefficient family (D_{T*} T^{*k} h) indexed by
monomials, realizing T as the compression of the truncated shift tuple to
the image.  All verification operations report defects that are certified
to lie below the stored truncation tail bound plus tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionOverflow, NotPure, PolydiscError
from .hardy import HardySpace, build_space, gather_blocks, offset_ranks, row_mask, shift_apply
from .linalg import DEFAULT_TOL, Subspace, Tolerances, containment_residual, range_basis, spec_norm
from .tuples import CTuple, defect_first_kind, is_pure

DEGREE_CAP = 64
# Bytes of the largest minimality span build_dilation accepts: the span is the
# largest dense operand of the dilation path, and its SVD needs a few times it.
SPAN_BYTE_BUDGET = 2**28


def select_degree(t: CTuple, tol: Tolerances = DEFAULT_TOL) -> int:
    """Smallest N with rho_max^(N+1) * sqrt(n) * dim <= tol_structural.

    Capped at DEGREE_CAP.  Tuples with spectral radius below 1e-6 are
    treated as nilpotent and get N = dim, the largest possible nilpotency
    index, where the coefficient series terminates exactly.
    """
    from .tuples import spectral_radii

    rho = max(spectral_radii(t))
    if rho < 1e-6:
        return t.dim
    target = tol.tol_structural / (math.sqrt(t.n) * t.dim)
    if target >= 1.0:
        return 1
    need = math.ceil(math.log(target) / math.log(rho)) - 1
    return max(1, min(int(need), DEGREE_CAP))


@dataclass(frozen=True)
class DilationData:
    """Coefficient realization of the dilation at one truncation degree.

    coeff_map holds the full d x d blocks D_{T*} T^{*k}; pi is the same
    data with rows compressed to coeff_basis coordinates, stacked in the
    monomial order of ``space``.
    """

    tuple: CTuple
    space: HardySpace
    degree: int
    coeff_basis: Subspace
    coeff_map: dict[tuple[int, ...], np.ndarray]
    pi: np.ndarray
    image_basis: Subspace
    tail_bound: float


def _power_norms(mat: np.ndarray, top: int) -> list[float]:
    """Spectral norms of mat^0 .. mat^top."""
    norms = []
    p = np.eye(mat.shape[0], dtype=np.complex128)
    for _ in range(top + 1):
        norms.append(spec_norm(p))
        p = p @ mat
    return norms


def coefficient_tail_sum(t: CTuple, n_deg: int) -> float:
    """Power-norm mass outside the truncation box.

    Sum over multi-indices k with some k_i > n_deg of prod_i ||T_i^{k_i}||.
    Per-variable tails use submultiplicativity: with u = ||T^{N+1}|| and S
    the sum of ||T^k|| over 0..N, every k > N splits as b(N+1)+r, so the
    tail is at most S * u / (1-u); infinite when u >= 1 (nothing certified).
    """
    box_sums, full_sums = [], []
    for i in range(t.n):
        norms = _power_norms(t[i], n_deg + 1)
        box = float(sum(norms[: n_deg + 1]))
        u = norms[n_deg + 1]
        if u >= 1.0:
            return math.inf
        box_sums.append(box)
        full_sums.append(box + box * u / (1.0 - u))
    return max(float(np.prod(full_sums) - np.prod(box_sums)), 0.0)


def _tail_bound(t: CTuple, n_deg: int, defect_norm: float) -> float:
    """Certified bound on the dilation rows below the truncation box:
    ||D_{T*}|| times the power-norm mass outside."""
    return defect_norm * coefficient_tail_sum(t, n_deg)


def adjoint_powers(t: CTuple, space: HardySpace) -> np.ndarray:
    """T^{*k} for every monomial k of ``space``, in rank order: shape (mono, d, d).

    Rank 0 is z^0; T^{*k} = T_i^* T^{*(k - e_i)} with i the first nonzero
    variable of k, and k - e_i has lower total degree, so a lower rank.
    """
    adjoints = [m.conj().T for m in t]
    first = np.argmax(space.exps > 0, axis=1)
    prev = space.rank(np.maximum(space.exps - np.eye(t.n, dtype=int)[first], 0))
    powers = np.empty((space.mono_count, t.dim, t.dim), dtype=np.complex128)
    powers[0] = np.eye(t.dim)
    for a in range(1, space.mono_count):
        powers[a] = adjoints[first[a]] @ powers[prev[a]]
    return powers


def build_dilation(t: CTuple, degree: int | None = None) -> DilationData:
    """Assemble the dilation of a pure Szego tuple at truncation degree N.

    N defaults to the select_degree rule.  Coefficient rows are expressed
    in the orthonormal basis of the first-kind defect space, so the Hardy
    space has coefficient dimension rank(D_{T*}) rather than dim.
    """
    pure, radii = is_pure(t)
    if not pure:
        raise NotPure(f"dilation needs a pure tuple; spectral radii {radii}")
    root, basis = defect_first_kind(t)
    if basis.dim == 0:
        raise PolydiscError("first-kind defect vanishes; no dilation space")
    n_deg = select_degree(t, t.tol) if degree is None else int(degree)
    if n_deg < 1:
        raise ValueError(f"truncation degree must be >= 1, got {n_deg}")
    span_bytes = n_deg**t.n * basis.dim * n_deg**t.n * t.dim * 16
    if span_bytes > SPAN_BYTE_BUDGET:
        raise DimensionOverflow(f"degree {n_deg} needs a {span_bytes / 2**20:.0f} MiB "
                                f"minimality span; budget {SPAN_BYTE_BUDGET / 2**20:.0f} MiB")
    space = build_space(t.n, n_deg, basis.dim)

    coeffs = root @ adjoint_powers(t, space)
    coeff_map = dict(zip(space.exponents, coeffs))
    pi = (basis.basis.conj().T @ coeffs).reshape(space.dim, t.dim)

    image = range_basis(pi, t.tol, floor=1.0)
    tail = _tail_bound(t, n_deg, spec_norm(root))
    return DilationData(t, space, n_deg, basis, coeff_map, pi, image, tail)


def isometry_defect(d: DilationData) -> float:
    """|| pi^H pi - I || on the original space."""
    return spec_norm(d.pi.conj().T @ d.pi - np.eye(d.tuple.dim))


def _below_top(d: DilationData, i: int) -> np.ndarray:
    """Boolean row selector excluding the top degree of variable i."""
    return row_mask(d.space, d.degree - np.eye(d.space.n, dtype=int)[i])


def intertwining_defect(d: DilationData) -> float:
    """max_i || pi T_i^* - M_i^H pi || below the top degree of variable i.

    The identity transports the coefficient ladder one step; it is exact
    in every row whose index does not overflow the box, so the defect is
    pure roundoff regardless of the tail.
    """
    worst = 0.0
    for i in range(d.tuple.n):
        resid = d.pi @ d.tuple[i].conj().T - shift_apply(d.space, i, d.pi, adjoint=True)
        worst = max(worst, spec_norm(resid[_below_top(d, i)]))
    return worst


def minimality_defect(d: DilationData) -> float:
    """Distance of window monomial vectors from span of shifted columns.

    The spanned set is { z^k (pi h) : k in box, h basis vector }, masked
    to the window of rows with every k_i <= N - 1; the reported
    value is the worst distance of a windowed coordinate vector from that
    span.  Rows outside the window are zero after the mask, and so is the
    column of every shift with some k_i = N, since it moves every row to
    degree N or more in variable i.  Dropping those zero rows and columns
    changes neither the span nor any distance, so the span matrix is built
    on window rows and window shifts only: (N^n p) x (N^n dim) instead of
    D x (mono dim).  Column block k holds, in window row e, the pi block
    of e - k (zero unless e >= k), gathered one shift at a time.
    """
    space, p, dim = d.space, d.space.coeff_dim, d.tuple.dim
    window = np.flatnonzero(row_mask(space, d.degree - 1)[::p])
    cols = np.empty((window.size * p, window.size, dim), dtype=np.complex128)
    for c, k in enumerate(space.exps[window]):
        cols[:, c, :] = gather_blocks(space, offset_ranks(space, -k)[window], d.pi)
    span = range_basis(cols.reshape(window.size * p, window.size * dim), d.tuple.tol, floor=1.0)
    # distance of each windowed coordinate vector via the actual residual
    # vector; 1 - ||row||^2 would lose half the digits to cancellation
    resid = np.eye(window.size * p, dtype=np.complex128) - span.basis @ span.basis.conj().T
    return float(np.linalg.norm(resid, axis=0).max(initial=0.0))


def model_equivalence_defect(d: DilationData) -> float:
    """max_i || pi^H M_i pi - T_i ||: compressions of shifts recover T."""
    worst = 0.0
    for i in range(d.tuple.n):
        compressed = shift_apply(d.space, i, d.pi, adjoint=True).conj().T @ d.pi
        worst = max(worst, spec_norm(compressed - d.tuple[i]))
    return worst


def image_invariance_defect(d: DilationData) -> float:
    """How far M_i^H moves the image off itself, below the top degree.

    The image is a quotient module, so this should match the intertwining
    defect scale.
    """
    worst = 0.0
    for i in range(d.tuple.n):
        below = _below_top(d, i)[:, None]
        moved = shift_apply(d.space, i, d.image_basis.basis, adjoint=True) * below
        target = range_basis(d.image_basis.basis * below, d.tuple.tol, floor=1.0)
        worst = max(worst, containment_residual(moved, target))
    return worst
