"""Canonical dilation of a pure Szego tuple into a truncated Hardy space.

The dilation sends h to the coefficient family (D_{T*} T^{*k} h) indexed by
monomials, realizing T as the compression of the truncated shift tuple to
the image.  All verification operations report defects that are certified
to lie below the stored truncation tail bound plus tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPure, PolydiscError
from .hardy import HardySpace, build_space, gather_blocks, offset_ranks, row_mask, shift_apply
from .linalg import Subspace, containment_residual, range_basis, refuse_over_budget, spec_norm, spec_norms
from .tuples import CTuple, defect_first_kind, is_pure

DEGREE_CAP = 64


def select_degree(t: CTuple) -> int:
    """Smallest N with rho_max^(N+1) * sqrt(n) * dim <= t.tol, the tuple's
    structural tolerance.

    Capped at DEGREE_CAP, which is also the degree of t.tol = 0, a target
    that no N meets.  Tuples with spectral radius below 1e-6 are
    treated as nilpotent and get N = dim, the largest possible nilpotency
    index, where the coefficient series terminates exactly.
    """
    from .tuples import spectral_radii

    rho = max(spectral_radii(t))
    if rho < 1e-6:
        return t.dim
    target = t.tol / (math.sqrt(t.n) * t.dim)
    if target >= 1.0:
        return 1
    if target <= 0.0:
        return DEGREE_CAP
    need = math.ceil(math.log(target) / math.log(rho)) - 1
    return max(1, min(int(need), DEGREE_CAP))


@dataclass(frozen=True)
class DilationData:
    """Coefficient realization of the dilation at one truncation degree.

    pi holds the blocks D_{T*} T^{*k} with rows compressed to coeff_basis
    coordinates, stacked in the monomial order of ``space``.
    """

    tuple: CTuple
    space: HardySpace
    degree: int
    coeff_basis: Subspace
    pi: np.ndarray
    tail_bound: float


def _power_norms(mat: np.ndarray, top: int) -> np.ndarray:
    """Spectral norms of mat^0 .. mat^top, read off one (top + 1, d, d) stack."""
    powers = np.empty((top + 1,) + mat.shape, dtype=np.complex128)
    powers[0] = np.eye(mat.shape[0])
    for k in range(top):
        powers[k + 1] = powers[k] @ mat
    return spec_norms(powers)


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


def adjoint_powers(t: CTuple, space: HardySpace) -> np.ndarray:
    """T^{*k} for every monomial k of ``space``, in rank order: shape (mono, d, d).

    Rank 0 is z^0; T^{*k} = T_i^* T^{*(k - e_i)} with i the first nonzero
    variable of k, and k - e_i has total degree one lower.  Each run of
    monomials with one total degree and one first variable shares T_i^*
    and reads only the degree below, so it is one batched matmul.
    """
    adjoints = [m.conj().T for m in t]
    first = np.argmax(space.exps > 0, axis=1)
    prev = space.rank(np.maximum(space.exps - np.eye(t.n, dtype=int)[first], 0))
    powers = np.empty((space.mono_count, t.dim, t.dim), dtype=np.complex128)
    powers[0] = np.eye(t.dim)
    # runs of equal (degree, first variable) in rank order; ranks are graded
    starts = (np.flatnonzero(np.diff(space.exps.sum(axis=1) * t.n + first)) + 1).tolist()
    for a, b in zip(starts, starts[1:] + [space.mono_count]):
        powers[a:b] = adjoints[first[a]] @ powers[prev[a:b]]
    return powers


def build_dilation(t: CTuple, degree: int | None = None) -> DilationData:
    """Assemble the dilation of a pure Szego tuple at truncation degree N.

    N defaults to the select_degree rule.  Coefficient rows are expressed
    in the orthonormal basis of the first-kind defect space, so the Hardy
    space has coefficient dimension rank(D_{T*}) rather than dim.  A degree
    whose adjoint ladder and coefficients (d x d per monomial) and pi (p x d)
    exceed BYTE_BUDGET is refused before they are built.
    """
    pure, radii = is_pure(t)
    if not pure:
        raise NotPure(f"dilation needs a pure tuple; spectral radii {radii}")
    root, basis = defect_first_kind(t)
    if basis.dim == 0:
        raise PolydiscError("first-kind defect vanishes; no dilation space")
    n_deg = select_degree(t) if degree is None else int(degree)
    if n_deg < 1:
        raise ValueError(f"truncation degree must be >= 1, got {n_deg}")
    refuse_over_budget((n_deg + 1) ** t.n * (2 * t.dim + basis.dim) * t.dim * 16,
                       f"dilation coefficient arrays at degree {n_deg}")
    space = build_space(t.n, n_deg, basis.dim)

    pi = (basis.basis.conj().T @ (root @ adjoint_powers(t, space))).reshape(space.dim, t.dim)
    # certified bound on the dilation rows outside the truncation box
    tail = spec_norm(root) * coefficient_tail_sum(t, n_deg)
    return DilationData(t, space, n_deg, basis, pi, tail)


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
    """Certified upper bound on the distance of each window coordinate
    vector from the span of { z^k (pi h) : k in box }, rows masked to the
    window (every k_i <= N - 1).

    Pi(z) = pi_0 prod_k (I - z_k T_k^*)^{-1}, and pi_0 has full row rank p,
    so with R = pinv(pi_0) the polynomial G(z) = prod_k (I - z_k T_k^*) R
    is an exact right inverse: Pi G = pi_0 R = I_p.  G has the blocks
    g_S = (-1)^|S| (prod_{i in S} T_i^*) R at z^{1_S}, one per subset S of
    the variables.  In window row z^e, Pi G has coefficient
    sum_S pi_{e - 1_S} g_S, and every e - 1_S lies in the box, so the
    truncated sum_S z^{1_S} pi g_S equals delta_{e,0} I_p there exactly:
    its columns are preimages in the span of the targets e_0 (x) e_r, and
    the column norms of r = sum_S (window rows of z^{1_S} pi) g_S - e_0
    bound their distances from above.  The preimage of e_m (x) e_r is the
    same sum shifted by z^m, whose residual is r on the sub-window
    e <= N - 1 - m; so the largest column norm of r bounds every target.
    It reads high only if pi_0 lacks full row rank (a coefficient direction
    orthogonal to every column, at distance 1) or pi is not of the
    resolvent form, which intertwining_defect certifies.  No span is built.
    """
    space, p = d.space, d.space.coeff_dim
    window = np.flatnonzero(row_mask(space, d.degree - 1)[::p])
    right = np.linalg.pinv(d.pi[:p])
    resid = -np.eye(window.size * p, p, dtype=np.complex128)  # -e_0: rank 0 is z^0
    for subset in itertools.product((0, 1), repeat=space.n):
        g = right
        for i in np.flatnonzero(subset):
            g = -d.tuple[i].conj().T @ g
        resid += gather_blocks(space, offset_ranks(space, np.negative(subset))[window], d.pi) @ g
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
    image = range_basis(d.pi).basis
    worst = 0.0
    for i in range(d.tuple.n):
        below = _below_top(d, i)
        moved = shift_apply(d.space, i, image, adjoint=True)[below]
        worst = max(worst, containment_residual(moved, range_basis(image[below])))
    return worst
