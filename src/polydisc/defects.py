"""Higher defect operators for commuting contraction tuples.

Beyond the classical defect I - T^*T, a tuple carries truncated defects
(the classical defect pushed through products of the maps A -> A - T_k A
T_k^*), joint commutators, and two block operators on C^{nd}: the joint
defect and the commutator defect.  These are the objects whose positivity
and ordering separate Beurling tuples from merely Szego ones, and whose
series expansions encode purity.

Masking: truncated and block defect objects built from I - T^*T pick up
boundary artifacts on truncated model spaces.  Functions here compute raw
operators; the ``mask`` arguments of the block assemblies (and of
``build_defects``) compress every block with a window projector so the
artifact rows and columns drop out.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import ceil, log

import numpy as np

from .errors import BadIndex, NotSzego
from .linalg import (
    Subspace,
    hermitian_part,
    herm_eig,
    psd_clamp,
    range_basis,
    spec_norm,
)
from .tuples import CTuple, classical_defect_sq, compress, defect_first_kind, is_pure, push_through

SERIES_CAP = 200  # longest series series_cutoff returns


def _check_indices(t: CTuple, j: int, p) -> frozenset[int]:
    if not 0 <= j < t.n:
        raise BadIndex(f"operator index {j} out of range for n={t.n}")
    pset = frozenset(p)
    for k in pset:
        if not 0 <= k < t.n:
            raise BadIndex(f"subset index {k} out of range for n={t.n}")
    if j in pset:
        raise BadIndex(f"index {j} cannot appear in its own truncation set")
    return pset


def truncated_defect(t: CTuple, j: int, p) -> np.ndarray:
    """D^2_{j,T,P}: the classical defect of T_j pushed through P.

    Applies A -> A - T_k A T_k^* for k in P in ascending order
    (tuples.push_through).  P empty gives back I - T_j^* T_j.
    """
    pset = _check_indices(t, j, p)
    return hermitian_part(push_through(t, classical_defect_sq(t[j]), sorted(pset)))


def full_truncated_defect(t: CTuple, j: int) -> np.ndarray:
    """D^2_{j,T}: the truncated defect with P = everything except j."""
    return truncated_defect(t, j, set(range(t.n)) - {j})


def commutator(t: CTuple, i: int, j: int) -> np.ndarray:
    """The plain commutator [T_j, T_i^*] = T_j T_i^* - T_i^* T_j."""
    return t[j] @ t[i].conj().T - t[i].conj().T @ t[j]


def joint_commutator(t: CTuple, i: int, j: int) -> np.ndarray:
    """delta_ij(T): [T_j, T_i^*] pushed through all k outside {i, j}.

    For n = 2 this is exactly the commutator T_2 T_1^* - T_1^* T_2 (up to
    index order); delta_ji is exactly the adjoint of delta_ij.
    """
    if i == j:
        raise BadIndex("joint commutator needs two distinct indices")
    _check_indices(t, i, set())
    _check_indices(t, j, set())
    return push_through(t, commutator(t, i, j), [k for k in range(t.n) if k not in (i, j)])


@dataclass(frozen=True)
class JointDefect:
    """The nd x nd joint defect (Hermitian part), with its range when it is PSD."""

    matrix: np.ndarray
    space: Subspace | None
    min_eig: float


def block_defect(diag_blocks, off_blocks) -> np.ndarray:
    """The Hermitian part of the n x n block operator on C^{nd} with
    diag_blocks[i] on the diagonal and off_blocks[i, j] off it: the one
    assembly of the joint and commutator defects."""
    n = len(diag_blocks)
    rows = [[diag_blocks[i] if i == j else off_blocks[i, j] for j in range(n)] for i in range(n)]
    return hermitian_part(np.block(rows))


def joint_defect(t: CTuple, mask=None) -> JointDefect:
    """Assemble the joint defect: D^2_{i,T} on the diagonal, delta_ij off it.

    Always assembled; one eigendecomposition gives the minimum eigenvalue
    and the PSD verdict (the psd_clamp window of psd_sqrt).  The range
    basis is attached only when the defect is PSD (expected to fail for
    non-Beurling tuples).  It is read by range_basis like every other
    defect space, not off the eigenvectors, which a degenerate eigenvalue
    fixes only up to a unitary.  A mask projector compresses every block
    first.
    """
    diag = [compress(mask, full_truncated_defect(t, i)) for i in range(t.n)]
    off = {(i, j): compress(mask, joint_commutator(t, i, j)) for i, j in permutations(range(t.n), 2)}
    herm = block_defect(diag, off)
    vals, _ = herm_eig(herm, t.tol)
    min_eig = float(vals[-1])
    space = range_basis(herm) if min_eig >= -psd_clamp(vals) else None
    return JointDefect(herm, space, min_eig)


def commutator_defect(t: CTuple, mask=None) -> tuple[np.ndarray, float]:
    """The commutator defect: classical defects on the diagonal, plain
    commutators [T_j, T_i^*] off it.  Returns (matrix, min eigenvalue)."""
    diag = [compress(mask, classical_defect_sq(t[i])) for i in range(t.n)]
    off = {(i, j): compress(mask, commutator(t, i, j)) for i, j in permutations(range(t.n), 2)}
    herm = block_defect(diag, off)
    vals, _ = herm_eig(herm, t.tol)
    return herm, float(vals[-1])


def series_cutoff(t: CTuple, tol: float | None = None) -> int:
    """Series length making the geometric tail fall below tol (default t.tol).

    Uses ceil(log tol / (2 log rho_max)), at most SERIES_CAP; no length
    meets tol = 0, which gets SERIES_CAP.  Nilpotent-ish tuples (rho below
    1e-6) terminate exactly at the dimension.
    """
    tol = t.tol if tol is None else tol
    _, radii = is_pure(t)
    rho = max(radii)
    if rho < 1e-6:
        return min(SERIES_CAP, t.dim)
    if rho >= 1.0 or tol <= 0.0:
        return SERIES_CAP
    return max(1, min(SERIES_CAP, ceil(log(tol) / (2.0 * log(rho)))))


def _geometric_sum(x: np.ndarray, a: np.ndarray, k: int) -> np.ndarray:
    """sum_{m=0}^{k} X^m A X^{*m} by the backward recursion B -> A + X B X^H."""
    acc = a
    for _ in range(k):
        acc = a + x @ acc @ x.conj().T
    return acc


def defect_series_residual(t: CTuple, j: int, p, k: int | None = None) -> float:
    """Residual of both series expansions of the truncated defects.

    Part one reconstructs I - T_j^* T_j by summing powers over P applied
    to D^2_{j,T,P}; part two reconstructs D^2_{j,T,P} by summing powers
    over the complementary set applied to D^2_{j,T}.  Returns the larger
    of the two spectral-norm residuals at cutoff k (auto when omitted).
    """
    pset = _check_indices(t, j, p)
    k = series_cutoff(t) if k is None else k
    if k < 1:
        raise ValueError("series cutoff must be at least 1")

    part1 = truncated_defect(t, j, pset)
    for idx in sorted(pset):
        part1 = _geometric_sum(t[idx], part1, k)
    res1 = spec_norm(classical_defect_sq(t[j]) - part1)

    comp = frozenset(range(t.n)) - pset - {j}
    part2 = full_truncated_defect(t, j)
    for idx in sorted(comp):
        part2 = _geometric_sum(t[idx], part2, k)
    res2 = spec_norm(truncated_defect(t, j, pset) - part2)
    return max(res1, res2)


@dataclass(frozen=True)
class DefectPackage:
    """The two defects that fix a characteristic function's spaces."""

    first_kind: tuple[np.ndarray, Subspace] | None  # None when not Szego
    joint: JointDefect


def build_defects(t: CTuple, mask=None) -> DefectPackage:
    """The first-kind defect D_{T*} (root and range; the output space of
    Theta_T) and the joint defect (the input space).

    The first-kind defect is stored raw (adjoint-side objects are
    artifact-free on truncated models); the joint defect is masked when a
    window projector is supplied.  A non-Szego tuple gets first_kind=None
    rather than an error.  At n = 1 the joint defect is D_T^2 = I - T^*T,
    where eval_onevar reads D_T.  The truncated and commutator defects are
    functions of their own, computed where they are read.
    """
    try:
        first = defect_first_kind(t)
    except NotSzego:
        first = None
    return DefectPackage(first_kind=first, joint=joint_defect(t, mask))
