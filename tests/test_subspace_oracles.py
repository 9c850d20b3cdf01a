"""Thin-basis subspace algebra checked against dense D x D references.

The references below form projectors QQ^H and identities of the ambient
dimension on purpose; they are the textbook constructions the thin formulas
in linalg and hardy replace, kept here as oracles only.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from polydisc.errors import ShapeMismatch
from polydisc.hardy import (
    blockdiag_symbol,
    build_space,
    monomial_symbol,
    product_symbol,
    quotient_model,
    row_mask,
    shift_apply,
    structural_checks,
    unitary_symbol,
    wandering_subspaces,
)
from polydisc.linalg import TOL_RANK, Subspace, herm_eig, null_space, projector_residual, spec_norm


def dense_projector(sub):
    return sub.basis @ sub.basis.conj().T


def dense_distance(u, v):
    return spec_norm(dense_projector(u) - dense_projector(v))


def dense_intersection(spaces):
    """The numerical null eigenspace of sum_i (I - P_i)."""
    ambient = spaces[0].ambient_dim
    acc = sum(np.eye(ambient) - dense_projector(s) for s in spaces)
    vals, vecs = herm_eig(acc)
    keep = vals < TOL_RANK * max(float(vals[0]), 1.0)
    return Subspace(ambient, vecs[:, keep])


def dense_wandering(model, pset):
    """S intersected with the orthogonal complement of every M_i S, i in P."""
    s = model.submodule_basis
    pieces = [s] + [null_space(shift_apply(model.space, i, s.basis).conj().T) for i in pset]
    return dense_intersection(pieces)


def random_subspace(rng, ambient, dim):
    a = rng.standard_normal((ambient, dim)) + 1j * rng.standard_normal((ambient, dim))
    return Subspace(ambient, np.linalg.qr(a)[0][:, :dim])


@pytest.mark.parametrize("du, dv", [(3, 3), (2, 5), (5, 2), (0, 3), (3, 0), (0, 0), (8, 8)])
def test_projector_residual_matches_dense(du, dv):
    rng = np.random.default_rng(10 * du + dv)
    u, v = random_subspace(rng, 8, du), random_subspace(rng, 8, dv)
    assert projector_residual(u, v) == pytest.approx(dense_distance(u, v), abs=1e-13)
    assert projector_residual(v, u) == pytest.approx(dense_distance(u, v), abs=1e-13)


def test_projector_residual_near_subspaces_matches_dense():
    rng = np.random.default_rng(3)
    u = random_subspace(rng, 12, 4)
    tilt = 1e-6 * (rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4)))
    v = Subspace(12, np.linalg.qr(u.basis + tilt)[0])
    dense = dense_distance(u, v)
    assert 1e-8 < dense < 1e-4
    assert projector_residual(u, v) == pytest.approx(dense, rel=1e-6)


def test_projector_residual_rejects_ambient_mismatch():
    rng = np.random.default_rng(4)
    with pytest.raises(ShapeMismatch):
        projector_residual(random_subspace(rng, 4, 2), random_subspace(rng, 5, 2))


def hardy_model_shapes():
    """The hardy-models benchmark shapes: z^alpha, blockdiag(z^alpha, 1) and
    z^(alpha - e_j) z^(e_j), at the benchmark degrees."""
    out = []
    for n, degrees, alpha in ((2, (6, 8, 10), (2, 1)), (3, (3, 4, 5), (2, 1, 1))):
        unit = tuple(int(i == 0) for i in range(n))
        rest = tuple(a - u for a, u in zip(alpha, unit))
        shapes = (
            monomial_symbol(n, alpha),
            blockdiag_symbol([monomial_symbol(n, alpha), unitary_symbol(n, np.eye(1))]),
            product_symbol([monomial_symbol(n, rest), monomial_symbol(n, unit)]),
        )
        out += [(degree, sym) for degree in degrees for sym in shapes]
    return out


@pytest.mark.parametrize("degree, sym", hardy_model_shapes())
def test_wandering_subspace_matches_dense_intersection(degree, sym):
    model = quotient_model(build_space(sym.n, degree, sym.output_dim), sym)
    wander = wandering_subspaces(model)
    subsets = [p for size in range(1, sym.n + 1) for p in itertools.combinations(range(sym.n), size)]
    assert list(wander) == subsets
    for pset in subsets:
        got, ref = wander[pset], dense_wandering(model, pset)
        assert got.dim == ref.dim
        assert dense_distance(got, ref) <= 1e-10


def dense_leak(model, i):
    """||K_1 (I - P_S) M_i P_S K_0||, the submodule invariance residual read
    through dense projectors."""
    space, s = model.space, model.submodule_basis
    keep0 = row_mask(space, model.exact_window)
    keep1 = row_mask(space, tuple(c - 1 for c in model.exact_window))
    moved = shift_apply(space, i, dense_projector(s) * keep0)
    return spec_norm(((np.eye(space.dim) - dense_projector(s)) @ moved) * keep1[:, None])


def test_submodule_invariant_fails_a_rotated_submodule():
    sym = monomial_symbol(2, (2, 1))
    model = quotient_model(build_space(2, 6, 1), sym)
    report = structural_checks(model)
    assert report.passed
    assert report.residuals["submodule_invariant"] <= 1e-12
    # rotate S in the plane of z^(2,1) (in S) and the constant 1 (in Q)
    space, s = model.space, model.submodule_basis.basis
    u = np.zeros(space.dim, dtype=np.complex128)
    u[space.position((2, 1), 0)] = 1.0
    e0 = np.zeros(space.dim, dtype=np.complex128)
    e0[space.position((0, 0), 0)] = 1.0
    angle = 0.3
    coeff = u.conj() @ s
    rotated = s + (np.cos(angle) - 1.0) * np.outer(u, coeff) + np.sin(angle) * np.outer(e0, coeff)
    broken = dataclasses.replace(model, submodule_basis=Subspace(space.dim, rotated))
    broken_report = structural_checks(broken)
    residual = broken_report.residuals["submodule_invariant"]
    assert residual > 1e-8
    assert residual == pytest.approx(max(dense_leak(broken, i) for i in range(2)), rel=1e-10)
    assert not broken_report.passed
