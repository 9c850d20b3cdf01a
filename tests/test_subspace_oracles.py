"""Thin-basis subspace algebra checked against dense D x D references.

The references below form projectors QQ^H and identities of the ambient
dimension on purpose; they are the textbook constructions the thin formulas
in linalg and hardy replace, kept here as oracles only.  So are the
quotient-coordinate readings of structural_checks: every windowed identity
through the quotient_dim x quotient_dim window projector P = Q_K^H Q_K,
every windowed span in D rows with the rows outside the window zeroed, the
effective wandering space as the range of its D-row spanning set, and W_P
from the range basis of each M_i S.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from polydisc.defects import block_defect, commutator, full_truncated_defect, joint_commutator
from polydisc.errors import ShapeMismatch
from polydisc.hardy import (
    STRUCTURAL_THRESHOLD,
    blockdiag_symbol,
    build_space,
    model_tuple,
    monomial_symbol,
    product_symbol,
    quotient_mask,
    quotient_model,
    row_mask,
    shift_apply,
    structural_checks,
    symbol_matrix,
    unitary_symbol,
    wandering_subspaces,
)
from polydisc.linalg import (
    TOL_RANK,
    Subspace,
    containment_residual,
    herm_eig,
    null_space,
    phase_fix,
    projector_residual,
    range_basis,
    spec_norm,
    zero_cut,
)
from polydisc.tuples import classical_defect_sq


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


def window_projector(model, shrink):
    """Q_K^H Q_K, Q_K the rows of Q in the shrunk window: the window
    projector in quotient coordinates as the product of the D-row factors."""
    keep = row_mask(model.space, tuple(c - shrink for c in model.exact_window))
    q = model.quotient_basis.basis
    return (q.conj().T * keep) @ q


def masked_span(vectors, keep):
    """Range basis of the columns with the rows outside ``keep`` zeroed: the
    windowed span of the vectors, kept in all D rows."""
    return range_basis(vectors * keep[:, None])


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


@pytest.mark.parametrize("degree, sym", hardy_model_shapes())
def test_quotient_mask_is_the_window_projector(degree, sym):
    model = quotient_model(build_space(sym.n, degree, sym.output_dim), sym)
    for shrink in (0, 1, 2):
        mask = quotient_mask(model, shrink)
        assert spec_norm(mask - window_projector(model, shrink)) <= 2e-10
        assert spec_norm(mask @ mask - mask) <= 1e-14


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


def wandering_by_range_gram(model):
    """W_P as S times the null eigenspace of sum_{i in P} C_i^H C_i with
    C_i = R_i^H S, R_i = range_basis(M_i S)."""
    s, n = model.submodule_basis.basis, model.space.n
    terms = []
    for i in range(n):
        c = range_basis(shift_apply(model.space, i, s)).basis.conj().T @ s
        terms.append(c.conj().T @ c)
    out = {}
    for size in range(1, n + 1):
        for p in itertools.combinations(range(n), size):
            vals, vecs = herm_eig(sum(terms[i] for i in p))
            keep = vals < zero_cut(vals.max(initial=0.0), TOL_RANK)
            out[p] = Subspace(model.space.dim, phase_fix(s @ vecs[:, keep]))
    return out


def quotient_coordinate_readings(model):
    """(residuals, dims) of structural_checks read in quotient coordinates:
    every quotient-side identity as ||P X P|| with P = window_projector, the
    joint defect of size n * quotient_dim, the row masks applied by
    multiplication and W_eff = range_basis(W [X_0 ... X_{n-1}])."""
    space, n, qd = model.space, model.space.n, model.quotient_dim
    t = model_tuple(model)
    q, s = model.quotient_basis.basis, model.submodule_basis.basis
    mask1, mask2 = window_projector(model, 1), window_projector(model, 2)
    keep0 = row_mask(space, model.exact_window)
    keep1 = row_mask(space, tuple(c - 1 for c in model.exact_window))
    mq = [shift_apply(space, i, q) for i in range(n)]
    a = [s.conj().T @ mq[i] for i in range(n)]
    pairs = list(itertools.permutations(range(n), 2))
    res, dims = {}, {"quotient": qd}

    def leak(b, moves):
        r_h = np.linalg.qr(b * keep0[:, None], mode="r").conj().T
        return max(spec_norm(((x - b @ (b.conj().T @ x)) * keep1[:, None]) @ r_h) for x in moves)

    res["submodule_invariant"] = leak(s, (shift_apply(space, i, s) for i in range(n)))
    res["quotient_coinvariant"] = leak(q, (shift_apply(space, i, q, adjoint=True) for i in range(n)))
    res["model_ops_commute"] = max((spec_norm(mask2 @ (t[i] @ t[j] - t[j] @ t[i]) @ mask2)
                                    for i, j in itertools.combinations(range(n), 2)), default=0.0)
    classical = [classical_defect_sq(t[i]) for i in range(n)]
    res["defect_formula"] = max(spec_norm(mask1 @ (classical[i] - a[i].conj().T @ a[i]) @ mask1) for i in range(n))
    res["commutator_formula"] = max((spec_norm(mask1 @ (commutator(t, i, j) - a[i].conj().T @ a[j]) @ mask1)
                                     for i, j in pairs), default=0.0)
    defect_sqs = [mask1 @ d @ mask1 for d in classical]
    defect_spaces = [range_basis(d) for d in defect_sqs]
    res["defects_annihilate"] = max((spec_norm(mask2 @ defect_sqs[i] @ defect_sqs[j] @ mask2) for i, j in pairs),
                                    default=0.0)
    res["defect_isometry"] = res["defect_invariance"] = 0.0
    for i, j in pairs:
        basis = mask2 @ defect_spaces[j].basis
        gram = basis.conj().T @ (t[i].conj().T @ t[i]) @ basis
        res["defect_isometry"] = max(res["defect_isometry"], spec_norm(gram - basis.conj().T @ basis))
        res["defect_invariance"] = max(res["defect_invariance"],
                                       containment_residual(mask1 @ t[i] @ basis, defect_spaces[j]))
    truncated = [mask1 @ full_truncated_defect(t, i) @ mask1 for i in range(n)]
    commutators = {(i, j): mask1 @ joint_commutator(t, i, j) @ mask1 for i, j in pairs}
    truncated_spaces = [range_basis(d) for d in truncated]
    res["commutator_range_inclusion"] = max(
        (containment_residual(delta, truncated_spaces[i]) if truncated_spaces[i].dim else spec_norm(delta)
         for (i, _), delta in commutators.items()), default=0.0)
    theta_cols = symbol_matrix(space, model.symbol)[0][:, : model.symbol.input_dim]
    res["truncated_defect_space_formula"] = max(
        projector_residual(range_basis(mask1 @ (mask1 @ (mq[j].conj().T @ theta_cols))), truncated_spaces[j])
        for j in range(n))
    wander = wandering_by_range_gram(model)
    span0 = {p: masked_span(wp.basis, keep0) for p, wp in wander.items()}
    span1 = {p: masked_span(wp.basis, keep1) for p, wp in wander.items()}
    w_masked = span0[tuple(range(n))]
    w = w_masked.basis
    dims["wandering"] = w_masked.dim
    res["wandering_equals_theta"] = projector_residual(w_masked, masked_span(theta_cols, keep0))
    res["wandering_shift_invariance"] = res["wandering_splitting"] = 0.0
    for psize in range(1, n):
        for pset in itertools.combinations(range(n), psize):
            for j in sorted(set(range(n)) - set(pset)):
                shifted = shift_apply(space, j, wander[pset].basis) * keep1[:, None]
                res["wandering_shift_invariance"] = max(res["wandering_shift_invariance"],
                                                        containment_residual(shifted, span0[pset]))
                inside, z_wp = span1[pset].basis, range_basis(shifted).basis
                split = masked_span(inside - z_wp @ (z_wp.conj().T @ inside), keep1)
                res["wandering_splitting"] = max(res["wandering_splitting"],
                                                 projector_residual(split, span1[tuple(sorted(pset + (j,)))]))
    res["wandering_projection_agreement"] = 0.0
    for j in range(n if n >= 2 else 0):
        wjc = span0[tuple(i for i in range(n) if i != j)].basis
        v = mq[j] * keep0[:, None]
        res["wandering_projection_agreement"] = max(res["wandering_projection_agreement"],
                                                    spec_norm(w @ (w.conj().T @ v) - wjc @ (wjc.conj().T @ v)))
    x_cols = [(w.conj().T * keep0) @ mq[j] for j in range(n)]
    w_eff = range_basis(np.hstack([w @ x for x in x_cols]))
    dims["wandering_effective"] = w_eff.dim
    joint = block_defect(truncated, commutators)
    dims["joint_defect"] = range_basis(joint).dim
    gram = np.block([[x_cols[i].conj().T @ x_cols[j] for j in range(n)] for i in range(n)])
    big_mask = np.kron(np.eye(n), mask1)
    res["joint_defect_gram_identity"] = spec_norm(big_mask @ (joint - gram) @ big_mask)
    theta0 = spec_norm(theta_cols[: space.coeff_dim])
    res["minimality_overlap_error"] = abs(spec_norm(s[: space.coeff_dim]) - theta0)
    if theta0 < 1.0 - 1e-10:
        res["wandering_effective_equals_wandering"] = projector_residual(w_eff, w_masked)
    return res, dims


def comparison_models():
    """Every permutation of alpha and every product split of the hardy-models
    shapes: n = 2 at degrees 4-10, and n = 3 with blockdiag(z^alpha, 1) at
    degree 3, the products at 4 and z^alpha at 5; 71 models."""
    out = []
    for alpha in sorted(set(itertools.permutations((2, 1)))) + sorted(set(itertools.permutations((2, 1, 1)))):
        n = len(alpha)
        splits = []
        for j in range(n):
            unit = tuple(int(i == j) for i in range(n))
            rest = tuple(a - u for a, u in zip(alpha, unit))
            splits.append(product_symbol([monomial_symbol(n, rest), monomial_symbol(n, unit)]))
        diag = blockdiag_symbol([monomial_symbol(n, alpha), unitary_symbol(n, np.eye(1))])
        if n == 2:
            out += [(d, sym) for d in range(4, 11) for sym in [monomial_symbol(n, alpha), diag] + splits]
        else:
            out += [(3, diag)] + [(4, sym) for sym in splits] + [(5, monomial_symbol(n, alpha))]
    return out


@pytest.mark.parametrize("degree, sym", comparison_models())
def test_structural_checks_match_the_quotient_coordinate_readings(degree, sym):
    model = quotient_model(build_space(sym.n, degree, sym.output_dim), sym)
    report = structural_checks(model)
    want, want_dims = quotient_coordinate_readings(model)
    dims = dict(report.dims)
    assert (dims.pop("window1"), dims.pop("window2")) == tuple(
        round(float(np.trace(window_projector(model, k)).real)) for k in (1, 2))
    assert dims == want_dims
    assert report.residuals.keys() == want.keys()
    for name, value in want.items():
        assert abs(report.residuals[name] - value) <= 1e-14, name
    want_passed = want_dims["wandering_effective"] == want_dims["joint_defect"] and all(
        v <= STRUCTURAL_THRESHOLD for v in want.values())
    assert report.passed == want_passed
    for pset, got in wandering_subspaces(model).items():
        reference = wandering_by_range_gram(model)[pset]
        assert got.dim == reference.dim
        assert projector_residual(got, reference) <= 1e-14


@pytest.mark.parametrize("sym, degree", [(monomial_symbol(2, (2, 1)), 6), (monomial_symbol(3, (1, 2, 1)), 5)])
def test_defect_formula_fails_a_scaled_model_operator(sym, degree):
    """0.9 C_1 still commutes with the other C_i and leaves Q and its window
    as they are, but it is not the compression of M_{z_1}: I - 0.81 C_1^* C_1
    exceeds the cross product A_1^H A_1 by 0.19 C_1^* C_1, of norm 0.19 on
    the window.  Every residual, failing or not, reads the same in both
    forms, and the unchanged gate fails the model."""
    model = quotient_model(build_space(sym.n, degree, 1), sym)
    assert structural_checks(model).residuals["defect_formula"] <= 1e-14
    broken = dataclasses.replace(model, model_ops=(0.9 * model.model_ops[0],) + model.model_ops[1:])
    report = structural_checks(broken)
    want, want_dims = quotient_coordinate_readings(broken)
    assert {k: v for k, v in report.dims.items() if not k.startswith("window")} == want_dims
    for name, value in want.items():
        assert abs(report.residuals[name] - value) <= 1e-14, name
    assert report.residuals["defect_formula"] == pytest.approx(0.19, abs=1e-12)
    assert report.residuals["defect_formula"] > STRUCTURAL_THRESHOLD and not report.passed
