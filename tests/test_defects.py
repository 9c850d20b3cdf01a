import itertools
from dataclasses import fields

import numpy as np
import pytest

from polydisc.defects import (
    SERIES_CAP,
    build_defects,
    commutator_defect,
    defect_series_residual,
    full_truncated_defect,
    joint_commutator,
    joint_defect,
    series_cutoff,
    truncated_defect,
)
from polydisc.errors import BadIndex
from polydisc.linalg import Subspace, containment_residual, hermitian_part, loewner_leq, spec_norm
from polydisc.sampling import random_commuting_tuple, random_nilpotent_pair, random_nodes
from polydisc.tuples import (
    classical_defect_sq,
    szego_tuple_from_nodes,
    validate,
)

from .test_tuples import bishift, trunc_shift


def congruence(x, a):
    """X A X^H."""
    return x @ a @ x.conj().T


def test_truncated_defect_empty_set_is_classical():
    rng = np.random.default_rng(20)
    t = validate(random_commuting_tuple(rng, 2, 4))
    np.testing.assert_allclose(
        truncated_defect(t, 0, set()), classical_defect_sq(t[0]), atol=1e-14
    )


def test_truncated_defect_shift_examples():
    n = 4
    t = validate([np.zeros((n + 1, n + 1)), trunc_shift(n + 1)])
    e0 = np.zeros((n + 1, n + 1))
    e0[0, 0] = 1.0
    en = np.zeros((n + 1, n + 1))
    en[n, n] = 1.0
    np.testing.assert_allclose(truncated_defect(t, 0, {1}), e0, atol=1e-14)
    np.testing.assert_allclose(truncated_defect(t, 1, {0}), en, atol=1e-14)


def test_truncated_defect_bad_indices():
    t = validate([np.diag([0.5]), np.diag([0.3])])
    with pytest.raises(BadIndex):
        truncated_defect(t, 0, {0})
    with pytest.raises(BadIndex):
        truncated_defect(t, 5, set())
    with pytest.raises(BadIndex):
        truncated_defect(t, 0, {7})


def test_truncated_defect_order_independent():
    rng = np.random.default_rng(21)
    for _ in range(10):
        t = validate(random_commuting_tuple(rng, 3, 4))
        expected = truncated_defect(t, 0, {1, 2})
        manual = classical_defect_sq(t[0])
        for k in (2, 1):  # reversed application order
            manual = manual - congruence(t[k], manual)
        assert spec_norm(expected - manual) <= 1e-12


def test_truncated_defect_and_joint_commutator_match_the_congruence_loop():
    """Bit for bit: each is the congruence loop A -> A - T_k A T_k^* over
    ascending k, started from I - T_j^* T_j or from [T_j, T_i^*]."""
    rng = np.random.default_rng(25)
    for n in (2, 3):
        for _ in range(8):
            t = validate(random_commuting_tuple(rng, n, int(rng.integers(1, 6))))
            for j in range(n):
                others = [k for k in range(n) if k != j]
                for size in range(n):
                    for p in itertools.combinations(others, size):
                        acc = classical_defect_sq(t[j])
                        for k in p:
                            acc = acc - congruence(t[k], acc)
                        np.testing.assert_array_equal(truncated_defect(t, j, set(p)), hermitian_part(acc))
            for i, j in itertools.permutations(range(n), 2):
                acc = t[j] @ t[i].conj().T - t[i].conj().T @ t[j]
                for k in range(n):
                    if k not in (i, j):
                        acc = acc - congruence(t[k], acc)
                np.testing.assert_array_equal(joint_commutator(t, i, j), acc)


def test_joint_commutator_doubly_commuting_vanishes():
    t = validate(bishift(3))
    np.testing.assert_allclose(joint_commutator(t, 0, 1), 0 * t[0], atol=1e-14)


def test_joint_commutator_jordan_pair():
    j = np.array([[0.0, 1.0], [0.0, 0.0]])
    t = validate([j, j])
    np.testing.assert_allclose(joint_commutator(t, 0, 1), np.diag([1.0, -1.0]), atol=0)


def test_joint_commutator_extra_zero_operator():
    x = np.diag([0.5, 0.25])
    t = validate([np.zeros((2, 2)), np.zeros((2, 2)), x])
    np.testing.assert_allclose(joint_commutator(t, 0, 1), np.zeros((2, 2)), atol=1e-14)


def test_joint_commutator_pair_formula_and_adjoint():
    rng = np.random.default_rng(22)
    t = validate(random_commuting_tuple(rng, 2, 5))
    expected = t[1] @ t[0].conj().T - t[0].conj().T @ t[1]
    np.testing.assert_array_equal(joint_commutator(t, 0, 1), expected)
    np.testing.assert_allclose(
        joint_commutator(t, 1, 0), joint_commutator(t, 0, 1).conj().T, atol=1e-14
    )
    with pytest.raises(BadIndex):
        joint_commutator(t, 1, 1)


def test_joint_defect_shift_pair():
    n = 4
    t = validate([np.zeros((n + 1, n + 1)), trunc_shift(n + 1)])
    jd = joint_defect(t)
    e0 = np.zeros((n + 1, n + 1))
    e0[0, 0] = 1.0
    en = np.zeros((n + 1, n + 1))
    en[n, n] = 1.0
    expected = np.zeros((2 * (n + 1), 2 * (n + 1)))
    expected[: n + 1, : n + 1] = e0
    expected[n + 1 :, n + 1 :] = en
    np.testing.assert_allclose(jd.matrix, expected, atol=1e-14)
    assert jd.min_eig >= -1e-12
    assert jd.space is not None
    assert jd.space.dim == 2


def test_joint_defect_scalar():
    a = 0.6
    jd = joint_defect(validate([np.array([[a]])]))
    np.testing.assert_allclose(jd.matrix, [[1 - a**2]], atol=1e-15)
    assert jd.space is not None and jd.space.dim == 1


def test_joint_defect_indefinite_case():
    # diagonal blocks diag(1,0), off-diagonal diag(1,-1): eigenvalues {2,1,0,-1}
    j = np.array([[0.0, 1.0], [0.0, 0.0]])
    jd = joint_defect(validate([j, j]))
    assert jd.min_eig == pytest.approx(-1.0)
    assert jd.space is None


def test_commutator_defect_scalar_and_shift_pair():
    a = 0.6
    mat, min_eig = commutator_defect(validate([np.array([[a]])]))
    np.testing.assert_allclose(mat, [[1 - a**2]], atol=1e-15)
    assert min_eig == pytest.approx(1 - a**2)
    n = 3
    t = validate([np.zeros((n + 1, n + 1)), trunc_shift(n + 1)])
    mat, min_eig = commutator_defect(t)
    en = np.zeros((n + 1, n + 1))
    en[n, n] = 1.0
    expected = np.zeros((2 * (n + 1), 2 * (n + 1)))
    expected[: n + 1, : n + 1] = np.eye(n + 1)
    expected[n + 1 :, n + 1 :] = en
    np.testing.assert_allclose(mat, expected, atol=1e-14)
    assert min_eig >= -1e-12


def test_commutator_defect_psd_for_kernel_tuples():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 6))
        t = szego_tuple_from_nodes(random_nodes(rng, m, n))
        _, min_eig = commutator_defect(t)
        assert min_eig >= -1e-10


def test_hereditary_inequalities_kernel_tuples():
    rng = np.random.default_rng(24)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 6))
        t = szego_tuple_from_nodes(random_nodes(rng, m, n))
        for i, j in itertools.permutations(range(n), 2):
            di_sq = classical_defect_sq(t[i])
            di_star_sq = classical_defect_sq(t[i].conj().T)
            assert loewner_leq(congruence(t[j], di_sq), di_sq).holds
            assert loewner_leq(congruence(t[j], di_star_sq), di_star_sq).holds
            from polydisc.linalg import range_basis

            space = range_basis(di_sq)
            if space.dim:
                assert containment_residual(t[j] @ space.basis, space) <= 1e-8
            space_star = range_basis(di_star_sq)
            if space_star.dim:
                assert containment_residual(t[j] @ space_star.basis, space_star) <= 1e-8


def test_series_residual_nilpotent_terminates():
    eye = np.eye(2)
    j = np.array([[0.0, 1.0], [0.0, 0.0]])
    t = validate([np.kron(j, eye), np.kron(eye, j)])
    assert defect_series_residual(t, 0, {1}, k=2) <= 1e-14
    assert defect_series_residual(t, 1, set(), k=2) <= 1e-14


def test_series_residual_scalar_degenerate():
    t = validate([np.array([[0.5]])])
    assert defect_series_residual(t, 0, set(), k=3) == pytest.approx(0.0, abs=1e-15)


def test_series_residual_kernel_tuple_geometric():
    rng = np.random.default_rng(25)
    t = szego_tuple_from_nodes(random_nodes(rng, 4, 2, modulus_max=0.6, min_sep=0.2))
    assert defect_series_residual(t, 0, {1}, k=40) <= 1e-10
    assert defect_series_residual(t, 0, set(), k=40) <= 1e-10


def test_series_cutoff_rule():
    t = validate([np.array([[0.5]])])
    k = series_cutoff(t)
    assert 1 <= k <= 200
    assert 0.5 ** (2 * k) <= 1e-10
    nil = validate([np.array([[0.0, 1.0], [0.0, 0.0]])])
    assert series_cutoff(nil) == 2


def test_series_cutoff_zero_tol_is_the_cap():
    """No series length meets tol = 0 when rho > 0: the cap, not log(0)."""
    assert series_cutoff(validate([np.array([[0.5]])]), tol=0.0) == SERIES_CAP
    assert series_cutoff(validate([np.array([[0.0, 1.0], [0.0, 0.0]])]), tol=0.0) == 2


def test_series_residual_random_pure_tuples():
    rng = np.random.default_rng(26)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        t = validate(random_commuting_tuple(rng, n, 4, norm_max=0.7))
        j = int(rng.integers(0, n))
        others = [k for k in range(n) if k != j]
        p = set(others[: int(rng.integers(0, len(others) + 1))])
        assert defect_series_residual(t, j, p) <= 1e-10


def _diagonal_blocks(big: np.ndarray, n: int) -> list[np.ndarray]:
    d = big.shape[0] // n
    return [big[i * d : (i + 1) * d, i * d : (i + 1) * d] for i in range(n)]


def test_build_defects_package_shape():
    rng = np.random.default_rng(27)
    t = validate(random_commuting_tuple(rng, 2, 3))
    pkg = build_defects(t)
    assert [f.name for f in fields(pkg)] == ["first_kind", "joint"]
    assert [f.name for f in fields(pkg.joint)] == ["matrix", "space", "min_eig"]
    assert pkg.joint.matrix.shape == (6, 6)
    for i, block in enumerate(_diagonal_blocks(pkg.joint.matrix, 2)):
        np.testing.assert_allclose(block, full_truncated_defect(t, i), atol=1e-14)


def test_build_defects_mask_applied():
    n = 3
    t = validate(bishift(n))
    low = np.diag([1.0] * n + [0.0])
    mask = np.kron(low, low)
    pkg = build_defects(t, mask=mask)
    raw = build_defects(t)
    for i, (masked, unmasked) in enumerate(
        zip(_diagonal_blocks(pkg.joint.matrix, 2), _diagonal_blocks(raw.joint.matrix, 2))
    ):
        full = full_truncated_defect(t, i)
        np.testing.assert_allclose(masked, mask @ full @ mask, atol=1e-14)
        np.testing.assert_allclose(unmasked, full, atol=1e-14)
        # the truncated defects of the bishift live at top degree; the mask kills them
        assert spec_norm(unmasked) == pytest.approx(1.0)
    assert spec_norm(pkg.joint.matrix) <= 1e-14


def test_joint_defect_nilpotent_pair_psd_and_series():
    rng = np.random.default_rng(28)
    for _ in range(5):
        t = validate(random_nilpotent_pair(rng, 4))
        assert defect_series_residual(t, 0, {1}, k=4) <= 1e-12
        # delta_10 = delta_01^H, so taking the Hermitian part of the
        # assembled joint defect keeps its off-diagonal block delta_01
        delta01, delta10 = joint_commutator(t, 0, 1), joint_commutator(t, 1, 0)
        assert spec_norm(delta01 - delta10.conj().T) <= 1e-12
        d = t.dim
        assert spec_norm(joint_defect(t).matrix[:d, d:] - delta01) <= 1e-12
