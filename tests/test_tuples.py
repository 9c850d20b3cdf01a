import itertools

import numpy as np
import pytest

from polydisc.errors import (
    NearSingularGram,
    NotCommuting,
    NotContraction,
    ParseError,
    ShapeMismatch,
)
import polydisc.tuples
from polydisc.linalg import hermitian_part, spec_norm
from polydisc.sampling import random_commuting_tuple, random_nodes
from polydisc.tuples import (
    CTuple,
    classical_defect_sq,
    classify,
    complex_to_json,
    defect_first_kind,
    is_beurling,
    is_pure,
    is_szego,
    szego_inverse,
    szego_kernel_gram,
    szego_tuple_from_nodes,
    tuple_from_json,
    tuple_to_json,
    validate,
)


def trunc_shift(n_plus_1):
    """Truncated shift on C^{n_plus_1}: e_k -> e_{k+1}, top maps to 0."""
    s = np.zeros((n_plus_1, n_plus_1), dtype=np.complex128)
    for k in range(n_plus_1 - 1):
        s[k + 1, k] = 1.0
    return s


def bishift(n):
    """Pair (S_N (x) I, I (x) S_N) on C^{(N+1)^2}."""
    s = trunc_shift(n + 1)
    eye = np.eye(n + 1)
    return [np.kron(s, eye), np.kron(eye, s)]


def test_norms_are_taken_once_per_tuple(monkeypatch):
    t = validate(random_commuting_tuple(np.random.default_rng(2), 3, 4))
    assert t.norms == tuple(spec_norm(m) for m in t.matrices)
    assert CTuple(t.n, t.dim, t.matrices).norms == t.norms  # a tuple built past validate
    seen = []

    def recorded(a):
        seen.append(a)
        return spec_norm(a)

    monkeypatch.setattr(polydisc.tuples, "spec_norm", recorded)
    c = classify(t)
    assert c.norms == t.norms
    assert not any(a is m for a in seen for m in t.matrices)


def test_validate_accepts_diagonals():
    t = validate([np.diag([0.5]), np.diag([0.3])])
    assert t.n == 2 and t.dim == 1


def test_validate_rejects_noncommuting():
    j = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotCommuting) as exc:
        validate([j, j.T])
    assert exc.value.residual == pytest.approx(1.0)
    assert exc.value.pair == (0, 1)


def test_validate_rejects_expansive():
    with pytest.raises(NotContraction) as exc:
        validate([np.array([[2.0]])])
    assert exc.value.norm == pytest.approx(2.0)


def test_validate_rejects_ragged():
    with pytest.raises(ShapeMismatch):
        validate([np.eye(2), np.eye(3)])
    with pytest.raises(ShapeMismatch):
        validate([])


def test_validate_rejects_negative_or_nan_tol():
    with pytest.raises(ValueError):
        validate([np.diag([0.5])], -1e-3)
    with pytest.raises(ValueError):  # NaN would make every gate comparison false
        validate([np.diag([0.5])], float("nan"))
    assert validate([np.diag([0.5])], 0.0).tol == 0.0


def test_validate_freezes_matrices():
    t = validate([np.diag([0.5])])
    with pytest.raises(ValueError):
        t.matrices[0][0, 0] = 1.0


def test_is_pure_cases():
    ok, radii = is_pure(validate([np.array([[0.5]])]))
    assert ok and radii[0] == pytest.approx(0.5)
    ok, radii = is_pure(validate([np.array([[0.0, 1.0], [0.0, 0.0]])]))
    assert ok and radii[0] == pytest.approx(0.0, abs=1e-12)
    ok, radii = is_pure(validate([np.array([[1.0]])]))
    assert not ok and radii[0] == pytest.approx(1.0)


def test_szego_inverse_scalar():
    a = 0.5 + 0.2j
    t = validate([np.array([[a]])])
    np.testing.assert_allclose(szego_inverse(t), [[1 - abs(a) ** 2]], atol=1e-15)


def test_szego_inverse_zero_pair():
    t = validate([np.zeros((1, 1)), np.zeros((1, 1))])
    np.testing.assert_allclose(szego_inverse(t), [[1.0]], atol=0)


def test_szego_inverse_bishift():
    n = 3
    t = validate(bishift(n))
    e0 = np.zeros((n + 1, n + 1))
    e0[0, 0] = 1.0
    np.testing.assert_allclose(szego_inverse(t), np.kron(e0, e0), atol=1e-14)


def szego_inverse_closed(t):
    """The Szego inverse as the closed sum over F of (-1)^|F| T_F T_F^*."""
    acc = np.zeros((t.dim, t.dim), dtype=np.complex128)
    for f in itertools.product((0, 1), repeat=t.n):
        p = np.eye(t.dim, dtype=np.complex128)
        for m, fk in zip(t.matrices, f):
            if fk:
                p = p @ m
        acc += (-1) ** sum(f) * p @ p.conj().T
    return hermitian_part(acc)


def test_szego_closed_equals_iterated():
    rng = np.random.default_rng(10)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 7))
        t = validate(random_commuting_tuple(rng, n, dim))
        a = szego_inverse(t)
        b = szego_inverse_closed(t)
        assert np.max(np.abs(a - b)) <= 1e-14
        if n == 1:
            np.testing.assert_array_equal(a, b)


def test_defect_first_kind_examples():
    d, space = defect_first_kind(validate([np.zeros((1, 1))]))
    np.testing.assert_allclose(d, [[1.0]], atol=0)
    assert space.dim == 1
    n = 4
    t = validate([np.zeros((n + 1, n + 1)), trunc_shift(n + 1)])
    d, space = defect_first_kind(t)
    e0 = np.zeros((n + 1, n + 1))
    e0[0, 0] = 1.0
    np.testing.assert_allclose(d, e0, atol=1e-12)
    assert space.dim == 1
    np.testing.assert_allclose(np.abs(space.basis[:, 0]), np.eye(n + 1)[:, 0], atol=1e-12)
    a = 0.6
    d, _ = defect_first_kind(validate([np.array([[a]])]))
    np.testing.assert_allclose(d, [[np.sqrt(1 - a**2)]], atol=1e-14)


def test_classical_defect_sq_adjoint_direction():
    j = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(classical_defect_sq(j.conj().T), np.diag([0.0, 1.0]), atol=0)


def test_is_beurling_single_operator_vacuous():
    verdict = is_beurling(validate([np.array([[0.5]])]))
    assert verdict.holds and verdict.residual == 0.0 and verdict.worst_pair is None


def test_is_beurling_bishift_fails_unmasked():
    n = 3
    verdict = is_beurling(validate(bishift(n)))
    assert not verdict.holds
    assert verdict.szego_ok
    assert verdict.residual == pytest.approx(1.0)


def test_is_beurling_bishift_holds_masked():
    n = 3
    low = np.diag([1.0] * n + [0.0])
    mask = np.kron(low, low)
    verdict = is_beurling(validate(bishift(n)), mask=mask)
    assert verdict.holds
    assert verdict.residual == pytest.approx(0.0, abs=1e-14)


def test_beurling_submask_monotone():
    rng = np.random.default_rng(11)
    for _ in range(5):
        t = validate(random_commuting_tuple(rng, 2, 5))
        full = is_beurling(t).residual
        keep = np.diag([1.0, 1.0, 1.0, 0.0, 0.0])
        assert is_beurling(t, mask=keep).residual <= full + 1e-12


def test_kernel_gram_single_node():
    g = szego_kernel_gram(np.array([[0.5]]))
    np.testing.assert_allclose(g, [[1 / 0.75]], atol=1e-15)


def test_single_node_tuple_is_scalar():
    t = szego_tuple_from_nodes(np.array([[0.5]]))
    np.testing.assert_allclose(t.matrices[0], [[0.5]], atol=1e-14)


def test_two_node_tuple_is_szego():
    t = szego_tuple_from_nodes(np.array([[0.0, 0.0], [0.5, 0.0]]))
    assert t.n == 2 and t.dim == 2
    ok, min_eig = is_szego(t)
    assert ok and min_eig >= -1e-10


def test_kernel_tuples_always_szego_rank_one():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 6))
        nodes = random_nodes(rng, m, n)
        t = szego_tuple_from_nodes(nodes)
        ok, min_eig = is_szego(t)
        assert ok and min_eig >= -1e-10
        _, space = defect_first_kind(t)
        assert space.dim == 1
        pure, radii = is_pure(t)
        assert pure
        for i in range(n):
            assert radii[i] == pytest.approx(np.max(np.abs(nodes[:, i])), abs=1e-9)


def test_kernel_tuple_rejects_bad_nodes():
    with pytest.raises(NearSingularGram):
        szego_tuple_from_nodes(np.array([[1.0]]))
    with pytest.raises(NearSingularGram):
        szego_tuple_from_nodes(np.array([[0.3, 0.2], [0.3, 0.2]]))


def test_classify_reports():
    rng = np.random.default_rng(13)
    t = szego_tuple_from_nodes(random_nodes(rng, 3, 2))
    c = classify(t)
    assert c.is_commuting and c.is_contractive and c.is_pure and c.is_szego
    assert len(c.norms) == 2 and len(c.spectral_radii) == 2
    assert c.szego_min_eig >= -1e-10
    assert isinstance(c.is_beurling, bool)


def test_json_round_trip():
    rng = np.random.default_rng(14)
    t = validate(random_commuting_tuple(rng, 2, 3))
    obj = tuple_to_json(t)
    back, window = tuple_from_json(obj)
    assert window is None
    for a, b in zip(t.matrices, back.matrices):
        np.testing.assert_array_equal(a, b)


def test_json_window_field():
    t = validate([np.diag([0.5, 0.0])])
    obj = tuple_to_json(t)
    obj["window"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    _, window = tuple_from_json(obj)
    np.testing.assert_allclose(window, np.diag([1.0, 0.0]), atol=0)


@pytest.mark.parametrize(
    "window",
    [np.array([[2.0]]), np.array([[1.0, 1.0], [0.0, 0.0]]), np.diag([1.0, 1e-6])],
    ids=["not-idempotent", "oblique", "near-projector"],
)
def test_json_window_must_be_an_orthogonal_projector(window):
    dim = window.shape[0]
    obj = tuple_to_json(validate([0.5 * np.eye(dim)]))
    obj["window"] = complex_to_json(window)
    with pytest.raises(ParseError, match="orthogonal projector"):
        tuple_from_json(obj)
    _, kept = tuple_from_json(obj, tol=1.0)  # a loose enough tolerance passes it
    np.testing.assert_array_equal(kept, window)


def test_json_parse_errors():
    with pytest.raises(ParseError):
        tuple_from_json([1, 2, 3])
    with pytest.raises(ParseError):
        tuple_from_json({"n": 1, "dim": 1})
    with pytest.raises(ParseError):
        tuple_from_json({"n": 2, "dim": 1, "matrices": [[[[0.0, 0.0]]]]})
    with pytest.raises(ParseError):
        tuple_from_json({"n": 1, "dim": 2, "matrices": [[[0.0, 0.0]]]})
