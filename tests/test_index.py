"""Index algebra of the truncated Hardy space against brute-force loops.

The references walk the exponent tuples one by one, as a reader would
check the definitions by hand; the array versions must match them exactly.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydisc.errors import BadIndex
from polydisc.hardy import (
    blockdiag_symbol,
    build_space,
    gather_blocks,
    monomial_symbol,
    offset_ranks,
    product_symbol,
    row_mask,
    shift_apply,
    symbol_matrix,
    symbol_taylor,
    unitary_symbol,
)

from .test_hardy import monomials

SHAPES = [(n, N, p) for n, N in ((1, 5), (2, 3), (3, 2)) for p in (1, 2)]


def ref_ranks(space):
    return {k: i for i, k in enumerate(monomials(space))}


def ref_mono_shift(space, beta):
    ranks = ref_ranks(space)
    out = np.zeros((space.mono_count, space.mono_count), dtype=np.complex128)
    for k in monomials(space):
        target = tuple(ki + bi for ki, bi in zip(k, beta))
        if all(t <= space.N for t in target):
            out[ranks[target], ranks[k]] = 1.0
    return out


def ref_row_mask(space, caps):
    keep = np.zeros(space.dim, dtype=bool)
    for idx, k in enumerate(monomials(space)):
        if all(ki <= ci for ki, ci in zip(k, caps)):
            keep[idx * space.coeff_dim : (idx + 1) * space.coeff_dim] = True
    return keep


@pytest.mark.parametrize("n,N,p", SHAPES)
def test_position_and_rank(n, N, p):
    s = build_space(n, N, p)
    expected = sorted(itertools.product(range(N + 1), repeat=n), key=lambda k: (sum(k), k))
    assert monomials(s) == expected
    np.testing.assert_array_equal(s.exps, np.array(expected))
    ranks = ref_ranks(s)
    for k in monomials(s):
        for r in range(p):
            assert s.position(k, r) == ranks[k] * p + r
    np.testing.assert_array_equal(s.rank(s.exps), np.arange(s.mono_count))
    with pytest.raises(ValueError):
        s.rank((N + 1,) + (0,) * (n - 1))


@pytest.mark.parametrize("n,N,p", SHAPES)
def test_mono_shift_and_masks(n, N, p):
    s = build_space(n, N, p)
    eye = np.eye(s.dim)
    for beta in itertools.product(range(3), repeat=n):
        moved = gather_blocks(s, offset_ranks(s, tuple(-b for b in beta)), eye)
        np.testing.assert_array_equal(moved, np.kron(ref_mono_shift(s, beta), np.eye(p)))
    for caps in itertools.product(range(-1, N + 2), repeat=n):
        np.testing.assert_array_equal(row_mask(s, caps), ref_row_mask(s, caps))
    np.testing.assert_array_equal(row_mask(s, N - 1), ref_row_mask(s, (N - 1,) * n))


@pytest.mark.parametrize("n,N,p", SHAPES)
def test_gathered_shifts_equal_dense_products(n, N, p):
    s = build_space(n, N, p)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((s.dim, 4)) + 1j * rng.standard_normal((s.dim, 4))
    for i in range(n):
        m = np.kron(ref_mono_shift(s, np.eye(n, dtype=int)[i]), np.eye(p))
        np.testing.assert_array_equal(shift_apply(s, i, x), m @ x)
        np.testing.assert_array_equal(shift_apply(s, i, x, adjoint=True), m.conj().T @ x)
        np.testing.assert_array_equal(shift_apply(s, i, x, adjoint=True).T, x.T @ m)
    np.testing.assert_array_equal(shift_apply(s, 0, x[:, :0]), np.zeros((s.dim, 0)))
    for i in (-1, n):
        with pytest.raises(BadIndex):
            shift_apply(s, i, x)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), N=st.integers(1, 6), p=st.integers(1, 2), data=st.data())
def test_gather_shift_equals_dense_kron(n, N, p, data):
    beta = data.draw(st.tuples(*[st.integers(0, N + 1)] * n), label="beta")
    s = build_space(n, N, p)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((s.dim, 2)) + 1j * rng.standard_normal((s.dim, 2))
    dense = np.kron(ref_mono_shift(s, beta), np.eye(p))
    moved = gather_blocks(s, offset_ranks(s, tuple(-b for b in beta)), x)
    np.testing.assert_array_equal(moved, dense @ x)
    back = gather_blocks(s, offset_ranks(s, beta), x)
    np.testing.assert_array_equal(back, dense.conj().T @ x)


def test_symbol_matrix_equals_kron_sum():
    # multi-dimensional blocks at several offsets beta, against the
    # multiplication operator sum_beta z^beta (x) Theta_beta
    u = np.array([[0.0, 1.0], [1.0j, 0.0]])
    sym = product_symbol([
        blockdiag_symbol([monomial_symbol(2, (1, 0)), monomial_symbol(2, (0, 2))]),
        unitary_symbol(2, u),
        blockdiag_symbol([monomial_symbol(2, (1, 1)), unitary_symbol(2, np.eye(1))]),
    ])
    s = build_space(2, 3, sym.output_dim)
    coeffs, _, _ = symbol_taylor(sym, 2, 3)
    expected = sum(np.kron(ref_mono_shift(s, beta), block) for beta, block in coeffs.items())
    np.testing.assert_array_equal(symbol_matrix(s, sym)[0], expected)
