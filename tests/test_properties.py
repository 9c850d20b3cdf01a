"""Property tests: exact JSON round trips, classification invariant under
unitary conjugation, the samplers' tuples, the Loewner order and the
inner-ness of one-variable kernel-node characteristic functions."""

import json

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polydisc.charfn import build_charfn, inner_residual
from polydisc.hardy import symbol_from_json, symbol_to_json, torus_grid
from polydisc.linalg import loewner_leq, spec_norm
from polydisc.sampling import random_commuting_tuple, random_nilpotent_pair, random_nodes, random_unitary
from polydisc.tuples import (
    classify,
    complex_from_json,
    complex_to_json,
    szego_tuple_from_nodes,
    tuple_from_json,
    tuple_to_json,
    validate,
)

from .test_batch import random_symbol

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def through_text(obj):
    """The object as a file would carry it."""
    return json.loads(json.dumps(obj))


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(1, 3), min_size=1, max_size=3), data=st.data())
def test_complex_json_round_trip_is_exact(shape, data):
    size = int(np.prod(shape))
    parts = data.draw(st.lists(st.tuples(FINITE, FINITE), min_size=size, max_size=size))
    a = np.array([complex(re, im) for re, im in parts], dtype=np.complex128).reshape(shape)
    back = complex_from_json(through_text(complex_to_json(a)), tuple(shape), "array")
    assert back.shape == a.shape
    np.testing.assert_array_equal(back.view(np.float64), a.view(np.float64))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), dim=st.integers(1, 5))
def test_tuple_json_round_trip_is_exact(seed, n, dim):
    t = validate(random_commuting_tuple(np.random.default_rng(seed), n, dim))
    obj = tuple_to_json(t)
    back, window = tuple_from_json(through_text(obj))
    assert window is None and (back.n, back.dim) == (t.n, t.dim)
    for a, b in zip(back.matrices, t.matrices):
        np.testing.assert_array_equal(a, b)
    assert tuple_to_json(back) == obj


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), dim=st.integers(1, 4), depth=st.integers(0, 3))
def test_symbol_json_round_trip_is_exact(seed, n, dim, depth):
    sym = random_symbol(np.random.default_rng(seed), n, dim, depth)
    obj = symbol_to_json(sym)
    back = symbol_from_json(through_text(obj))
    assert symbol_to_json(back) == obj
    assert (back.kind, back.n, back.input_dim, back.output_dim) == (sym.kind, sym.n, sym.input_dim, sym.output_dim)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), dim=st.integers(1, 5),
       norm_max=st.floats(0.1, 0.9))
def test_classify_flags_invariant_under_unitary_conjugation(seed, n, dim, norm_max):
    rng = np.random.default_rng(seed)
    t = validate(random_commuting_tuple(rng, n, dim, norm_max=norm_max))
    sigma = random_unitary(rng, dim)
    s = validate([sigma @ m @ sigma.conj().T for m in t])
    before, after = classify(t), classify(s)
    # stay away from the thresholds, where roundoff may move a verdict
    assume(abs(before.szego_min_eig) > 1e-6 and before.beurling_residual > 1e-6)
    flags = ("is_commuting", "is_contractive", "is_pure", "is_szego", "is_beurling")
    assert [getattr(before, f) for f in flags] == [getattr(after, f) for f in flags]
    np.testing.assert_allclose(after.szego_min_eig, before.szego_min_eig, atol=1e-12)


SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 3), dim=st.integers(1, 5), m=st.integers(1, 4))
def test_sampled_tuples_validate(seed, n, dim, m):
    rng = np.random.default_rng(seed)
    for mats in (random_commuting_tuple(rng, n, dim), random_nilpotent_pair(rng, dim)):
        t = validate(mats)
        assert t.dim == dim and all(spec_norm(x) <= 1.0 + t.tol for x in t)
    t = szego_tuple_from_nodes(random_nodes(rng, m, n))
    assert (t.n, t.dim) == (n, m)


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, dim=st.integers(1, 5), rank=st.integers(1, 5), top=st.floats(1e-6, 10.0))
def test_loewner_order_sees_a_psd_step(seed, dim, rank, top):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = g + g.conj().T
    b = rng.standard_normal((dim, min(rank, dim))) + 1j * rng.standard_normal((dim, min(rank, dim)))
    p = b @ b.conj().T
    p *= top * max(spec_norm(a), 1.0) / spec_norm(p)  # largest eigenvalue well clear of the gate
    assert loewner_leq(a, a + p).holds
    assert not loewner_leq(a + p, a).holds


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, m=st.integers(1, 6))
def test_kernel_node_charfns_are_inner_on_the_torus(seed, m):
    t = szego_tuple_from_nodes(random_nodes(np.random.default_rng(seed), m, 1))
    assert inner_residual(build_charfn(t), torus_grid(1, 64)) <= 1e-8
