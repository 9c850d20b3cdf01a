"""Property tests: exact JSON round trips, and classification invariant
under unitary conjugation."""

import json

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polydisc.hardy import symbol_from_json, symbol_to_json
from polydisc.sampling import random_commuting_tuple, random_unitary
from polydisc.tuples import classify, complex_from_json, complex_to_json, tuple_from_json, tuple_to_json, validate

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
