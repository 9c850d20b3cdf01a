"""Characteristic-function tests: closed forms, pair identity, inner-ness,
dilation-form coefficients, and coincidence."""

import itertools

import numpy as np
import pytest

from polydisc.charfn import (
    CharFn,
    _formula_coefficient_blocks,
    alignment_probe,
    build_charfn,
    coincidence_from_unitary,
    default_points,
    dilation_form_residual,
    eval_onevar,
    eval_pair_blaschke,
    eval_raw,
    inner_residual,
    torus_grid,
)
from polydisc.defects import build_defects
from polydisc.dilation import adjoint_powers, build_dilation
from polydisc.errors import (
    BadIndex,
    NotBeurling,
    NotPure,
    NotUnitary,
    ShapeMismatch,
    SingularResolvent,
)
from polydisc.hardy import (
    build_space,
    charfn_symbol,
    model_tuple,
    monomial_symbol,
    quotient_mask,
    quotient_model,
)
from polydisc.linalg import spec_norm
from polydisc.sampling import (
    random_commuting_tuple,
    random_nodes,
    random_pure_contraction,
    random_unitary,
)
from polydisc.tuples import defect_first_kind, szego_tuple_from_nodes, validate

from .test_tuples import trunc_shift


def scalar(a):
    return validate([np.array([[a]], dtype=np.complex128)])


def blaschke(a, w):
    return (w - a) / (1 - np.conj(a) * w)


def masked_zero_shift_pair(dim=6):
    """The (0, S) pair with the top shift degree masked out: model of z1."""
    t = validate([np.zeros((dim, dim)), trunc_shift(dim)])
    mask = np.eye(dim, dtype=np.complex128)
    mask[dim - 1, dim - 1] = 0.0
    return t, mask


def test_eval_raw_scalar_collapse():
    a = 0.6
    t = scalar(a)
    out = eval_raw(t, [0.0], [1.0])
    assert abs(out[0] - (-a) * np.sqrt(1 - a * a)) < 1e-14


def test_eval_raw_zero_contraction():
    t = scalar(0.0)
    for w in (0.25, -0.7j, 0.4 + 0.4j):
        out = eval_raw(t, [w], [1.0])
        assert abs(out[0] - w) < 1e-15


def test_eval_raw_zero_shift_pair_recovers_first_variable():
    t, _ = masked_zero_shift_pair(6)
    e0 = np.zeros(6)
    e0[0] = 1.0
    h = np.concatenate([e0, np.zeros(6)])
    for w in default_points(2, count=5):
        out = eval_raw(t, w, h)
        assert np.linalg.norm(out - w[0] * e0) < 1e-14


def test_eval_raw_shape_gates():
    t = scalar(0.5)
    with pytest.raises(ShapeMismatch):
        eval_raw(t, [0.1, 0.2], [1.0])
    with pytest.raises(ShapeMismatch):
        eval_raw(t, [0.1], [1.0, 2.0])


def test_eval_raw_singular_resolvent():
    t = scalar(0.9)
    with pytest.raises(SingularResolvent):
        eval_raw(t, [1.0 / 0.9], [1.0])


@pytest.mark.parametrize("a", [0.3, 0.5 + 0.2j, -0.7])
def test_blaschke_recovery(a):
    f = build_charfn(scalar(a))
    assert f.input_dim == 1 and f.output_dim == 1
    rng = np.random.default_rng(5)
    for _ in range(50):
        w = 0.99 * rng.random() * np.exp(2j * np.pi * rng.random())
        assert abs(f.eval([w])[0, 0] - blaschke(a, w)) < 1e-12


def test_jordan_charfn_is_w_squared():
    j = np.array([[0.0, 1.0], [0.0, 0.0]])
    f = build_charfn(validate([j]))
    assert f.input_dim == 1 and f.output_dim == 1
    assert abs(f.eval([0.0])[0, 0]) < 1e-15  # compression of -J vanishes
    for w in (0.5, 0.3 - 0.4j, -0.9):
        assert abs(f.eval([w])[0, 0] - w * w) < 1e-14


def test_build_charfn_refuses_non_beurling():
    rng = np.random.default_rng(3)
    t = szego_tuple_from_nodes(random_nodes(rng, 3, 2))
    with pytest.raises(NotBeurling):
        build_charfn(t)
    # the raw formula stays available for Szego tuples
    out = eval_raw(t, [0.2, -0.1j], np.ones(2 * t.dim))
    assert np.all(np.isfinite(out))


def test_onevar_matches_general():
    rng = np.random.default_rng(17)
    for k in range(20):
        t = validate([random_pure_contraction(rng, 1 + k % 6)])
        f = build_charfn(t)
        for _ in range(10):
            w = 0.9 * rng.random() * np.exp(2j * np.pi * rng.random())
            diff = spec_norm(f.eval([w]) - eval_onevar(f, [w]))
            assert diff < 1e-12


def test_onevar_gates():
    pair, mask = masked_zero_shift_pair(3)
    with pytest.raises(BadIndex):
        eval_onevar(build_charfn(pair, build_defects(pair, mask)), [0.1, 0.2])
    with pytest.raises(NotPure):
        eval_onevar(build_charfn(validate([np.eye(1)])), [0.5])


def test_pair_identity_random_pairs():
    rng = np.random.default_rng(23)
    for k in range(20):
        if k % 2 == 0:
            # norms scaled so ||T1||^2 + ||T2||^2 < 1, which forces Szego
            t = validate(random_commuting_tuple(rng, 2, 2 + k % 5, norm_max=0.65))
        else:
            t = szego_tuple_from_nodes(random_nodes(rng, 3, 2))
        for _ in range(5):
            z = 0.9 * rng.random(2) * np.exp(2j * np.pi * rng.random(2))
            h = rng.standard_normal(2 * t.dim) + 1j * rng.standard_normal(2 * t.dim)
            diff = np.linalg.norm(eval_raw(t, z, h) - eval_pair_blaschke(t, z, h))
            assert diff < 1e-11


def test_pair_zero_tuple_gives_coordinates():
    t = validate([np.zeros((1, 1)), np.zeros((1, 1))])
    for z in default_points(2, count=4):
        out = eval_pair_blaschke(t, z, [1.0, 0.0])
        assert abs(out[0] - z[0]) < 1e-15
        out = eval_pair_blaschke(t, z, [0.0, 1.0])
        assert abs(out[0] - z[1]) < 1e-15


def test_pair_second_component_zero_scales_by_z2():
    # with T2 = 0 the inner Blaschke factor degenerates to z2 times identity
    rng = np.random.default_rng(29)
    x = random_pure_contraction(rng, 4, norm_max=0.6)
    t = validate([x, np.zeros((4, 4))])
    z = np.array([0.3 - 0.2j, 0.55j])
    h2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    h = np.concatenate([np.zeros(4), h2])
    root = build_charfn(t).defects.first_kind[0]
    assert np.linalg.norm(eval_raw(t, z, h) - z[1] * (root @ h2)) < 1e-12


def test_pair_gate_wrong_n():
    with pytest.raises(BadIndex):
        eval_pair_blaschke(scalar(0.5), [0.1], [1.0])


def test_inner_residual_scalar_and_masked_pair():
    f = build_charfn(scalar(0.5))
    assert inner_residual(f, torus_grid(1, 64)) < 1e-10

    t, mask = masked_zero_shift_pair(6)
    fm = build_charfn(t, build_defects(t, mask))
    assert fm.input_dim == 1 and fm.output_dim == 1
    assert inner_residual(fm, torus_grid(2, 8)) < 1e-14


def test_masked_pair_charfn_is_first_coordinate():
    t, mask = masked_zero_shift_pair(6)
    f = build_charfn(t, build_defects(t, mask))
    for w in default_points(2, count=6):
        assert abs(f.eval(w)[0, 0] - w[0]) < 1e-13


def test_unmasked_pair_exposes_truncation_corner():
    # without the window the second defect direction survives and carries
    # the corner monomial w2^(dim), so the function becomes [w1, w2^dim]
    dim = 5
    t = validate([np.zeros((dim, dim)), trunc_shift(dim)])
    f = build_charfn(t)
    assert f.input_dim == 2
    w = np.array([0.3, 0.5 + 0.1j])
    m = f.eval(w)
    vals = sorted([m[0, 0], m[0, 1]], key=abs)
    assert abs(vals[1] - w[0]) < 1e-13
    assert abs(vals[0]) - abs(w[1]) ** dim < 1e-13


def test_contractivity_on_samples():
    rng = np.random.default_rng(31)
    t, mask = masked_zero_shift_pair(5)
    cases = [
        build_charfn(scalar(0.5 + 0.2j)),
        build_charfn(validate([random_pure_contraction(rng, 5)])),
        build_charfn(t, build_defects(t, mask)),
    ]
    for f in cases:
        for w in default_points(f.n, count=10):
            assert spec_norm(f.eval(w)) <= 1 + 1e-8


def test_taylor_coeffs_scalar_geometric():
    a = 0.6
    f = build_charfn(scalar(a))
    coeffs, l1, tail = f.taylor_coeffs(20)
    assert abs(coeffs[(0,)][0, 0] + a) < 1e-14
    for k in range(1, 21):
        want = (1 - a * a) * a ** (k - 1)
        assert abs(coeffs[(k,)][0, 0] - want) < 1e-13
    true_remainder = (1 - a * a) * a ** 20 / (1 - a)
    assert tail >= true_remainder - 1e-15
    assert tail < 1e-3
    assert abs(l1 - (a + (1 - a * a) / (1 - a) * (1 - a ** 20))) < 1e-12


def test_taylor_coeffs_masked_pair_single_monomial():
    t, mask = masked_zero_shift_pair(5)
    f = build_charfn(t, build_defects(t, mask))
    coeffs, l1, tail = f.taylor_coeffs(t.dim)
    assert abs(coeffs[(1, 0)][0, 0] - 1.0) < 1e-14
    off = sum(spec_norm(c) for k, c in coeffs.items() if k != (1, 0))
    assert off < 1e-14
    assert tail == 0.0  # nilpotent: power norms vanish past the degree


def formula_blocks_by_slot(t, root, n_deg):
    """Block beta of Theta_T(w) D_T, slot j at a time: root times the sum over
    alpha <= beta of T^{*(beta - alpha)} times the finite polynomial's
    coefficient at alpha, in lexicographic order of beta."""
    d, n = t.dim, t.n
    space = build_space(n, n_deg, 1)
    powers = dict(zip(map(tuple, space.exps.tolist()), adjoint_powers(t, space)))
    finite = []
    for j in range(n):
        entry = {}
        for bits in itertools.product((0, 1), repeat=n - 1):
            base, up = bits[:j] + (0,) + bits[j:], bits[:j] + (1,) + bits[j:]
            sign = (-1.0) ** sum(bits)
            entry[base] = sign * (-t[j] @ powers[base])
            entry[up] = sign * powers[base]
        finite.append(entry)
    blocks = {}
    for beta in itertools.product(range(n_deg + 1), repeat=n):
        big = np.zeros((d, n * d), dtype=np.complex128)
        for j, entry in enumerate(finite):
            acc = np.zeros((d, d), dtype=np.complex128)
            for alpha, mat in entry.items():
                gamma = tuple(b - a for b, a in zip(beta, alpha))
                if min(gamma) >= 0:
                    acc += powers[gamma] @ mat
            big[:, j * d : (j + 1) * d] = root @ acc
        blocks[beta] = big
    return blocks


@pytest.mark.parametrize("n, n_deg", [(1, 9), (2, 5), (3, 3)])
def test_formula_blocks_match_the_slot_loop(n, n_deg):
    rng = np.random.default_rng(40 + n)
    for m in (2, 3, 4):
        t = szego_tuple_from_nodes(random_nodes(rng, m, n))
        root = defect_first_kind(t)[0]
        got = _formula_coefficient_blocks(t, root, n_deg)
        want = formula_blocks_by_slot(t, root, n_deg)
        assert got.keys() == want.keys()
        for beta, block in want.items():
            if n == 1:
                np.testing.assert_array_equal(got[beta], block)
            else:
                assert np.max(np.abs(got[beta] - block)) <= 1e-15


def test_dilation_form_scalar_and_zero():
    for a, bound in ((0.6, 1e-11), (0.0, 1e-14)):
        t = scalar(a)
        d = build_dilation(t)
        f = build_charfn(t)
        assert dilation_form_residual(t, d, f) <= bound


def test_dilation_form_windowed_models():
    # one variable: z^2 model is the 2x2 Jordan block
    space1 = build_space(1, 6, 1)
    model1 = quotient_model(space1, monomial_symbol(1, (2,)))
    mt1 = model_tuple(model1)
    f1 = build_charfn(mt1, build_defects(mt1, quotient_mask(model1)))
    d1 = build_dilation(mt1)
    assert dilation_form_residual(mt1, d1, f1) <= 1e-12

    # two variables: the z1 z2 model, nilpotent so the identity is exact
    space2 = build_space(2, 4, 1)
    model2 = quotient_model(space2, monomial_symbol(2, (1, 1)))
    mt2 = model_tuple(model2)
    f2 = build_charfn(mt2, build_defects(mt2, quotient_mask(model2)))
    d2 = build_dilation(mt2)
    assert dilation_form_residual(mt2, d2, f2) <= 1e-12


def test_coincidence_identity_and_phase():
    t = scalar(0.45)
    s, co = coincidence_from_unitary(t, np.eye(1))
    assert co.residual < 1e-13
    assert abs(co.tau[0, 0] - 1) < 1e-13 and abs(co.tau_star[0, 0] - 1) < 1e-13
    _, co_phase = coincidence_from_unitary(t, np.array([[np.exp(1.2j)]]))
    assert co_phase.residual < 1e-12


def test_coincidence_random_unitary_on_masked_model():
    rng = np.random.default_rng(41)
    t, mask = masked_zero_shift_pair(5)
    sigma = random_unitary(rng, 5)
    s, co = coincidence_from_unitary(t, sigma, mask=mask)
    assert co.residual < 1e-12
    assert max(spec_norm(s[i] - sigma @ t[i] @ sigma.conj().T) for i in range(2)) < 1e-12
    # symmetry: conjugating back reports the same residual scale
    _, co_back = coincidence_from_unitary(t, sigma.conj().T, mask=mask)
    assert abs(co.residual - co_back.residual) < 1e-10


def test_coincidence_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        coincidence_from_unitary(scalar(0.3), np.array([[0.5]]))


def test_alignment_probe_separates_distinct_nodes():
    rng = np.random.default_rng(47)
    f1 = build_charfn(szego_tuple_from_nodes(random_nodes(rng, 3, 1)))
    f2 = build_charfn(szego_tuple_from_nodes(random_nodes(rng, 3, 1)))
    assert alignment_probe(f1, f2, rng, tries=50) >= 0.1
    # a diagonal direct sum has two defect directions, no alignment exists
    f3 = build_charfn(validate([np.diag([0.3, -0.5])]))
    assert alignment_probe(f1, f3, rng) == np.inf


def test_charfn_symbol_round_trip_one_zero():
    # model built from the Blaschke charfn of [a] recovers [a] itself
    # the truncated multiplication operator only develops a numerical
    # cokernel once a^N falls below the rank cut, hence the tall space
    a = 0.3
    f = build_charfn(scalar(a))
    sym = charfn_symbol(f)
    space = build_space(1, 20, 1)
    model = quotient_model(space, sym)
    assert model.quotient_dim == 1
    mt = model_tuple(model)
    assert abs(mt[0][0, 0] - a) < 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conjugated_zero_defect_model_builds(seed):
    # the windowed joint defect of this model is 0; conjugated, it is 0 up to
    # roundoff (norm ~1e-15, eigenvalues down to -4.5e-16), which the PSD
    # clamp window at scale 1 reads as zero
    model = quotient_model(build_space(2, 1, 1), monomial_symbol(2, (1, 1)))
    mt = model_tuple(model)
    sigma = random_unitary(np.random.default_rng(seed), mt.dim)
    t = validate([sigma @ m @ sigma.conj().T for m in mt])
    f = build_charfn(t, build_defects(t, sigma @ quotient_mask(model) @ sigma.conj().T))
    assert (f.input_dim, f.output_dim) == (0, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_build_charfn_takes_two_eigh_and_two_svd(n, monkeypatch):
    # one eigh and one SVD for the first-kind defect, and one of each for
    # the joint defect, whatever n: nothing else of the defect layer is built
    if n == 1:
        t = szego_tuple_from_nodes(random_nodes(np.random.default_rng(3), 3, 1))
    else:
        t = validate([np.zeros((4, 4))] * (n - 1) + [trunc_shift(4)])
    calls = {"eigh": 0, "svd": 0, "norm": 0}
    for name in calls:

        def counted(*args, _name=name, _func=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _func(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    f = build_charfn(t, build_defects(t))
    assert f.input_dim >= 1 and f.output_dim >= 1
    assert calls == {"eigh": 2, "svd": 2, "norm": 0}


def count_cond_calls(monkeypatch, evaluate) -> int:
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    original = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", counted)
    evaluate()
    monkeypatch.undo()
    return len(calls)


def test_resolvent_gate_takes_cond_only_past_the_bound(monkeypatch):
    # |w| ||T|| <= 0.95 certifies cond <= 39: no SVD for any of 16 interior points
    f = build_charfn(validate([random_pure_contraction(np.random.default_rng(5), 4, norm_max=0.95)]))
    assert count_cond_calls(monkeypatch, lambda: [f.eval(w) for w in default_points(1, count=16)]) == 0
    # a torus point of a model whose operators have norm 1 still takes the
    # exact condition number, one per variable
    model = quotient_model(build_space(2, 2, 1), monomial_symbol(2, (1, 1)))
    mt = model_tuple(model)
    g = build_charfn(mt, build_defects(mt, quotient_mask(model)))
    assert count_cond_calls(monkeypatch, lambda: g.eval(torus_grid(2, 4)[5])) == 2
