import dataclasses
import json
import time

import numpy as np
import pytest

from polydisc.cli import main
from polydisc.dilation import (
    adjoint_powers,
    build_dilation,
    image_invariance_defect,
    intertwining_defect,
    isometry_defect,
    minimality_defect,
    model_equivalence_defect,
    select_degree,
)
from polydisc.errors import DimensionOverflow, NotPure, NotSzego
from polydisc.hardy import build_space
from polydisc.linalg import range_basis
from polydisc.sampling import random_commuting_tuple, random_nodes
from polydisc.tuples import CTuple, szego_tuple_from_nodes, tuple_to_json, validate

from .test_hardy import monomials
from .test_tuples import trunc_shift


def scalar_tuple(a):
    return validate([np.array([[a]], dtype=complex)])


def test_select_degree_rules():
    t = scalar_tuple(0.5)
    n_deg = select_degree(t)
    # rho^(N+1) * sqrt(1) * 1 <= 1e-10 and N minimal for that
    assert 0.5 ** (n_deg + 1) <= 1e-10 < 0.5**n_deg
    assert select_degree(scalar_tuple(0.99)) == 64  # cap
    nil = validate([np.array([[0.0, 1.0], [0.0, 0.0]])])
    assert select_degree(nil) == 2  # nilpotent: dim


@pytest.mark.parametrize("n, degree, dim", [(1, 12, 3), (2, 15, 3), (2, 9, 1), (3, 6, 4)])
def test_adjoint_powers_match_the_monomial_loop(n, degree, dim):
    t = validate(random_commuting_tuple(np.random.default_rng(n), n, dim))
    space = build_space(n, degree, 1)
    loop = np.empty((space.mono_count, dim, dim), dtype=complex)
    for a, k in enumerate(monomials(space)):
        first = next((i for i, ki in enumerate(k) if ki), None)
        if first is None:
            loop[a] = np.eye(dim)
        else:
            down = tuple(ki - (i == first) for i, ki in enumerate(k))
            loop[a] = t[first].conj().T @ loop[space.rank(down)]
    np.testing.assert_array_equal(adjoint_powers(t, space), loop)


def test_build_dilation_scalar_coefficients():
    a = 0.6
    d = build_dilation(scalar_tuple(a), degree=8)
    root = np.sqrt(1 - a**2)
    for k in range(9):
        np.testing.assert_allclose(d.pi[k, 0], root * a**k, atol=1e-14)
    assert d.tail_bound < 0.05
    assert range_basis(d.pi).dim == 1


def test_build_dilation_zero_shift_pair():
    m = 3
    t = validate([np.zeros((m + 1, m + 1)), trunc_shift(m + 1)])
    d = build_dilation(t)
    assert d.degree == m + 1  # auto rule for nilpotent tuples
    e0 = np.zeros(m + 1)
    e0[0] = 1.0
    # the full d x d block D_{T*} T^{*k} is the coefficient basis times the pi block
    blocks = d.coeff_basis.basis @ d.pi.reshape(d.space.mono_count, d.space.coeff_dim, m + 1)
    for k, block in zip(monomials(d.space), blocks):
        if k[0] == 0 and k[1] <= m:
            ek = np.zeros(m + 1)
            ek[k[1]] = 1.0
            np.testing.assert_allclose(block, np.outer(e0, ek), atol=1e-13)
        else:
            np.testing.assert_allclose(block, 0, atol=1e-13)
    assert d.tail_bound == 0.0


def test_build_dilation_gates():
    with pytest.raises(NotPure):
        build_dilation(validate([np.eye(1)]))
    j = np.array([[0.0, 0.9], [0.0, 0.0]])
    with pytest.raises(NotSzego):
        build_dilation(validate([j, j.copy()]))


def test_isometry_defect_scalar_exact():
    a = 0.7
    n_deg = 6
    d = build_dilation(scalar_tuple(a), degree=n_deg)
    assert isometry_defect(d) == pytest.approx(a ** (2 * (n_deg + 1)), rel=1e-10)
    assert isometry_defect(d) <= d.tail_bound + 1e-10


def test_nilpotent_pair_all_defects_tiny():
    # doubly commuting nilpotent pairs: scaled bishifts are always Szego,
    # unlike generic commuting nilpotent pairs (the Jordan pair fails)
    rng = np.random.default_rng(11)
    for _ in range(5):
        c1, c2 = 0.2 + 0.7 * rng.random(2)
        s = trunc_shift(3)
        eye = np.eye(3)
        t = validate([c1 * np.kron(s, eye), c2 * np.kron(eye, s)])
        d = build_dilation(t)
        assert d.tail_bound == 0.0
        assert isometry_defect(d) <= 1e-13
        assert intertwining_defect(d) <= 1e-13
        assert model_equivalence_defect(d) <= 1e-12
        assert minimality_defect(d) <= 1e-8


def test_trivial_zero_tuple():
    t = validate([np.zeros((1, 1)), np.zeros((1, 1))])
    d = build_dilation(t)
    assert isometry_defect(d) <= 1e-15
    assert intertwining_defect(d) <= 1e-15
    assert model_equivalence_defect(d) <= 1e-15


def test_scalar_minimality_and_model_equivalence():
    d = build_dilation(scalar_tuple(0.6), degree=20)
    assert minimality_defect(d) <= 1e-8
    assert model_equivalence_defect(d) <= d.tail_bound + 1e-10


def test_zero_shift_pair_minimality():
    t = validate([np.zeros((4, 4)), trunc_shift(4)])
    d = build_dilation(t)
    assert minimality_defect(d) <= 1e-8


def test_kernel_tuple_battery():
    rng = np.random.default_rng(23)
    for n in (1, 2):
        for _ in range(3):
            pts = random_nodes(rng, 3, n, modulus_max=0.2, min_sep=0.08)
            t = szego_tuple_from_nodes(pts)
            d = build_dilation(t)
            budget = d.tail_bound + 1e-10
            assert isometry_defect(d) <= budget
            assert intertwining_defect(d) <= budget
            assert minimality_defect(d) <= budget
            assert model_equivalence_defect(d) <= budget
            assert image_invariance_defect(d) <= 1e-8


def test_image_is_quotient_module():
    d = build_dilation(scalar_tuple(0.5))
    assert image_invariance_defect(d) <= 1e-10


def full_box_minimality(d):
    """Reference: the span of every shift z^k pi over the whole box, with
    rows outside the window zeroed, on the full D x (mono dim) matrix."""
    space, p, dim = d.space, d.space.coeff_dim, d.tuple.dim
    monos = monomials(space)
    ranks = {k: idx for idx, k in enumerate(monos)}
    blocks = d.pi.reshape(space.mono_count, p, dim)
    cols = np.zeros((space.dim, space.mono_count * dim), dtype=np.complex128)
    for b, k in enumerate(monos):
        for a, e in enumerate(monos):
            r = ranks.get(tuple(x + y for x, y in zip(e, k)))
            if r is not None:
                cols[r * p : (r + 1) * p, b * dim : (b + 1) * dim] = blocks[a]
    window = np.repeat([max(k) <= d.degree - 1 for k in monos], p)
    cols[~window] = 0.0
    span = range_basis(cols)
    targets = np.eye(space.dim, dtype=np.complex128)[:, window]
    resid = targets - span.basis @ span.basis.conj().T[:, window]
    return float(np.linalg.norm(resid, axis=0).max(initial=0.0))


def test_minimality_matches_full_box_span():
    rng = np.random.default_rng(5)
    tuples = [validate([np.diag([0.3, 0.5])])]  # coefficient rank p = 2
    for k in range(6):  # the c10 recipe
        nodes = random_nodes(rng, 2 + k % 3, 1 + k % 2, modulus_max=0.2, min_sep=0.08)
        tuples.append(szego_tuple_from_nodes(nodes))
    for t in tuples:
        d = build_dilation(t)
        assert abs(minimality_defect(d) - full_box_minimality(d)) <= 1e-13
    assert build_dilation(tuples[0]).space.coeff_dim == 2


def test_non_minimal_dilation_fails():
    # pi padded with a zero coefficient coordinate: still of the resolvent
    # form, but the new coordinate is orthogonal to every shifted column
    nodes = random_nodes(np.random.default_rng(3), 3, 2, modulus_max=0.2, min_sep=0.08)
    d = build_dilation(szego_tuple_from_nodes(nodes))
    space, p = d.space, d.space.coeff_dim
    padded = np.zeros((space.mono_count, p + 1, d.tuple.dim), dtype=np.complex128)
    padded[:, :p] = d.pi.reshape(space.mono_count, p, d.tuple.dim)
    wide = dataclasses.replace(d, space=build_space(space.n, space.N, p + 1), pi=padded.reshape(-1, d.tuple.dim))
    assert intertwining_defect(wide) <= 1e-13
    assert minimality_defect(wide) >= 0.5
    assert full_box_minimality(wide) >= 0.5
    assert minimality_defect(d) <= d.tail_bound + 1e-10


def write_tuple(tmp_path, t):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tuple_to_json(t)), encoding="utf-8")
    return str(path)


def test_oversized_dilation_refused_before_allocation(tmp_path):
    # one variable, 6 nodes, degree 999999: D = 10^6 passes the space cap, but
    # the ladder, coefficients and pi would take 10^6 * (2 * 6 + 1) * 6 * 16
    # bytes, 1.2 GB, over BYTE_BUDGET
    t = szego_tuple_from_nodes(np.array([[0.1], [0.3], [-0.5], [0.2j], [-0.4j], [0.6 + 0.1j]]))
    assert (t.n, t.dim) == (1, 6)
    with pytest.raises(DimensionOverflow):
        build_dilation(t, degree=999999)
    path = write_tuple(tmp_path, t)
    start = time.monotonic()
    assert main(["dilate", path, "--degree", "999999"]) == 2
    assert time.monotonic() - start < 1.0


def test_large_three_variable_dilation_finishes(tmp_path):
    # degree 48 in three variables, D = 49^3 = 117,649: within the budget
    nodes = np.array([[0.6, 0.2j, -0.1], [0.1, -0.5, 0.3j], [-0.3j, 0.25, 0.45]])
    t = szego_tuple_from_nodes(nodes)
    assert select_degree(t) == 48
    out = tmp_path / "report.json"
    assert main(["dilate", write_tuple(tmp_path, t), "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))["dilation_defects"]
    assert report["space_dim"] == 49**3
    for name in ("isometry", "intertwining", "minimality", "model_equivalence", "image_invariance"):
        assert report[name] <= report["tail_bound"] + 1e-10
