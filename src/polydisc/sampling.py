"""Seeded generators for test tuples, nodes, and unitaries.

Every generator takes a ``numpy.random.Generator`` so callers control
reproducibility.  Commuting families are built exactly (conjugated
diagonals, polynomials in one nilpotent), never by iterative correction,
so commutators vanish to roundoff.
"""

from __future__ import annotations

import numpy as np

from .linalg import spec_norm


def random_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_pure_contraction(rng: np.random.Generator, dim: int, norm_max: float = 0.95) -> np.ndarray:
    """One matrix with operator norm (hence spectral radius) <= norm_max."""
    g = random_complex(rng, dim, dim)
    norm = spec_norm(g)
    if norm == 0.0:
        return g
    return g * (norm_max / norm)


def random_commuting_tuple(
    rng: np.random.Generator, n: int, dim: int, norm_max: float = 0.9
) -> list[np.ndarray]:
    """n exactly commuting contractions via conjugated diagonals.

    T_i = A D_i A^{-1} for one well-conditioned A and random diagonal D_i,
    then a common rescale brings every norm to <= norm_max.  The common
    factor preserves exact commutation.
    """
    a = np.eye(dim) + 0.3 * random_complex(rng, dim, dim)
    a_inv = np.linalg.inv(a)
    mats = []
    for _ in range(n):
        d = np.diag(rng.uniform(0.1, 0.9, dim) * np.exp(2j * np.pi * rng.uniform(0, 1, dim)))
        mats.append(a @ d @ a_inv)
    top = max(spec_norm(m) for m in mats)
    if top > norm_max:
        scale = norm_max / top
        mats = [m * scale for m in mats]
    return mats


def random_nilpotent_pair(rng: np.random.Generator, dim: int) -> list[np.ndarray]:
    """Two exactly commuting nilpotents: independent polynomials in one N,
    scaled so that the larger norm is 0.9."""
    strict = np.triu(random_complex(rng, dim, dim), k=1)
    nil2 = strict @ strict
    mats = []
    for _ in range(2):
        c1, c2 = random_complex(rng, 2, 1)[:, 0]
        mats.append(c1 * strict + c2 * nil2)
    top = max(max(spec_norm(m) for m in mats), 1e-14)
    return [m * (0.9 / top) for m in mats]


# Worst Gram condition number of a node set: eigenvalue noise scales with it,
# and checks pinned at 1e-10 need it a few orders below the 1e12 gate.
NODE_MAX_COND = 1e6
NODE_MAX_TRIES = 1000  # node sets, and candidates per set, before giving up


def random_nodes(
    rng: np.random.Generator,
    m: int,
    n: int,
    modulus_max: float = 0.35,
    min_sep: float = 0.1,
) -> np.ndarray:
    """m pairwise separated nodes in the n-polydisc, coordinates in a disc.

    Rejection sampling keeps every pair at Euclidean distance >= min_sep,
    and redraws a whole node set whose Szego kernel Gram matrix has
    condition number over NODE_MAX_COND.
    """
    from .tuples import szego_kernel_gram

    for _ in range(NODE_MAX_TRIES):
        nodes: list[np.ndarray] = []
        tries_left = NODE_MAX_TRIES
        while len(nodes) < m and tries_left > 0:
            tries_left -= 1
            radius = modulus_max * np.sqrt(rng.uniform(0, 1, n))
            angle = 2j * np.pi * rng.uniform(0, 1, n)
            cand = radius * np.exp(angle)
            if all(np.linalg.norm(cand - prev) >= min_sep for prev in nodes):
                nodes.append(cand)
        if len(nodes) < m:
            continue
        out = np.array(nodes)
        if np.linalg.cond(szego_kernel_gram(out)) <= NODE_MAX_COND:
            return out
    raise RuntimeError(f"could not place {m} nodes with separation {min_sep} in {NODE_MAX_TRIES} tries")


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary: QR of a Gaussian with the R diagonal phase folded in."""
    q, r = np.linalg.qr(random_complex(rng, dim, dim))
    d = np.diagonal(r)
    return q * (d / np.abs(d))
