"""Numerical models of commuting contraction tuples on the polydisc."""

from .errors import PolydiscError
from .linalg import DEFAULT_TOL, Subspace

__all__ = ["DEFAULT_TOL", "PolydiscError", "Subspace"]

__version__ = "0.1.0"
