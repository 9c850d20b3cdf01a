"""Exception types shared across the toolkit.

All errors derive from :class:`PolydiscError` so callers can catch the
toolkit's failures without swallowing genuine bugs (TypeError etc.).
Gate errors carry the numerical witness that triggered them.
"""


def _restore(cls, args):
    err = cls.__new__(cls)
    err.args = args
    return err


class PolydiscError(Exception):
    """Base class for all toolkit errors.

    Pickles by its message and attributes rather than by calling the
    constructor again, so an error raised in a worker process reaches the
    caller with its type, message and witness intact.
    """

    def __reduce__(self):
        return _restore, (type(self), self.args), self.__dict__


class NotSquare(PolydiscError):
    """Raised when a square matrix is required."""


class NotHermitian(PolydiscError):
    """Raised when the Hermitian symmetry check fails."""


class NotPSD(PolydiscError):
    """Raised when a matrix is not positive semidefinite within the clamp.

    Carries the offending minimum eigenvalue as ``min_eig``.
    """

    def __init__(self, msg, min_eig):
        super().__init__(msg)
        self.min_eig = min_eig


class ShapeMismatch(PolydiscError):
    """Raised when matrix shapes are incompatible."""


class NotCommuting(PolydiscError):
    """Raised when a tuple fails the commutativity check.

    Carries the failing pair ``(i, j)`` and the commutator norm ``residual``.
    """

    def __init__(self, i, j, residual):
        super().__init__(
            f"matrices {i} and {j} do not commute: ||[T_{i}, T_{j}]|| = {residual:.3e}"
        )
        self.pair = (i, j)
        self.residual = residual


class NotContraction(PolydiscError):
    """Raised when a matrix exceeds norm 1 beyond tolerance.

    Carries the offending index and norm.
    """

    def __init__(self, index, norm):
        super().__init__(f"matrix {index} has norm {norm:.6f} > 1")
        self.index = index
        self.norm = norm


class NotSzego(NotPSD):
    """Raised when the Szego inverse fails positivity within the clamp."""


class NotPure(PolydiscError):
    """Raised when a tuple with spectral radius below 1 is required."""


class NearSingularGram(PolydiscError):
    """Raised when a kernel Gram matrix is too ill-conditioned to factor."""


class BadIndex(PolydiscError):
    """Raised for out-of-range or conflicting operator indices."""


class DimensionOverflow(PolydiscError):
    """Raised when a truncated space would exceed the configured size cap."""


class IncompatibleDims(PolydiscError):
    """Raised when symbol coefficient dimensions do not line up."""


class SymbolNotInner(PolydiscError):
    """Raised when a symbol fails the torus-grid inner-ness check.

    Carries the worst grid point and its residual.
    """

    def __init__(self, msg, worst_point=None, residual=None):
        super().__init__(msg)
        self.worst_point = worst_point
        self.residual = residual


class SingularResolvent(PolydiscError):
    """Raised when a resolvent factor (I - w_k T_k^*) is numerically singular.

    Carries the variable index ``k`` and a condition estimate.
    """

    def __init__(self, k, cond):
        super().__init__(f"resolvent factor {k} is singular (cond ~ {cond:.3e})")
        self.k = k
        self.cond = cond


class NotBeurling(PolydiscError):
    """Raised when the characteristic-function gate rejects a tuple.

    Carries the minimum eigenvalue of the joint defect as ``min_eig``.
    """

    def __init__(self, msg, min_eig=None):
        super().__init__(msg)
        self.min_eig = min_eig


class NotUnitary(PolydiscError):
    """Raised when a matrix expected to be unitary is not."""


class ParseError(PolydiscError):
    """Raised for malformed or schema-violating input files."""
