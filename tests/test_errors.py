"""Every toolkit error survives pickling, as it must to leave a worker process."""

import pickle

import pytest

from polydisc import errors
from polydisc.errors import (
    NotBeurling,
    NotCommuting,
    NotContraction,
    NotPSD,
    NotSzego,
    PolydiscError,
    SingularResolvent,
    SymbolNotInner,
)

# Constructor arguments of the errors that take more than a message.
ARGS = {
    NotPSD: ("not PSD", -0.5),
    NotSzego: ("not Szego", -0.25),
    NotCommuting: (0, 1, 2.5e-3),
    NotContraction: (0, 1.5),
    SymbolNotInner: ("not inner", (1.0, -1.0), 0.5),
    SingularResolvent: (1, 3.5e13),
    NotBeurling: ("not Beurling", -0.125),
}
ERRORS = sorted(
    (c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, PolydiscError)),
    key=lambda c: c.__name__,
)


@pytest.mark.parametrize("cls", ERRORS, ids=lambda c: c.__name__)
def test_pickle_round_trip(cls):
    err = cls(*ARGS.get(cls, ("bad input",)))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert back.args == err.args
    assert vars(back) == vars(err)

