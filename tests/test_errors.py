import pickle

import pytest

from ccsl import errors

# constructor arguments where the class takes more than a message
ARGS = {
    errors.ParseError: (3, 7, "unexpected '='"),
    errors.ValidationError: ("geometry.radius", "must be > 0"),
    errors.QuadratureNotConverged: ("budget exhausted", 1.5e-6, 1e-8),
}


def all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


@pytest.mark.parametrize("cls", sorted(set(all_subclasses(errors.CcslError)),
                                       key=lambda c: c.__name__))
def test_every_error_survives_pickling(cls):
    # like a built-in exception, every ccsl error pickles with its fields
    err = cls(*ARGS.get(cls, ("a message",)))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert vars(back) == vars(err)


def test_known_subclasses_are_covered():
    names = {c.__name__ for c in all_subclasses(errors.CcslError)}
    assert {"ParseError", "ValidationError", "QuadratureNotConverged"} <= names
