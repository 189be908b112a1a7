"""The exception types survive pickling: a forked worker of ``optim._fork``
sends back the error that stopped it, pickled, and the caller raises it as
its own."""

import inspect
import pickle

import pytest

from vfmlab import errors

ERRORS = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
          if issubclass(cls, BaseException) and cls.__module__ == errors.__name__]


def _instances(cls) -> list:
    if cls is errors.DegenerateFeatureError:
        return [cls(3), cls(0, "feature 0 is constant")]
    return [cls("bad value 'x'")]


@pytest.mark.parametrize("cls", ERRORS, ids=lambda c: c.__name__)
def test_every_error_round_trips_through_pickle(cls):
    for e in _instances(cls):
        back = pickle.loads(pickle.dumps(e))
        assert type(back) is cls
        assert str(back) == str(e)
        assert back.args == e.args
        assert vars(back) == vars(e)


def test_the_errors_include_each_family():
    assert {errors.ConfigError, errors.DataError, errors.NumericError,
            errors.DegenerateFeatureError} <= set(ERRORS)
