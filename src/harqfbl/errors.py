"""Exception hierarchy shared across the toolkit, and the one argument rule.

check_arg(name, value, kind) is the only place that decides whether an
argument is valid.  kind is a class the value must be an instance of, or a
Domain: a type, a test and the phrase the error message uses.  A bool is
never a number, the type is checked before the test runs, every range test
is written so that NaN fails it (REAL alone lets NaN through), and no number
domain admits an integer beyond the largest float.  Every failure raises
DomainError "<name> must be <phrase>, got <value>".
"""

import math
import numbers
import sys
from collections.abc import Collection
from typing import Any, Callable, NamedTuple


class HarqFblError(Exception):
    """Base class for all toolkit errors."""


class DomainError(HarqFblError, ValueError):
    """An argument violates a documented precondition."""


class ConstructionError(HarqFblError):
    """A channel model cannot be built from the given parameters."""


class ResourceLimitError(HarqFblError):
    """A configured enumeration or memory budget would be exceeded."""


class ConfigError(HarqFblError):
    """A run configuration failed to parse or validate."""


class ValidationFailure(HarqFblError):
    """A requested consistency check did not hold."""


class Domain(NamedTuple):
    """The values that are instances of abc, never a bool, and pass test.  exact, the type most
    values have, is accepted without the ABC check, which costs several times more."""

    phrase: str
    test: Callable[[Any], bool]
    exact: type = float
    abc: type = numbers.Real


# every number domain bounds an integer or a fraction by the largest float, so that it converts to a float
_MAX = sys.float_info.max
REAL = Domain("a real number", lambda x: x != x or abs(x) <= _MAX or abs(x) == math.inf)  # NaN and infinities pass
FINITE = Domain("a finite real number", lambda x: -_MAX <= x <= _MAX)
SNR = Domain("a nonnegative real number", lambda x: 0.0 <= x <= _MAX or x == math.inf)  # inf: an error-free SNR
_DB_MAX = 3082.547155599167  # the largest float x for which 10.0 ** (x / 10.0) does not overflow
DB = Domain(f"a real number up to {_DB_MAX}, above which the linear power ratio overflows, or infinite",
            lambda x: x <= _DB_MAX or x == math.inf)
POSITIVE = Domain("a positive real number", lambda x: 0.0 < x <= _MAX or x == math.inf)
POSITIVE_FINITE = Domain("positive and finite", lambda x: 0.0 < x <= _MAX)
NONNEGATIVE_FINITE = Domain("nonnegative and finite", lambda x: 0.0 <= x <= _MAX)
PROBABILITY = Domain("a probability in [0, 1]", lambda x: 0.0 <= x <= 1.0)
COUNT = Domain("a positive integer", lambda n: n >= 1, int, numbers.Integral)
SEED = Domain("a nonnegative integer", lambda n: n >= 0, int, numbers.Integral)
SEQUENCE = Domain("a nonempty sequence (a tuple, list or array)",
                  lambda s: not isinstance(s, str) and getattr(s, "ndim", 1) > 0 and len(s) > 0, tuple, Collection)


def one_of(*choices: str) -> Domain:
    """The domain of a string option."""
    return Domain(f"one of {choices}", choices.__contains__, str, str)


def check_arg(name: str, value, kind):
    """value, if it lies in kind (a Domain, or a class it must be an instance of); else DomainError."""
    if type(kind) is Domain:
        if (type(value) is kind.exact or type(value) is not bool and isinstance(value, kind.abc)) and kind.test(value):
            return value
        raise DomainError(f"{name} must be {kind.phrase}, got {value!r:.80}")
    if isinstance(value, kind):
        return value
    raise DomainError(f"{name} must be an instance of {kind.__name__}, got {value!r:.80}")


def check_fields(obj, **kinds) -> None:
    """check_arg on each named field of obj."""
    for name, kind in kinds.items():
        check_arg(name, getattr(obj, name), kind)
