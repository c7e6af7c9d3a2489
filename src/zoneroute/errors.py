"""Error taxonomy shared by all modules.

DomainError: a caller violated a precondition (bad argument, bad config).
DataError:   an input file or dataset is malformed or inconsistent.
NumericError: a computation produced NaN/Inf or was otherwise numerically
              invalid.
"""


class DomainError(ValueError):
    pass


class DataError(ValueError):
    pass


class NumericError(ArithmeticError):
    pass


def json_int(value, what: str) -> int:
    """`value` if it is a JSON integer (an int, not a bool), else a TypeError naming `what`."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value
