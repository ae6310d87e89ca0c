"""Exception types and config value rules shared across the package."""

import numbers


class FiltergenError(Exception):
    """Base class for all filtergen errors."""


class InputError(FiltergenError, ValueError):
    """Invalid argument, malformed file, or violated precondition."""


class ConfigError(FiltergenError, ValueError):
    """Experiment configuration failed validation.

    Carries the full list of problems so a user can fix them in one pass.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class BudgetError(FiltergenError, RuntimeError):
    """Rejection-sampling attempt budget exhausted.

    ``partial`` holds whatever was accepted before giving up and ``stats``
    the attempt statistics, so callers can inspect or salvage the run.
    """

    def __init__(self, message, partial=None, stats=None):
        super().__init__(message)
        self.partial = partial
        self.stats = stats


class DegenerateError(FiltergenError, ArithmeticError):
    """A distribution collapsed to zero mass and cannot be normalized."""


# Value rules for the fields of the config dataclasses. A rule is a pair
# ``(test, wanted)``: ``test(value)`` is true for a good value and
# ``wanted`` says what a good value is.


def integer(low: int | None = None, optional: bool = False):
    """Rule for an integer, >= ``low`` if given; ``optional`` also allows None."""
    def test(value):
        return (optional and value is None) or (
            isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and (low is None or value >= low))
    wanted = "an integer" if low is None else f"an integer >= {low}"
    return test, f"null or {wanted}" if optional else wanted


def number(interval: str):
    """Rule for a real number in an interval written like ``"[0, 1)"``."""
    low, high = (float(end) for end in interval[1:-1].split(","))

    def test(value):
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and (low <= value if interval[0] == "[" else low < value)
                and (value <= high if interval[-1] == "]" else value < high))
    return test, f"a number in {interval}"


def check_fields(cfg, **rules) -> None:
    """Raise one InputError naming every field of ``cfg`` that breaks its rule."""
    bad = [f"{name} must be {wanted}, got {getattr(cfg, name)!r}"
           for name, (test, wanted) in rules.items() if not test(getattr(cfg, name))]
    if bad:
        raise InputError("; ".join(bad))
