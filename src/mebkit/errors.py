"""Exception types shared across the toolkit, its one work budget and its one work meter."""

import math

WORK_BUDGET = 1e9  # scalar operations; badoiu_clarkson runs about 1.1e8 a second
STEP_OPS = 4_000   # price of one interpreter-level step: a batched tester round takes 1-20 us


class DegenerateInputError(ValueError):
    """Points are affinely dependent where independence is required.

    Carries the indices of the offending subset so callers can report or
    retry with a reduced set.
    """

    def __init__(self, indices, message=None):
        self.indices = list(int(i) for i in indices)
        super().__init__(message or f"affinely dependent points at indices {self.indices}")


class GuardError(RuntimeError):
    """Work refused up front: an estimate over ``WORK_BUDGET``, or a size no estimate bounds."""


def check_work(ops, what: str, hint: str) -> None:
    """Raise ``GuardError`` unless the estimate ``ops`` is at most ``WORK_BUDGET`` (NaN too)."""
    if not ops <= WORK_BUDGET:  # log10 takes ints past float range
        raise GuardError(f"{what}: about 10^{math.log10(ops):.1f} scalar operations, over the "
                         f"budget of {WORK_BUDGET:.3g}; {hint}")


def meter():
    """One call's work meter: ``charge(ops, what, hint)`` adds ``ops`` to the
    call's running total and refuses through ``check_work`` once the total
    passes ``WORK_BUDGET``, for work that no usable bound prices up front."""
    total = 0

    def charge(ops, what: str, hint: str) -> None:
        nonlocal total
        total += ops
        if total > WORK_BUDGET:
            check_work(total, what, hint)

    return charge


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance within its budget."""

    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap


class IterationLimitError(RuntimeError):
    """An iteration cap was hit.  No routine of the package raises it; callers may still catch it."""


class ParseError(ValueError):
    """An input file could not be parsed; ``line`` is the offending line."""

    def __init__(self, line, message):
        self.line = int(line)
        super().__init__(f"line {line}: {message}")
