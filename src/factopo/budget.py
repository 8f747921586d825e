"""Step budget guarding every exhaustive scan.

A request runs on one budget, which all the work it causes charges: inside
the package ``budget`` is a required argument, and only the public entry
points make one, through ``ensure_budget``, when they are given none.
"""

from .errors import EnumerationBudgetExceeded

DEFAULT_STEPS = 10_000_000


class Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit=None):
        self.limit = DEFAULT_STEPS if limit is None else limit
        self.used = 0

    def spend(self, steps=1):
        self.used += steps
        if self.used > self.limit:
            raise EnumerationBudgetExceeded(
                "enumeration budget of %d steps exceeded" % self.limit)

    def cap(self, exponent):
        """The exponent, at most the limit's bit length: a charge of 2**cap
        steps or more is refused as surely, without a huge int first."""
        return min(exponent, self.limit.bit_length())

    def __repr__(self):
        return "Budget(used=%d, limit=%d)" % (self.used, self.limit)


def ensure_budget(budget):
    return budget if budget is not None else Budget()
