"""Work accounting: the coefficient-monomial products the kernels make.

The one product kernel (fglcalc.ring._multiply), which polynomial and
series products, substitution and the formal inverse all run, adds each
row's product count to meter.products: one site, one addition per row and
never one per product.  A square counts each unordered pair of terms once.
A substitution whose first image is a bare variable
moves terms instead of multiplying them, and that move counts nothing.  Inside meter.budget(n) a row that would take the
count more than n products past where the block began raises
ValidationError before it runs, so a computation stops within one row of
its budget.  Outside a budget block the count only grows; the library sets
no budget of its own (fglcalc.ring.log_backend gives the cost that leaves
unbounded), and the command line interface sets fglcalc.cli.MAX_WORK.
"""

from __future__ import annotations

from contextlib import contextmanager

from .errors import ValidationError

UNLIMITED = 1 << 62  # the allowance outside a budget block; never reached


class WorkMeter:
    """The running product count, and the budget in force, if any."""

    __slots__ = ("products", "_limit", "_budget")

    def __init__(self):
        self.products = 0
        self._limit = None   # the count at which the budget runs out
        self._budget = None  # its size, for the message

    def allowance(self) -> int:
        """How many more products a kernel may make before the budget runs out."""
        if self._limit is None:
            return UNLIMITED
        return self._limit - self.products

    def exceeded(self):
        raise ValidationError(
            f"the computation needs more than the work budget of {self._budget} "
            "coefficient-monomial products"
        )

    @contextmanager
    def budget(self, products: int):
        """Allow at most `products` further products inside the block."""
        saved = self._limit, self._budget
        self._limit, self._budget = self.products + products, products
        try:
            yield
        finally:
            self._limit, self._budget = saved


meter = WorkMeter()
