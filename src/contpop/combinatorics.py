"""Exact combinatorics for factorial-moment bookkeeping.

Stirling numbers of the second kind S(n, l) convert between factorial and raw
moments of counts: N^n = sum_l l! S(n, l) binom(N, l).  The Touchard
polynomial T_n(kappa) = sum_l S(n, l) kappa^l is the n-th raw moment of a
Poisson(kappa) count.  Everything here is exact integer (or Fraction-free
float-in, float-out polynomial) arithmetic.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterator, Sequence

__all__ = [
    "StirlingTable",
    "stirling",
    "touchard",
    "subsets",
]

# Enumerating all 2^n subsets is exponential; cap the configuration order.
MAX_SUBSET_ORDER = 20


class StirlingTable:
    """Triangle of Stirling numbers of the second kind, exact integers.

    Built with the recurrence S(n, l) = l S(n-1, l) + S(n-1, l-1),
    S(0, 0) = 1, S(n, 0) = 0 for n >= 1.
    """

    def __init__(self, n_max: int = 64):
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        self.n_max = n_max
        rows: list[list[int]] = [[1]]
        for n in range(1, n_max + 1):
            prev = rows[-1]
            row = [0] * (n + 1)
            for l in range(1, n + 1):
                above = prev[l] if l < len(prev) else 0
                row[l] = l * above + prev[l - 1]
            rows.append(row)
        self._rows = rows

    def stirling(self, n: int, l: int) -> int:
        if n < 0 or l < 0:
            raise ValueError("indices must be nonnegative")
        if n > self.n_max:
            raise ValueError(f"n={n} exceeds table size {self.n_max}")
        if l > n:
            return 0
        return self._rows[n][l]

    def touchard(self, n: int, kappa: float) -> float:
        """T_n(kappa) = sum_{l=1..n} S(n, l) kappa^l; T_0 = 1."""
        if n == 0:
            return 1.0
        row = self._rows[n] if n <= self.n_max else None
        if row is None:
            raise ValueError(f"n={n} exceeds table size {self.n_max}")
        # left to right: from Python 3.12 the builtin sum compensates
        total = 0
        for l in range(1, n + 1):
            total += row[l] * kappa**l
        return float(total)


_DEFAULT_TABLE = StirlingTable(64)


def stirling(n: int, l: int) -> int:
    """S(n, l) from a shared table covering n <= 64."""
    return _DEFAULT_TABLE.stirling(n, l)


def touchard(n: int, kappa: float) -> float:
    """n-th raw moment of a Poisson(kappa) count."""
    return _DEFAULT_TABLE.touchard(n, kappa)


def subsets(eta: Sequence) -> Iterator[tuple[tuple, tuple]]:
    """Yield every split of eta into (subset, complement), 2^|eta| pairs.

    Elements are treated as distinct by index, so coincident points are
    separate particles.  Orders above MAX_SUBSET_ORDER are refused.
    """
    items = tuple(eta)
    n = len(items)
    if n > MAX_SUBSET_ORDER:
        raise ValueError(f"configuration order {n} exceeds {MAX_SUBSET_ORDER}")
    indices = range(n)
    for k in range(n + 1):
        for chosen in combinations(indices, k):
            rest = tuple(i for i in indices if i not in chosen)
            yield (tuple(items[i] for i in chosen),
                   tuple(items[i] for i in rest))


def binomial(n: int, l: int) -> int:
    """binom(n, l) for integer n >= 0, zero when l > n."""
    if l < 0 or l > n:
        return 0
    return math.comb(n, l)
