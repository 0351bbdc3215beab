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
    "stirling",
    "touchard",
    "subsets",
]

# Enumerating all 2^n subsets is exponential; cap the configuration order.
MAX_SUBSET_ORDER = 20


def _stirling_rows(n_max: int) -> list[list[int]]:
    """Rows 0..n_max of the triangle, by S(n, l) = l S(n-1, l) + S(n-1, l-1)
    with S(0, 0) = 1 and S(n, 0) = 0 for n >= 1."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [l * prev[l] + prev[l - 1] for l in range(1, n + 1)])
    return rows


# the Stirling triangle for n <= 64, exact integers
_STIRLING = _stirling_rows(64)


def _stirling_row(n: int) -> list[int]:
    if not 0 <= n < len(_STIRLING):
        raise ValueError(f"n={n} is outside the table's "
                         f"0..{len(_STIRLING) - 1}")
    return _STIRLING[n]


def stirling(n: int, l: int) -> int:
    """S(n, l) for 0 <= n <= 64; zero when l > n."""
    if l < 0:
        raise ValueError("indices must be nonnegative")
    row = _stirling_row(n)
    return row[l] if l <= n else 0


def touchard(n: int, kappa: float) -> float:
    """n-th raw moment of a Poisson(kappa) count:
    T_n(kappa) = sum_{l=1..n} S(n, l) kappa^l, T_0 = 1, for 0 <= n <= 64."""
    row = _stirling_row(n)
    # left to right: from Python 3.12 the builtin sum compensates
    total = row[0]   # S(n, 0): 1 for n = 0, else 0
    for l in range(1, n + 1):
        total += row[l] * kappa**l
    return float(total)


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
