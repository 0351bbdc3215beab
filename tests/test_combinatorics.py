"""Exact combinatorics: Stirling numbers, Touchard polynomials, subset sums."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contpop import (
    StirlingTable,
    binomial,
    stirling,
    subsets,
    touchard,
)


def partitions_into(items, blocks):
    """Enumerate set partitions of `items` into exactly `blocks` groups."""
    if blocks == 0:
        if not items:
            yield []
        return
    if len(items) < blocks:
        return
    first, rest = items[0], items[1:]
    # first opens a new block
    for part in partitions_into(rest, blocks - 1):
        yield [[first]] + part
    # or joins an existing one
    for part in partitions_into(rest, blocks):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def test_stirling_base_cases():
    for n in range(1, 13):
        assert stirling(n, 1) == 1
        assert stirling(n, n) == 1
        assert stirling(n, 0) == 0
    assert stirling(0, 0) == 1
    assert stirling(4, 2) == 7
    assert stirling(5, 3) == 25


def test_stirling_recurrence():
    for n in range(2, 13):
        for l in range(1, n + 1):
            assert stirling(n, l) == l * stirling(n - 1, l) + stirling(n - 1, l - 1)


def test_stirling_matches_partition_enumeration():
    for n in range(1, 11):
        items = list(range(n))
        for l in range(1, n + 1):
            count = sum(1 for _ in partitions_into(items, l))
            assert stirling(n, l) == count, (n, l)


def test_stirling_alternating_sum_formula():
    # l! S(n,l) = sum_s (-1)^(l-s) binom(l,s) s^n, exact integers
    for n in range(0, 13):
        for l in range(0, n + 1):
            acc = sum((-1) ** (l - s) * math.comb(l, s) * s**n
                      for s in range(l + 1))
            assert math.factorial(l) * stirling(n, l) == acc


def test_stirling_table_bounds():
    table = StirlingTable(6)
    assert table.stirling(6, 3) == 90
    assert table.stirling(3, 5) == 0
    with pytest.raises(ValueError):
        table.stirling(7, 2)
    with pytest.raises(ValueError):
        table.stirling(-1, 0)
    with pytest.raises(ValueError):
        StirlingTable(-2)


@settings(max_examples=60, deadline=None)
@given(N=st.integers(0, 12), n=st.integers(1, 8))
def test_raw_count_power_identity(N, n):
    # N^n = sum_l l! S(n,l) binom(N,l), the factorial-moment conversion
    total = sum(math.factorial(l) * stirling(n, l) * binomial(N, l)
                for l in range(1, n + 1))
    assert total == N**n


def test_touchard_small_values():
    assert touchard(0, 3.7) == 1.0
    assert touchard(3, 1.0) == pytest.approx(5.0)   # Bell number B_3
    assert touchard(2, 2.0) == pytest.approx(6.0)   # 2 + 4
    assert touchard(4, 1.0) == pytest.approx(15.0)  # B_4


def test_touchard_adds_left_to_right():
    # S(8, l) 0.1^l for l = 1..8 added left to right, not compensated as
    # the builtin sum adds floats from Python 3.12
    terms = [stirling(8, l) * 0.1**l for l in range(1, 9)]
    left = 0.0
    for term in terms:
        left += term
    assert left != math.fsum(terms)
    assert touchard(8, 0.1) == left


def test_touchard_is_poisson_raw_moment():
    # compare against the direct sum of the Poisson pmf (iterated weights)
    kappa, n = 1.7, 5
    direct, pmf = 0.0, math.exp(-kappa)
    for k in range(80):
        direct += k**n * pmf
        pmf *= kappa / (k + 1)
    assert touchard(n, kappa) == pytest.approx(direct, rel=1e-12)


def test_touchard_monotone_in_kappa():
    grid = [0.0, 0.3, 1.0, 2.5, 7.0]
    for n in range(1, 9):
        vals = [touchard(n, k) for k in grid]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_falling_factorial_and_binomial():
    for n in range(0, 10):
        for l in range(0, 12):
            assert binomial(n, l) == (math.comb(n, l) if l <= n else 0)
    assert binomial(5, -1) == 0


def test_subsets_enumerates_all_splits():
    eta = ("a", "b", "c")
    seen = set()
    for sub, rest in subsets(eta):
        assert tuple(sorted(sub + rest)) == ("a", "b", "c")
        seen.add(sub)
    assert len(seen) == 8


def test_subsets_treats_duplicates_as_distinct():
    pairs = list(subsets((1.0, 1.0)))
    assert len(pairs) == 4


def test_subsets_order_cap():
    with pytest.raises(ValueError, match="order"):
        next(subsets(tuple(range(21))))
