"""Exact combinatorics: the Stirling numbers of `estimators`, Touchard
polynomials as sums of them, and the subset enumerator of `surgailis`."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contpop import stirling, subsets


def touchard(n, kappa):
    """T_n(kappa) = sum_l S(n, l) kappa^l, the n-th raw moment of a
    Poisson(kappa) count."""
    return sum(stirling(n, l) * kappa**l for l in range(n + 1))


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
    # the module's one triangle covers 0 <= n <= 64
    assert stirling(6, 3) == 90
    assert stirling(3, 5) == 0
    assert stirling(64, 64) == 1
    for n, l in ((65, 2), (-1, 0), (3, -1)):
        with pytest.raises(ValueError):
            stirling(n, l)


@settings(max_examples=60, deadline=None)
@given(N=st.integers(0, 12), n=st.integers(1, 8))
def test_raw_count_power_identity(N, n):
    # N^n = sum_l l! S(n,l) binom(N,l), the factorial-moment conversion
    total = sum(math.factorial(l) * stirling(n, l) * math.comb(N, l)
                for l in range(1, n + 1))
    assert total == N**n


def test_touchard_small_values():
    assert touchard(0, 3.7) == 1.0
    assert touchard(3, 1.0) == pytest.approx(5.0)   # Bell number B_3
    assert touchard(2, 2.0) == pytest.approx(6.0)   # 2 + 4
    assert touchard(4, 1.0) == pytest.approx(15.0)  # B_4


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
