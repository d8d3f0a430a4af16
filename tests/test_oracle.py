"""Maximin share oracles: exact search, approximation scheme, bounds."""

import doctest
import random
from fractions import Fraction

import pytest

import mmsalloc.oracle as oracle
from helpers import exhaustive_mms
from mmsalloc import (
    EXACT_ITEM_CAP,
    InputError,
    Instance,
    greedy_floor,
    mms_approx,
    mms_exact,
    xi_vector,
)


def test_module_doctests():
    result = doctest.testmod(oracle)
    assert result.failed == 0


# Hand-checked shares, each verified against exhaustive_mms below as well.
KNOWN_SHARES = [
    ([5, 4, 3, 2, 1], 2, 7),
    ([9, 8, 7, 6, 5, 4], 3, 13),
    ([3, 3, 3], 3, 3),
    ([1, 1, 1, 1, 1, 1, 1], 3, 2),
    ([10, 1], 3, 0),
    ([4, 4, 4, 4], 2, 8),
    ([7, 1, 1, 1, 1, 1, 1, 1], 3, 3),
    ([], 2, 0),
    ([6], 1, 6),
    ([0, 0, 0], 2, 0),
]


@pytest.mark.parametrize("values,k,expected", KNOWN_SHARES)
def test_exact_known_values(values, k, expected):
    assert exhaustive_mms(values, k) == expected
    cert = mms_exact(values, k)
    assert cert.value == expected
    assert cert.mode == "exact"


def assert_witness_certifies(values, k, cert):
    assert len(cert.witness) == k
    seen = sorted(g for bundle in cert.witness for g in bundle)
    assert seen == list(range(len(values)))
    worst = min(sum(values[g] for g in bundle) for bundle in cert.witness)
    assert worst >= cert.value


def test_exact_witness_achieves_value():
    rng = random.Random(4)
    for _ in range(100):
        m = rng.randint(0, 9)
        k = rng.randint(1, 4)
        values = [rng.randint(0, 12) for _ in range(m)]
        cert = mms_exact(values, k)
        assert cert.value == exhaustive_mms(values, k)
        assert_witness_certifies(values, k, cert)
        worst = min(sum(values[g] for g in b) for b in cert.witness)
        assert worst == cert.value


def test_approx_bounds_and_witness():
    rng = random.Random(17)
    eps = Fraction(1, 10)
    for _ in range(100):
        m = rng.randint(0, 10)
        k = rng.randint(1, 4)
        values = [rng.randint(0, 20) for _ in range(m)]
        exact = mms_exact(values, k).value
        cert = mms_approx(values, k, eps)
        assert cert.mode == "ptas" and cert.eps == eps
        assert cert.value <= exact
        assert 10 * cert.value >= 9 * exact
        assert_witness_certifies(values, k, cert)


def test_approx_eps_validation():
    with pytest.raises(InputError):
        mms_approx([1, 2], 2, Fraction(0))
    with pytest.raises(InputError):
        mms_approx([1, 2], 2, Fraction(1))
    with pytest.raises(InputError):
        mms_approx([1, 2], 2, Fraction(-1, 5))


def test_exact_item_cap_enforced():
    values = [1] * (EXACT_ITEM_CAP + 1)
    with pytest.raises(InputError):
        mms_exact(values, 2)
    cert = mms_approx(values, 2, Fraction(1, 10))
    assert cert.value >= 9  # exact share is 11


def test_input_validation():
    with pytest.raises(InputError):
        mms_exact([1, -1], 2)
    with pytest.raises(InputError):
        mms_exact([1, 2], 0)
    with pytest.raises(InputError):
        mms_exact([1.5], 1)


def test_greedy_floor_is_sound_lower_bound():
    rng = random.Random(23)
    for _ in range(200):
        m = rng.randint(0, 10)
        k = rng.randint(1, 4)
        values = [rng.randint(0, 30) for _ in range(m)]
        assert greedy_floor(values, k) <= mms_exact(values, k).value


def test_greedy_floor_handles_large_inputs():
    rng = random.Random(29)
    values = [rng.randint(0, 10**6) for _ in range(5000)]
    floor = greedy_floor(values, 7)
    assert 0 <= floor * 7 <= sum(values)


def test_xi_vector_exact_matches_per_row_oracle():
    inst = Instance.from_rows([[5, 4, 3, 2, 1], [2, 2, 2, 2, 2], [9, 0, 0, 1, 8]])
    certs = xi_vector(inst, 3, mode="exact")
    assert [c.value for c in certs] == [
        mms_exact(inst.row(i), 3).value for i in inst.agents
    ]


def test_xi_vector_ptas_within_band():
    inst = Instance.from_rows([[5, 4, 3, 2, 1], [2, 2, 2, 2, 2]])
    eps = Fraction(1, 8)
    certs = xi_vector(inst, 2, eps=eps, mode="ptas")
    for i in inst.agents:
        exact = mms_exact(inst.row(i), 2).value
        assert certs[i].value <= exact
        assert certs[i].value >= (1 - eps) * exact


def test_xi_vector_reuses_identical_rows():
    rows = [[4, 3, 2, 1]] * 3
    certs = xi_vector(Instance.from_rows(rows), 3, mode="exact")
    assert certs[0].value == certs[1].value == certs[2].value


def _lpt_by_scan(items, k):
    """The greedy split as a linear scan for the lightest bundle per item,
    ties to the lowest index: the reference for the heap in oracle._lpt."""
    loads = [0] * k
    bundles = [[] for _ in range(k)]
    for v, j in items:
        b = min(range(k), key=lambda x: (loads[x], x))
        loads[b] += v
        bundles[b].append(j)
    return loads, bundles


def test_lpt_heap_matches_linear_scan():
    rng = random.Random(41)
    for k in range(1, 41):
        for _ in range(5):
            # Few distinct values, so loads tie often and the tie rule shows.
            m = rng.randint(0, 3 * k + 10)
            values = [rng.choice((0, 1, 1, 2, 3, 3, 5)) for _ in range(m)]
            items = oracle._desc_items(values)
            loads, bundles = _lpt_by_scan(items, k)
            assert oracle._lpt(items, k) == (loads, bundles)
            assert greedy_floor(values, k) == min(loads)
