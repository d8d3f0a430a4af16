"""The raising walk of the oracles' starting split takes only steps that
raise the worst bundle.

This sits apart from test_oracle.py, whose parameters run the walk when
the module is imported: a walk that never ends then fails this test
instead of hanging the collection of every oracle test.
"""

import mmsalloc.oracle as oracle
from mmsalloc import mms_exact


class _Untouched(list):
    """Loads that fail the test as soon as a step writes to them."""

    def __setitem__(self, index, value):
        raise AssertionError(f"a step set load {index} to {value}")


def test_no_step_that_leaves_the_worst_bundle_where_it_was():
    # Greedy splits [5, 5, 2] as {5, 2} | {5}, under U = 6, the target
    # mms_exact raises toward.  The only steps on offer swap the two equal
    # fives or move the 2, which trades the two loads; neither raises the
    # worst bundle, so a walk that took them would never end.
    values = [5, 5, 2]
    items = oracle._desc_items(values)
    assert oracle._upper_bound(items, sum(values), 2) == 6
    loads, bundles = oracle._lpt(items, 2)
    assert (loads, bundles) == ([7, 5], [[0, 2], [1]])
    oracle._raise_worst(values, _Untouched(loads), bundles, 6)
    assert bundles == [[0, 2], [1]]
    assert mms_exact(values, 2).value == 5
