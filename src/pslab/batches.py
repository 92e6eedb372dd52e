"""Ragged ranges and sorted runs, a bounded number of entries at a time.

The equal-sum count and the join of ``pslab.diophantine`` build and tally
their value windows with these, so that no step allocates an array longer
than the ``size`` it passes.
"""

from __future__ import annotations

import numpy as np


def ragged(start, run, size: int):
    """Yield (at, t, cut, index) over the ranges [start[i], start[i] +
    run[i]) in turn, ``size`` entries at a time: the batch's slice ``at``
    of all entries, the ranges ``t`` (a slice) it meets, their lengths
    ``cut`` in it and its entries, built by one ``repeat``."""
    ends = np.cumsum(run)
    begin = ends - run
    shift = start - begin
    total = int(ends[-1]) if len(ends) else 0
    for k0 in range(0, total, size):
        k1 = min(k0 + size, total)
        t = slice(ends.searchsorted(k0, "right"), begin.searchsorted(k1))
        cut = np.minimum(ends[t], k1)
        cut -= np.maximum(begin[t], k0)
        index = shift[t].repeat(cut)
        index += np.arange(k0, k1)
        yield slice(k0, k1), t, cut, index


def squared_runs(sums, size: int) -> int:
    """Sum of the squared run lengths of a sorted array, read in blocks of
    ``size``; the start of the open run carries across block edges."""
    total, start = 0, 0
    for k0 in range(0, len(sums) - 1, size):
        block = sums[k0:k0 + size + 1]
        edges = (block[1:] != block[:-1]).nonzero()[0]
        if len(edges):
            edges += k0 + 1
            runs = edges[1:] - edges[:-1]
            total += int(runs @ runs) + (int(edges[0]) - start) ** 2
            start = int(edges[-1])
    return total + (len(sums) - start) ** 2


def run_hits(table, keys, size: int) -> int:
    """Sum over ``keys`` of each key's run length in the sorted ``table``,
    ``size`` keys at a time."""
    return sum(int(np.sum(np.searchsorted(table, block, side="right")
                          - np.searchsorted(table, block)))
               for block in np.split(keys, range(size, len(keys), size)))
