"""Residue classes mod a small modulus q: the filter of the meet-in-the-middle
kernels of ``pslab.diophantine``.

Two sums can be equal only if they agree mod q, so a sum of one side whose
residue no sum of the other side reaches matches nothing, and the equal-sum
count skips it on either side, the join on its table's side, without
changing any count.  ``modulus`` picks q and the residues each side reaches
from the classes of the powers mod q and their sizes, never from the sums;
``class_runs`` groups one side of the count by class, and ``class_order``
groups the last values of the join's table by class, so that only the table
sums that reach are formed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

MODULUS_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)  # may divide q
CLASS_SHARE = 16  # least mean class size mod q; q <= CLASS_SHARE * len(pows)


def residue(values: np.ndarray, q: int) -> np.ndarray:
    """values mod q (q > 0), in [0, q): by floor division, v - v // q * q,
    for int64 arrays (numpy's int64 ``%`` is several times slower) and by
    ``%`` for object arrays of Python ints.  Floor division rounds down,
    so negative values land in [0, q) as with ``%``; v // q * q may wrap
    past int64 only where v lies within q of -2^63, and the wrap cancels
    in the subtraction."""
    if values.dtype == object:
        return values % q
    return values - values // q * q


def class_sizes(values: np.ndarray, q: int) -> np.ndarray:
    """How many ``values`` lie in each residue class r < q (float64)."""
    classes = np.asarray(residue(values, q), dtype=np.int64)
    return np.bincount(classes, minlength=q).astype(np.float64)


def residue_counts(sizes: np.ndarray,
                   form: Sequence[int]) -> List[np.ndarray]:
    """Index tuples whose sum over form[:j] is r mod q, for each r < q and
    j <= len(form), from the ``class_sizes`` of pows mod q, never from the
    sums: each coordinate adds every class to every residue reached so
    far, one weighted ``bincount`` per coordinate.  float64 counts, exact
    below 2^53 and positive where reached.
    """
    q = len(sizes)
    classes = np.flatnonzero(sizes)
    counts = [np.zeros(q)]
    counts[0][0] = 1
    for c in form:
        at = np.flatnonzero(counts[-1])
        sums = (at[:, None] + c * classes) % q
        weights = counts[-1][at, None] * sizes[classes]
        counts.append(np.bincount(sums.ravel(), weights.ravel(),
                                  minlength=q))
    return counts


def modulus(pows: np.ndarray, forms, room,
            runs: int) -> Tuple[int, List[np.ndarray]]:
    """(q, residue counts of each form's sums mod q).

    q is the product of the MODULUS_PRIMES p that prune, in increasing
    order: p prunes when the forms' sums reach different residues mod p,
    so that some sums of one form can match no sum of the other.  It stops
    at the first p that would take q past ``room`` or past CLASS_SHARE *
    len(pows) (the residue arrays have q entries) or leave fewer than
    CLASS_SHARE elements per class of pows mod q on average, and before
    the first pruning p that would give the count more than ``runs``
    (prefix, class) runs (``run_count``).  Forms equal up to order reach
    the same residues for every q: q = 1.  The counts are the last of
    ``residue_counts``.

    Roth (1, -2, 1) at d = 2 over the greedy avoider sets, with the runs
    that the equal-sum count allows: q = 15 with 116 primes (x = 10^3),
    1155 with 756 (10^4), 15015 with 9,796 (2*10^5) and 1155 with 40,069
    (10^6, where 15015 would give 375,296 runs).
    """
    q, limit, counts = 1, min(room, CLASS_SHARE * len(pows)), None
    same = len({tuple(sorted(form)) for form in forms}) == 1
    for p in () if same else MODULUS_PRIMES:
        if q * p > limit:
            break
        sizes = class_sizes(pows, q * p)
        if CLASS_SHARE * np.count_nonzero(sizes) > len(pows):
            break
        wider = [residue_counts(sizes, form) for form in forms]
        # the residues mod p that each form reaches
        reach = [distinct(np.flatnonzero(w[-1]) % p, p) for w in wider]
        if all(np.array_equal(r, reach[0]) for r in reach):
            continue
        # a prefix has at most one run per class
        most = sum(len(pows) ** (len(form) - 1) for form in forms)
        if most * np.count_nonzero(sizes) > runs and \
                run_count(sizes, forms, wider) > runs:
            break
        q, counts = q * p, [w[-1] for w in wider]
    # mod 1 every tuple has residue 0
    return q, counts or [np.full(1, float(len(pows)) ** len(form))
                         for form in forms]


def run_count(sizes: np.ndarray, forms, counts) -> float:
    """The (prefix, class) runs that ``class_runs`` gives all forms mod q
    = len(sizes), from the class sizes of pows and the ``residue_counts``
    of the forms, never from the sums."""
    q = len(sizes)
    target = np.logical_and.reduce([count[-1] > 0 for count in counts])
    twice = np.concatenate([target, target])
    runs = 0.0
    for form, count in zip(forms, counts):
        pre = count[-2]
        at = np.flatnonzero(pre)
        last = distinct(form[-1] * np.flatnonzero(sizes) % q, q)
        runs += pre[at] @ twice[at[:, None] + last].sum(axis=1)
    return runs


def distinct(residues: np.ndarray, q: int) -> np.ndarray:
    """The distinct values of an array of residues r < q, ascending."""
    present = np.zeros(q, dtype=bool)
    present[residues] = True
    return np.flatnonzero(present)


def class_runs(pre: np.ndarray, last: np.ndarray, q: int,
               target: np.ndarray, stride: int,
               size: Optional[int] = None):
    """(keys, base): one side of the equal-sum count, by class mod q.

    ``keys`` are the composite class * stride + v of the last values v,
    sorted.  There is one run per prefix t and class k whose sums t + v
    reach a residue in ``target``, ordered by class, then by prefix index
    descending, and ``base`` holds k * stride - t for each: a window [lo,
    top] holds the run's keys from base + lo to base + top, and a key
    minus base is its sum t + v.  The prefixes' residues are taken once,
    and not at all when ``target`` holds every residue.  The runs of a
    block of classes come from one ``flatnonzero`` over its (class,
    prefix) pairs, whose row-major order is the runs' order; a block holds
    at most ``size`` pairs, but at least one class (all classes at once
    when ``size`` is None).
    """
    residues = np.asarray(residue(last, q), dtype=np.int64)
    classes = distinct(residues, q)
    offsets = np.zeros(q, dtype=last.dtype)
    offsets[classes] = [k * stride for k in classes.tolist()]
    keys = last + offsets[residues]
    keys.sort()
    pre = pre[::-1]
    every = target.all()
    if not every:
        residues = np.asarray(residue(pre, q), dtype=np.int64)
        # t + k reaches a residue in target iff twice[(t mod q) + k]
        twice = np.concatenate([target, target])
    n = len(pre)
    step = len(classes) if size is None else max(1, size // n)
    base = []
    for k0 in range(0, len(classes), step):
        block = classes[k0:k0 + step]
        if every:
            base.append((offsets[block, None] - pre).ravel())
            continue
        # the flat (class, prefix) indices ascend: one run per class
        at = np.flatnonzero(twice[residues + block[:, None]])
        runs = np.diff(np.searchsorted(at, np.arange(len(block) + 1) * n))
        at -= np.repeat(np.arange(len(block)) * n, runs)
        base.append(np.repeat(offsets[block], runs) - pre[at])
    return keys, np.concatenate(base)


def class_order(values: np.ndarray, q: int) -> Tuple[np.ndarray, np.ndarray]:
    """(classes, keys): the distinct residues of ``values`` mod q,
    ascending, and the composite keys r * n + i of the indices i < n =
    len(values), r the residue of values[i], sorted.  The keys list the
    indices class by class, each class's in increasing order, so class r's
    indices from i on start at ``searchsorted(keys, r * n + i)`` and end
    at ``searchsorted(keys, (r + 1) * n)``, and a key mod n is its index.
    One int64 sort, no argsort: r * n < q * n, and q <= CLASS_SHARE * n
    (``modulus``)."""
    n = len(values)
    residues = np.asarray(residue(values, q), dtype=np.int64)
    keys = residues * n
    keys += np.arange(n)
    keys.sort()
    return distinct(residues, q), keys

