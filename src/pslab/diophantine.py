"""Solution counting and triviality classification for power systems.

A system is ``c_1 x_1^d + ... + c_s x_s^d = 0`` with nonzero integer
coefficients summing to zero (translation invariance).  A solution is
trivial relative to a union K of rational subspaces when its vector of
d-th powers lies in one of the subspaces; every subspace must contain the
diagonal, so diagonal tuples are always trivial.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import residues
from .batches import ragged, run_hits, squared_runs
from .ps_core import exact_powers, parse_rational

TABLE_BUDGET = 30_000_000  # max entries of a table of 2+ coordinates
JOIN_CHUNK = 1 << 20  # max sums, probe keys or matches per window or block
SUM_BATCH = 1 << 14  # max sums built or tallied at once within a window


class NotTranslationInvariantError(ValueError):
    """Coefficients do not sum to zero."""


class DegenerateSystemError(ValueError):
    """A coefficient is zero (or too few variables)."""


class SplitRefusedError(MemoryError):
    """Tabulated half would exceed the memory budget."""


@dataclass(frozen=True)
class EquationSystem:
    d: int
    coeffs: Tuple[int, ...]

    @property
    def s(self) -> int:
        return len(self.coeffs)


def validate_system(coeffs: Sequence[int], d: int) -> EquationSystem:
    """Accept the system iff all coefficients are nonzero and sum to zero."""
    coeffs = tuple(int(c) for c in coeffs)
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    if len(coeffs) < 3:
        raise DegenerateSystemError(f"need s >= 3 variables, got {len(coeffs)}")
    if any(c == 0 for c in coeffs):
        raise DegenerateSystemError("zero coefficient")
    if sum(coeffs) != 0:
        raise NotTranslationInvariantError(
            f"coefficients sum to {sum(coeffs)}, expected 0"
        )
    return EquationSystem(d=d, coeffs=coeffs)


# --- subspace unions -------------------------------------------------------

def _rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals, by fraction-free integer elimination."""
    mat = [list(row) for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        for r in range(rank + 1, len(mat)):
            if mat[r][col] != 0:
                f = mat[r][col]
                row = [top[col] * a - f * t for a, t in zip(mat[r], top)]
                g = math.gcd(*row)
                mat[r] = [a // g for a in row] if g else row
        rank += 1
    return rank


def _integer_row(row: Sequence) -> Tuple[int, ...]:
    """A rational row times the lcm of its denominators; same kernel.

    A row of Python ints is returned as it is."""
    if all(type(r) is int for r in row):
        return tuple(row)
    row = [Fraction(r) for r in row]
    scale = math.lcm(*(r.denominator for r in row))
    return tuple(int(r * scale) for r in row)


@dataclass(frozen=True)
class Subspace:
    """Rational subspace given as the kernel of a constraint matrix; the
    rows may be rational and are stored as integers (``_integer_row``)."""

    rows: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows",
                           tuple(_integer_row(row) for row in self.rows))

    @property
    def s(self) -> int:
        return len(self.rows[0])

    def contains(self, vec: Sequence[int]) -> bool:
        """Exact membership of an integer vector (integer dot products)."""
        vec = [operator.index(v) for v in vec]
        return all(sum(r * v for r, v in zip(row, vec)) == 0
                   for row in self.rows)

    @functools.cached_property
    def rank(self) -> int:
        """Rank of the constraint rows over the rationals."""
        return _rank(self.rows)

    def dimension(self) -> int:
        return self.s - self.rank


@dataclass(frozen=True)
class SubspaceUnion:
    subspaces: Tuple[Subspace, ...]

    @property
    def s(self) -> int:
        return self.subspaces[0].s

    def contains(self, vec: Sequence) -> bool:
        return any(sub.contains(vec) for sub in self.subspaces)

    def is_diagonal_only(self) -> bool:
        return all(sub.dimension() == 1 for sub in self.subspaces)


def make_subspace(rows: Sequence[Sequence], sys: EquationSystem) -> Subspace:
    """Validate and build one subspace of the coefficient hyperplane.

    Requirements: every constraint annihilates the all-ones vector
    (diagonal containment), the solution set lies inside the hyperplane
    (the coefficient vector is in the row span), and the subspace is a
    proper subspace of the hyperplane (constraint rank >= 2).
    """
    sub = Subspace(rows=tuple(tuple(row) for row in rows))
    s = sys.s
    if any(len(row) != s for row in sub.rows):
        raise ValueError(f"constraint rows must have length {s}")
    for row in sub.rows:
        if sum(row) != 0:
            raise ValueError(f"constraint {row} does not contain the diagonal")
    if sub.rank < 2:
        raise ValueError("subspace is not proper inside the hyperplane")
    if _rank(list(sub.rows) + [sys.coeffs]) != sub.rank:
        raise ValueError("subspace does not lie inside the coefficient hyperplane")
    return sub


def diagonal_union(sys: EquationSystem) -> SubspaceUnion:
    """The minimal union: just the diagonal {all coordinates equal}.

    Its rows x_i - x_s (i < s) are already in row echelon form, so the
    rank checks of :func:`make_subspace` eliminate nothing.
    """
    s = sys.s
    rows = [[0] * s for _ in range(s - 1)]
    for i in range(s - 1):
        rows[i][i] = 1
        rows[i][s - 1] = -1
    return SubspaceUnion(subspaces=(make_subspace(rows, sys),))


def parse_subspace_file(text: str, sys: EquationSystem) -> SubspaceUnion:
    """Parse the constraint-matrix format: one subspace per blank-line
    separated block, each line a row of rational constraint coefficients.
    """
    blocks: List[List[List[Fraction]]] = [[]]
    for line in text.splitlines():
        line = line.strip()
        if not line:
            if blocks[-1]:
                blocks.append([])
            continue
        if line.startswith("#"):
            continue
        blocks[-1].append([parse_rational(tok) for tok in line.split()])
    blocks = [b for b in blocks if b]
    if not blocks:
        raise ValueError("no subspace blocks found")
    return SubspaceUnion(subspaces=tuple(make_subspace(b, sys) for b in blocks))


def is_K_trivial(x: Sequence[int], sys: EquationSystem,
                 K: SubspaceUnion) -> bool:
    """Triviality of a solution: membership of (x_1^d, ..., x_s^d) in K."""
    return K.contains([xi ** sys.d for xi in x])


# --- enumeration -----------------------------------------------------------

@dataclass
class SolutionReport:
    total: int
    trivial: int
    nontrivial: int
    witnesses: List[Tuple[int, ...]] = field(default_factory=list)
    truncated: bool = False


def _split_positions(sys: EquationSystem) -> Tuple[List[int], List[int]]:
    """Tabulated half gets the ceil(s/2) positions of largest |coefficient|."""
    order = sorted(range(sys.s), key=lambda i: (-abs(sys.coeffs[i]), i))
    half = (sys.s + 1) // 2
    return sorted(order[:half]), sorted(order[half:])


def enumerate_solutions(A: Iterable[int], sys: EquationSystem,
                        K: Optional[SubspaceUnion] = None,
                        cap: int = 100) -> SolutionReport:
    """Exact ordered-tuple solution counts over A^s, with classification.

    The ceil(s/2) positions of largest |coefficient| are the tabulated
    half and the others the probe half.  Count pass: ``_equal_sum_count``
    of the two halves, which builds no table of a whole half, and of its
    sums only those whose residue mod a small q (``pslab.residues``) the
    other half reaches; one form with a repeated coefficient, as (1, 1,
    -1, -1), builds each unordered pair of its repeated positions once.
    The D constant tuples solve every system and lie in every subspace of
    K (D = sum of m^s over the classes of elements with equal d-th power,
    the number of classes plus m^s - 1 for each class of m > 1), so when
    total == D every solution is trivial and nothing else runs, not even
    the default K (``diagonal_union``).

    Expansion pass, only when total > D: meet-in-the-middle join
    (Horowitz-Sahni, ``_join_matches``) of a table of the tabulated half
    with the probe half's negated sums, streamed in blocks of at most
    JOIN_CHUNK = 2^20 keys.  The table is built as the count builds its
    sides (``_join_table``): only the (prefix, class) runs whose residue
    the probe half reaches, and for a repeated last coefficient, as (1,
    1, -1, -1), each unordered pair once; it is sorted once as packed
    (value, index) int64 keys (a stable argsort where the packed keys
    would reach 2^63 or the sums are Python ints).  The matches, in
    blocks of at most JOIN_CHUNK rows of s element indices, are those of
    the whole table in its order and are classified against
    ``Subspace.rows`` in array operations.  For a diagonal-only union the
    trivial count is D and the pass stops once ``cap`` witnesses are
    found; a general union classifies every match.  SplitRefusedError:
    the count's tables of ceil(s/2) - 1 positions, or the join's whole
    table of ceil(s/2) positions after the same residue filter, exceed
    TABLE_BUDGET.

    Witnesses are the first ``cap`` nontrivial solutions in the order
    probe tuple (lexicographic in the sorted elements), then table tuple
    (lexicographic); ``truncated`` is ``nontrivial > cap``.  Counts are
    exact whatever ``cap`` is.

    Powers: ``ps_core.exact_powers`` (int64 or exact object ints), with
    weight sum|c_i| for the partial sums and the sum|r_j| of the widest
    constraint row for the classification.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    elems = sorted(set(map(int, A)))
    if K is not None and K.s != sys.s:
        raise ValueError("K and the system disagree on the number of variables")
    if not elems:
        return SolutionReport(total=0, trivial=0, nontrivial=0)
    tab_pos, probe_pos = _split_positions(sys)
    pows = exact_powers(elems, sys.d, sum(map(abs, sys.coeffs)))
    tab_coeffs = [sys.coeffs[p] for p in tab_pos]
    probe_coeffs = [-sys.coeffs[p] for p in probe_pos]
    total = _equal_sum_count(pows, tab_coeffs, probe_coeffs)
    _, repeats = np.unique(pows, return_counts=True)
    # a class of one element adds 1^s = 1
    repeated = repeats[repeats > 1].tolist()
    diagonal = len(repeats) - len(repeated) + sum(
        m ** sys.s for m in repeated)
    trivial = total
    witnesses: List[Tuple[int, ...]] = []
    if total > diagonal:
        if K is None:
            K = diagonal_union(sys)
        diagonal_only = K.is_diagonal_only()
        if diagonal_only and cap == 0:
            trivial = diagonal
        else:
            counted, witnesses = _classify_matches(
                _join_matches(pows, tab_coeffs, probe_coeffs),
                elems, sys.d, K,
                tab_pos, probe_pos, cap, stop_at_cap=diagonal_only)
            trivial = diagonal if diagonal_only else counted
    return SolutionReport(total=total, trivial=trivial,
                          nontrivial=total - trivial, witnesses=witnesses,
                          truncated=total - trivial > cap)


def _outer_sums(pows: np.ndarray, coeffs: Sequence[int]) -> np.ndarray:
    """sum_k coeffs[k] * pows[i_k] over all index tuples, lexicographic;
    refused past TABLE_BUDGET entries unless it has one coordinate."""
    if len(coeffs) > 1 and len(pows) ** len(coeffs) > TABLE_BUDGET:
        raise SplitRefusedError(f"{len(pows)}^{len(coeffs)} tabulated "
                                "combinations exceed the budget")
    out = np.zeros(1, dtype=pows.dtype)
    for c in coeffs:
        out = (out[:, None] + c * pows[None, :]).ravel()
    return out


def _equal_sum_count(pows: np.ndarray, left: Sequence[int],
                     right: Sequence[int]) -> int:
    """#{(u, v): sum_k left[k] pows[u_k] = sum_k right[k] pows[v_k]}.

    Each side keeps the ``_outer_sums`` of all but its last coordinate
    (the prefixes) and the values c * pows of the last one.  For one form
    on both sides (coefficients equal up to order) only one side is
    expanded and the count is sum_v r(v)^2, r(v) the number of tuples with
    sum v.

    Residue filter.  Two sums can be equal only if they agree mod every q,
    so a sum whose residue mod q no sum of the other side reaches matches
    nothing, and dropping it leaves the count exact.  ``residues.modulus``
    picks q (q = 1 for one form) and the residues each side reaches, from
    the classes of pows mod q, never from the sums, allowing JOIN_CHUNK /
    4 (prefix, class) runs: each is searched in every window and holds
    about 80 bytes of state there, so the runs cost at most about what a
    window's sums do.  ``residues.class_runs`` groups the last values of
    each side by class mod q and gives each prefix one run per class whose
    sums reach a residue that the other side reaches; only these runs are
    built, testing at most JOIN_CHUNK / 4 (class, prefix) pairs at a
    time.  On Roth over the 756-prime avoider set at x = 10^4 this picks
    q = 1155 with 34 classes and keeps about 11 % of the sums.

    The common range of the two sides is walked in value windows [lo,
    top]: the values v with lo <= t + v <= top are one run for each
    prefix t and class k, whose composite keys k * stride + v (``stride``
    wider than any side's values and queries, so classes never overlap)
    lie between base + lo and base + top, base = k * stride - t.  The
    runs are searched class by class, each class's in reverse prefix
    order, so the queries ascend where the prefixes do (one coordinate
    over ascending pows, as on Roth).  Keys are integers, so a window's
    runs start where the last window's ended, and each window makes one
    ``searchsorted`` call per side.  The first window is the whole range,
    so its size is the exact number of sums; a window that builds more
    than JOIN_CHUNK sums is narrowed to about 3/4 JOIN_CHUNK of them at
    the same density (at least halved, except at width 1) and retried;
    after one of fewer than half the chunk, the width doubles.  The keys
    are int64 where q leaves them room (``room``, which bounds q) and
    exact Python ints for object pows.

    One form with a repeated coefficient c counts each unordered pair of
    its last two indices once.  It is reordered so that (c, c) comes last,
    over pows ordered so that c * pows ascends (neither order changes the
    count); prefix p then ends in last[i], i = p mod m, m = len(pows), and
    its runs start at least at i + 1, so a window builds only the sums
    with last index j > i.  The diagonal sums (j = i) are built and sorted
    once, m^(k-1) of them for k coordinates, as many as the prefixes, and
    each window cuts its run from them.  Swapping i and j keeps the sum, so
    r(v) = 2u(v) + e(v), u counting the sums with j > i and e the diagonal
    ones, and a window adds sum (2u + e)^2.

    A window's sums less lo, side after side (u, then e, for a pair),
    fill one int64 buffer, viewed as int32 where it can be, that the call
    grows to its largest window and reuses; ``_fill`` writes SUM_BATCH =
    2^14 of them at a time, from 128 KB index and value arrays (at 2^16
    the first window of a process re-faulted its 512 KB ones on every
    batch).  A window of width w is dense when w < 2n, n
    the most sums one side builds (u and e sums for a pair): 8 bytes per
    sum, the second side, if it holds any, offset by w, and one bincount
    of w int64 counts per side held, so below 16 bytes per sum of n for
    each side.  Otherwise a sum takes 4 bytes below w = 2^31 (8 below 2^63,
    else a Python int, in an object array per window); each side is
    sorted in place and ``_tally`` reads it in SUM_BATCH blocks
    (``pslab.batches``).  Every
    tally is exact.  ``pows`` holds sum|c| * max|p| (``exact_powers``).
    """
    one = sorted(left) == sorted(right)
    # grouped by count, a repeated coefficient, if any, ends the form twice
    forms = [sorted(left, key=lambda c: (left.count(c), c))] if one else [
        left, right]
    pair = one and left.count(forms[0][-1]) > 1 and forms[0][-1]
    if pair:
        pows = np.sort(pows)[::1 if pair > 0 else -1]
    pres = [_outer_sums(pows, form[:-1]) for form in forms]
    lasts = [form[-1] * pows for form in forms]
    # (least, greatest) prefix and (least, greatest) last value per side
    spans = [(int(pre.min()), int(pre.max()), int(last.min()),
              int(last.max())) for pre, last in zip(pres, lasts)]
    lo = max(a + c for a, _, c, _ in spans)
    hi = min(b + d for _, b, _, d in spans)
    if pair:
        m = len(pows)
        diag = np.sort((pres[0].reshape(-1, m) + lasts[0]).ravel())
    # a side's queries lo - t .. hi - t and values v lie in [low, high]
    low = min(min(lo - b, c) for _, b, c, _ in spans)
    high = max(max(hi - a, d) for a, _, _, d in spans)
    stride = high - low + 1
    bound = max(-low, high, *(max(-a, b) for a, b, _, _ in spans))
    room = math.inf if pows.dtype == object else (
        (2 ** 63 - 1 - bound) // stride + 1)
    q, counts = residues.modulus(pows, forms, room, JOIN_CHUNK // 4)
    target = np.logical_and.reduce([count > 0 for count in counts])
    sides = [residues.class_runs(pre, last, q, target, stride,
                                 JOIN_CHUNK // 4)
             for pre, last in zip(pres, lasts)]
    if pair:
        # one form, so q = 1: a run per prefix, and the diagonal sums are
        # one more
        sides.append((diag, np.zeros(1, diag.dtype)))
    # a window [lo, top] of a run holds its keys from base + lo to base +
    # top; they are integers, so the next window starts where it ends
    starts = [np.searchsorted(keys, base + lo) for keys, base in sides]
    if pair:
        # j > i only: prefix p ends in last[i], i = p mod m; the runs take
        # the m^(k-1) prefixes in reverse, so run r has i = m - 1 - r mod m
        ranks = np.arange(m, 0, -1)
        view = starts[0].reshape(-1, m)
        np.maximum(view, ranks, out=view)
    width, total, held = hi - lo + 1, 0, np.empty(0, np.int64)
    while lo <= hi:
        top = min(lo + width - 1, hi)
        ends = [np.searchsorted(keys, base + top, side="right")
                for keys, base in sides]
        if pair:
            view = ends[0].reshape(-1, m)
            np.maximum(view, ranks, out=view)
        runs = [end - start for start, end in zip(starts, ends)]
        sizes = [int(run.sum()) for run in runs]
        n = sum(sizes)
        if n > JOIN_CHUNK and top > lo:
            width = max(1, (top - lo + 1) * 3 * JOIN_CHUNK // (4 * n))
            continue
        if n and (pair or min(sizes)):
            span = top - lo + 1
            dense = span < 2 * (n if pair else max(sizes))
            if len(held) < n:
                held = np.empty(max(n, 2 * len(held)), np.int64)
            window = (held[:n].view(np.int32)[:n] if span <= 2 ** 31
                      and not dense else held[:n] if span <= 2 ** 63
                      else np.empty(n, object))
            for i, part in enumerate(np.split(window, np.cumsum(sizes)[:-1])):
                keys, base = sides[i]
                _fill(part, keys, starts[i], runs[i],
                      base + (lo - i * dense * span))
            total += _tally(window, sizes[0], pair, dense and span)
        lo, starts = top + 1, ends
        if 2 * n < JOIN_CHUNK:
            width *= 2
    return total


def _fill(out, keys, start, run, shift) -> None:
    """Write keys[start[t] + k] - shift[t], k < run[t], over the runs t in
    turn into ``out``, SUM_BATCH at a time."""
    for at, t, cut, index in ragged(start, run, SUM_BATCH):
        np.subtract(keys[index], shift[t].repeat(cut), out=out[at],
                    casting="unsafe")


def _tally(window, split: int, pair, span: int) -> int:
    """Count of one window: left (or u) sums before ``split``, the rest
    after; ``span`` > 0 marks a dense window, offset as ``_fill`` wrote it."""
    both = split < len(window)
    u, e = window[:split], window[split:]
    if span:
        counts = np.bincount(window, minlength=span * (1 + both))
        u, e = counts[:span], counts[span:]
        square, hits = (lambda a: a @ a), np.dot
    else:
        u.sort()
        e.sort()
        square = functools.partial(squared_runs, size=SUM_BATCH)
        hits = functools.partial(run_hits, size=SUM_BATCH)
    if not both:
        return int((4 if pair else 1) * square(u))
    return int(4 * (square(u) + hits(u, e)) + square(e) if pair
               else hits(u, e))


def _sum_blocks(pows: np.ndarray, coeffs: Sequence[int]):
    """Yield (offset, sums) covering ``_outer_sums(pows, coeffs)``.

    The trailing coordinates are summed whole (at most JOIN_CHUNK tuples),
    the one before them is streamed in row blocks and any leading ones are
    fixed one tuple at a time, so no block exceeds JOIN_CHUNK entries;
    ``offset`` is the lexicographic index of the block's first tuple.
    """
    m = len(pows)
    n_tail = len(coeffs) - 1
    while n_tail > 0 and m ** n_tail > JOIN_CHUNK:
        n_tail -= 1
    n_lead = len(coeffs) - 1 - n_tail
    tail = _outer_sums(pows, coeffs[n_lead + 1:])
    rows = max(1, JOIN_CHUNK // len(tail))
    offset = 0
    for lead in itertools.product(range(m), repeat=n_lead):
        base = sum(c * int(pows[i]) for c, i in zip(coeffs, lead))
        for i0 in range(0, m, rows):
            head = base + coeffs[n_lead] * pows[i0:i0 + rows]
            block = head if not n_tail else (head[:, None] + tail).ravel()
            yield offset, block
            offset += len(block)


def _join_matches(pows: np.ndarray, tab_coeffs: Sequence[int],
                  probe_coeffs: Sequence[int]):
    """Yield (probe index, table index) arrays of the join's matches.

    Residue filter: a table value can match only a probe key with the same
    residue mod q, for the q of ``residues.modulus`` (from the classes of
    pows mod q) with no int64 room bound, so it can exceed the count's q:
    on Roth over the 779 sequence primes up to 10^4 at d = 4 the count's
    room of 466 gives q = 105, the join's rule 1155.  ``_join_table``
    forms only the table sums whose residue some probe sum reaches, with
    their lexicographic indices, and probe keys out of the table's range
    are dropped; a probe key whose residue no table entry has is searched
    and finds nothing.  Only unmatched values go, so the matches are those
    of the unfiltered join.  SplitRefusedError is raised when the filtered
    table, by the residue counts, would exceed TABLE_BUDGET entries, before
    any is formed (a table that keeps one of each unordered pair, below,
    is refused at the same size).  On Roth over the 10^5 avoider set plus
    17 (q = 15015) it keeps 1.45 M of the 28.5 M entries.

    The table is sorted as packed int64 keys ((v - min) << b) | i, where i
    is the lexicographic table index, b the bit length of the unfiltered
    table's length - 1 and min, max the least and greatest unfiltered
    sums: equal values sort by index, which is the order of a stable
    argsort, at the cost of one array of the table's size.  A probe key k
    matches the packed range from (k - min) << b to that with its low b
    bits set, and the table index of a match is its key ``& mask``; keys
    outside [min, max] match nothing and are dropped before the shift, so
    none wraps round into the table's range.  When (max - min) << b
    reaches 2^63, or the values are Python ints, the table is stably
    argsorted instead and ``order`` maps each rank back to its index.

    When the table's last two coefficients are equal, as in (1, 1, -1,
    -1), swapping its last two indices (i, j) keeps the sum, so the table
    holds only j >= i, and each match (..., i, j) with i < j also stands
    for (..., j, i) (``_pair_matches``).

    Matches come ordered by probe index, then table index, in blocks of at
    most JOIN_CHUNK.  Probe keys are searched in slices that start at 2^10
    keys and double up to JOIN_CHUNK, so a caller that stops early
    searches few of them.
    """
    q, (tab_counts, probe_counts) = residues.modulus(
        pows, [tab_coeffs, probe_coeffs], math.inf, JOIN_CHUNK // 4)
    least, most = int(pows.min()), int(pows.max())
    low = sum(c * (least if c > 0 else most) for c in tab_coeffs)
    high = sum(c * (most if c > 0 else least) for c in tab_coeffs)
    bits = (len(pows) ** len(tab_coeffs) - 1).bit_length()
    packed = pows.dtype != object and (high - low) << bits < 2 ** 63
    probe_reach = probe_counts > 0
    size = int(tab_counts[probe_reach].sum())
    if size > TABLE_BUDGET:
        raise SplitRefusedError(f"{size} table entries exceed the budget")
    table, order = _join_table(pows, tab_coeffs, probe_reach,
                               bits if packed else None)
    mask = (1 << bits) - 1
    index = ((lambda rank: table[rank] & mask) if packed
             else (lambda rank: order[rank]))
    pair = tab_coeffs[-2] == tab_coeffs[-1]
    step = min(1 << 10, JOIN_CHUNK)
    for offset, block in _sum_blocks(pows, probe_coeffs):
        k0 = 0
        while k0 < len(block):
            keys = block[k0:k0 + step]
            kept = np.flatnonzero((keys >= low) & (keys <= high))
            keys = keys[kept]
            if packed:
                keys = (keys - low) << bits
            lo = np.searchsorted(table, keys, side="left")
            width = np.searchsorted(table, keys | mask if packed else keys,
                                    side="right") - lo
            hit = offset + k0 + kept
            if pair:
                yield from _pair_matches(hit, lo, width, index, len(pows),
                                          bits)
            else:
                for _, t, cut, rank in ragged(lo, width, JOIN_CHUNK):
                    yield np.repeat(hit[t], cut), index(rank)
            k0 += step
            step = min(2 * step, JOIN_CHUNK)


def _join_table(pows: np.ndarray, coeffs: Sequence[int], reach: np.ndarray,
                bits: Optional[int]):
    """(table, order) of ``_join_matches``: the sums v over ``coeffs``
    whose residue mod q = len(reach) is reached, stably sorted, and the
    lexicographic index i of each; with ``bits``, the sorted packed keys
    ((v - min) << bits) | i alone, min the least sum over ``coeffs``, and
    order None.

    Built as the count builds its sides: each prefix t (the ``_outer_sums``
    of all but the last coordinate, index p) with the last values v =
    coeffs[-1] * pows grouped by class mod q (``residues.class_order``),
    and only the (prefix, class) runs whose sums reach a residue in
    ``reach`` are formed, at most JOIN_CHUNK / 4 (prefix, class) pairs
    tested at a time.  A sum t + v[j] has index p * m + j, m = len(pows),
    and ``_fill`` writes each run's sums, SUM_BATCH at a time, straight
    into the table: packed, as ((v[j] - min v) << bits) + j plus ((t - min
    t) << bits) + p * m, both terms within [0, 2^63).  The runs are taken
    prefix by prefix, and a class's indices ascend, so equal values are
    written in index order, the order the stable argsort keeps.  With equal
    last two coefficients only the last indices j >= i are formed, i = p
    mod m the prefix's own last index, as the count forms them.
    """
    m, q = len(pows), len(reach)
    pre = _outer_sums(pows, coeffs[:-1])
    last = coeffs[-1] * pows
    classes, keys = residues.class_order(last, q)
    # t + v reaches iff twice[(t mod q) + (v mod q)]
    twice = np.concatenate([reach, reach])
    pre_classes = np.asarray(residues.residue(pre, q), dtype=np.int64)
    step = max(1, JOIN_CHUNK // 4 // len(classes))
    prefix, cls = [], []
    for p0 in range(0, len(pre), step):
        p, k = np.nonzero(twice[pre_classes[p0:p0 + step, None] + classes])
        prefix.append(p + p0)
        cls.append(classes[k])
    prefix, cls = np.concatenate(prefix), np.concatenate(cls) * m
    # a run's keys are class * m + j, from its first j up to the class's end
    start = keys.searchsorted(
        cls + prefix % m if coeffs[-2] == coeffs[-1] else cls)
    run = keys.searchsorted(cls + m) - start
    order = keys % m
    table = np.empty(int(run.sum()), pows.dtype)
    if bits is None:
        index = np.empty(len(table), np.int64)
        _fill(table, last[order], start, run, -pre[prefix])
        _fill(index, order, start, run, -m * prefix)
        rank = np.argsort(table, kind="stable")
        return table[rank], index[rank]
    _fill(table, ((last[order] - last.min()) << bits) + order, start, run,
          -(((pre[prefix] - pre.min()) << bits) + m * prefix))
    table.sort()
    return table, None


def _pair_matches(hit, lo, width, index, m: int, bits: int):
    """Yield (probe index, table index) blocks of the matches of a table
    that holds only j >= i for its last two indices (i, j).

    Probe key ``hit[t]`` matches the table ranks from lo[t] to lo[t] +
    width[t] - 1, whose table indices (below 2^bits) ``index`` gives.  A
    match of index x with i < j also stands for (..., j, i), index x + (j
    - i)(m - 1), and each key's matches are re-sorted by table index, as
    composite keys (key << bits) | x.  Keys are taken whole, at most
    JOIN_CHUNK / 2 table matches at a time (but one key at least) and at
    most 2^(63 - bits) keys, so the composites fit int64; a key with more
    matches is sorted whole and yielded JOIN_CHUNK at a time.
    """
    ends = np.cumsum(width)
    size, most = max(1, JOIN_CHUNK // 2), 1 << (63 - bits)
    mask = (1 << bits) - 1
    a = 0
    while a < len(hit):
        before = int(ends[a] - width[a])
        b = min(max(a + 1, int(ends.searchsorted(before + size, "right"))),
                a + most)
        run = width[a:b]
        rank = np.repeat(lo[a:b] - (ends[a:b] - run - before), run)
        rank += np.arange(len(rank))
        tab = index(rank)
        # j - i, for x = ... + i * m + j
        row = tab // m
        gap = tab - row * m
        gap -= row % m
        off = np.flatnonzero(gap)
        key = np.repeat(np.arange(b - a) << bits, run)
        key += tab
        key = np.concatenate([key, key[off] + gap[off] * (m - 1)])
        key.sort()
        who = key >> bits
        who += a
        key &= mask
        for k0 in range(0, len(key), JOIN_CHUNK):
            yield hit[who[k0:k0 + JOIN_CHUNK]], key[k0:k0 + JOIN_CHUNK]
        a = b


def _classify_matches(matches, elems: List[int], d: int,
                      K: SubspaceUnion, tab_pos, probe_pos, cap: int,
                      stop_at_cap: bool) -> Tuple[int, List[Tuple[int, ...]]]:
    """(trivial count, first ``cap`` nontrivial tuples) over the matches.

    The d-th power of ``elems[i]`` is the coordinate K tests.  With
    ``stop_at_cap`` the scan ends once ``cap`` witnesses are found and the
    trivial count is partial.
    """
    n, s = len(elems), len(tab_pos) + len(probe_pos)
    widest = max(sum(map(abs, row)) for sub in K.subspaces for row in sub.rows)
    vals = exact_powers(elems, d, widest)
    trivial = 0
    witnesses: List[Tuple[int, ...]] = []
    for probe_idx, tab_idx in matches:
        idx = np.empty((len(tab_idx), s), dtype=np.intp)
        idx[:, probe_pos] = np.column_stack(
            np.unravel_index(probe_idx, (n,) * len(probe_pos)))
        idx[:, tab_pos] = np.column_stack(
            np.unravel_index(tab_idx, (n,) * len(tab_pos)))
        inside = _in_union(vals[idx], K)
        trivial += int(np.count_nonzero(inside))
        for i in np.flatnonzero(~inside)[:cap - len(witnesses)]:
            witnesses.append(tuple(elems[e] for e in idx[i].tolist()))
        if stop_at_cap and len(witnesses) >= cap:
            break
    return trivial, witnesses


def _in_union(vec: np.ndarray, K: SubspaceUnion) -> np.ndarray:
    """Which rows of ``vec`` (n, s) lie in K, by integer dot products with
    every constraint row; the dtype must hold them (``exact_powers`` with
    the weight of the widest row)."""
    inside = np.zeros(len(vec), dtype=bool)
    for sub in K.subspaces:
        on_sub = np.ones(len(vec), dtype=bool)
        for row in sub.rows:
            dot = sum(r * vec[:, j] for j, r in enumerate(row) if r)
            on_sub &= np.asarray(dot == 0)
        inside |= on_sub
    return inside


def enumerate_solutions_naive(A: Iterable[int], sys: EquationSystem,
                              K: Optional[SubspaceUnion] = None) -> SolutionReport:
    """Direct loop oracle (small sets only), independent of the join.

    Loops over the first s - 1 coordinates and solves the last one: it
    needs c_s * a^d = -(partial sum), so a^d is that exact quotient and the
    values a come from a lookup table of d-th powers, in increasing order.
    Solutions therefore arrive in the lexicographic order of the full
    s-fold loop.
    """
    elems = sorted({int(a) for a in A})
    if K is None:
        K = diagonal_union(sys)
    roots: Dict[int, List[int]] = {}
    for a in elems:
        roots.setdefault(a ** sys.d, []).append(a)
    *head, last = sys.coeffs
    total = trivial = 0
    witnesses = []
    for prefix in itertools.product(elems, repeat=sys.s - 1):
        partial = sum(c * a ** sys.d for c, a in zip(head, prefix))
        power, rem = divmod(-partial, last)
        if rem:
            continue
        for a in roots.get(power, ()):
            combo = prefix + (a,)
            total += 1
            if is_K_trivial(combo, sys, K):
                trivial += 1
            elif len(witnesses) < 100:
                witnesses.append(combo)
    return SolutionReport(total=total, trivial=trivial,
                          nontrivial=total - trivial, witnesses=witnesses)


# --- structured weighted sums ----------------------------------------------

def k_trivial_weighted_sum(nu, s: int,
                           eta_value: float) -> Tuple[float, float]:
    """Diagonal weighted count against the structured-saving scale.

    Left: sum of nu(n)^s, the weight of the diagonal points of
    supp(nu)^s, as ``nu.power_sum(s)``: Python float powers in position
    order for a ``SparseWeight``, and for a pipeline cell's
    ``FoldedMajorant`` the sum its tally added in prime order from
    ``np.power``, whose SIMD kernels may differ from libm's in the last
    bit.  Right: mass(nu)^s * N^(-(1+eta)), a Python float power, which
    raises OverflowError past the float range.  A general union K needs a
    weighted join: one sum per subspace would count the diagonal, which
    every subspace holds, once per subspace.
    """
    left = nu.power_sum(s)
    right = nu.mass() ** s * nu.N ** (-(1.0 + eta_value))
    return left, right


# --- extremal-set experiment -----------------------------------------------

TABLE_SLOTS_MAX = 1 << 24  # most slots (bytes) of a membership table
HASH_MULT = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio, odd


def _table_size(n: int) -> int:
    """Slots of a membership table for n values: the least power of two
    >= 64 n, so at most 1/64 of the slots are set, capped at
    TABLE_SLOTS_MAX (a power of two)."""
    return min(1 << max(64 * n - 1, 0).bit_length(), TABLE_SLOTS_MAX)


def _slots(values: np.ndarray, size: int) -> np.ndarray:
    """Slots of ``values`` in a membership table of ``size`` = 2^k slots.

    Multiplicative hashing: the top k bits of v * HASH_MULT mod 2^64, with
    v reduced mod 2^64 (Python ints of an object array included), so
    every bit of v reaches the slot.  The low bits alone would not do:
    every odd square is 1 mod 8.
    """
    if values.dtype == object:
        values = (values % (1 << 64)).astype(np.uint64)
    return (values.view(np.uint64) * HASH_MULT) >> np.uint64(
        65 - size.bit_length())


def _membership_table(values: np.ndarray) -> np.ndarray:
    """A bool table of ``_table_size(len(values))`` slots with each
    value's slot set."""
    table = np.zeros(_table_size(len(values)), dtype=bool)
    table[_slots(values, len(table))] = True
    return table


def _block_hits(pool: np.ndarray, m: int, sys: EquationSystem,
                table: np.ndarray) -> np.ndarray:
    """Every off-diagonal solution over ``pool`` that uses a block member.

    ``pool`` holds the d-th powers of the chosen set (``pool[:m]``)
    followed by a block of B candidates' powers, all in increasing order.
    Returns an (h, s) array of pool indices, one row per solution found.
    A hit is charged to its largest index less m, the block member that
    ``greedy_avoider`` decides with it.  The probe returns every such
    solution, up to swapping positions of equal coefficient, from a
    position that holds its largest element (charge first): such a swap
    keeps the indices, and so the charge, and maps the diagonal to itself,
    so only the first position of each coefficient is probed.  A position
    p is skipped when no other coefficient has the sign of c_p: as the
    coefficients sum to 0, |c_p| y_p is the sum of |c_i| y_i over the
    others and |c_p| the sum of their |c_i|, so y_p is the largest value
    only on the diagonal.  One position is probed on the Roth form
    (1, -2, 1) and one on (1, 1, 1, 1, -4).  A block of one candidate is
    the exception to the listing: every hit rejects it, so the probe
    returns its first batch of hits.

    At each probed position pos a block member b is fixed and the other
    coordinate of smallest |coefficient| is solved for; the remaining free
    coordinates are ordered by |coefficient|, so the last has the largest.
    The rows are b times the tuples of every free coordinate but the last:
    the block column plus each ``_sum_blocks`` block at s >= 4 (plus 0 at
    s = 3), a (B, k) array of row bases.  With the sign g of c_solve
    folded in, a row base R and a value y of the last free coordinate give
    |c_solve| y_solve = R + a y, a = -g c_last; y_solve lies in
    [pool[0], b] exactly when a y lies in [|c_solve| pool[0] - R,
    |c_solve| b - R].  Dividing by a (ceil of the lower end and floor of
    the upper, the ends swapped when a < 0; floor division is exact on
    int64 and object alike) bounds y, and two ``searchsorted`` calls find
    the run of the sorted pool within the bounds, cut to end at b's own
    index.  The lead coordinates of s >= 4 range over the whole pool, so
    a row may hold a later block member there; it is a real solution,
    charged to that member.  Only the residuals of these runs are formed,
    by one ragged gather.  Where |c_solve| > 1 only the exact quotients
    are kept.  The targets are looked up in ``table``, a membership table
    (``_membership_table``) with the slot (``_slots``) of every pool value
    set.  A set slot may also hold values outside the pool, so only the
    table's hits are confirmed, by binary search in the pool and an
    equality test, and only a confirmed hit has its row recovered, by
    binary search in the run ends.  A hit whose free coordinates all equal
    its block member is the diagonal tuple and is skipped; the pool's
    values are distinct (powers of strictly increasing primes), so no
    other tuple of pool indices lies on the diagonal.

    Cost per position: one run search per row, then array operations and
    one table probe per in-range residual, at most B (m + B)^(s-2) of them
    and usually far fewer (on the Roth form at x = 10^4, 22 % of them);
    each table hit adds an O(log m) search.  At most 1/64 of the table's
    slots are set, so about that share of the residuals that miss the
    pool still hit.  The dtype is that of ``pool`` (``exact_powers``).
    """
    n, s = len(pool), sys.s
    low = pool[0]
    coeffs = sys.coeffs
    column = pool[m:, None]
    caps = np.arange(m + 1, n + 1)[:, None]  # past each block member's index
    positions = [p for p in range(s) if coeffs.index(coeffs[p]) == p
                 and sum(c * coeffs[p] > 0 for c in coeffs) > 1]
    found_hits = [np.empty((0, s), dtype=np.intp)]
    for pos in positions:
        rest = [p for p in range(s) if p != pos]
        solve_pos = min(rest, key=lambda p: abs(coeffs[p]))
        free_pos = sorted((p for p in rest if p != solve_pos),
                          key=lambda p: abs(coeffs[p]))
        *lead_pos, last_pos = free_pos
        # lexicographic index of the lead tuple (i, ..., i) is i * step
        step = sum(n ** t for t in range(len(lead_pos)))
        sign = 1 if coeffs[solve_pos] > 0 else -1
        c_solve = abs(coeffs[solve_pos])
        a = -sign * coeffs[last_pos]
        start = -sign * coeffs[pos] * column
        rows = (_sum_blocks(pool, [-sign * coeffs[p] for p in lead_pos])
                if lead_pos else [(0, np.zeros(1, pool.dtype))])
        for offset, block in rows:
            block = start + block
            base = block.ravel()
            below = c_solve * low - base
            above = (c_solve * column - block).ravel()
            if a < 0:
                below, above = above, below
            # a y in [below, above]: y from ceil(below / a) to floor(above / a)
            first = np.searchsorted(pool, -(-below // a))
            stop = np.searchsorted(pool, above // a,
                                   side="right").reshape(block.shape)
            # ... and no later in the pool than the row's block member
            np.minimum(stop, caps, out=stop)
            runs = stop.ravel() - first
            np.maximum(runs, 0, out=runs)
            ends = np.cumsum(runs)
            total = int(ends[-1])
            if not total:
                continue
            # row r contributes pool[first_r + k] for k < runs_r
            k = np.arange(total) + np.repeat(first - ends + runs, runs)
            target = pool[k]
            if a != 1:
                target *= a
            target += np.repeat(base, runs)
            sel = None
            if c_solve > 1:
                sel = np.flatnonzero(target % c_solve == 0)
                target = target[sel] // c_solve
            listed = np.flatnonzero(table[_slots(target, len(table))])
            found = target[listed]
            at = np.searchsorted(pool, found)
            exact = np.flatnonzero(pool[at] == found)
            if not len(exact):
                continue
            at = at[exact]
            sel = listed[exact] if sel is None else sel[listed[exact]]
            row = np.searchsorted(ends, sel, side="right")
            last = k[sel]
            member, lead = np.divmod(row, block.shape[1])
            member += m
            lead += offset
            off_diagonal = (last != member) | (lead != member * step)
            if not off_diagonal.any():
                continue
            idx = np.empty((int(off_diagonal.sum()), s), dtype=np.intp)
            idx[:, pos] = member[off_diagonal]
            if lead_pos:
                idx[:, lead_pos] = np.column_stack(np.unravel_index(
                    lead[off_diagonal], (n,) * len(lead_pos)))
            idx[:, last_pos] = last[off_diagonal]
            idx[:, solve_pos] = at[off_diagonal]
            if n == m + 1:
                return idx
            found_hits.append(idx)
    return np.concatenate(found_hits)


def _resolve_block(hits: np.ndarray, m: int, size: int) -> List[int]:
    """The accepted block offsets for one probe's hits.

    Member j is rejected iff some hit charged to j has every other block
    index among the members accepted before it; the walk visits only the
    charges that have hits, in increasing order.
    """
    if not len(hits):
        return list(range(size))
    charge = hits.max(axis=1) - m
    rejected = np.zeros(m + size, dtype=bool)
    for j in np.flatnonzero(np.bincount(charge)).tolist():
        # a hit through a rejected member is void
        if not rejected[hits[charge == j]].any(axis=1).all():
            rejected[m + j] = True
    return np.flatnonzero(~rejected[m:]).tolist()


PROBE_SUMS = 1 << 16  # max block residuals B * (m + B)^(s-2) of one probe


def greedy_avoider(x: int, c, sys: EquationSystem, *, primes):
    """First-fit scan of the sequence primes up to x avoiding off-diagonal
    solutions; returns (set, verification report).

    ``primes`` is ``ps_primes(x, c)``, computed once by the caller.  The
    chosen d-th powers live in one preallocated array, followed by the
    next block of B candidates' powers; the array stays sorted because
    the primes arrive in increasing order.  One ``_block_hits`` probe
    lists the off-diagonal solutions through the block, each fixed at a
    position of its largest element (charge first), and
    ``_resolve_block`` walks the block in order: member j is rejected iff
    a hit charged to j (its largest block index) has every other block
    index among the members accepted before j; chosen indices always
    count.  The accepted members are compacted into the array, and the
    scan moves on to the next block.

    The set is exactly the one-candidate-at-a-time first-fit set.  First
    fit rejects block[j] iff it meets an off-diagonal solution over S_j =
    chosen + accepted(block[:j]) + {block[j]}.  block[j] is the largest
    element of S_j, so such a solution is a hit charged to j whose other
    block indices are accepted; conversely such a hit is a solution over
    S_j through block[j].  A hit through a rejected member is void.

    Every probe looks its residuals up in one membership table, built
    once with the slot of every candidate's power set:
    ``_table_size(len(members))`` one-byte slots, the least power of two
    >= 64 * len(members) up to TABLE_SLOTS_MAX = 2^24 (64 KB at x = 10^4,
    1 MB at 2*10^5, 4 MB at 10^6).  It thus holds every pool value at
    every probe, and no slot is ever cleared: the candidates after the
    block exceed pool[-1], so the run bounds leave them out, and a
    rejected candidate only adds table hits that the exact confirmation
    discards.

    Each block takes the largest power of two B with B * (m + B)^(s-2) <=
    PROBE_SUMS = 2^16 residuals per position (m the chosen count), which
    also bounds a position's hits (B = 1 where B = 2 would not fit), or
    the candidates left if fewer.  No block size carries over to the next
    block, and none changes the set (the first-fit argument above holds
    for any B).  On Roth, B (m + B) <= 2^16, the scan makes 1 probe at
    x = 10^3, 2 at 3*10^3, 8 at 10^4 and 335 at 10^5; at s = 5, B = 1
    from m = 31 on, where each probe stops at its first hits.  A rejection
    neither shrinks a block nor re-probes the rest of it.  The returned
    report re-verifies the set by the table-free count pass of
    ``enumerate_solutions``; its nontrivial count must be 0.
    """
    if primes.x != x or primes.c != c:
        raise ValueError(f"primes are for x={primes.x}, c={primes.c}; "
                         f"expected x={x}, c={c}")
    members = primes.members
    if np.any(members[1:] <= members[:-1]):
        raise ValueError("sequence primes must be strictly increasing")
    powers = exact_powers(members, sys.d, sum(map(abs, sys.coeffs)))
    pool = np.empty(len(members), dtype=powers.dtype)
    table = _membership_table(powers)
    chosen = np.empty(len(members), dtype=members.dtype)
    i = m = 0
    while i < len(members):
        size = 1
        while 2 * size * (m + 2 * size) ** (sys.s - 2) <= PROBE_SUMS:
            size *= 2
        size = min(size, len(members) - i)
        pool[m:m + size] = powers[i:i + size]
        hits = _block_hits(pool[:m + size], m, sys, table)
        accepted = np.array(_resolve_block(hits, m, size), dtype=np.intp)
        pool[m:m + len(accepted)] = pool[m + accepted]
        chosen[m:m + len(accepted)] = members[i + accepted]
        m += len(accepted)
        i += size
    chosen = chosen[:m].tolist()
    return chosen, enumerate_solutions(chosen, sys)
