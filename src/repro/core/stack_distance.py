"""Exact LRU stack distances for whole access streams.

Mattson et al.'s stack algorithm (IBM Systems Journal, 1970): an LRU
cache of capacity ``C`` hits an access exactly when fewer than ``C``
distinct keys were touched since the previous access to the same key.
One histogram of those *stack distances* therefore answers every
capacity at once — hits at capacity ``C`` are ``hist[:C].sum()`` — and
a set-associative cache is one LRU stack per set, so the same
histogram over per-set distances answers every associativity.

With accesses numbered in order, let access ``i`` re-use the key last
seen at ``p``.  Its distance is the number of distinct keys in the
window ``(p, i)``, i.e. the accesses ``j`` there whose own previous
occurrence ``prev[j]`` is at or before ``p``.  Every ``j <= p``
satisfies ``prev[j] <= p`` as well, so

    distance(i) = #{j < i : prev[j] <= prev[i]} - (p + 1),

an "earlier and not larger" count that a bottom-up merge sort of
``prev`` yields for every access at once: when two sorted halves
merge, an element of the right half lands after exactly those
left-half elements that are not larger than it.  Each level is one
vectorised row sort, so there is no Python loop per access, only one
per level (``ceil(log2 n)`` of them).
"""

from __future__ import annotations

import numpy as np


def stack_distance_histogram(keys, set_ids=None) -> tuple[np.ndarray, int]:
    """LRU stack-distance histogram of an access stream.

    Args:
        keys: 1-D integer array of accessed keys, in access order.
        set_ids: Optional same-length array giving each access's
            cache set.  Every key must map to a single set; distances
            are then counted within each set's own access order.

    Returns:
        ``(hist, cold)``: ``hist[d]`` counts the re-accesses that found
        exactly ``d`` distinct other keys (of their set) touched since
        the previous access to the same key, and ``cold`` counts first
        accesses.  An LRU stack of capacity ``C`` per set hits
        ``hist[:C].sum()`` accesses and misses the rest.
        ``hist`` ends at its last non-zero bin.
    """
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ValueError("keys must be one-dimensional")
    if set_ids is not None:
        set_ids = np.asarray(set_ids)
        if set_ids.shape != keys.shape:
            raise ValueError("set_ids must match keys in shape")
        # Each set's accesses become contiguous, in their own order;
        # the formula above then holds for the concatenation.
        keys = keys[_stable_order(set_ids)]
    n = keys.size
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0
    index = np.int32 if n < 2**30 else np.int64

    # An access repeating the access just before it (same key, hence
    # same set) is at distance 0; dropping it changes no other window.
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    runs = keys[first]
    repeats = n - runs.size
    del first, keys
    m = runs.size

    # Previous occurrences, from one stable sort by key.
    order = _stable_order(runs).astype(index)
    ordered = runs[order]
    del runs
    again = ordered[1:] == ordered[:-1]
    del ordered
    later = order[1:][again]
    earlier = order[:-1][again]
    del order, again
    cold = m - later.size

    # values[j] = prev[j] + 1 (0 for a first access; the padding up to
    # a power of two lies after every real access, so it never counts
    # toward one).  below[j] accumulates #{earlier j' : values[j'] <=
    # values[j]}; both travel with their element through the sort.
    levels = (m - 1).bit_length()
    values = np.zeros(1 << levels, dtype=index)
    values[later] = earlier + 1
    del later, earlier
    below = np.zeros(values.size, dtype=index)
    gain = np.empty(values.size, dtype=index)
    for k in range(levels):
        half = 1 << k
        width = 2 * half
        # Each row holds two sorted runs, the halves merged here, which
        # a stable sort merges in linear time.  The indices stay intp:
        # take() would copy narrower ones to intp first.
        perm = np.argsort(values.reshape(-1, width), axis=1, kind="stable")
        # A right-half element of rank perm - half that lands in column
        # s follows s - (perm - half) left-half elements: those with
        # smaller values (re-accesses have distinct values; ties among
        # first accesses and padding never reach a counted element).
        rows = gain.reshape(-1, width)
        np.subtract(
            np.arange(half, half + width, dtype=index), perm, out=rows, casting="unsafe"
        )
        rows *= perm >= half
        perm += np.arange(0, values.size, width)[:, None]
        values = values.take(perm).reshape(-1)
        below = below.take(perm).reshape(-1)
        del perm
        below += gain

    reuse = values > 0
    distances = below[reuse] - values[reuse]
    del below, values, reuse
    hist = np.bincount(distances, minlength=1)
    hist[0] = repeats
    nonzero = np.flatnonzero(hist)
    return hist[: nonzero[-1] + 1] if nonzero.size else hist[:0], cold


def _stable_order(values: np.ndarray) -> np.ndarray:
    """Stable argsort; a radix sort when the values fit in 16 bits."""
    if values.size and values.min() >= 0 and values.max() <= np.iinfo(np.uint16).max:
        values = values.astype(np.uint16)
    return np.argsort(values, kind="stable")
