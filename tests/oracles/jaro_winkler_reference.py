"""The length-pair-bucketed Jaro–Winkler kernel, kept as the oracle for the
max-length-class one.

This is the kernel :func:`repro.text.batch.batch_jaro_winkler_indexed`
replaced: distinct value combinations are short-circuited for equal/empty
strings by per-pair Python comparisons, bucketed by the exact
``(len(a), len(b))`` pair, and each bucket's strings are joined and
encoded into ``(k, len)`` code matrices of their own. The greedy match loop,
transposition pass and Winkler prefix boost are the same arithmetic, so the
two kernels must agree bit for bit.

``_MIN_VECTOR_BUCKET`` is read from :mod:`repro.text.batch` at call time, so a
test that monkeypatches it changes both kernels alike.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.text import batch as _batch
from repro.text.batch import (
    _codes,
    _length_buckets,
    _scatter_combos,
    _StringValues,
    _unique_combos,
)
from repro.text.similarity import jaro_winkler


def reference_jaro_winkler_indexed(
    records_a: Sequence,
    ua: np.ndarray,
    records_b: Sequence,
    ub: np.ndarray,
    *,
    prefix_weight: float = 0.1,
    max_prefix: int = 4,
) -> np.ndarray:
    """Batch Jaro–Winkler over record-indexed pairs.

    Same dedup/short-circuit/bucket scheme as the Levenshtein kernel; the
    greedy match loop runs one character position at a time across the
    whole bucket, with the transposition count recovered from the match
    masks in one pass. Bit-identical to the scalar kernel.
    """
    vals_a = _StringValues(records_a)
    vals_b = vals_a if records_b is records_a else _StringValues(records_b)
    cva, cvb, inverse, missing = _unique_combos(vals_a, ua, vals_b, ub)
    m = len(cva)
    sims = np.empty(m, dtype=np.float64)
    if m:
        strs_a = [vals_a.values[i] for i in cva]
        strs_b = [vals_b.values[i] for i in cvb]
        la = vals_a.lengths[cva]
        lb = vals_b.lengths[cvb]
        equal = np.fromiter(
            (x == y for x, y in zip(strs_a, strs_b)), dtype=bool, count=m
        )
        sims[equal] = 1.0
        sims[~equal & ((la == 0) | (lb == 0))] = 0.0
        todo = ~equal & (la > 0) & (lb > 0)
        for (length_a, length_b), members in _length_buckets(la[todo], lb[todo]).items():
            members = np.flatnonzero(todo)[members]
            if len(members) < _batch._MIN_VECTOR_BUCKET:
                for u in members:
                    sims[u] = jaro_winkler(
                        strs_a[u], strs_b[u], prefix_weight=prefix_weight, max_prefix=max_prefix
                    )
                continue
            A = _codes([strs_a[u] for u in members], length_a)
            B = _codes([strs_b[u] for u in members], length_b)
            base = _bucket_jaro(A, B)
            pmax = min(max_prefix, length_a, length_b)
            if pmax > 0:
                lead = np.cumprod(A[:, :pmax] == B[:, :pmax], axis=1)
                prefix = lead.sum(axis=1).astype(np.float64)
            else:
                prefix = np.zeros(len(members), dtype=np.float64)
            sims[members] = base + prefix * prefix_weight * (1.0 - base)
    return _scatter_combos(sims, inverse, missing)


def _bucket_jaro(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Jaro similarities for a (k, la) × (k, lb) bucket (no empty strings)."""
    k, la = A.shape
    lb = B.shape[1]
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    matched_a = np.zeros((k, la), dtype=bool)
    matched_b = np.zeros((k, lb), dtype=bool)
    for i in range(la):
        lo = max(0, i - window)
        hi = min(lb, i + window + 1)
        if lo >= hi:
            continue
        # the scalar kernel's greedy rule: first not-yet-matched position of
        # b inside the window whose character equals a[i]
        cand = (B[:, lo:hi] == A[:, i : i + 1]) & ~matched_b[:, lo:hi]
        hit = cand.any(axis=1)
        if not hit.any():
            continue
        first = cand.argmax(axis=1) + lo
        rows = np.flatnonzero(hit)
        matched_b[rows, first[rows]] = True
        matched_a[rows, i] = True
    m = matched_a.sum(axis=1).astype(np.float64)
    # transpositions: matched characters of each side, in order, compared
    # elementwise (per pair both sides have the same match count)
    ra, ca = np.nonzero(matched_a)
    rb, cb = np.nonzero(matched_b)
    mismatch = (A[ra, ca] != B[rb, cb]).astype(np.float64)
    trans = np.floor(np.bincount(ra, weights=mismatch, minlength=k) / 2.0)
    out = np.zeros(k, dtype=np.float64)
    nz = m > 0
    mm, tt = m[nz], trans[nz]
    out[nz] = (mm / la + mm / lb + (mm - tt) / mm) / 3.0
    return out
