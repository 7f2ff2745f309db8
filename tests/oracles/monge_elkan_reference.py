"""The distinct-key Monge–Elkan kernel, kept as the oracle for the dense one.

This is the lookup :func:`repro.text.batch.batch_monge_elkan_jw_indexed`
replaced: both sides share one token vocab, every bucket chunk's
``(token_a, token_b)`` keys are sorted and deduplicated with ``np.unique``,
Jaro–Winkler runs once over the distinct keys, and every cell is mapped
back with ``searchsorted``. The aggregation (bucket by token-count shape,
``max``/``mean`` reductions per chunk) is the same, so the two kernels must
agree bit for bit.

The budget and chunk constants are read from :mod:`repro.text.batch` at call
time, so a test that monkeypatches them changes both kernels alike.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.text import batch as _batch
from repro.text.batch import _NAN, _length_buckets, _none_flags, batch_jaro_winkler_indexed


def reference_monge_elkan_jw_indexed(
    records_a: Sequence,
    ua: np.ndarray,
    records_b: Sequence,
    ub: np.ndarray,
) -> np.ndarray | None:
    """Batch symmetric Monge–Elkan with Jaro–Winkler inner similarity.

    Returns ``None`` if the expansion exceeds the cell budget.
    """
    n = len(ua)
    vocab: dict = {}

    def encode(records):
        indptr = np.zeros(len(records) + 1, dtype=np.int64)
        rows: list[np.ndarray] = []
        for u, tokens in enumerate(records):
            ids = (
                np.fromiter(
                    (vocab.setdefault(t, len(vocab)) for t in tokens),
                    dtype=np.int64,
                    count=len(tokens),
                )
                if tokens
                else np.zeros(0, dtype=np.int64)
            )
            rows.append(ids)  # token order preserved — aggregation order matters
            indptr[u + 1] = indptr[u] + len(ids)
        tok = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
        return indptr, tok

    enc_a = encode(records_a)
    enc_b = enc_a if records_b is records_a else encode(records_b)
    indptr_a, tok_a = enc_a
    indptr_b, tok_b = enc_b

    la = np.diff(indptr_a)[ua]
    lb = np.diff(indptr_b)[ub]
    missing = _none_flags(records_a)[ua] | _none_flags(records_b)[ub]
    valid = ~missing & (la > 0) & (lb > 0)
    if int((la[valid] * lb[valid]).sum()) > _batch._MONGE_ELKAN_CELL_BUDGET:
        return None

    out = np.zeros(n, dtype=np.float64)
    out[(la == 0) & (lb == 0) & ~missing] = 1.0
    out[missing] = _NAN

    vocab_size = max(len(vocab), 1)
    valid_idx = np.flatnonzero(valid)
    if not len(valid_idx):
        return out

    # Bucket valid pairs by (|A|, |B|) so each bucket is a dense
    # (k, |A|, |B|) block, processed in row chunks to bound the transient
    # key/sim intermediates. First pass collects every token-id pair needed.
    buckets = _length_buckets(la[valid_idx], lb[valid_idx])
    bucket_members = []
    for (ka, kb), members in buckets.items():
        rows = valid_idx[members]
        bucket_members.append(((ka, kb), rows, indptr_a[ua[rows]], indptr_b[ub[rows]]))

    def chunked_keys(ka, kb, starts_a, starts_b):
        # token-id matrices are re-gathered per chunk (never retained), so
        # the transient (chunk, ka, kb) intermediates stay within the cap
        chunk = max(1, _batch._MONGE_ELKAN_CHUNK_CELLS // (ka * kb))
        for s in range(0, len(starts_a), chunk):
            A = tok_a[starts_a[s : s + chunk, None] + np.arange(ka, dtype=np.int64)]
            B = tok_b[starts_b[s : s + chunk, None] + np.arange(kb, dtype=np.int64)]
            yield s, s + chunk, A[:, :, None] * vocab_size + B[:, None, :]

    bucket_keys = [
        np.unique(keys)
        for (ka, kb), _rows, starts_a, starts_b in bucket_members
        for _s, _e, keys in chunked_keys(ka, kb, starts_a, starts_b)
    ]
    unique_keys = np.unique(np.concatenate(bucket_keys))
    tokens = list(vocab)
    inner_a = unique_keys // vocab_size
    inner_b = unique_keys % vocab_size
    jw_table = batch_jaro_winkler_indexed(tokens, inner_a, tokens, inner_b)

    for (ka, kb), rows, starts_a, starts_b in bucket_members:
        for s, e, keys in chunked_keys(ka, kb, starts_a, starts_b):
            sims = jw_table[np.searchsorted(unique_keys, keys)]
            forward = sims.max(axis=2).mean(axis=1)
            backward = sims.max(axis=1).mean(axis=1)
            out[rows[s:e]] = 0.5 * (forward + backward)
    return out
