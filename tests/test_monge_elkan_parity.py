"""The dense-table Monge–Elkan kernel against the distinct-key oracle.

:func:`repro.text.batch.batch_monge_elkan_jw_indexed` looks token-pair
Jaro–Winkler scores up in a dense ``Va × Vb`` table;
:mod:`oracles.monge_elkan_reference` keeps the sort/``np.unique``/
``searchsorted`` lookup it replaced. Both reduce the same ``(k, |A|, |B|)``
chunks, so every Monge–Elkan column must agree exactly — NaN pattern and
bits — on the linkage pairs and both within-table pair sets of every fixture
dataset, including when the chunk cap forces the table into several slices.
"""

from collections import Counter

import numpy as np
import pytest

import repro.features.generator as generator_mod
from repro.data.benchmarks import load_benchmark
from repro.eval.harness import _BLOCKING, blocker_for, co_candidate_pairs
from repro.features.generator import FeatureGenerator, _BatchContext
from repro.text import batch
from repro.text.batch import batch_monge_elkan_jw_indexed

from oracles.monge_elkan_reference import reference_monge_elkan_jw_indexed

DATASETS = ("rest_fz", "pub_da", "pub_ds", "mv_ri", "prod_ab", "prod_ag")


def _me_inputs(name, seed=5):
    """``(label, rows_a, ua, rows_b, ub)`` for every ME column and pair set."""
    ds = load_benchmark(name, scale="tiny", seed=seed)
    pairs = blocker_for(name).block(ds.left, ds.right)
    cap = _BLOCKING[name][3]
    pair_sets = [
        ("linkage", ds.left, ds.right, pairs),
        ("left", ds.left, None, co_candidate_pairs(pairs, side=0, cap=cap)),
        ("right", ds.right, None, co_candidate_pairs(pairs, side=1, cap=cap)),
    ]
    gen = FeatureGenerator().fit(ds.left, ds.right, ds.attributes)
    me = [f for f in gen.features_ if getattr(f, "sim_func", None) is generator_mod._monge_elkan_jw]
    assert me, f"{name} has no Monge–Elkan column"
    inputs = []
    for label, left, right, set_pairs in pair_sets:
        assert set_pairs, f"{name}/{label} has no pairs"
        ctx = _BatchContext(left, right, set_pairs)
        for feature in me:
            rows_a, rows_b = ctx.record_token_tuples(feature.attribute, feature.tokenizer)
            assert (rows_a is rows_b) == (right is None)
            inputs.append((f"{label}/{feature.name}", rows_a, ctx.ua, rows_b, ctx.ub))
    return inputs


def _assert_identical(label, rows_a, ua, rows_b, ub):
    got = batch_monge_elkan_jw_indexed(rows_a, ua, rows_b, ub)
    want = reference_monge_elkan_jw_indexed(rows_a, ua, rows_b, ub)
    assert got is not None and want is not None
    assert np.array_equal(got, want, equal_nan=True), f"{label} differs from the oracle"


@pytest.mark.parametrize("name", DATASETS)
def test_every_me_column_matches_the_oracle_bit_for_bit(name):
    for args in _me_inputs(name):
        _assert_identical(*args)


def test_sliced_table_and_chunked_buckets_match_the_oracle(monkeypatch):
    # Shrink the cap so the dense table is built in several a-vocab slices
    # and the larger (|A|, |B|) buckets are split into several chunks.
    slices = []
    real_jw = batch.batch_jaro_winkler_indexed

    def counting_jw(*args):
        slices.append(len(args[1]))
        return real_jw(*args)

    monkeypatch.setattr(batch, "batch_jaro_winkler_indexed", counting_jw)
    for label, rows_a, ua, rows_b, ub in _me_inputs("pub_da"):
        va = len({t for r in rows_a if r for t in r})
        vb = len({t for r in rows_b if r for t in r})
        cap = vb * (va // 4 + 2)
        monkeypatch.setattr(batch, "_MONGE_ELKAN_CHUNK_CELLS", cap)
        # some (|A|, |B|) bucket holds more cells than one chunk may
        shapes = Counter(
            (len(rows_a[i]), len(rows_b[j])) for i, j in zip(ua, ub) if rows_a[i] and rows_b[j]
        )
        assert any(n * ka * kb > cap for (ka, kb), n in shapes.items()), label
        slices.clear()
        got = batch_monge_elkan_jw_indexed(rows_a, ua, rows_b, ub)
        assert len(slices) >= 3, f"{label}: {len(slices)} slice(s)"
        assert np.array_equal(
            got, reference_monge_elkan_jw_indexed(rows_a, ua, rows_b, ub), equal_nan=True
        ), label


def test_missing_empty_and_repeated_tokens_match_the_oracle():
    bags = [None, (), ("a",), ("a", "a", "b"), ("b", "ab", "ba"), ("c",), ("ab",)]
    idx = np.arange(len(bags))
    ua, ub = np.repeat(idx, len(bags)), np.tile(idx, len(bags))
    shuffled = list(reversed(bags))
    _assert_identical("dedup", bags, ua, bags, ub)
    _assert_identical("linkage", bags, ua, shuffled, ub)
