"""The max-length-class Jaro–Winkler kernel against the length-pair oracle.

:func:`repro.text.batch.batch_jaro_winkler_indexed` classes value
combinations by ``max(len(a), len(b))`` and gathers padded code matrices
from per-side code stores; :mod:`oracles.jaro_winkler_reference` keeps the
``(len(a), len(b))``-bucketed kernel it replaced. Both run the scalar
kernel's arithmetic, so every call must agree exactly — NaN pattern and
bits — including every call made while featurizing the fixture datasets.
"""

import numpy as np
import pytest

import repro.features.generator as generator_mod
from repro.data.benchmarks import load_benchmark
from repro.eval.harness import _BLOCKING, blocker_for, co_candidate_pairs
from repro.features.generator import FeatureGenerator
from repro.text import batch
from repro.text.batch import batch_jaro_winkler_indexed
from repro.text.similarity import jaro_winkler

from oracles.jaro_winkler_reference import reference_jaro_winkler_indexed

DATASETS = ("rest_fz", "pub_da", "pub_ds", "mv_ri", "prod_ab", "prod_ag")


def _assert_identical(label, records_a, ua, records_b, ub, **kw):
    got = batch_jaro_winkler_indexed(records_a, ua, records_b, ub, **kw)
    want = reference_jaro_winkler_indexed(records_a, ua, records_b, ub, **kw)
    assert np.array_equal(got, want, equal_nan=True), f"{label} differs from the oracle"
    return got


def _assert_matches_scalar(got, records_a, ua, records_b, ub, **kw):
    want = [
        np.nan if records_a[i] is None or records_b[j] is None
        else jaro_winkler(records_a[i], records_b[j], **kw)
        for i, j in zip(ua, ub)
    ]
    assert np.array_equal(got, np.array(want, dtype=np.float64), equal_nan=True)


def _featurization_calls(name, monkeypatch, seed=5):
    """Every JW kernel call of featurizing one fixture dataset's pair sets."""
    ds = load_benchmark(name, scale="tiny", seed=seed)
    pairs = blocker_for(name).block(ds.left, ds.right)
    cap = _BLOCKING[name][3]
    gen = FeatureGenerator().fit(ds.left, ds.right, ds.attributes)
    calls = []
    real = batch.batch_jaro_winkler_indexed

    def spy_for(source):
        def spy(records_a, ua, records_b, ub, **kw):
            calls.append((source, records_a, np.array(ua), records_b, np.array(ub), kw))
            return real(records_a, ua, records_b, ub, **kw)

        return spy

    # Monge–Elkan reaches the kernel through the module, *_jw_sim columns
    # through the generator's import
    monkeypatch.setattr(batch, "batch_jaro_winkler_indexed", spy_for("monge_elkan"))
    monkeypatch.setattr(generator_mod, "batch_jaro_winkler_indexed", spy_for("jw_sim"))
    for left, right, set_pairs in (
        (ds.left, ds.right, pairs),
        (ds.left, None, co_candidate_pairs(pairs, side=0, cap=cap)),
        (ds.right, None, co_candidate_pairs(pairs, side=1, cap=cap)),
    ):
        assert set_pairs
        gen.transform(left, right, set_pairs)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("name", DATASETS)
def test_every_featurization_call_matches_the_oracle_bit_for_bit(name, monkeypatch):
    calls = _featurization_calls(name, monkeypatch)
    assert any(source == "monge_elkan" for source, *_ in calls), name
    for n, (source, records_a, ua, records_b, ub, kw) in enumerate(calls):
        _assert_identical(f"{name} {source} call {n}", records_a, ua, records_b, ub, **kw)


def test_fixture_calls_reach_both_callers_shared_lists_and_vector_classes(monkeypatch):
    # the suite above proves less than it says unless the fixtures reach
    # both callers, the one-record-list (dedup) path and vectorized classes
    sources, shared, vector_rows = set(), 0, []
    real_class = batch._class_jaro

    def class_spy(A, *args):
        vector_rows.append(len(A))
        return real_class(A, *args)

    for name in DATASETS:
        for source, records_a, ua, records_b, ub, kw in _featurization_calls(name, monkeypatch):
            sources.add(source)
            shared += records_b is records_a
            with monkeypatch.context() as m:
                m.setattr(batch, "_class_jaro", class_spy)
                batch_jaro_winkler_indexed(records_a, ua, records_b, ub, **kw)
    assert sources == {"monge_elkan", "jw_sim"}
    assert shared
    assert sum(vector_rows) > 1000


def _random_strings(rng, n, alphabet):
    out = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.05:
            out.append(None)
        elif roll < 0.1:
            out.append("")
        else:
            # half short (dense classes, many near-equal pairs), half 0–70
            length = int(rng.integers(1, 8) if roll < 0.55 else rng.integers(0, 71))
            out.append("".join(rng.choice(alphabet, size=length)))
    return out


@pytest.mark.parametrize("alphabet", ["ab", "abcdefgh", "abc𝕏𝄞\U0001F600é"])
def test_random_strings_across_width_classes(alphabet):
    rng = np.random.default_rng(71)
    letters = list(alphabet)
    records_a = _random_strings(rng, 150, letters)
    records_b = _random_strings(rng, 120, letters) + records_a[:30]  # shared values
    ua = rng.integers(0, len(records_a), 4000)
    ub = rng.integers(0, len(records_b), 4000)
    widths = {max(len(records_a[i] or ""), len(records_b[j] or "")) for i, j in zip(ua, ub)}
    assert len(widths) > 50
    got = _assert_identical("linkage", records_a, ua, records_b, ub)
    _assert_matches_scalar(got, records_a, ua, records_b, ub)
    # one record list on both sides (dedup), incl. every self-pair
    ub_same = np.concatenate([rng.permutation(ua), np.arange(len(records_a))])
    ua_same = np.concatenate([ua, np.arange(len(records_a))])
    got = _assert_identical("same", records_a, ua_same, records_a, ub_same)
    _assert_matches_scalar(got, records_a, ua_same, records_a, ub_same)
    # non-default Winkler parameters, including a disabled prefix boost
    for kw in ({"prefix_weight": 0.25, "max_prefix": 2}, {"max_prefix": 0}):
        got = _assert_identical(f"params {kw}", records_a, ua, records_b, ub, **kw)
        _assert_matches_scalar(got, records_a, ua, records_b, ub, **kw)


@pytest.mark.parametrize("min_bucket", [1, 10**9])
def test_all_vectorized_and_all_scalar_match_the_oracle(min_bucket, monkeypatch):
    # the oracle reads _MIN_VECTOR_BUCKET at call time, so both kernels
    # switch paths together
    monkeypatch.setattr(batch, "_MIN_VECTOR_BUCKET", min_bucket)
    rng = np.random.default_rng(72)
    records = _random_strings(rng, 120, list("abcde𝕏"))
    ua = rng.integers(0, len(records), 3000)
    ub = rng.integers(0, len(records), 3000)
    got = _assert_identical("linkage", records, ua, list(reversed(records)), ub)
    _assert_matches_scalar(got, records, ua, list(reversed(records)), ub)
    _assert_identical("same", records, ua, records, ub)


def test_missing_empty_equal_and_non_bmp_strings():
    records_a = [None, "", "x", "same", "𝕏ray", "na\U0001F600me", "𝄞𝄞𝄞𝄞", "martha", "ab"]
    records_b = ["", None, "same", "𝕏ray", "xray", "na\U0001F601me", "𝄞𝄞x𝄞", "marhta", "ba"]
    idx = np.arange(len(records_a))
    ua, ub = np.repeat(idx, len(records_b)), np.tile(idx, len(records_a))
    got = _assert_identical("all pairs", records_a, ua, records_b, ub)
    _assert_matches_scalar(got, records_a, ua, records_b, ub)
    grid = got.reshape(len(records_a), len(records_b))
    assert np.isnan(grid[0]).all() and np.isnan(grid[:, 1]).all()
    assert grid[1, 0] == 1.0 and grid[2, 0] == 0.0 and grid[1, 2] == 0.0
    assert grid[3, 2] == 1.0 and grid[4, 3] == 1.0


def test_lone_surrogates_match_the_scalar_kernel():
    # a lone surrogate is one character to the scalar kernel; the code
    # store keeps it as its own code rather than failing to encode it
    records_a = [f"a\ud800b{i}" for i in range(6)] + ["\udfff"]
    records_b = [f"a\ud800c{i}" for i in range(6)] + ["\udfff"]
    idx = np.arange(len(records_a))
    ua, ub = np.repeat(idx, len(records_b)), np.tile(idx, len(records_a))
    got = batch_jaro_winkler_indexed(records_a, ua, records_b, ub)
    _assert_matches_scalar(got, records_a, ua, records_b, ub)


def test_classes_below_and_at_the_vector_threshold(monkeypatch):
    threshold = batch._MIN_VECTOR_BUCKET
    # width 5: threshold - 1 distinct non-equal pairs → scalar fallback;
    # width 7: threshold distinct pairs (one equal) → one vectorized class
    short = [(f"ab{i}cd", f"ba{i}dc") for i in range(threshold - 1)]
    long = [(f"mar{i}tha", f"mar{i}hta") for i in range(threshold - 1)] + [("abcdefg",) * 2]
    records_a = [a for a, _ in short + long]
    records_b = [b for _, b in short + long]
    scalar_calls, class_rows = [], []
    real_scalar, real_class = batch.jaro_winkler, batch._class_jaro

    def scalar_spy(a, b, **kw):
        scalar_calls.append((a, b))
        return real_scalar(a, b, **kw)

    def class_spy(A, *args):
        class_rows.append(A.shape)
        return real_class(A, *args)

    monkeypatch.setattr(batch, "jaro_winkler", scalar_spy)
    monkeypatch.setattr(batch, "_class_jaro", class_spy)
    idx = np.arange(len(records_a))
    got = batch_jaro_winkler_indexed(records_a, idx, records_b, idx)
    assert sorted(scalar_calls) == sorted(short)
    assert class_rows == [(threshold - 1, 7)]  # the equal pair is settled first
    monkeypatch.undo()
    _assert_matches_scalar(got, records_a, idx, records_b, idx)
    _assert_identical("threshold", records_a, idx, records_b, idx)
