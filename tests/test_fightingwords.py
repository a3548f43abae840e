import dataclasses
import json
import math
import random
import re
import sys
import time

import numpy
import pytest

from convoforge import FightingWords, Utterance, build_corpus
from convoforge.errors import (EmptyClassError, EmptyVocabularyError, NotFittedError,
                               NumericOverflowError)
from helpers import corpus_equal_strict, random_corpus
from reference import ref_fit_fw

# Golden values for the two-term worked example, computed by direct
# evaluation of the delta / sigma^2 / z formulas on the raw counts
# (class 1 = "a a b", class 2 = "b b", alpha = 0.01) before the
# implementation existed.
GOLDEN_DELTA_A = 5.991489299276892
GOLDEN_Z_A = 0.5976640480167308
GOLDEN_Z_B = -4.912358255434521


def worked_example_corpus():
    return build_corpus([
        Utterance("u1", "s1", "c1", "a a b", None, 1, {"cls": 1}),
        Utterance("u2", "s2", "c2", "b b", None, 2, {"cls": 2}),
    ])


def by_cls(value):
    return lambda u: u.meta.get("cls") == value


def fw_model(corpus, class1, class2, **params):
    """The FwModel that the stage fits to corpus."""
    return FightingWords(class1, class2, **params).fit(corpus).model


class TestFit:
    def test_golden_worked_example(self):
        model = fw_model(worked_example_corpus(), by_cls(1), by_cls(2), alpha=0.01)
        assert model.vocab == ["a", "b"]
        assert sum(model.y1) == 3 and sum(model.y2) == 2
        assert model.deltas[0] == pytest.approx(GOLDEN_DELTA_A, abs=1e-9)
        assert model.zscore("a") == pytest.approx(GOLDEN_Z_A, abs=1e-9)
        assert model.zscore("b") == pytest.approx(GOLDEN_Z_B, abs=1e-9)

    def test_identical_classes_all_zero(self):
        corpus = worked_example_corpus()
        everything = lambda u: True  # noqa: E731
        model = fw_model(corpus, everything, everything)
        assert all(z == 0.0 for z in model.zscores)

    def test_swap_negates_z(self):
        corpus = worked_example_corpus()
        forward = fw_model(corpus, by_cls(1), by_cls(2))
        backward = fw_model(corpus, by_cls(2), by_cls(1))
        for term in forward.vocab:
            assert backward.zscore(term) == pytest.approx(-forward.zscore(term),
                                                          abs=1e-12)

    def test_duplication_preserves_delta_signs(self):
        base = fw_model(worked_example_corpus(), by_cls(1), by_cls(2))
        tripled = build_corpus([
            Utterance(f"u{i}", "s", f"c{i}", text, None, i, {"cls": cls})
            for i, (text, cls) in enumerate(
                [("a a b", 1)] * 3 + [("b b", 2)] * 3
            )
        ])
        scaled = fw_model(tripled, by_cls(1), by_cls(2))
        for term in base.vocab:
            i, j = base.index[term], scaled.index[term]
            assert math.copysign(1, base.deltas[i]) == math.copysign(1, scaled.deltas[j])

    def test_empty_class(self):
        with pytest.raises(EmptyClassError):
            fw_model(worked_example_corpus(), by_cls(1), by_cls(99))

    def test_class_with_only_punctuation_tokens(self):
        corpus = build_corpus([
            Utterance("u1", "s", "c1", "words here", None, 1, {"cls": 1}),
            Utterance("u2", "s", "c2", "!!! ...", None, 2, {"cls": 2}),
        ])
        with pytest.raises(EmptyClassError):
            fw_model(corpus, by_cls(1), by_cls(2))

    def test_empty_vocabulary_after_min_count(self):
        corpus = build_corpus([
            Utterance("u1", "s", "c1", "aa bb", None, 1, {"cls": 1}),
            Utterance("u2", "s", "c2", "cc dd", None, 2, {"cls": 2}),
        ])
        with pytest.raises(EmptyVocabularyError):
            fw_model(corpus, by_cls(1), by_cls(2), min_count=3)

    def test_min_count_filters(self):
        corpus = build_corpus([
            Utterance("u1", "s", "c1", "a a b rare", None, 1, {"cls": 1}),
            Utterance("u2", "s", "c2", "a b b", None, 2, {"cls": 2}),
        ])
        model = fw_model(corpus, by_cls(1), by_cls(2), min_count=3)
        assert model.vocab == ["a", "b"]

    def test_single_term_vocabulary_rejected(self):
        # One surviving term leaves zero rest-of-vocabulary mass: no contrast.
        with pytest.raises(EmptyVocabularyError):
            fw_model(worked_example_corpus(), by_cls(1), by_cls(2), min_count=3)

    def test_bigrams(self):
        model = fw_model(worked_example_corpus(), by_cls(1), by_cls(2), ngram_max=2)
        assert "a a" in model.vocab and "a b" in model.vocab

    def test_ngram_max_beyond_the_longest_utterance_adds_nothing(self):
        # n-grams longer than every utterance are empty, so counting stops at
        # the longest: a huge ngram_max costs what 5 costs, not 10**9 passes.
        corpus = build_corpus([
            Utterance("u1", "s1", "c1", "a b c d e", None, 1, {"cls": 1}),
            Utterance("u2", "s2", "c2", "b c", None, 2, {"cls": 2}),
        ])
        started = time.perf_counter()
        model = fw_model(corpus, by_cls(1), by_cls(2), ngram_max=10**9)
        assert time.perf_counter() - started < 0.5
        assert model == fw_model(corpus, by_cls(1), by_cls(2), ngram_max=5)
        assert "a b c d e" in model.vocab

    def test_punctuation_excluded(self):
        corpus = build_corpus([
            Utterance("u1", "s", "c1", "yes! yes.", None, 1, {"cls": 1}),
            Utterance("u2", "s", "c2", "no?", None, 2, {"cls": 2}),
        ])
        model = fw_model(corpus, by_cls(1), by_cls(2))
        assert model.vocab == ["no", "yes"]

    def test_all_z_finite_on_random_splits(self):
        rng = random.Random(3)
        for _ in range(10):
            corpus = random_corpus(rng, max_utterances=30)
            ids = [u.id for u in corpus.utterances.values() if u.text.strip()]
            if len(ids) < 2:
                continue
            half = set(ids[: len(ids) // 2]) or {ids[0]}
            model = fw_model(corpus, lambda u: u.id in half,
                             lambda u: u.id not in half and bool(u.text.strip()))
            assert all(math.isfinite(z) for z in model.zscores)

    def test_fields_are_lists_of_float(self):
        model = fw_model(worked_example_corpus(), by_cls(1), by_cls(2))
        names = [field.name for field in dataclasses.fields(model)]
        assert names == ["vocab", "y1", "y2", "deltas", "zscores"]
        for name in names[1:]:
            values = getattr(model, name)
            assert type(values) is list, name
            assert len(values) == len(model.vocab), name
            assert all(type(v) is float for v in values), name

    @pytest.mark.parametrize("param", ["ngram_max", "min_count"])
    def test_count_below_one_is_refused_before_counting(self, param):
        # Refused before the corpus is read: an ngram_max of 0 would count no
        # n-grams and fail later with EmptyClassError.
        with pytest.raises(ValueError, match=f"^{param} must be a positive integer, got 0$"):
            FightingWords(by_cls(1), by_cls(2), **{param: 0})

    def test_numpy_float_prior_is_a_prior(self):
        expected = fw_model(worked_example_corpus(), by_cls(1), by_cls(2), alpha=0.5)
        model = fw_model(worked_example_corpus(), by_cls(1), by_cls(2), alpha=numpy.float64(0.5))
        assert model.zscores == expected.zscores

    def test_a_numpy_prior_gives_plain_floats(self):
        # The stage's alpha is the one prior; a numpy one gives the plain
        # floats that a Python one gives.
        stage = FightingWords(by_cls(1), by_cls(2), alpha=numpy.float64(0.5))
        model = stage.fit(worked_example_corpus()).model
        assert stage.alpha == 0.5
        for name in ("deltas", "zscores"):
            assert all(type(v) is float for v in getattr(model, name)), name

    @pytest.mark.parametrize("alpha", [0, -0.5, float("nan"), float("inf"), "0.1", True])
    def test_prior_must_be_positive_and_finite(self, alpha):
        with pytest.raises(ValueError, match="alpha must be a positive finite number"):
            FightingWords(class1="cls=1", class2="cls=2", alpha=alpha)

    @pytest.mark.parametrize("alpha", [1e-300, 5e-324])
    def test_a_tiny_prior_gives_finite_z(self, alpha):
        # "b" is all of class 2's count, so its rest-of-vocabulary mass there
        # is alpha alone: delta is log(1/2) - log(2/alpha) up to rounding.
        model = fw_model(worked_example_corpus(), by_cls(1), by_cls(2), alpha=alpha)
        assert all(math.isfinite(z) for z in model.deltas + model.zscores)
        assert model.zscore("a") >= 0
        assert model.zscore("b") == pytest.approx(
            (math.log(alpha) - 2 * math.log(2)) / math.sqrt(1.5), rel=1e-12)

    def test_a_prior_whose_total_overflows_is_named(self):
        # Each prior is finite; their total over the two terms is not.
        with pytest.raises(NumericOverflowError,
                           match=r"^alpha 1e\+308 overflows the prior total over 2 terms$"):
            fw_model(worked_example_corpus(), by_cls(1), by_cls(2), alpha=1e308)

    def test_prior_total_is_the_sum_of_the_priors(self):
        # alpha0 is alpha * len(vocab), one rounding of the real product, as
        # math.fsum of the priors rounds their exact sum once; where that
        # sum is beyond the float range the product is inf and fsum raises.
        rng = random.Random("fw-prior-total")
        cases = [(a, n) for a in (1e-300, 0.01, 0.1, 1 / 3, 1e307, 1e308)
                 for n in (1, 2, 3, 7, 10, 17, 1000)]
        cases += [(rng.uniform(1e-6, 10.0), rng.randint(1, 5000)) for _ in range(300)]
        cases += [(10.0 ** rng.uniform(-300, 308), rng.randint(1, 5000)) for _ in range(300)]
        for n in (1, 2, 3, 10, 1000):
            # Products within a few ulps of the largest float.
            edge = sys.float_info.max / n
            cases += [(edge, n), (math.nextafter(edge, 0), n),
                      (math.nextafter(edge, math.inf), n)]
        overflows = 0
        for a, n in cases:
            for alpha in (a, numpy.float64(a)):
                total = float(alpha) * n
                assert type(total) is float
                try:
                    expected = math.fsum([alpha] * n)
                except OverflowError:
                    assert total == math.inf, (a, n)
                    overflows += 1
                else:
                    assert total == expected, (a, n)
        assert overflows >= 10


def _close(actual, expected, rel=1e-12):
    return abs(actual - expected) <= rel * max(1.0, abs(expected))


class TestMatchesReference:
    """The stage's fit against the numpy oracle on seeded random corpora and
    splits."""

    def _split(self, rng, corpus):
        ids = list(corpus.utterances)
        in1 = {uid for uid in ids if rng.random() < 0.5}
        # Some splits overlap, some leave utterances out of both classes.
        in2 = {uid for uid in ids if uid not in in1 or rng.random() < 0.1}
        in2 -= {uid for uid in ids if rng.random() < 0.1}
        return (lambda u, s=frozenset(in1): u.id in s,
                lambda u, s=frozenset(in2): u.id in s)

    @pytest.mark.parametrize("ngram_max,min_count", [(1, 1), (2, 1), (1, 3), (2, 2)])
    def test_random_corpora(self, ngram_max, min_count):
        rng = random.Random(f"fw-uniform-{ngram_max}-{min_count}")
        fitted = 0
        for _ in range(40):
            corpus = random_corpus(rng, max_utterances=40)
            class1, class2 = self._split(rng, corpus)
            kwargs = {"ngram_max": ngram_max, "min_count": min_count,
                      "alpha": rng.choice([0.01, 0.5, 3.0])}
            try:
                expected = ref_fit_fw(corpus, class1, class2, **kwargs)
            except (EmptyClassError, EmptyVocabularyError) as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    fw_model(corpus, class1, class2, **kwargs)
                continue
            model = fw_model(corpus, class1, class2, **kwargs)
            fitted += 1
            assert model.vocab == expected.vocab
            assert model.index == expected.index
            assert model.y1 == expected.y1.tolist()
            assert model.y2 == expected.y2.tolist()
            for name in ("deltas", "zscores"):
                for got, want in zip(getattr(model, name), getattr(expected, name)):
                    assert _close(got, float(want)), (name, got, want)
        assert fitted >= 20


# Not an int of at least 1: zero, negatives, booleans, a float, a string, None.
BAD_TOP_K = [0, -1, -60, True, False, 1.5, "3", None]


def fitted_stage(corpus, class1, class2, top_k):
    return FightingWords(class1, class2, top_k=top_k).fit(corpus)


class TestSummarize:
    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            FightingWords(by_cls(1), by_cls(2)).summarize(worked_example_corpus())

    def test_top_k_beyond_vocab_no_padding(self):
        corpus = worked_example_corpus()
        stage = fitted_stage(corpus, by_cls(1), by_cls(2), top_k=50)
        assert len(stage.summarize(corpus).rows) == 2 * len(stage.model.vocab)

    def test_zero_z_ties_break_lexicographically(self):
        corpus = worked_example_corpus()
        everything = lambda u: True  # noqa: E731
        stage = fitted_stage(corpus, everything, everything, top_k=2)
        labels = [label for label, _ in stage.summarize(corpus).rows]
        assert labels[:2] == sorted(stage.model.vocab)

    def test_tied_z_rows_stay_in_term_order_in_both_classes(self):
        corpus = build_corpus([
            Utterance("u1", "s1", "c1", "d c b a x x", None, 1, {"cls": 1}),
            Utterance("u2", "s2", "c2", "z y w x", None, 2, {"cls": 2}),
        ])
        table = fitted_stage(corpus, by_cls(1), by_cls(2), top_k=3).summarize(corpus)
        assert table.to_delimited() == (
            "term\tclass\ty1\ty2\tzscore\n"
            "a\tclass1\t1\t0\t0.437382\n"
            "b\tclass1\t1\t0\t0.437382\n"
            "c\tclass1\t1\t0\t0.437382\n"
            "w\tclass2\t0\t1\t-0.527077\n"
            "y\tclass2\t0\t1\t-0.527077\n"
            "z\tclass2\t0\t1\t-0.527077"
        )

    def test_ordering_matches_sign_of_golden_z(self):
        corpus = worked_example_corpus()
        table = fitted_stage(corpus, by_cls(1), by_cls(2), top_k=1).summarize(corpus)
        assert table.rows[0][0] == "a"   # top class-1 term (positive z)
        assert table.rows[1][0] == "b"   # top class-2 term (negative z)

    def test_ranking_export_rows(self):
        model = fw_model(worked_example_corpus(), by_cls(1), by_cls(2))
        rows = model.ranking()
        assert rows[0][0] == "a" and rows[-1][0] == "b"
        assert rows[0][1:3] == (2, 0)


class TestTransformer:
    def test_fit_transform_summarize(self):
        corpus = worked_example_corpus()
        fw = FightingWords(class1="cls=1", class2="cls=2", top_k=1)
        fw.fit(corpus)
        fw.transform(corpus)
        assert corpus.utterances["u1"].meta["fw_class"] == "class1"
        assert corpus.utterances["u2"].meta["fw_class"] == "class2"
        table = fw.summarize(corpus)
        assert table.rows[0][0] == "a"

    def test_fit_with_predicates_leaves_the_corpus_unchanged(self):
        corpus = worked_example_corpus()
        stage = FightingWords(by_cls(1), by_cls(2)).fit(corpus)
        assert stage.model.vocab == ["a", "b"]
        assert corpus_equal_strict(corpus, worked_example_corpus())

    @pytest.mark.parametrize("class1,class2,message", [
        ("x", "cls=2", "bad filter clause 'x'; expected key=value"),
        ("cls=1", "=2", "bad filter clause '=2'; empty key"),
        ("cls=1", " , ", "empty filter expression ' , '"),
    ])
    def test_bad_filter_refused_by_constructor(self, class1, class2, message):
        # Parsed without a corpus, so a pipeline refuses it before loading one.
        with pytest.raises(ValueError, match=re.escape(message)):
            FightingWords(class1=class1, class2=class2)

    @pytest.mark.parametrize("top_k", BAD_TOP_K, ids=repr)
    def test_bad_top_k_refused_by_constructor(self, top_k):
        with pytest.raises(ValueError, match=re.escape(
                f"top_k must be a positive integer, got {json.dumps(top_k)}")):
            FightingWords(class1="cls=1", class2="cls=2", top_k=top_k)

    def test_overlapping_classes_warn(self, caplog):
        corpus = worked_example_corpus()
        with caplog.at_level("WARNING"):
            fw_model(corpus, lambda u: True, lambda u: True)
        assert any("both classes" in m for m in caplog.messages)
