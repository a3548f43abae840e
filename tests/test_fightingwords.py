import math
import random
import re

import pytest

from convoforge import FightingWords, Utterance, build_corpus, fit_fw, summarize_fw
from convoforge.errors import EmptyClassError, EmptyVocabularyError, NotFittedError
from helpers import random_corpus
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


class TestFit:
    def test_golden_worked_example(self):
        model = fit_fw(worked_example_corpus(), by_cls(1), by_cls(2), alpha=0.01)
        assert model.vocab == ["a", "b"]
        assert model.n1 == 3 and model.n2 == 2
        assert model.alpha0 == pytest.approx(0.02, abs=1e-15)
        assert model.deltas[0] == pytest.approx(GOLDEN_DELTA_A, abs=1e-9)
        assert model.zscore("a") == pytest.approx(GOLDEN_Z_A, abs=1e-9)
        assert model.zscore("b") == pytest.approx(GOLDEN_Z_B, abs=1e-9)

    def test_identical_classes_all_zero(self):
        corpus = worked_example_corpus()
        everything = lambda u: True  # noqa: E731
        model = fit_fw(corpus, everything, everything)
        assert all(z == 0.0 for z in model.zscores)

    def test_swap_negates_z(self):
        corpus = worked_example_corpus()
        forward = fit_fw(corpus, by_cls(1), by_cls(2))
        backward = fit_fw(corpus, by_cls(2), by_cls(1))
        for term in forward.vocab:
            assert backward.zscore(term) == pytest.approx(-forward.zscore(term),
                                                          abs=1e-12)

    def test_duplication_preserves_delta_signs(self):
        base = fit_fw(worked_example_corpus(), by_cls(1), by_cls(2))
        tripled = build_corpus([
            Utterance(f"u{i}", "s", f"c{i}", text, None, i, {"cls": cls})
            for i, (text, cls) in enumerate(
                [("a a b", 1)] * 3 + [("b b", 2)] * 3
            )
        ])
        scaled = fit_fw(tripled, by_cls(1), by_cls(2))
        for term in base.vocab:
            i, j = base.index[term], scaled.index[term]
            assert math.copysign(1, base.deltas[i]) == math.copysign(1, scaled.deltas[j])

    def test_empty_class(self):
        with pytest.raises(EmptyClassError):
            fit_fw(worked_example_corpus(), by_cls(1), by_cls(99))

    def test_class_with_only_punctuation_tokens(self):
        corpus = build_corpus([
            Utterance("u1", "s", "c1", "words here", None, 1, {"cls": 1}),
            Utterance("u2", "s", "c2", "!!! ...", None, 2, {"cls": 2}),
        ])
        with pytest.raises(EmptyClassError):
            fit_fw(corpus, by_cls(1), by_cls(2))

    def test_empty_vocabulary_after_min_count(self):
        corpus = build_corpus([
            Utterance("u1", "s", "c1", "aa bb", None, 1, {"cls": 1}),
            Utterance("u2", "s", "c2", "cc dd", None, 2, {"cls": 2}),
        ])
        with pytest.raises(EmptyVocabularyError):
            fit_fw(corpus, by_cls(1), by_cls(2), min_count=3)

    def test_min_count_filters(self):
        corpus = build_corpus([
            Utterance("u1", "s", "c1", "a a b rare", None, 1, {"cls": 1}),
            Utterance("u2", "s", "c2", "a b b", None, 2, {"cls": 2}),
        ])
        model = fit_fw(corpus, by_cls(1), by_cls(2), min_count=3)
        assert model.vocab == ["a", "b"]

    def test_single_term_vocabulary_rejected(self):
        # One surviving term leaves zero rest-of-vocabulary mass: no contrast.
        with pytest.raises(EmptyVocabularyError):
            fit_fw(worked_example_corpus(), by_cls(1), by_cls(2), min_count=3)

    def test_bigrams(self):
        model = fit_fw(worked_example_corpus(), by_cls(1), by_cls(2), ngram_max=2)
        assert "a a" in model.vocab and "a b" in model.vocab

    def test_punctuation_excluded(self):
        corpus = build_corpus([
            Utterance("u1", "s", "c1", "yes! yes.", None, 1, {"cls": 1}),
            Utterance("u2", "s", "c2", "no?", None, 2, {"cls": 2}),
        ])
        model = fit_fw(corpus, by_cls(1), by_cls(2))
        assert model.vocab == ["no", "yes"]

    def test_all_z_finite_on_random_splits(self):
        rng = random.Random(3)
        for _ in range(10):
            corpus = random_corpus(rng, max_utterances=30)
            ids = [u.id for u in corpus.utterances.values() if u.text.strip()]
            if len(ids) < 2:
                continue
            half = set(ids[: len(ids) // 2]) or {ids[0]}
            model = fit_fw(corpus, lambda u: u.id in half,
                           lambda u: u.id not in half and bool(u.text.strip()))
            assert all(math.isfinite(z) for z in model.zscores)

    def test_background_prior(self):
        background = build_corpus([
            Utterance("bg", "s", "c", "b b b b a", None, 1),
        ])
        model = fit_fw(worked_example_corpus(), by_cls(1), by_cls(2),
                       background=background, alpha_total=0.5)
        assert model.alpha0 == pytest.approx(0.5, abs=1e-12)
        assert all(a > 0 for a in model.alpha)
        # "b" dominates the background, so it takes the larger prior share.
        assert model.alpha[model.index["b"]] > model.alpha[model.index["a"]]

    def test_fields_are_lists_of_float(self):
        model = fit_fw(worked_example_corpus(), by_cls(1), by_cls(2))
        for name in ("y1", "y2", "alpha", "deltas", "zscores"):
            values = getattr(model, name)
            assert type(values) is list, name
            assert len(values) == len(model.vocab), name
            assert all(type(v) is float for v in values), name
        assert type(model.n1) is int and type(model.n2) is int
        assert type(model.alpha0) is float

    @pytest.mark.parametrize("alpha", [0, -0.5, float("nan"), float("inf"), "0.1"])
    def test_prior_must_be_positive_and_finite(self, alpha):
        with pytest.raises(ValueError, match="alpha must be a positive finite number"):
            fit_fw(worked_example_corpus(), by_cls(1), by_cls(2), alpha=alpha)
        with pytest.raises(ValueError, match="alpha must be a positive finite number"):
            FightingWords(class1="cls=1", class2="cls=2", alpha=alpha)
        with pytest.raises(ValueError, match="alpha_total must be a positive finite"):
            fit_fw(worked_example_corpus(), by_cls(1), by_cls(2),
                   background=worked_example_corpus(), alpha_total=alpha)


def _close(actual, expected, rel=1e-12):
    return abs(actual - expected) <= rel * max(1.0, abs(expected))


class TestMatchesReference:
    """fit_fw against the numpy oracle on seeded random corpora and splits."""

    def _split(self, rng, corpus):
        ids = list(corpus.utterances)
        in1 = {uid for uid in ids if rng.random() < 0.5}
        # Some splits overlap, some leave utterances out of both classes.
        in2 = {uid for uid in ids if uid not in in1 or rng.random() < 0.1}
        in2 -= {uid for uid in ids if rng.random() < 0.1}
        return (lambda u, s=frozenset(in1): u.id in s,
                lambda u, s=frozenset(in2): u.id in s)

    @pytest.mark.parametrize("prior", ["uniform", "background", "background_total"])
    @pytest.mark.parametrize("ngram_max,min_count", [(1, 1), (2, 1), (1, 3), (2, 2)])
    def test_random_corpora(self, prior, ngram_max, min_count):
        rng = random.Random(f"fw-{prior}-{ngram_max}-{min_count}")
        fitted = 0
        for _ in range(40):
            corpus = random_corpus(rng, max_utterances=40)
            class1, class2 = self._split(rng, corpus)
            kwargs = {"ngram_max": ngram_max, "min_count": min_count,
                      "alpha": rng.choice([0.01, 0.5, 3.0])}
            if prior != "uniform":
                kwargs["background"] = random_corpus(rng, max_utterances=20)
            if prior == "background_total":
                kwargs["alpha_total"] = rng.uniform(0.05, 20.0)
            try:
                expected = ref_fit_fw(corpus, class1, class2, **kwargs)
            except (EmptyClassError, EmptyVocabularyError) as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    fit_fw(corpus, class1, class2, **kwargs)
                continue
            model = fit_fw(corpus, class1, class2, **kwargs)
            fitted += 1
            assert model.vocab == expected.vocab
            assert model.index == expected.index
            assert (model.n1, model.n2) == (expected.n1, expected.n2)
            assert model.y1 == expected.y1.tolist()
            assert model.y2 == expected.y2.tolist()
            assert _close(model.alpha0, expected.alpha0)
            for name in ("alpha", "deltas", "zscores"):
                for got, want in zip(getattr(model, name), getattr(expected, name)):
                    assert _close(got, float(want)), (name, got, want)
        assert fitted >= 20


# Not an int of at least 1: zero, negatives, booleans, a float, a string, None.
BAD_TOP_K = [0, -1, -60, True, False, 1.5, "3", None]


class TestSummarize:
    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            summarize_fw(None)

    def test_top_k_beyond_vocab_no_padding(self):
        model = fit_fw(worked_example_corpus(), by_cls(1), by_cls(2))
        table = summarize_fw(model, top_k=50)
        assert len(table.rows) == 2 * len(model.vocab)

    def test_zero_z_ties_break_lexicographically(self):
        corpus = worked_example_corpus()
        everything = lambda u: True  # noqa: E731
        model = fit_fw(corpus, everything, everything)
        table = summarize_fw(model, top_k=2)
        labels = [label for label, _ in table.rows]
        assert labels[:2] == sorted(model.vocab)

    def test_tied_z_rows_stay_in_term_order_in_both_classes(self):
        corpus = build_corpus([
            Utterance("u1", "s1", "c1", "d c b a x x", None, 1, {"cls": 1}),
            Utterance("u2", "s2", "c2", "z y w x", None, 2, {"cls": 2}),
        ])
        model = fit_fw(corpus, by_cls(1), by_cls(2))
        assert summarize_fw(model, top_k=3).to_delimited() == (
            "term\tclass\ty1\ty2\tzscore\n"
            "a\tclass1\t1\t0\t0.437382\n"
            "b\tclass1\t1\t0\t0.437382\n"
            "c\tclass1\t1\t0\t0.437382\n"
            "w\tclass2\t0\t1\t-0.527077\n"
            "y\tclass2\t0\t1\t-0.527077\n"
            "z\tclass2\t0\t1\t-0.527077"
        )

    def test_ordering_matches_sign_of_golden_z(self):
        model = fit_fw(worked_example_corpus(), by_cls(1), by_cls(2))
        table = summarize_fw(model, top_k=1)
        assert table.rows[0][0] == "a"   # top class-1 term (positive z)
        assert table.rows[1][0] == "b"   # top class-2 term (negative z)

    @pytest.mark.parametrize("top_k", BAD_TOP_K, ids=repr)
    def test_top_k_that_is_not_a_positive_integer_is_refused(self, top_k):
        # A slice by zero or a negative count would print a truncated ranking.
        model = fit_fw(worked_example_corpus(), by_cls(1), by_cls(2))
        with pytest.raises(ValueError, match=re.escape(
                f"top_k must be a positive integer, got {top_k!r}")):
            summarize_fw(model, top_k=top_k)

    def test_ranking_export_rows(self):
        model = fit_fw(worked_example_corpus(), by_cls(1), by_cls(2))
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
                f"top_k must be a positive integer, got {top_k!r}")):
            FightingWords(class1="cls=1", class2="cls=2", top_k=top_k)

    def test_overlapping_classes_warn(self, caplog):
        corpus = worked_example_corpus()
        with caplog.at_level("WARNING"):
            fit_fw(corpus, lambda u: True, lambda u: True)
        assert any("both classes" in m for m in caplog.messages)
