import copy
import math
import random
import re
from types import MappingProxyType

import numpy
import pytest

from convoforge import (
    SpeakerDiversity,
    Tokenizer,
    Utterance,
    build_corpus,
    jensen_shannon,
)
from convoforge.diversity import _distributions, _token_counts_by_speaker
from helpers import random_corpus
from reference import ref_jensen_shannon

LN2 = math.log(2)


def speaker_distributions(corpus, speaker_id, min_tokens_per_convo=1):
    """One unigram distribution per conversation the speaker spoke in with at
    least min_tokens_per_convo tokens: what SpeakerDiversity compares."""
    return _distributions(_token_counts_by_speaker(corpus).get(speaker_id, {}),
                          min_tokens_per_convo)


def speaker_corpus(texts_by_convo, speaker="s"):
    """One speaker uttering the given text in each conversation."""
    utts = []
    for i, text in enumerate(texts_by_convo):
        utts.append(Utterance(f"c{i}_u", speaker, f"c{i}", text, None, i))
    corpus = build_corpus(utts)
    Tokenizer().transform(corpus)
    return corpus


def score(corpus, speaker="s"):
    return corpus.speakers[speaker].meta["convo_diversity"]


class TestJensenShannon:
    def test_identical_is_exactly_zero(self):
        p = {"a": 0.5, "b": 0.5}
        assert jensen_shannon(p, dict(p)) == 0.0

    def test_disjoint_is_ln2(self):
        assert jensen_shannon({"a": 1.0}, {"b": 1.0}) == pytest.approx(LN2, abs=1e-15)

    def test_symmetry(self):
        p = {"a": 0.7, "b": 0.3}
        q = {"a": 0.1, "b": 0.2, "c": 0.7}
        assert jensen_shannon(p, q) == pytest.approx(jensen_shannon(q, p), abs=1e-15)

    def test_bounds(self):
        rng = random.Random(8)
        for _ in range(200):
            terms = [f"t{i}" for i in range(rng.randint(1, 6))]
            def dist():
                weights = [rng.random() + 1e-9 for _ in terms]
                total = sum(weights)
                return {t: w / total for t, w in zip(terms, weights)}
            value = jensen_shannon(dist(), dist())
            assert 0.0 <= value <= LN2 + 1e-12

    @pytest.mark.parametrize("mass", [float("nan"), float("inf"), -float("inf"), -0.5, -1,
                                      True, False, "x", "1.0", None, [1.0], numpy.int64(1),
                                      pytest.param(10 ** 400, id="10**400")],
                             ids=repr)
    def test_a_mass_that_is_not_a_finite_int_or_float_at_least_zero_is_named(self, mass):
        # Unchecked, NaN and negatives were dropped, True counted as 1, and
        # inf and strings raised a bare "math domain error" or TypeError.
        for p, q, named in (({"a": 1.0, "b": mass}, {"a": 1.0}, "p['b']"),
                            ({"a": 1.0}, {"a": 0.5, "b": mass}, "q['b']")):
            message = f"{named} is {mass!r}, not a finite number of at least 0"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                jensen_shannon(p, q)

    @pytest.mark.parametrize("value,spelled", [
        ([("a", 1.0)], '[["a",1.0]]'), (None, "null"), ("ab", '"ab"'), (1.0, "1.0")], ids=repr)
    def test_a_p_or_q_that_is_not_a_mapping_is_named(self, value, spelled):
        # Unchecked, each let out a bare AttributeError: ... has no attribute 'items'.
        for p, q, named in ((value, {"a": 1.0}, "p"), ({"a": 1.0}, value, "q")):
            message = f"{named} must be a mapping of terms to masses, got {spelled}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                jensen_shannon(p, q)

    def test_any_mapping_holds_masses(self):
        assert jensen_shannon(MappingProxyType({"a": 1.0}), {"b": 1.0}) == LN2

    @pytest.mark.parametrize("p,q", [
        ({"a": 1e308, "b": 1e308}, {"a": 1.0}),  # unchecked, this returned inf
        ({"a": 1e308}, {"b": 1e308}),
        ({"a": 10 ** 308}, {"a": 10 ** 308}),
    ])
    def test_masses_whose_total_overflows_are_refused(self, p, q):
        with pytest.raises(ValueError,
                           match="^the masses of p and q total more than the largest float$"):
            jensen_shannon(p, q)

    def test_masses_too_far_apart_for_their_ratio_are_refused(self):
        # 1e-20 / (1e308 / 2) underflows to 0, whose log was a bare
        # "math domain error".
        with pytest.raises(ValueError, match="^p and q hold masses too far apart in scale"):
            jensen_shannon({"a": 1e-20}, {"a": 1e308})

    def test_int_and_numpy_float_masses_are_numbers(self):
        assert jensen_shannon({"a": 1}, {"b": 3}) == 2 * LN2
        assert jensen_shannon({"a": numpy.float64(0.5), "b": 0}, {"a": 0.5}) == 0.0
        assert math.isfinite(jensen_shannon({"a": 1e308}, {"a": 1.0, "b": 1e307}))


class TestJensenShannonMatchesReference:
    """The shared-term fast path against the two-loop oracle."""

    @staticmethod
    def random_dist(rng, vocab):
        terms = rng.sample(vocab, rng.randint(1, len(vocab)))
        weights = [rng.choice([0.0, rng.random(), rng.randint(1, 9)]) for _ in terms]
        if not any(weights):
            weights[0] = 1.0
        total = sum(weights)
        # Zero-weight terms stay in the map as zero-probability entries.
        return {t: w / total for t, w in zip(terms, weights)}

    def test_random_distributions(self):
        rng = random.Random(41)
        vocab = [f"t{i}" for i in range(12)]
        for _ in range(2000):
            p = self.random_dist(rng, vocab[:rng.randint(1, 12)])
            q = self.random_dist(rng, vocab[rng.randint(0, 11):])
            assert jensen_shannon(p, q) == pytest.approx(ref_jensen_shannon(p, q), abs=1e-12)

    def test_identical_distributions_are_exactly_zero(self):
        rng = random.Random(43)
        vocab = [f"t{i}" for i in range(30)]
        for _ in range(500):
            p = self.random_dist(rng, vocab)
            assert jensen_shannon(p, dict(p)) == 0.0
            assert ref_jensen_shannon(p, dict(p)) == 0.0
            # A zero entry on one side only adds no mass.
            q = {**p, "absent": 0.0}
            assert jensen_shannon(p, q) == 0.0 and jensen_shannon(q, p) == 0.0

    def test_disjoint_and_one_term_distributions(self):
        rng = random.Random(47)
        for _ in range(500):
            p = self.random_dist(rng, [f"a{i}" for i in range(8)])
            q = self.random_dist(rng, [f"b{i}" for i in range(8)])
            assert jensen_shannon(p, q) == pytest.approx(ref_jensen_shannon(p, q), abs=1e-12)
            assert jensen_shannon(p, q) == pytest.approx(LN2, abs=1e-12)
        assert jensen_shannon({"a": 1.0}, {"b": 1.0}) == LN2
        assert jensen_shannon({"a": 1.0}, {"a": 1.0}) == 0.0
        for p, q in (({"a": 1.0}, {"a": 0.25, "b": 0.75}),
                     ({"a": 1.0, "b": 0.0}, {"b": 1.0, "a": 0.0}),
                     ({"a": 0.5, "b": 0.5, "c": 0.0}, {"c": 1.0})):
            assert jensen_shannon(p, q) == pytest.approx(ref_jensen_shannon(p, q), abs=1e-12)
            assert jensen_shannon(q, p) == pytest.approx(ref_jensen_shannon(q, p), abs=1e-12)

    def test_speaker_scores_match_reference_pair_loop(self):
        rng = random.Random(53)
        for _ in range(30):
            corpus = random_corpus(rng)
            Tokenizer().transform(corpus)
            SpeakerDiversity().transform(corpus)
            for speaker in corpus.speakers.values():
                distributions = speaker_distributions(corpus, speaker.id)
                n = len(distributions)
                if n < 2:
                    continue
                pairs = [ref_jensen_shannon(distributions[i], distributions[j])
                         for i in range(n) for j in range(i + 1, n)]
                assert speaker.meta["convo_diversity"]["value"] == \
                    pytest.approx(sum(pairs) / len(pairs), abs=1e-12)


class TestScores:
    def test_identical_text_scores_zero(self):
        corpus = SpeakerDiversity().transform(speaker_corpus(["a b", "a b"]))
        assert score(corpus)["value"] == 0.0
        assert score(corpus)["n_conversations"] == 2

    def test_disjoint_text_scores_ln2(self):
        corpus = SpeakerDiversity().transform(speaker_corpus(["a", "b"]))
        assert score(corpus)["value"] == pytest.approx(LN2, abs=1e-12)

    def test_three_conversations_mean_pairwise(self):
        # P1 = P2 (both "a"), P3 disjoint ("b"): pairwise JSDs {0, ln2, ln2}.
        corpus = SpeakerDiversity().transform(speaker_corpus(["a", "a", "b"]))
        assert score(corpus)["value"] == pytest.approx(2 / 3 * LN2, abs=1e-12)

    def test_single_conversation_is_null(self):
        corpus = SpeakerDiversity().transform(speaker_corpus(["a b c"]))
        assert score(corpus)["value"] is None
        assert score(corpus)["n_conversations"] == 1

    def test_min_tokens_excludes_short_conversations(self):
        corpus = SpeakerDiversity(min_tokens_per_convo=2).transform(
            speaker_corpus(["a", "b b b"]))
        assert score(corpus)["value"] is None
        assert score(corpus)["n_conversations"] == 1

    def test_duplicating_utterances_keeps_score(self):
        base = SpeakerDiversity().transform(speaker_corpus(["red fish", "blue fish"]))
        doubled_utts = []
        for i, text in enumerate(["red fish", "blue fish"]):
            doubled_utts.append(Utterance(f"c{i}_u", "s", f"c{i}", text, None, i))
            doubled_utts.append(Utterance(f"c{i}_v", "s", f"c{i}", text, f"c{i}_u", i + 10))
        doubled = build_corpus(doubled_utts)
        Tokenizer().transform(doubled)
        SpeakerDiversity().transform(doubled)
        assert score(doubled)["value"] == pytest.approx(score(base)["value"], abs=1e-15)

    def test_case_folding(self):
        corpus = SpeakerDiversity().transform(speaker_corpus(["Apple apple", "APPLE apple"]))
        assert score(corpus)["value"] == 0.0

    def test_conversation_relabeling_invariance(self):
        a = SpeakerDiversity().transform(speaker_corpus(["x y", "y z", "z q"]))
        shuffled = SpeakerDiversity().transform(speaker_corpus(["z q", "x y", "y z"]))
        assert score(a)["value"] == pytest.approx(score(shuffled)["value"], abs=1e-15)

    def test_requires_tokens(self):
        # An untokenized corpus scores exactly as the same corpus after a
        # Tokenizer stage, and gains no "tokens" annotation.
        rng = random.Random(37)
        for _ in range(30):
            bare = random_corpus(rng)
            tokenized = copy.deepcopy(bare)
            Tokenizer().transform(tokenized)
            for min_tokens in (1, 3):
                SpeakerDiversity(min_tokens).transform(bare)
                SpeakerDiversity(min_tokens).transform(tokenized)
                assert ({s.id: s.meta["convo_diversity"] for s in bare.speakers.values()}
                        == {s.id: s.meta["convo_diversity"]
                            for s in tokenized.speakers.values()})
            assert not any("tokens" in u.meta for u in bare.utterances.values())

    def test_bounds_random_speakers(self):
        rng = random.Random(29)
        words = ["a", "b", "c", "d", "e", "f"]
        for _ in range(50):
            texts = [
                " ".join(rng.choice(words) for _ in range(rng.randint(1, 12)))
                for _ in range(rng.randint(2, 5))
            ]
            corpus = SpeakerDiversity().transform(speaker_corpus(texts))
            value = score(corpus)["value"]
            assert 0.0 <= value <= LN2 + 1e-12

    def test_one_pass_equals_per_speaker_path(self):
        rng = random.Random(31)
        for _ in range(40):
            corpus = random_corpus(rng)
            Tokenizer().transform(corpus)
            for min_tokens in (1, 3):
                SpeakerDiversity(min_tokens).transform(corpus)
                for speaker in corpus.speakers.values():
                    distributions = speaker_distributions(corpus, speaker.id, min_tokens)
                    n = len(distributions)
                    expected = None
                    if n >= 2:
                        # Left-to-right float sum, as SpeakerDiversity does.
                        total = 0.0
                        for i in range(n):
                            for j in range(i + 1, n):
                                total += jensen_shannon(distributions[i], distributions[j])
                        expected = total / (n * (n - 1) // 2)
                    assert speaker.meta["convo_diversity"] == \
                        {"value": expected, "n_conversations": n}


class TestTransformer:
    def test_summarize_ranks_descending_nulls_last(self):
        utts = [
            Utterance("u0", "varied", "c0", "alpha beta", None, 0),
            Utterance("u1", "varied", "c1", "gamma delta", None, 1),
            Utterance("u2", "steady", "c0", "same words", "u0", 2),
            Utterance("u3", "steady", "c1", "same words", "u1", 3),
            Utterance("u4", "lurker", "c0", "once", "u0", 4),
        ]
        corpus = build_corpus(utts)
        Tokenizer().transform(corpus)
        diversity = SpeakerDiversity()
        diversity.fit_transform(corpus)
        table = diversity.summarize(corpus)
        labels = [label for label, _ in table.rows]
        assert labels[0] == "varied"
        assert labels[-1] == "lurker"
        assert table.rows[-1][1][0] is None
