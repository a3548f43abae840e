import random
from importlib import resources

import pytest

from convoforge import (
    Corpus,
    PolitenessStrategies,
    Tokenizer,
    Utterance,
    build_corpus,
    extract_strategies,
)
from convoforge.errors import EmptySelectionError
from convoforge.politeness import (
    _compile_index,
    _count_markers,
    _parse_inventory,
    inventory,
    strategy_names,
)
from reference import ref_politeness


def tokenized_utterance(text, uid="u"):
    corpus = build_corpus([Utterance(uid, "s", "c", text)])
    Tokenizer().transform(corpus)
    return corpus.utterances[uid]


def vector(text, **expected):
    full = {name: 0 for name in strategy_names()}
    full.update(expected)
    return full


class TestInventory:
    def test_exactly_18_strategies(self):
        assert len(strategy_names()) == 18

    def test_bundled_file_parses_every_entry_into_a_known_scope(self):
        text = resources.files("convoforge.data").joinpath("politeness_markers.txt").read_text(
            encoding="utf-8")
        lines = [line.strip() for line in text.splitlines()]
        entries = [line for line in lines
                   if line and not line.startswith("#") and not line.startswith("[")]
        strategies = _parse_inventory(text)
        assert strategies == inventory()
        # The scopes _count_markers matches.
        assert {s.scope for s in strategies} <= {
            "anywhere", "sentence_initial", "utterance_initial", "non_initial"}
        assert sum(len(s.entries) for s in strategies) == len(entries)
        assert all(entry for s in strategies for entry in s.entries)

    def test_order_is_stable(self):
        assert strategy_names()[:4] == ["gratitude", "apologizing", "please",
                                        "please_start"]


class TestExtract:
    def test_requires_tokens(self):
        # Without a "tokens" annotation the counts are those of the tokens a
        # Tokenizer stage would store (from clean_text when present), and
        # nothing is written to the utterance.
        for text, meta in (
            ("Thank you, could you please review this?", {}),
            ("Sorry. Hey, I think you might be right!", {}),
            ("<b>ignored</b>", {"clean_text": "Please, would you help? Thanks"}),
        ):
            bare = Utterance("u", "s", "c", text, meta=dict(meta))
            tokenized = build_corpus([Utterance("u", "s", "c", text, meta=dict(meta))])
            Tokenizer().transform(tokenized)
            expected = extract_strategies(tokenized.utterances["u"])
            assert extract_strategies(bare) == expected
            assert sum(expected.values()) > 0
            assert bare.meta == meta

    def test_worked_example(self):
        counts = extract_strategies(
            tokenized_utterance("Thank you, could you please review this?")
        )
        assert counts == vector(
            "",
            gratitude=1,
            please=1,
            counterfactual_modal=1,
            second_person=2,
        )
        assert counts["direct_question"] == 0
        assert counts["indicative_modal"] == 0

    def test_empty_text_all_zero(self):
        counts = extract_strategies(tokenized_utterance(""))
        assert len(counts) == 18
        assert set(counts.values()) == {0}

    def test_counts_not_presence(self):
        counts = extract_strategies(tokenized_utterance("Please please help"))
        assert counts["please"] == 2
        assert counts["please_start"] == 1

    def test_key_order_matches_inventory(self):
        counts = extract_strategies(tokenized_utterance("whatever text"))
        assert list(counts) == strategy_names()

    def test_case_and_whitespace_invariant(self):
        a = extract_strategies(tokenized_utterance("  THANK you Please  "))
        b = extract_strategies(tokenized_utterance("thank YOU please"))
        assert a == b


# Ten utterances with strategy counts derived by hand from the documented
# rules (sentence split on terminal punctuation, tokens lowercased,
# leading/trailing punctuation peeled off).
FIXTURE = [
    ("Thank you so much for the quick review!",
     dict(gratitude=1, second_person=1)),
    ("Please, could you look at this again?",
     dict(please=1, please_start=1, counterfactual_modal=1, second_person=1)),
    ("Sorry about that. I apologize for the mess.",
     dict(apologizing=2, first_person_start=1)),
    ("Hi Sam. By the way, your patch seems fine.",
     dict(greeting=1, indirect_btw=1, second_person=1, hedges=1)),
    ("What happened here? Maybe we should revert.",
     dict(direct_question=1, hedges=1, first_person_plural=1)),
    ("Great point! Can you send us your notes?",
     dict(deference=1, indicative_modal=1, first_person_plural=1, second_person=2)),
    ("I really think my idea could work, honestly.",
     dict(factuality=2, first_person=1, first_person_start=1)),
    ("So you think this is fine? Actually it is not.",
     dict(direct_start=1, second_person=1, factuality=1)),
    ("Would you mind? We appreciate your help.",
     dict(counterfactual_modal=1, second_person=2, first_person_plural=1)),
    ("", {}),
]


class TestFixture:
    @pytest.mark.parametrize("text,expected", FIXTURE,
                             ids=[f"u{i}" for i in range(len(FIXTURE))])
    def test_hand_computed_vectors(self, text, expected):
        assert extract_strategies(tokenized_utterance(text)) == vector(text, **expected)


def annotated(texts):
    """One conversation of ``texts``, each replying to the first, after the
    politeness stage."""
    corpus = build_corpus([Utterance(f"u{i}", "s", "c0", text, None if i == 0 else "u0", i)
                           for i, text in enumerate(texts)])
    return PolitenessStrategies().transform(corpus)


class TestSummarize:
    def test_mean_over_utterances(self):
        table = PolitenessStrategies().summarize(annotated(["fine", "please please"]))
        means = {label: values[0] for label, values in table.rows}
        assert means["please"] == 1.0

    def test_corpus_without_utterances_is_empty_selection(self):
        with pytest.raises(EmptySelectionError):
            PolitenessStrategies().summarize(Corpus())

    def test_single_utterance_table_equals_vector(self):
        corpus = annotated([FIXTURE[1][0]])
        table = PolitenessStrategies().summarize(corpus)
        expected = corpus.utterances["u0"].meta["politeness_strategies"]
        assert {label: values[0] for label, values in table.rows} == \
            {k: float(v) for k, v in expected.items()}

    def test_partition_weighted_mean_consistency(self):
        texts = [text for text, _ in FIXTURE]
        whole, part_a, part_b = (PolitenessStrategies().summarize(annotated(part))
                                 for part in (texts, texts[:5], texts[5:]))
        n_a, n_b = 5, len(texts) - 5
        for (name, whole_vals), (_, a_vals), (_, b_vals) in zip(
            whole.rows, part_a.rows, part_b.rows
        ):
            combined = (a_vals[0] * n_a + b_vals[0] * n_b) / (n_a + n_b)
            assert combined == pytest.approx(whole_vals[0], abs=1e-12), name


def marker_vocabulary():
    words = {tok for s in inventory() for entry in s.entries for tok in entry}
    return sorted(words) + ["zebra", "lamp", "", "'", "thankful", "pleased"]


def random_sentences(rng, vocabulary):
    def token():
        word = rng.choice(vocabulary)
        roll = rng.random()
        if roll < 0.15:
            return word.upper()
        if roll < 0.3:
            return word.capitalize()
        return word

    return [
        [token() for _ in range(rng.randint(0, 9))]
        for _ in range(rng.randint(0, 4))
    ]


def utterance_with_tokens(sentences):
    utt = Utterance("u", "s", "c", "")
    utt.meta["tokens"] = sentences
    return utt


# Every scope, a duplicated entry, prefix-overlapping entries, and
# multi-word entries that can run past the sentence end.
SYNTHETIC_MARKERS = """
[first_any anywhere]
i
i think
i
a b c
[first_sentence sentence_initial]
i think
a b
a b
[first_utterance utterance_initial]
i
a b c d
[later non_initial]
i think
b c
c
"""


class TestIndexEquivalence:
    def test_bundled_inventory_matches_oracle(self):
        rng = random.Random(20131)
        vocabulary = marker_vocabulary()
        for _ in range(1000):
            sentences = random_sentences(rng, vocabulary)
            got = extract_strategies(utterance_with_tokens(sentences))
            expected = ref_politeness(sentences, inventory())
            assert got == expected, sentences
            assert list(got) == list(expected)

    def test_synthetic_inventory_matches_oracle(self):
        strategies = _parse_inventory(SYNTHETIC_MARKERS)
        index = _compile_index(strategies)
        rng = random.Random(7)
        vocabulary = ["i", "I", "think", "a", "b", "c", "d", "x"]
        for _ in range(3000):
            sentences = random_sentences(rng, vocabulary)
            lowered = [[tok.lower() for tok in s] for s in sentences]
            got = _count_markers(lowered, strategies, index)
            expected = ref_politeness(sentences, strategies)
            assert got == expected, sentences
            assert list(got) == list(expected)

    def test_synthetic_inventory_hand_counts(self):
        strategies = _parse_inventory(SYNTHETIC_MARKERS)
        sentences = [["i", "think", "a", "b"], ["a", "b", "c"], ["x", "i", "think"]]
        counts = _count_markers(sentences, strategies, _compile_index(strategies))
        # "a b" ends the first sentence, so "a b c" runs past it: no match.
        assert counts == {"first_any": 7, "first_sentence": 3,
                          "first_utterance": 1, "later": 3}
