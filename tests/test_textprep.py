import copy
import logging
import random

import pytest

from convoforge import (
    TextCleaner,
    Tokenizer,
    Utterance,
    build_corpus,
    check_integrity,
    clean_text,
    merge_consecutive,
    tokenize,
)
from convoforge.errors import NoRootError
from convoforge.textprep import utterance_tokens
from helpers import corpus_equal_strict, random_corpus
from reference import ref_merge_consecutive


class TestCleanText:
    def test_whitespace_collapse(self):
        assert clean_text("hello   world ") == "hello world"

    def test_tags_and_entities(self):
        assert clean_text("see <b>this</b> &amp; that") == "see this & that"

    def test_url_sentinel(self):
        assert clean_text("go to https://x.y/z now") == "go to <url> now"

    def test_email_sentinel(self):
        assert clean_text("write bob.smith+tag@mail.example.org ok") == "write <email> ok"

    def test_ascii_transliteration(self):
        assert clean_text("naïve café") == "naive cafe"

    def test_emoji_dropped(self):
        assert clean_text("fine 😀 then") == "fine then"

    def test_nested_entities_reach_fixpoint(self):
        # Entities decoding into tags still come out clean.
        assert clean_text("&amp;lt;b&amp;gt;bold&amp;lt;/b&amp;gt;") == "bold"

    def test_capped_first_pass_is_finished_by_the_second(self):
        # 30 levels outlast the first markup pass's 25 rounds; the second
        # pass decodes the rest, though the text is ASCII throughout.
        assert clean_text("&" + "amp;" * 30 + "lt;b&gt;x") == "x"

    def test_idempotence_bound_at_60_nested_levels(self):
        # One entity level decodes per round and each pass stops after 25,
        # so 60 levels outlast one cleaning: the second cleaning still
        # changes the text.
        once = clean_text("&" + "amp;" * 60 + "lt;b&gt;x")
        assert once == "&" + "amp;" * 10 + "lt;b>x"
        assert clean_text(once) == "x"

    @pytest.mark.parametrize("tricky", [
        "hello   world ",
        "see <b>this</b> &amp; that",
        "go to https://x.y/z now",
        "a < b and c > d",
        "&amp;lt;b&amp;gt;",
        "ｈｔｔｐ://fullwidth.example now",
        "﹤b﹥small brackets﹤/b﹥",
        "mail me@example.com",
        "naïve 😀 &nbsp; text",
        "<url> already sentineled <email>",
    ])
    def test_idempotent(self, tricky):
        once = clean_text(tricky)
        assert clean_text(once) == once

    def test_idempotent_fuzz(self):
        rng = random.Random(5)
        pool = "ab <>&;/.:@é😀ｈ﹤ \t\namp;lt;http"
        for _ in range(300):
            raw = "".join(rng.choice(pool) for _ in range(rng.randint(0, 40)))
            once = clean_text(raw)
            assert clean_text(once) == once


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_two_sentences(self):
        assert tokenize("Thanks! See you.") == [["Thanks", "!"], ["See", "you", "."]]

    def test_abbreviation_not_split(self):
        assert len(tokenize("Dr. Smith left.")) == 1

    def test_more_abbreviations(self):
        assert len(tokenize("Use lists, e.g. apples. Then stop.")) == 2

    def test_case_preserved(self):
        assert tokenize("Hello There") == [["Hello", "There"]]

    def test_punctuation_peeling(self):
        assert tokenize("((foo))") == [["(", "(", "foo", ")", ")"]]
        assert tokenize("don't stop") == [["don't", "stop"]]

    def test_no_empty_tokens(self):
        rng = random.Random(11)
        pool = "ab c.!?()\"' -"
        for _ in range(200):
            raw = "".join(rng.choice(pool) for _ in range(rng.randint(0, 30)))
            for sentence in tokenize(raw):
                assert sentence
                assert all(tok for tok in sentence)


class TestUtteranceTokens:
    def test_stored_tokens_are_returned_as_they_are(self):
        stored = [["Hi", "there"], [], ["ok"]]
        assert utterance_tokens(Utterance("u0", "s", "c0", "ignored",
                                          meta={"tokens": stored})) is stored

    def test_missing_tokens_are_computed(self):
        assert utterance_tokens(Utterance("u0", "s", "c0", "Hi there. Ok")) == \
            [["Hi", "there", "."], ["Ok"]]

    @pytest.mark.parametrize("tokens", [5, "abc", ["a", "b"], [[1, 2]], [["a", None]],
                                        [["a"], "b"], {"a": ["b"]}, [("a", "b")]],
                             ids=["number", "string", "flat", "number-tokens", "null-token",
                                  "string-sentence", "object", "tuple-sentence"])
    def test_malformed_tokens_are_refused_naming_the_utterance(self, tokens):
        utterance = Utterance("m1_0", "s", "c0", "text", meta={"tokens": tokens})
        with pytest.raises(ValueError) as info:
            utterance_tokens(utterance)
        assert str(info.value) == "utterance 'm1_0': 'tokens' is not a list of token lists"


class TestTokenizerSharesTokens:
    @pytest.mark.parametrize("clean", [False, True], ids=["text", "clean_text"])
    @pytest.mark.parametrize("seed", range(4))
    def test_equal_tokens_are_one_object(self, seed, clean):
        corpus = random_corpus(random.Random(seed), min_utterances=20)
        if clean:
            TextCleaner().transform(corpus)
        expected = {uid: tokenize(utt.meta.get("clean_text", utt.text))
                    for uid, utt in corpus.utterances.items()}
        Tokenizer().transform(corpus)
        first: dict[str, str] = {}
        for uid, utt in corpus.utterances.items():
            assert utt.meta["tokens"] == expected[uid]
            for sentence in utt.meta["tokens"]:
                for token in sentence:
                    assert first.setdefault(token, token) is token
        assert len(first) > 1


def utt(uid, speaker, reply=None, ts=None, text="", meta=None):
    return Utterance(id=uid, speaker_id=speaker, conversation_id="c0",
                     text=text, reply_to=reply, timestamp=ts, meta=meta or {})


class TestMergeConsecutive:
    def test_chain_fold(self):
        corpus = build_corpus([
            utt("u0", "A", text="first", ts=1),
            utt("u1", "A", reply="u0", text="second", ts=2),
            utt("u2", "B", reply="u1", text="third", ts=3),
        ])
        merge_consecutive(corpus)
        assert set(corpus.utterances) == {"u0", "u2"}
        assert corpus.utterances["u0"].text == "first\nsecond"
        assert corpus.utterances["u2"].reply_to == "u0"
        assert check_integrity(corpus).ok

    def test_two_roots_is_no_root_error(self):
        # build_corpus refuses a second root, so it is made by hand.
        corpus = build_corpus([utt("u0", "A"), utt("u1", "A", reply="u0")])
        corpus.utterances["u1"].reply_to = None
        with pytest.raises(NoRootError, match="conversation 'c0' does not have exactly one root"):
            merge_consecutive(corpus)
        assert set(corpus.utterances) == {"u0", "u1"}

    def test_branching_blocks_merge(self):
        corpus = build_corpus([
            utt("u0", "A", text="root", ts=1),
            utt("u1", "A", reply="u0", text="kid1", ts=2),
            utt("u2", "A", reply="u0", text="kid2", ts=3),
        ])
        merge_consecutive(corpus)
        assert set(corpus.utterances) == {"u0", "u1", "u2"}

    def test_distinct_speakers_unchanged(self):
        corpus = build_corpus([
            utt("u0", "A", text="a", ts=1),
            utt("u1", "B", reply="u0", text="b", ts=2),
        ])
        snapshot = [u.id for u in corpus.utterances.values()]
        merge_consecutive(corpus)
        assert [u.id for u in corpus.utterances.values()] == snapshot

    def test_long_run_folds_to_one(self):
        corpus = build_corpus([
            utt("u0", "A", text="one", ts=1),
            utt("u1", "A", reply="u0", text="two", ts=2),
            utt("u2", "A", reply="u1", text="three", ts=3),
        ])
        merge_consecutive(corpus)
        assert set(corpus.utterances) == {"u0"}
        assert corpus.utterances["u0"].text == "one\ntwo\nthree"

    def test_meta_merge_parent_wins(self):
        corpus = build_corpus([
            utt("u0", "A", text="a", ts=5, meta={"k": "parent", "only_parent": 1}),
            utt("u1", "A", reply="u0", text="b", ts=2, meta={"k": "child", "only_child": 2}),
        ])
        merge_consecutive(corpus)
        merged = corpus.utterances["u0"]
        assert merged.meta["k"] == "parent"
        assert merged.meta["only_child"] == 2
        assert merged.timestamp == 2  # earliest kept

    def test_idempotent_and_preserves_content(self):
        rng = random.Random(77)
        for _ in range(30):
            corpus = random_corpus(rng, max_utterances=30)
            before = sorted(
                (u.speaker_id, line)
                for u in corpus.utterances.values()
                for line in u.text.split("\n")
            )
            node_count = len(corpus.utterances)
            merge_consecutive(corpus)
            assert check_integrity(corpus).ok
            assert len(corpus.utterances) <= node_count
            after = sorted(
                (u.speaker_id, line)
                for u in corpus.utterances.values()
                for line in u.text.split("\n")
            )
            assert after == before
            once = {uid: u.text for uid, u in corpus.utterances.items()}
            merge_consecutive(corpus)
            assert {uid: u.text for uid, u in corpus.utterances.items()} == once


def chain_corpus(rng: random.Random, max_utterances: int = 60):
    """Mostly chains, two or three speakers, and meta drawn from a few shared
    keys and values, so that folds are long and meta conflicts are common."""
    speakers = [f"s{i}" for i in range(rng.randint(2, 3))]
    utterances = []
    total = rng.randint(1, max_utterances)
    index = 0
    while total > 0:
        size = rng.randint(1, min(20, total))
        total -= size
        cid = f"c{index}"
        index += 1
        convo = []
        for j in range(size):
            parent = None
            if j:
                parent = convo[-1] if rng.random() < 0.8 else rng.choice(convo)
            speaker = rng.choice(speakers)
            if parent is not None and rng.random() < 0.7:
                speaker = parent.speaker_id
            meta = {rng.choice("abcd"): rng.choice([0, 1, "x"]) for _ in range(rng.randint(0, 3))}
            convo.append(Utterance(
                id=f"{cid}_u{j}", speaker_id=speaker, conversation_id=cid,
                text=f"t{j}", reply_to=parent.id if parent else None,
                timestamp=rng.randint(0, 50) if rng.random() < 0.7 else None, meta=meta))
        utterances.extend(convo)
    return build_corpus(utterances)


class TestMergeMatchesReference:
    def fold_both(self, corpus, caplog):
        expected = copy.deepcopy(corpus)
        caplog.clear()
        with caplog.at_level("WARNING"):
            ref_merge_consecutive(expected)
        expected_messages = sorted(caplog.messages)
        caplog.clear()
        # The oracle warns once per conflict. The fast path logs each of
        # those lines at DEBUG and warns once with their count.
        with caplog.at_level("DEBUG"):
            merge_consecutive(corpus)
        records = [r for r in caplog.records if r.name == "convoforge.textprep"]
        messages = sorted(r.getMessage() for r in records if r.levelno == logging.DEBUG)
        warnings = [r.getMessage() for r in records if r.levelno == logging.WARNING]
        assert len(records) == len(messages) + len(warnings)
        if messages:
            assert warnings == [f"merge_consecutive: {len(messages)} metadata conflicts "
                                "kept the parent utterance's value"]
        else:
            assert warnings == []
        return expected, expected_messages, messages

    def assert_same(self, corpus, caplog):
        expected, expected_messages, messages = self.fold_both(corpus, caplog)
        assert corpus_equal_strict(corpus, expected)
        assert list(corpus.utterances) == list(expected.utterances)
        for cid, convo in corpus.conversations.items():
            assert convo.utterance_ids == expected.conversations[cid].utterance_ids
        for uid, utt in corpus.utterances.items():
            assert list(utt.meta) == list(expected.utterances[uid].meta)
        assert messages == expected_messages
        return messages

    def test_random_corpora(self, caplog):
        rng = random.Random(303)
        for _ in range(200):
            self.assert_same(random_corpus(rng, max_utterances=40), caplog)

    def test_chain_heavy_corpora_with_meta_conflicts(self, caplog):
        rng = random.Random(304)
        folds = warned = 0
        for _ in range(200):
            corpus = chain_corpus(rng)
            before = len(corpus.utterances)
            warned += len(self.assert_same(corpus, caplog))
            folds += before - len(corpus.utterances)
        assert folds > 1000 and warned > 100

    def test_long_single_speaker_chain_folds_to_one(self):
        n = 20_000
        corpus = build_corpus(
            utt(f"u{i}", "A", reply=f"u{i - 1}" if i else None, ts=n - i, text=str(i))
            for i in range(n)
        )
        merge_consecutive(corpus)
        assert list(corpus.utterances) == ["u0"]
        assert corpus.conversations["c0"].utterance_ids == ["u0"]
        merged = corpus.utterances["u0"]
        assert merged.text == "\n".join(str(i) for i in range(n))
        assert merged.timestamp == 1

    def test_chain_below_branch_point(self, caplog):
        corpus = build_corpus([
            utt("r", "A", text="root", ts=1),
            utt("a1", "A", reply="r", text="a1", ts=2, meta={"k": 1}),
            utt("a2", "A", reply="a1", text="a2", ts=3, meta={"k": 2, "j": 3}),
            utt("a3", "A", reply="a2", text="a3", ts=4),
            utt("b", "B", reply="a3", text="b", ts=5),
            utt("c", "A", reply="r", text="c", ts=6),
        ])
        messages = self.assert_same(corpus, caplog)
        assert list(corpus.utterances) == ["r", "a1", "b", "c"]
        assert corpus.utterances["a1"].text == "a1\na2\na3"
        assert corpus.utterances["a1"].meta == {"k": 1, "j": 3}
        assert corpus.utterances["b"].reply_to == "a1"
        assert len(messages) == 1 and "'a2'" in messages[0]
