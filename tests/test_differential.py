"""The builtin-backed text and diversity loops against their original
per-character and per-token versions in reference.py, over seeded text
built to reach every branch those loops take: Unicode whitespace, chunks
of punctuation alone, abbreviations ending a sentence, non-ASCII letters
and deeply nested entities.

Nothing here needs pytest or numpy beyond what reference.py imports, so the
checks also run under an interpreter that lacks them, given stand-ins.
"""

import math
import random
import re
import sys

from convoforge import (
    Speaker,
    SpeakerDiversity,
    Tokenizer,
    Utterance,
    build_corpus,
    clean_text,
    jensen_shannon,
    tokenize,
)
from convoforge.fightingwords import _count_class, _ngrams, _word_tokens
from convoforge.textprep import _split_sentences, utterance_tokens
from reference import (
    ref_clean_text,
    ref_count_class,
    ref_jensen_shannon,
    ref_ngrams,
    ref_speaker_diversity,
    ref_split_sentences,
    ref_tokenize,
    ref_word_tokens,
)

# Separators: ASCII and the Unicode whitespace str.isspace() accepts,
# including the information separators \x1c-\x1f, NEL, no-break and ideographic
# spaces, and the line and paragraph separators.
SPACES = [" ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
          "\x85", "\xa0", "\u1680", "\u2002", "\u2003", "\u2009", "\u200a", "\u2028",
          "\u2029", "\u202f", "\u205f", "\u3000", ""]

WORDS = ["alpha", "Beta", "go", "now", "don't", "re-run", "x", "OK", "café", "naïve",
         "Straße", "İstanbul", "Ωmega", "日本", "ｈｔｔｐ", "ﬁne", "ǅemal", "K1", "½"]

# Abbreviations in several cases, the same words with other stems, and
# periods that do end a sentence.
ABBREVIATED = ["Dr.", "dr.", "MR.", "Mrs.", "st.", "vs.", "e.g.", "E.G.", "i.e.", "etc.",
               "Etc.", "xdr.", "mrs.x.", "e.g..", "Dr.!", "a.", "...", "U.S."]

PUNCTUATION = ["...", "?!", "!", "?", ".", ",", "--", "(", ")", "((", "\"'", "*", "#@!",
               "¿", "«", "»", "…", "—"]

MARKUP = ["<b>", "</i>", "<br/>", "&amp;", "&lt;b&gt;", "&amp;lt;i&amp;gt;", "&nbsp;",
          "&#x41;", "&#65", "&ampx", "&lt", "< a >", "a < b", "<url>", "<email>",
          "﹤b﹥", "＜i＞", "&#xFF1C;b&#xFF1E;"]

LINKS = ["https://x.y/z", "HTTP://A.B", "www.example.org/p?q=1", "bob.smith+tag@mail.example.org",
         "me@x.io", "a@b", "ｗｗｗ.wide.example", "mailto:z@q.net."]


def nested_entities(rng: random.Random) -> str:
    """An entity nested 20-60 levels deep, which decodes one level per
    markup round."""
    depth = rng.randint(20, 60)
    inner = rng.choice(["lt;b&gt;x", "lt;i&gt;word&lt;/i&gt; tail", "quot;q&quot;", "amp;"])
    return "&" + "amp;" * depth + inner


def web_text(rng: random.Random) -> str:
    pieces = []
    for _ in range(rng.randint(0, 16)):
        roll = rng.random()
        if roll < 0.35:
            piece = rng.choice(WORDS)
        elif roll < 0.5:
            piece = rng.choice(ABBREVIATED)
        elif roll < 0.65:
            piece = rng.choice(PUNCTUATION)
        elif roll < 0.8:
            piece = rng.choice(MARKUP)
        elif roll < 0.9:
            piece = rng.choice(LINKS)
        elif roll < 0.95:
            piece = nested_entities(rng)
        else:
            piece = rng.choice(WORDS) + rng.choice(PUNCTUATION) + rng.choice(WORDS)
        pieces.append(piece)
        pieces.append(rng.choice(SPACES) * rng.randint(1, 2))
    return "".join(pieces)


def token_sentences(rng: random.Random) -> list[list[str]]:
    """Stored-annotation shapes, including ones tokenize never makes:
    multi-character punctuation tokens and mixed-case duplicates."""
    pool = WORDS + ABBREVIATED + PUNCTUATION + ["ALPHA", "alpha", "Alpha", "1,000", "'", "-x-"]
    return [[rng.choice(pool) for _ in range(rng.randint(1, 9))]
            for _ in range(rng.randint(0, 4))]


def texts(seed: int, n: int) -> list[str]:
    rng = random.Random(seed)
    return [web_text(rng) for _ in range(n)]


class TestTextLayers:
    def test_whitespace_classes_agree_on_every_code_point(self):
        # The sentence split finds ends with re's \s; the reference walks
        # with str.isspace(). They must accept the same characters.
        everything = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", everything) == [ch for ch in everything if ch.isspace()]

    def test_clean_text(self):
        for raw in texts(101, 3000):
            assert clean_text(raw) == ref_clean_text(raw), raw

    def test_clean_text_nested_entities(self):
        rng = random.Random(103)
        for depth in range(20, 61):
            raw = "&" + "amp;" * depth + "lt;b&gt;x"
            assert clean_text(raw) == ref_clean_text(raw), depth
            raw = rng.choice(WORDS) + " " + nested_entities(rng) + " café"
            assert clean_text(raw) == ref_clean_text(raw), raw

    def test_split_sentences(self):
        for raw in texts(107, 3000):
            assert _split_sentences(raw) == ref_split_sentences(raw), raw

    def test_tokenize_raw_and_cleaned(self):
        for raw in texts(109, 3000):
            assert tokenize(raw) == ref_tokenize(raw), raw
            cleaned = clean_text(raw)
            assert tokenize(cleaned) == ref_tokenize(cleaned), cleaned

    def test_tokenize_returns_the_shape_every_reader_sees(self):
        # A list of non-empty lists of non-empty str: what Tokenizer stores
        # and what utterance_tokens computes for an untokenized utterance.
        raws = texts(127, 500)
        corpus = build_corpus([Utterance(f"u{i}", "s", f"c{i}", raw) for i, raw in enumerate(raws)])
        Tokenizer().transform(corpus)
        for utt, raw in zip(corpus.utterances.values(), raws):
            sentences = tokenize(raw)
            assert type(sentences) is list, raw
            for sentence in sentences:
                assert type(sentence) is list and sentence, raw
                assert all(type(token) is str and token for token in sentence), raw
            assert utt.meta["tokens"] == sentences, raw
            assert utterance_tokens(Utterance("u", "s", "c", raw)) == sentences, raw


class TestFightingWordsCounts:
    def test_word_tokens_and_ngrams(self):
        rng = random.Random(113)
        for _ in range(2000):
            utt = Utterance("u", "s", "c", meta={"tokens": token_sentences(rng)})
            words = _word_tokens(utt)
            assert words == ref_word_tokens(utt.meta["tokens"])
            # FightingWords refuses an ngram_max below 1, so _ngrams is not asked for one.
            for ngram_max in range(1, 4):
                assert _ngrams(words, ngram_max) == ref_ngrams(words, ngram_max)

    def test_class_counts_in_first_seen_order(self):
        rng = random.Random(127)
        for _ in range(300):
            utts = []
            for i in range(rng.randint(1, 8)):
                if rng.random() < 0.5:
                    utts.append(Utterance(f"u{i}", "s", "c", meta={"tokens": token_sentences(rng)}))
                else:
                    # No stored tokens: counted from the text, tokenized on the fly.
                    utts.append(Utterance(f"u{i}", "s", "c", text=web_text(rng)))
            for ngram_max in (1, 2, 3):
                counts = _count_class(utts, ngram_max)
                assert list(counts.items()) == list(ref_count_class(utts, ngram_max).items())


def diversity_corpus(rng: random.Random):
    speakers = [Speaker(f"s{i}") for i in range(rng.randint(1, 5))]
    utterances = []
    for c in range(rng.randint(1, 7)):
        ids = [f"c{c}_u{j}" for j in range(rng.randint(1, 6))]
        for j, uid in enumerate(ids):
            utt = Utterance(uid, rng.choice(speakers).id, f"c{c}", text=web_text(rng),
                            reply_to=None if j == 0 else rng.choice(ids[:j]))
            if rng.random() < 0.5:
                utt.meta["tokens"] = token_sentences(rng)
            utterances.append(utt)
    return build_corpus(utterances, speakers)


class TestDiversity:
    def test_kernel_on_maps_a_few_terms_apart(self):
        # The larger map's one-sided mass is its total less its shared mass,
        # and exactly 0 when every term is shared: pairs that differ by 0, 1
        # or 2 terms, with zero-mass entries, in both argument orders.
        rng = random.Random(139)
        for _ in range(2000):
            terms = rng.sample(WORDS, rng.randint(1, 8))
            p = {t: rng.choice([rng.random(), 0.0, 1.0 / 3.0]) for t in terms}
            q = dict(p)
            for _ in range(rng.randint(0, 2)):
                if rng.random() < 0.5 and len(q) > 1:
                    del q[rng.choice(list(q))]
                else:
                    q[rng.choice(ABBREVIATED)] = rng.random()
            if rng.random() < 0.5:
                q = {t: x * rng.choice([1.0, 0.5]) for t, x in q.items()}
            for a, b in ((p, q), (q, p)):
                want = ref_jensen_shannon(a, b)
                assert math.isclose(jensen_shannon(a, b), want, rel_tol=0.0, abs_tol=1e-12)
            if p == q:
                assert jensen_shannon(p, q) == 0.0

    def test_scores_within_1e12_of_reference(self):
        rng = random.Random(131)
        for _ in range(150):
            corpus = diversity_corpus(rng)
            for min_tokens in (1, 4):
                expected = ref_speaker_diversity(corpus, min_tokens)
                SpeakerDiversity(min_tokens).transform(corpus)
                for speaker in corpus.speakers.values():
                    got = speaker.meta["convo_diversity"]
                    want = expected[speaker.id]
                    assert got["n_conversations"] == want["n_conversations"]
                    if want["value"] is None:
                        assert got["value"] is None
                    else:
                        assert math.isclose(got["value"], want["value"], rel_tol=0.0, abs_tol=1e-12)

    def test_repeated_conversations_score_exactly_zero(self):
        rng = random.Random(137)
        for _ in range(100):
            sentences = token_sentences(rng) + [["word"]]
            utterances = [Utterance(f"c{c}_u", "s", f"c{c}", meta={"tokens": sentences})
                          for c in range(rng.randint(2, 5))]
            corpus = SpeakerDiversity().transform(build_corpus(utterances))
            assert corpus.speakers["s"].meta["convo_diversity"]["value"] == 0.0
            assert utterance_tokens(utterances[0]) is sentences
