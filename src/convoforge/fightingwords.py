"""Class-distinctive vocabulary via z-scored log-odds with a Dirichlet prior.

Two utterance classes are compared term by term. For term w with class
counts y1_w, y2_w, class totals n1, n2, the uniform prior a on every term
of the vocabulary V and prior total a0 = a * |V|:

    delta_w  = ln((y1_w + a) / (n1 + a0 - y1_w - a))
             - ln((y2_w + a) / (n2 + a0 - y2_w - a))
    sigma2_w = 1 / (y1_w + a) + 1 / (y2_w + a)
    z_w      = delta_w / sqrt(sigma2_w)

Positive z marks class-1-associated terms. Natural logarithm throughout.
The prior a is the stage's alpha, which keeps every z finite (Monroe,
Colaresi & Quinn 2008).
"""

from __future__ import annotations

import logging
import math
import string
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Optional

from .errors import EmptyClassError, EmptyVocabularyError, NotFittedError, NumericOverflowError
from .filters import build_meta_predicate
from .model import Corpus, Utterance
from .textprep import utterance_tokens
from .transform import SummaryTable, Transformer

logger = logging.getLogger(__name__)


def _word_tokens(utt: Utterance) -> list[str]:
    """Lowercased tokens, with pure-punctuation tokens dropped.

    Fast path: a token is all punctuation exactly when stripping
    punctuation from it leaves nothing.
    """
    return [tok.lower() for sentence in utterance_tokens(utt) for tok in sentence
            if tok.strip(string.punctuation)]


def _ngrams(tokens: list[str], ngram_max: int) -> list[str]:
    # The unigrams are the tokens themselves; longer n-grams follow, by n,
    # up to the longest the tokens hold.
    grams = list(tokens)
    for n in range(2, min(ngram_max, len(tokens)) + 1):
        grams.extend(" ".join(tokens[i:i + n]) for i in range(len(tokens) - n + 1))
    return grams


@dataclass
class FwModel:
    """A fitted comparison: each term's class counts (y1, y2), log-odds
    (deltas) and z-scores, as lists aligned with a sorted vocab."""

    vocab: list[str]
    y1: list[float]
    y2: list[float]
    deltas: list[float]
    zscores: list[float]

    @cached_property
    def index(self) -> dict[str, int]:
        return {term: i for i, term in enumerate(self.vocab)}

    def zscore(self, term: str) -> float:
        return float(self.zscores[self.index[term]])

    def ranking(self) -> list[tuple[str, int, int, float]]:
        """Full ranking, most class-1-associated first; ties lexicographic."""
        order = sorted(range(len(self.vocab)),
                       key=lambda i: (-self.zscores[i], self.vocab[i]))
        return [
            (self.vocab[i], int(self.y1[i]), int(self.y2[i]), float(self.zscores[i]))
            for i in order
        ]


def _count_class(utterances: list[Utterance], ngram_max: int) -> Counter:
    return Counter(chain.from_iterable(_ngrams(_word_tokens(u), ngram_max) for u in utterances))


class FightingWords(Transformer):
    """fit() scores every vocabulary term of the two classes into ``model``;
    transform() tags each utterance's class membership under "fw_class".

    The vocabulary is all lowercased 1..ngram_max-grams (punctuation tokens
    excluded) whose combined count reaches min_count, and every term's prior
    is alpha. class1/class2 may be utterance predicates or metadata filter
    expressions (see filters module), e.g. FightingWords(class1="mixed=true",
    class2="mixed=false"). An expression is parsed here, so a malformed one
    is a ValueError before any corpus is read, as is any value that its
    parameter's rule in transform._PARAM_RULES refuses.
    """

    name = "fighting_words"
    requires_fit = True
    annotation_key = "fw_class"

    def __init__(self, class1, class2, ngram_max: int = 1, min_count: int = 1,
                 alpha: float = 0.01, top_k: int = 10):
        self._set_params(class1=class1, class2=class2, ngram_max=ngram_max,
                         min_count=min_count, alpha=alpha, top_k=top_k)
        self.model: Optional[FwModel] = None

    def _predicates(self, corpus: Corpus):
        return tuple(build_meta_predicate(corpus, spec) if isinstance(spec, str) else spec
                     for spec in (self.class1, self.class2))

    def _fit(self, corpus: Corpus) -> None:
        class1, class2 = self._predicates(corpus)
        utts1, utts2 = ([u for u in corpus.utterances.values() if member(u)]
                        for member in (class1, class2))
        for n, utts in enumerate((utts1, utts2), 1):
            if not utts:
                raise EmptyClassError(f"class {n} selects no utterances")
        overlap = {u.id for u in utts1} & {u.id for u in utts2}
        if overlap:
            logger.warning("fighting words: %d utterances fall in both classes", len(overlap))

        counts1, counts2 = _count_class(utts1, self.ngram_max), _count_class(utts2, self.ngram_max)
        for n, counts in enumerate((counts1, counts2), 1):
            if not counts:
                raise EmptyClassError(f"class {n} selects utterances but no word tokens")
        vocab = sorted(term for term in counts1.keys() | counts2.keys()
                       if counts1[term] + counts2[term] >= self.min_count)
        if len(vocab) < 2:
            # With one term the rest-of-vocabulary mass is exactly zero and the
            # log-odds degenerate to +/-inf; there is nothing to contrast.
            raise EmptyVocabularyError(f"{len(vocab)} term(s) reach min_count; "
                                       "need at least two for a contrast")

        y1, y2 = ([float(counts[term]) for term in vocab] for counts in (counts1, counts2))
        n1, n2 = math.fsum(y1), math.fsum(y2)

        a = float(self.alpha)
        # One rounding of the real product, as a sum of len(vocab) copies
        # of a would give; a product too large for a float is inf.
        alpha0 = a * len(vocab)
        if alpha0 == math.inf:
            raise NumericOverflowError(
                f"alpha {self.alpha} overflows the prior total over {len(vocab)} terms")

        deltas, zscores = [], []
        for c1, c2 in zip(y1, y2):
            # Each rest mass, (n - c) + (alpha0 - a), is > 0; a ratio of them may underflow.
            delta = (math.log(c1 + a) - math.log((n1 - c1) + (alpha0 - a))
                     - math.log(c2 + a) + math.log((n2 - c2) + (alpha0 - a)))
            sigma2 = 1.0 / (c1 + a) + 1.0 / (c2 + a)
            deltas.append(delta)
            zscores.append(delta / math.sqrt(sigma2))

        self.model = FwModel(vocab=vocab, y1=y1, y2=y2, deltas=deltas, zscores=zscores)

    def _transform(self, corpus: Corpus) -> None:
        class1, class2 = self._predicates(corpus)
        for utt in corpus.utterances.values():
            in1, in2 = class1(utt), class2(utt)
            label = "both" if in1 and in2 else "class1" if in1 else "class2" if in2 else "none"
            self._annotate(utt, label)

    def summarize(self, corpus: Corpus) -> SummaryTable:
        """Top class-1 terms (descending z) then top class-2 terms (ascending z)."""
        if self.model is None:
            raise NotFittedError("fighting words model is not fitted")
        ranking = self.model.ranking()
        # Re-sorted rather than reversed, so that ties stay in term order.
        by_class2 = sorted(ranking, key=lambda row: (row[3], row[0]))
        table = SummaryTable(columns=["class", "y1", "y2", "zscore"], label_header="term")
        for label, rows in (("class1", ranking), ("class2", by_class2)):
            for term, y1, y2, z in rows[:self.top_k]:
                table.add_row(term, [label, y1, y2, z])
        return table
