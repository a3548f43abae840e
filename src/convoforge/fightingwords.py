"""Class-distinctive vocabulary via z-scored log-odds with a Dirichlet prior.

Two utterance classes are compared term by term. For term w with class
counts y1_w, y2_w, class totals n1, n2, per-term prior a_w and prior total
a0 = sum(a_w):

    delta_w  = ln((y1_w + a_w) / (n1 + a0 - y1_w - a_w))
             - ln((y2_w + a_w) / (n2 + a0 - y2_w - a_w))
    sigma2_w = 1 / (y1_w + a_w) + 1 / (y2_w + a_w)
    z_w      = delta_w / sqrt(sigma2_w)

Positive z marks class-1-associated terms. Natural logarithm throughout.
The prior keeps every z finite; by default it is uniform (alpha per term),
optionally proportional to term frequency in a background corpus.
"""

from __future__ import annotations

import logging
import math
import string
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

from .errors import EmptyClassError, EmptyVocabularyError, NotFittedError
from .filters import build_meta_predicate, parse_expression
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
    # The unigrams are the tokens themselves; longer n-grams follow, by n.
    if ngram_max < 2:
        return tokens if ngram_max == 1 else []
    grams = list(tokens)
    for n in range(2, ngram_max + 1):
        grams.extend(" ".join(tokens[i:i + n]) for i in range(len(tokens) - n + 1))
    return grams


@dataclass
class FwModel:
    """Fitted comparison state: aligned per-term lists over a sorted vocab."""

    vocab: list[str]
    y1: list[float]
    y2: list[float]
    n1: int
    n2: int
    alpha: list[float]
    alpha0: float
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


def _check_prior(name: str, value) -> None:
    # A zero, negative or non-finite prior makes math.log or a division fail
    # part-way through the fit; refuse it up front.
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


def _check_top_k(top_k) -> None:
    if type(top_k) is not int or top_k < 1:  # bool is not a count
        raise ValueError(f"top_k must be a positive integer, got {top_k!r}")


def _count_class(utterances: list[Utterance], ngram_max: int) -> Counter:
    counts: Counter = Counter()
    for utt in utterances:
        counts.update(_ngrams(_word_tokens(utt), ngram_max))
    return counts


def fit_fw(
    corpus: Corpus,
    class1: Callable[[Utterance], bool],
    class2: Callable[[Utterance], bool],
    ngram_max: int = 1,
    min_count: int = 1,
    alpha: float = 0.01,
    background: Optional[Corpus] = None,
    alpha_total: Optional[float] = None,
) -> FwModel:
    """Count both classes and score every vocabulary term.

    The vocabulary is all lowercased 1..ngram_max-grams (punctuation tokens
    excluded) whose combined count reaches min_count. With a background
    corpus, per-term priors are add-one background frequencies normalized to
    alpha_total (default: alpha per vocab term); otherwise the prior is
    uniform alpha. A prior that is not a positive finite number is a
    ValueError.
    """
    _check_prior("alpha", alpha)
    if alpha_total is not None:
        _check_prior("alpha_total", alpha_total)
    utts1, utts2 = ([u for u in corpus.utterances.values() if member(u)]
                    for member in (class1, class2))
    for n, utts in enumerate((utts1, utts2), 1):
        if not utts:
            raise EmptyClassError(f"class {n} selects no utterances")
    overlap = {u.id for u in utts1} & {u.id for u in utts2}
    if overlap:
        logger.warning("fighting words: %d utterances fall in both classes", len(overlap))

    counts1, counts2 = _count_class(utts1, ngram_max), _count_class(utts2, ngram_max)
    for n, counts in enumerate((counts1, counts2), 1):
        if not counts:
            raise EmptyClassError(f"class {n} selects utterances but no word tokens")
    vocab = sorted(
        term
        for term in set(counts1) | set(counts2)
        if counts1.get(term, 0) + counts2.get(term, 0) >= min_count
    )
    if len(vocab) < 2:
        # With one term the rest-of-vocabulary mass is exactly zero and the
        # log-odds degenerate to +/-inf; there is nothing to contrast.
        raise EmptyVocabularyError(
            f"{len(vocab)} term(s) reach min_count; need at least two for a contrast"
        )

    y1 = [float(counts1.get(t, 0)) for t in vocab]
    y2 = [float(counts2.get(t, 0)) for t in vocab]
    n1 = math.fsum(y1)
    n2 = math.fsum(y2)

    if background is not None:
        bg_counts = _count_class(list(background.utterances.values()), ngram_max)
        # Add-one smoothing keeps every prior strictly positive.
        raw = [float(bg_counts.get(t, 0) + 1) for t in vocab]
        total = alpha_total if alpha_total is not None else alpha * len(vocab)
        scale = total / math.fsum(raw)
        alpha_vec = [r * scale for r in raw]
    else:
        alpha_vec = [float(alpha)] * len(vocab)
    alpha0 = math.fsum(alpha_vec)

    deltas = []
    zscores = []
    for c1, c2, a in zip(y1, y2, alpha_vec):
        delta = (math.log((c1 + a) / (n1 + alpha0 - c1 - a))
                 - math.log((c2 + a) / (n2 + alpha0 - c2 - a)))
        sigma2 = 1.0 / (c1 + a) + 1.0 / (c2 + a)
        deltas.append(delta)
        zscores.append(delta / math.sqrt(sigma2))

    return FwModel(
        vocab=vocab, y1=y1, y2=y2, n1=int(n1), n2=int(n2),
        alpha=alpha_vec, alpha0=alpha0, deltas=deltas, zscores=zscores,
    )


def summarize_fw(model: Optional[FwModel], top_k: int = 10) -> SummaryTable:
    """Top class-1 terms (descending z) then top class-2 terms (ascending z);
    top_k must be a positive integer."""
    _check_top_k(top_k)
    if model is None:
        raise NotFittedError("fighting words model is not fitted")
    ranking = model.ranking()
    # Re-sorted rather than reversed, so that ties stay in term order.
    by_class2 = sorted(ranking, key=lambda row: (row[3], row[0]))
    table = SummaryTable(columns=["class", "y1", "y2", "zscore"], label_header="term")
    for label, rows in (("class1", ranking), ("class2", by_class2)):
        for term, y1, y2, z in rows[:top_k]:
            table.add_row(term, [label, y1, y2, z])
    return table


class FightingWords(Transformer):
    """Transformer wrapper: fit() learns the comparison, transform() tags
    each utterance's class membership under "fw_class".

    class1/class2 may be utterance predicates or metadata filter expressions
    (see filters module), e.g. FightingWords(class1="mixed=true",
    class2="mixed=false"). An expression is parsed here, so a malformed one
    is a ValueError before any corpus is read, as is a top_k below 1.
    """

    name = "fighting_words"
    requires_fit = True
    annotation_key = "fw_class"

    def __init__(self, class1, class2, ngram_max: int = 1, min_count: int = 1,
                 alpha: float = 0.01, top_k: int = 10):
        _check_prior("alpha", alpha)
        _check_top_k(top_k)
        for expression in (class1, class2):
            if isinstance(expression, str):
                parse_expression(expression)
        self._class1 = class1
        self._class2 = class2
        self.ngram_max = ngram_max
        self.min_count = min_count
        self.alpha = alpha
        self.top_k = top_k
        self.model: Optional[FwModel] = None

    def _predicates(self, corpus: Corpus):
        return tuple(build_meta_predicate(corpus, spec) if isinstance(spec, str) else spec
                     for spec in (self._class1, self._class2))

    def _fit(self, corpus: Corpus) -> None:
        class1, class2 = self._predicates(corpus)
        self.model = fit_fw(corpus, class1, class2, ngram_max=self.ngram_max,
                            min_count=self.min_count, alpha=self.alpha)

    def _transform(self, corpus: Corpus) -> None:
        class1, class2 = self._predicates(corpus)
        for utt in corpus.utterances.values():
            in1, in2 = class1(utt), class2(utt)
            label = "both" if in1 and in2 else "class1" if in1 else "class2" if in2 else "none"
            self._annotate(utt, label)

    def summarize(self, corpus: Corpus) -> SummaryTable:
        return summarize_fw(self.model, top_k=self.top_k)
