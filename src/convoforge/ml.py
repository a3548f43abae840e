"""Bag-of-words vectorization, an in-house logistic regression, and a
conversation-trajectory forecaster.

The classifier is deliberately self-contained: full-batch gradient descent
on the L2-regularized logistic loss, zero-initialized, with a fixed epoch
count, so training is deterministic and its gradient can be checked against
finite differences. The forecaster reuses it over cumulative bag-of-words
prefixes of a conversation, scoring at each utterance the probability that
the conversation's terminal label is positive.

Each fit reads each document once: one count of its lowercased tokens
feeds the vocabulary and the document's row alike, in order of first
occurrence, and no per-document object is kept (see _bag_of_words).
Rows are sparse and numpy-only: a CSR triple (indptr, indices, data) whose
last column is the bias, with X @ w taken by np.add.reduceat over the row
segments and Xᵀ r by summing each column's entries (see _HalvingSums).
The forecaster keeps one sparse row per utterance, U, with the bias on
each conversation's first row. A prefix of a conversation is the running
sum of its rows (see _running_sums): scoring takes the running sums of
U @ w, and training those of U itself (see Forecaster._fit).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateLabelsError,
    DimensionMismatchError,
    EmptySelectionError,
    NumericOverflowError,
)
from .model import Corpus, Utterance, _level_objects, _speaker_histories, traverse
from .textprep import utterance_tokens
from .transform import SummaryTable, Transformer, _check_params, _read_foreign


class _Vocab(dict):
    size = property(len)  # read only by benchmarks/traced.py (ROADMAP item 1)


def _words(utterances) -> list[str]:
    return [tok for utt in utterances for sentence in utterance_tokens(utt) for tok in sentence]


def _documents(corpus: Corpus, level: str, objects: list) -> Iterator[list[str]]:
    """The tokens of each object, in order: conversation documents follow
    traversal order and speaker documents speaker_history order."""
    if level == "conversation":
        groups = (traverse(corpus, obj.id, "bfs") for obj in objects)
    elif level == "speaker":
        histories = _speaker_histories(corpus)
        groups = (histories.get(obj.id, []) for obj in objects)
    else:
        groups = ([obj] for obj in objects)
    return (_words(utterances) for utterances in groups)


def _bag_of_words(documents: Iterable[Iterable[str]], vocab: Optional[dict] = None,
                  min_df: int = 1, max_terms: Optional[int] = None) -> tuple[dict, _Rows]:
    """Each document's lowercased tokens, counted once, as one row over the
    columns of the {term: column} dict vocab, in order of first occurrence (a
    row's sums follow it); out-of-vocabulary tokens are dropped. Without a
    vocab, one is fitted to the same counts, with no per-document object kept:
    the terms of at least min_df documents, by descending total count, ties
    broken by term, take columns 0, 1, ... up to max_terms."""
    ids: dict[str, int] = {}  # every term seen, numbered in order of first sight
    indptr, indices, data = [0], [], []
    for tokens in documents:
        counts = Counter(map(str.lower, tokens))
        indices += [ids.setdefault(term, len(ids)) for term in counts]
        data += counts.values()
        indptr.append(len(indices))
    terms, indices, data = list(ids), np.array(indices, dtype=np.intp), np.array(data, dtype=float)
    if vocab is None:
        total = np.bincount(indices, weights=data, minlength=len(terms)).tolist()
        doc_freq = np.bincount(indices, minlength=len(terms)).tolist()
        kept = sorted((i for i, df in enumerate(doc_freq) if df >= min_df),
                      key=lambda i: (-total[i], terms[i]))[:max_terms]
        vocab = _Vocab((terms[i], j) for j, i in enumerate(kept))
    columns = np.array([vocab.get(term, -1) for term in terms], dtype=np.intp)[indices]
    kept = columns >= 0
    indptr = np.concatenate([[0], np.cumsum(kept)])[indptr]
    return vocab, _Rows(indptr, columns[kept], data[kept], len(vocab))


@dataclass
class LinearModel:
    """Logistic regression weights; the last entry is the bias."""

    weights: np.ndarray
    loss_trace: list[float] = field(default_factory=list, repr=False)

    @property
    def n_features(self) -> int:
        return len(self.weights) - 1


class _HalvingSums:
    """Sums of the consecutive segments of a vector, each in halving order:
    a segment of k > 1 values adds the sum of its first k // 2 values to
    the sum of the rest. Rounding error grows with log k rather than k, and
    a segment that is another one repeated twice sums to exactly twice its
    sum, so a training set repeated twice trains to the same weights.

    Called on the vector's values permuted by `order`, which puts the
    leaves of the deepest level of the halving trees first."""

    def __init__(self, lengths: np.ndarray):
        starts = np.cumsum(lengths) - lengths
        # Level by level from the whole segments down: the nodes that are
        # one value, and the nodes that split, whose halves make up the
        # next level, all left halves first. A level is evaluated by packing
        # [the split nodes' sums, the leaves' values, 0.0] and gathering
        # that into node order; an empty segment takes the 0.0.
        levels = []
        while len(lengths):
            leaf = lengths == 1
            split = lengths > 1
            n_split, n_leaf = int(split.sum()), int(leaf.sum())
            place = np.full(len(lengths), n_split + n_leaf)
            place[split] = np.arange(n_split)
            place[leaf] = n_split + np.arange(n_leaf)
            levels.append((starts[leaf], n_split, place))
            half = lengths[split] // 2
            starts = np.concatenate([starts[split], starts[split] + half])
            lengths = np.concatenate([half, lengths[split] - half])
        levels.reverse()
        self.order = np.concatenate([np.zeros(0, dtype=np.intp)]
                                    + [sources for sources, _, _ in levels])
        self._levels = [(len(sources), n_split, place) for sources, n_split, place in levels]

    def __call__(self, leaves: np.ndarray) -> np.ndarray:
        below = np.zeros(0)
        zero = np.zeros(1)
        start = 0
        for n_leaf, n_split, place in self._levels:
            below = np.concatenate([below[:n_split] + below[n_split:],
                                    leaves[start:start + n_leaf], zero])[place]
            start += n_leaf
        return below


class _Rows:
    """Sparse rows in CSR form: row i holds the finite values
    data[indptr[i]:indptr[i + 1]] at the columns indices[indptr[i]:indptr[i + 1]].
    Like an array, they have a shape and take `rows @ w` and `r @ rows`."""

    __array_ufunc__ = None  # so that ndarray r's `r @ rows` calls __rmatmul__ (NEP 13)

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                 n_features: int):
        unfit = np.flatnonzero(~np.isfinite(data))
        if unfit.size:
            row = np.searchsorted(indptr, unfit[0], side="right") - 1
            raise DimensionMismatchError(f"row {row} holds {data[unfit[0]]}, not a finite value")
        self.indptr, self.indices, self.data = indptr, indices, data
        self.shape = (len(indptr) - 1, n_features)
        self._filled = np.diff(indptr) > 0
        self._filled_starts = indptr[:-1][self._filled]

    @cached_property
    def _by_feature(self) -> tuple[np.ndarray, np.ndarray, _HalvingSums]:
        # The entries grouped by column, rows ascending within a column,
        # then put in the order the column sums take them.
        column_sums = _HalvingSums(np.bincount(self.indices, minlength=self.shape[1]))
        order = np.argsort(self.indices, kind="stable")[column_sums.order]
        row_of = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return self.data[order], row_of[order], column_sums

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        out = np.zeros(self.shape[0])
        if self.data.size:
            out[self._filled] = np.add.reduceat(self.data * w[self.indices],
                                                self._filled_starts)
        return out

    def __rmatmul__(self, r: np.ndarray) -> np.ndarray:
        data, row_of, column_sums = self._by_feature
        return column_sums(data * r[row_of])

    def with_ones_column(self, where: np.ndarray) -> _Rows:
        """These rows and one more column, holding 1.0 in the rows where
        `where` is true."""
        ends = self.indptr[1:][where]
        indptr = self.indptr + np.concatenate([[0], np.cumsum(where)])
        return _Rows(indptr, np.insert(self.indices, ends, self.shape[1]),
                     np.insert(self.data, ends, 1.0), self.shape[1] + 1)


def _running_sums(values: np.ndarray, lengths: Sequence[int]) -> np.ndarray:
    """Cumulative sums along axis 0 of a vector or of a block of rows, in
    place, within each run of `lengths` consecutive entries: no sum carries
    over from one run into the next, as a global cumulative sum minus its
    value at each run's start would, with a cancellation error that grows
    with the number of runs. Each row adds its predecessor, in np.cumsum's
    order but along contiguous rows. This is the forecaster's one prefix rule."""
    for end, length in zip(accumulate(lengths), lengths):
        for i in range(end - length + 1, end):
            values[i] += values[i - 1]
    return values


def _csr_rows(X) -> _Rows:
    """The rows of a 2-D numeric array, or of _Rows."""
    if isinstance(X, _Rows):
        return X
    if isinstance(X, np.ndarray):
        if X.ndim != 2:
            raise DimensionMismatchError(f"X is {X.ndim}-D; rows need a 2-D array")
        if X.dtype.kind not in "biuf":
            raise DimensionMismatchError(f"X holds {X.dtype}, not numbers")
        dense = np.asarray(X, dtype=float)
        row, col = np.nonzero(dense)
        indptr = np.zeros(len(dense) + 1, dtype=np.intp)
        np.cumsum(np.bincount(row, minlength=len(dense)), out=indptr[1:])
        return _Rows(indptr, col, dense[row, col], dense.shape[1])
    raise DimensionMismatchError(f"X is a {type(X).__name__}; rows need a 2-D numeric array")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


def _loss_at(z: np.ndarray, weights: np.ndarray, y: np.ndarray, l2: float) -> float:
    per_example = y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)
    penalty = 0.5 * l2 * float(np.dot(weights[:-1], weights[:-1]))
    return float(per_example.mean() + penalty)


def _gradient_at(z: np.ndarray, weights: np.ndarray, Xb, y: np.ndarray,
                 l2: float) -> np.ndarray:
    grad = (_sigmoid(z) - y) @ Xb / len(y)
    grad[:-1] += l2 * weights[:-1]
    return grad


def train_classifier(
    X,
    y,
    l2: float = 1.0,
    epochs: int = 100,
    learning_rate: float = 0.1,
) -> LinearModel:
    """Full-batch gradient descent from zero weights for a fixed number of
    epochs at a fixed learning rate. X is a 2-D numeric numpy array, one row
    per label of y, and a label that is not 0 or 1 (False or True) is a
    DimensionMismatchError; l2, epochs and learning_rate obey the stages'
    rules for them. Deterministic given the data and parameters. Records the
    loss trace; a loss that overflows is a NumericOverflowError naming its epoch."""
    _check_params(l2=l2, epochs=epochs, learning_rate=learning_rate)
    y = _checked_labels(y)
    rows = _csr_rows(X)
    return _descend(rows.with_ones_column(np.ones(rows.shape[0], dtype=bool)), y, l2, epochs,
                    learning_rate)


def _checked_labels(y) -> np.ndarray:
    try:
        y = np.asarray(y)
    except ValueError:  # ragged, as [[0], [1, 2]]
        y = None
    if y is None or y.ndim != 1 or y.dtype.kind not in "biuf" or not np.isin(y, (0, 1)).all():
        raise DimensionMismatchError("labels must be a flat sequence of 0s and 1s")
    y = y.astype(float)
    if len(y) < 2:
        raise DegenerateLabelsError("need at least two training examples")
    if len(set(y.tolist())) < 2:
        raise DegenerateLabelsError("training labels are all identical")
    return y


def _descend(Xb, y: np.ndarray, l2: float, epochs: int, learning_rate: float) -> LinearModel:
    """Gradient descent on rows Xb whose last column is the bias; each weight
    vector's margins serve both its loss-trace entry and the next gradient. An
    overflow leaves its epoch's loss inf or NaN, and NumericOverflowError names it."""
    if Xb.shape[0] != len(y):
        raise DimensionMismatchError(f"{Xb.shape[0]} rows vs {len(y)} labels")
    weights = np.zeros(Xb.shape[1], dtype=float)
    z = Xb @ weights
    trace = [_loss_at(z, weights, y, l2)]
    with np.errstate(all="ignore"):
        for epoch in range(1, epochs + 1):
            weights = weights - learning_rate * _gradient_at(z, weights, Xb, y, l2)
            z = Xb @ weights
            trace.append(_loss_at(z, weights, y, l2))
            if not math.isfinite(trace[-1]):
                raise NumericOverflowError(f"training loss is {trace[-1]} at epoch {epoch} of "
                                         f"{epochs} (learning_rate {learning_rate}, l2 {l2})")
    return LinearModel(weights=weights, loss_trace=trace)


def _labelled_scores(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = _sigmoid(z)
    tiny = np.finfo(float).tiny
    scores = np.clip(scores, tiny, 1.0 - np.finfo(float).epsneg)
    return scores >= 0.5, scores


def predict(model: LinearModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Labels (score >= 0.5) and probability scores for each row of a 2-D
    numeric numpy array with the model's n_features columns.

    Scores are nudged off exact 0 and 1 so extreme activations cannot
    saturate; downstream log-losses stay finite. A row whose margin (its
    product with the weights) overflows is a NumericOverflowError.
    """
    rows = _csr_rows(X)
    if rows.shape[1] != model.n_features:
        raise DimensionMismatchError(
            f"{rows.shape[1]} features vs model's {model.n_features}"
        )
    rows = rows.with_ones_column(np.ones(rows.shape[0], dtype=bool))
    with np.errstate(all="ignore"):
        z = rows @ model.weights
    unfit = np.flatnonzero(~np.isfinite(z))
    if unfit.size:
        raise NumericOverflowError(f"row {unfit[0]}'s margin overflows to {z[unfit[0]]}")
    return _labelled_scores(z)


class _LinearStage(Transformer):
    """A stage that fits a vocabulary (min_df, max_terms) and a logistic regression
    (l2, epochs, learning_rate) to its objects labelled under label_key (see _labelled)."""

    requires_fit = True

    def __init__(self, label_key: str, min_df: int = 1, max_terms: Optional[int] = None,
                 l2: float = 0.01, epochs: int = 200, learning_rate: float = 0.5):
        self._set_params(label_key=label_key, min_df=min_df, max_terms=max_terms, l2=l2,
                         epochs=epochs, learning_rate=learning_rate)
        self.vocab: Optional[dict] = None  # {term: column}
        self.model: Optional[LinearModel] = None

    def _labelled(self, objects: list) -> tuple[list, list[float]]:
        """The objects whose label_key holds true or false, and those labels
        as floats. A null or absent label leaves its object out."""
        labelled, y = [], []
        for obj in objects:
            label = _read_foreign(obj, self.label_key, bool)
            if label is not None:
                labelled.append(obj)
                y.append(float(label))
        if not labelled:
            raise EmptySelectionError(f"no {self.level}s carry label key {self.label_key!r}")
        return labelled, y


class Classifier(_LinearStage):
    """Trains on labelled corpus objects (bag-of-words) and annotates every
    object at the chosen level with "prediction" and "prediction_score"."""

    name = "classifier"
    annotation_key = "prediction"

    def __init__(self, label_key: str, level: str = "utterance", min_df: int = 1,
                 max_terms: Optional[int] = None, l2: float = 0.01,
                 epochs: int = 200, learning_rate: float = 0.5):
        self._set_params(level=level)
        super().__init__(label_key, min_df, max_terms, l2, epochs, learning_rate)

    def _fit(self, corpus: Corpus) -> None:
        labelled, y = self._labelled(_level_objects(corpus, self.level))
        self.vocab, rows = _bag_of_words(_documents(corpus, self.level, labelled), None,
                                         self.min_df, self.max_terms)
        self.model = train_classifier(rows, y, l2=self.l2, epochs=self.epochs,
                                      learning_rate=self.learning_rate)

    def _transform(self, corpus: Corpus) -> None:
        objects = _level_objects(corpus, self.level)
        _, rows = _bag_of_words(_documents(corpus, self.level, objects), self.vocab)
        labels, scores = predict(self.model, rows)
        for obj, label, score in zip(objects, labels.tolist(), scores.tolist()):
            self._annotate(obj, label)
            self._annotate(obj, score, key="prediction_score")

    def summarize(self, corpus: Corpus) -> SummaryTable:
        table = SummaryTable(columns=["prediction", "prediction_score"],
                             label_header=self.level)
        for obj, prediction in self._annotations(corpus):
            table.add_row(obj.id, [prediction, obj.meta["prediction_score"]])
        return table


class Forecaster(_LinearStage):
    """Scores, at every utterance, the probability that the conversation's
    terminal label is positive given only the utterances so far.

    Training has one example per prefix of each labelled conversation
    (see _labelled): the cumulative bag-of-words of its first k utterances
    in traversal order, labelled with the conversation's terminal label.
    Scoring walks every conversation, so those it did not train on are
    forecast too. Each utterance's bag-of-words, counted in the walk that
    fits the vocabulary, is a sparse row, and the bias sits on each
    conversation's first row. Training takes the running sums of the rows
    (see _fit), and scoring those of their products with the weights, so
    the prefixes are never scored one at a time.
    """

    name = "forecaster"
    level = "conversation"
    annotation_key = "forecast_final"

    def _utterance_rows(self, corpus: Corpus, conversations: Iterable, vocab: Optional[dict] = None
                        ) -> tuple[list[Utterance], list[int], _Rows]:
        """The utterances of `conversations`, each one's in traversal order;
        their lengths; and each utterance's own bag-of-words row, with a
        bias column of 1.0 on each conversation's first row, so that the
        running sums add it once to every prefix. Without a vocabulary,
        self.vocab is first fitted to the same counts."""
        utterances: list[Utterance] = []
        lengths = []
        for convo in conversations:
            walk = traverse(corpus, convo.id, "bfs")
            utterances.extend(walk)
            lengths.append(len(walk))
        self.vocab, rows = _bag_of_words((_words([utt]) for utt in utterances), vocab,
                                         self.min_df, self.max_terms)
        first = np.zeros(len(utterances), dtype=bool)
        first[np.cumsum(lengths, dtype=np.intp) - np.asarray(lengths, dtype=np.intp)] = True
        return utterances, lengths, rows.with_ones_column(first)

    def _fit(self, corpus: Corpus) -> None:
        conversations, labels = self._labelled(_level_objects(corpus, self.level))
        _, lengths, rows = self._utterance_rows(corpus, conversations)
        y = _checked_labels(np.repeat(labels, lengths))
        # The prefixes are a dense array, multiplied through BLAS: with the
        # default step on raw prefix counts training can diverge, and its
        # weights then amplify any change in the rounding of these products,
        # so they keep BLAS's own summation order, which
        # benchmarks/reference.json pins (ROADMAP items 1-3). The rows are
        # scattered into it and dropped; their running sums, exact on
        # counts, then fill it in place.
        prefixes = np.zeros(rows.shape)
        prefixes[np.repeat(np.arange(len(y)), np.diff(rows.indptr)), rows.indices] = rows.data
        del rows
        self.model = _descend(_running_sums(prefixes, lengths), y, self.l2, self.epochs,
                              self.learning_rate)

    def _transform(self, corpus: Corpus) -> None:
        conversations = corpus.conversations.values()
        utterances, lengths, rows = self._utterance_rows(corpus, conversations, self.vocab)
        _, scores = _labelled_scores(_running_sums(rows @ self.model.weights, lengths))
        scores = scores.tolist()
        for utt, score in zip(utterances, scores):
            self._annotate(utt, score, key="forecast")
        # A conversation's final forecast is that of its last utterance in traversal order.
        for convo, end in zip(conversations, accumulate(lengths)):
            self._annotate(convo, scores[end - 1])
