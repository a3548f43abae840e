"""Bag-of-words vectorization, an in-house logistic regression, and a
conversation-trajectory forecaster.

The classifier is deliberately self-contained: full-batch gradient descent
on the L2-regularized logistic loss, zero-initialized, with a fixed epoch
count, so training is deterministic and its gradient can be checked against
finite differences. The forecaster reuses it over cumulative bag-of-words
prefixes of a conversation, scoring at each utterance the probability that
the conversation's terminal label is positive.

Rows are sparse and numpy-only: a CSR triple (indptr, indices, data) whose
last column is the bias, with X @ w taken by np.add.reduceat over the row
segments and Xᵀ r by summing each column's entries (see _HalvingSums).
train_classifier, predict and the Classifier build no rows × features
array. The forecaster keeps one sparse row per utterance, U; a prefix of a
conversation is the running sum of its rows. Scoring every prefix is one
product U @ w and running sums down each conversation. Training alone
still multiplies a dense prefix array through BLAS (see _DenseRows).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .corpus_io import _INDENTED, _decode_object, _require_version
from .errors import (
    DegenerateLabelsError,
    DimensionMismatchError,
    EmptySelectionError,
    MalformedRecordError,
    MissingLabelError,
    UnserializableValueError,
)
from .model import Corpus, Utterance, _level_objects, _speaker_histories, traverse
from .textprep import utterance_tokens
from .transform import SummaryTable, Transformer

MODEL_FORMAT_VERSION = "1.0"


@dataclass
class Vocabulary:
    """Deterministic term ordering: descending total frequency, ties broken
    lexicographically, filtered by document frequency and capped."""

    index: dict[str, int]
    doc_freq: dict[str, int]
    config: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.index)

    @property
    def terms(self) -> list[str]:
        return sorted(self.index, key=self.index.__getitem__)


def _words(utterances) -> list[str]:
    return [tok for utt in utterances for sentence in utterance_tokens(utt) for tok in sentence]


def _documents(corpus: Corpus, level: str, objects: list) -> Iterator[list[str]]:
    """The tokens of each object, in order: conversation documents follow
    traversal order and speaker documents speaker_history order. The
    objects come from _level_objects, which refuses an unknown level."""
    if level == "conversation":
        groups = (traverse(corpus, obj.id, "bfs") for obj in objects)
    elif level == "speaker":
        histories = _speaker_histories(corpus)
        groups = (histories.get(obj.id, []) for obj in objects)
    else:
        groups = ([obj] for obj in objects)
    return (_words(utterances) for utterances in groups)


def fit_vocabulary(
    corpus: Corpus,
    level: str = "utterance",
    selector: Optional[Callable] = None,
    min_df: int = 1,
    max_terms: Optional[int] = None,
    lowercase: bool = True,
) -> Vocabulary:
    """Build a vocabulary from one document per selected object; conversation
    and speaker documents concatenate their utterances."""
    objects = [o for o in _level_objects(corpus, level) if selector is None or selector(o)]
    if not objects:
        raise EmptySelectionError(f"no {level}s selected")
    total: Counter[str] = Counter()
    doc_freq: Counter[str] = Counter()
    for tokens in _documents(corpus, level, objects):
        if lowercase:
            tokens = [t.lower() for t in tokens]
        total.update(tokens)
        doc_freq.update(set(tokens))
    terms = [t for t in total if doc_freq[t] >= min_df]
    terms.sort(key=lambda t: (-total[t], t))
    if max_terms is not None:
        terms = terms[:max_terms]
    return Vocabulary(
        index={t: i for i, t in enumerate(terms)},
        doc_freq={t: doc_freq[t] for t in terms},
        config={"min_df": min_df, "max_terms": max_terms, "lowercase": lowercase},
    )


def vectorize(vocab: Vocabulary, tokens: Sequence[str]) -> dict[int, float]:
    """Sparse count vector; out-of-vocabulary tokens are dropped."""
    if vocab.config.get("lowercase", True):
        tokens = [tok.lower() for tok in tokens]
    hits = Counter(map(vocab.index.get, tokens))
    hits.pop(None, None)
    # In order of first occurrence: a row's entries, and so its sums, follow it.
    return {i: float(n) for i, n in hits.items()}


@dataclass
class LinearModel:
    """Logistic regression weights; the last entry is the bias."""

    weights: np.ndarray
    config: dict = field(default_factory=dict)
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
    """Sparse rows in CSR form: row i holds the values
    data[indptr[i]:indptr[i + 1]] at the columns indices[indptr[i]:indptr[i + 1]]."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                 n_features: int):
        self.indptr, self.indices, self.data = indptr, indices, data
        self.n_features = n_features
        self.n_rows = len(indptr) - 1
        self._filled = np.diff(indptr) > 0
        self._filled_starts = indptr[:-1][self._filled]

    @cached_property
    def _by_feature(self) -> tuple[np.ndarray, np.ndarray, _HalvingSums]:
        # The entries grouped by column, rows ascending within a column,
        # then put in the order the column sums take them.
        column_sums = _HalvingSums(np.bincount(self.indices, minlength=self.n_features))
        order = np.argsort(self.indices, kind="stable")[column_sums.order]
        row_of = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        return self.data[order], row_of[order], column_sums

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """X @ w."""
        out = np.zeros(self.n_rows)
        if self.data.size:
            out[self._filled] = np.add.reduceat(self.data * w[self.indices],
                                                self._filled_starts)
        return out

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """Xᵀ r."""
        data, row_of, column_sums = self._by_feature
        return column_sums(data * r[row_of])

    def to_array(self) -> np.ndarray:
        """The rows as a dense rows × features array."""
        array = np.zeros((self.n_rows, self.n_features))
        array[np.repeat(np.arange(self.n_rows), np.diff(self.indptr)), self.indices] = self.data
        return array

    def with_ones_column(self, where: np.ndarray) -> _Rows:
        """These rows and one more column, holding 1.0 in the rows where
        `where` is true."""
        ends = self.indptr[1:][where]
        indptr = self.indptr + np.concatenate([[0], np.cumsum(where)])
        return _Rows(indptr, np.insert(self.indices, ends, self.n_features),
                     np.insert(self.data, ends, 1.0), self.n_features + 1)


class _DenseRows:
    """Rows held in a dense array, multiplied through BLAS. The forecaster
    trains on these: with its default step on raw prefix counts, training
    can diverge, and its weights then amplify any change in the rounding of
    these products, so they keep BLAS's own summation order."""

    def __init__(self, array: np.ndarray):
        self.array = array
        self.n_rows, self.n_features = array.shape

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """X @ w."""
        return self.array @ w

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """Xᵀ r."""
        return self.array.T @ r


def _running_sums(values: np.ndarray, lengths: Sequence[int]) -> np.ndarray:
    """Cumulative sums, in place along the first axis, within each run of
    `lengths` consecutive entries: no sum carries over from one run into the
    next, as a global cumulative sum minus its value at each run's start
    would, with a cancellation error that grows with the number of runs."""
    start = 0
    for length in lengths:
        run = values[start:start + length]
        np.cumsum(run, axis=0, out=run)
        start += length
    return values


def _csr_rows(X, n_features: Optional[int]) -> _Rows:
    """The rows of a dense array (a 1-D array is one row), or of a list of
    {feature index: value} dicts over n_features features."""
    if isinstance(X, np.ndarray):
        dense = np.asarray(X, dtype=float)
        if dense.ndim == 1:
            dense = dense.reshape(1, -1)
        row, col = np.nonzero(dense)
        indptr = np.zeros(len(dense) + 1, dtype=np.intp)
        np.cumsum(np.bincount(row, minlength=len(dense)), out=indptr[1:])
        return _Rows(indptr, col, dense[row, col], dense.shape[1])
    if n_features is None:
        raise DimensionMismatchError("n_features is required for sparse inputs")
    indptr = np.zeros(len(X) + 1, dtype=np.intp)
    np.cumsum([len(counts) for counts in X], out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(X), dtype=np.intp, count=indptr[-1])
    data = np.fromiter(chain.from_iterable(counts.values() for counts in X), dtype=float,
                       count=indptr[-1])
    outside = indices[(indices < 0) | (indices >= n_features)]
    if outside.size:
        raise DimensionMismatchError(
            f"feature index {outside[0]} out of range for {n_features} features"
        )
    return _Rows(indptr, indices, data, n_features)


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
    grad = Xb.rmatvec(_sigmoid(z) - y) / len(y)
    grad[:-1] += l2 * weights[:-1]
    return grad


def train_classifier(
    X,
    y,
    n_features: Optional[int] = None,
    l2: float = 1.0,
    epochs: int = 100,
    learning_rate: float = 0.1,
    decay: float = 0.0,
) -> LinearModel:
    """Full-batch gradient descent from zero weights for a fixed number of
    epochs; learning rate at epoch t is learning_rate / (1 + decay * t).
    X is a dense array or a list of {feature index: value} dicts over
    n_features features. Deterministic given the data and config. Records
    the loss trace."""
    y = _checked_labels(y)
    rows = _csr_rows(X, n_features)
    return _descend(rows.with_ones_column(np.ones(rows.n_rows, dtype=bool)), y, l2, epochs,
                    learning_rate, decay)


def _checked_labels(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if len(y) < 2:
        raise DegenerateLabelsError("need at least two training examples")
    if len(set(y.tolist())) < 2:
        raise DegenerateLabelsError("training labels are all identical")
    return y


def _descend(Xb, y: np.ndarray, l2: float, epochs: int, learning_rate: float,
             decay: float) -> LinearModel:
    """Gradient descent on rows Xb whose last column is the bias; each
    weight vector's margins serve both its loss-trace entry and the next
    gradient."""
    if Xb.n_rows != len(y):
        raise DimensionMismatchError(f"{Xb.n_rows} rows vs {len(y)} labels")
    weights = np.zeros(Xb.n_features, dtype=float)
    z = Xb.matvec(weights)
    trace = [_loss_at(z, weights, y, l2)]
    for epoch in range(epochs):
        step = learning_rate / (1.0 + decay * epoch)
        weights = weights - step * _gradient_at(z, weights, Xb, y, l2)
        z = Xb.matvec(weights)
        trace.append(_loss_at(z, weights, y, l2))
    return LinearModel(
        weights=weights,
        config={"l2": l2, "epochs": epochs, "learning_rate": learning_rate, "decay": decay},
        loss_trace=trace,
    )


def _labelled_scores(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = _sigmoid(z)
    tiny = np.finfo(float).tiny
    scores = np.clip(scores, tiny, 1.0 - np.finfo(float).epsneg)
    return scores >= 0.5, scores


def predict(model: LinearModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Labels (score >= 0.5) and probability scores for each row of a dense
    array or a list of {feature index: value} dicts.

    Scores are nudged off exact 0 and 1 so extreme activations cannot
    saturate; downstream log-losses stay finite.
    """
    rows = _csr_rows(X, model.n_features)
    if rows.n_features != model.n_features:
        raise DimensionMismatchError(
            f"{rows.n_features} features vs model's {model.n_features}"
        )
    rows = rows.with_ones_column(np.ones(rows.n_rows, dtype=bool))
    return _labelled_scores(rows.matvec(model.weights))


def save_model(path: str | Path, model: LinearModel, vocab: Vocabulary) -> None:
    """Persist model and vocabulary as one format-versioned JSON document.
    A weight that is NaN or infinite raises UnserializableValueError, and
    nothing is written."""
    document = {
        "format_version": MODEL_FORMAT_VERSION,
        "weights": model.weights.tolist(),
        "config": model.config,
        "vocabulary": {
            "terms": vocab.terms,
            "doc_freq": vocab.doc_freq,
            "config": vocab.config,
        },
    }
    try:
        text = _INDENTED.encode(document)
    except (TypeError, ValueError) as exc:
        bad = np.flatnonzero(~np.isfinite(model.weights))
        reason = f"weight {bad[0]} is {model.weights[bad[0]]}" if bad.size else str(exc)
        raise UnserializableValueError(f"model cannot be saved as JSON: {reason}") from None
    Path(path).write_text(text + "\n", encoding="utf-8")


def _entry(document: dict, key: str, kind: type):
    """document[key]; ValueError if it is missing or not a ``kind``."""
    value = document.get(key)
    if not isinstance(value, kind):
        raise ValueError(f"{key!r} is missing or not a {kind.__name__}")
    return value


def load_model(path: str | Path) -> tuple[LinearModel, Vocabulary]:
    """Read a save_model file: MissingFileError if there is none, and MalformedRecordError
    naming it for invalid JSON, a non-finite number, a missing or mistyped key or term, a
    term listed twice, or a weight count other than one per term plus the bias."""
    document = _decode_object(Path(path), str(path))
    _require_version(document, MODEL_FORMAT_VERSION, "model")
    try:
        vocab_doc = _entry(document, "vocabulary", dict)
        terms = _entry(vocab_doc, "terms", list)
        if not all(type(t) is str for t in terms):
            raise ValueError("'terms' holds a value that is not a string")
        vocab = Vocabulary(
            index={t: i for i, t in enumerate(terms)},
            doc_freq=_entry(vocab_doc, "doc_freq", dict),
            config=_entry(vocab_doc, "config", dict),
        )
        if vocab.size != len(terms):
            twice = next(t for i, t in enumerate(terms) if vocab.index[t] != i)
            raise ValueError(f"'terms' lists {twice!r} twice")
        weights = _entry(document, "weights", list)
        if len(weights) != len(terms) + 1:
            raise ValueError(f"{len(terms)} terms need {len(terms) + 1} weights, "
                             f"got {len(weights)}")
        if not all(type(w) in (int, float) for w in weights):
            raise ValueError("'weights' holds a value that is not a number")
        model = LinearModel(weights=np.asarray(weights, dtype=float),
                            config=_entry(document, "config", dict))
    except ValueError as exc:
        raise MalformedRecordError(f"{path}: {exc}") from exc
    return model, vocab


class _LinearStage(Transformer):
    """A stage that fits a vocabulary (min_df, max_terms) and a logistic
    regression (l2, epochs, learning_rate) to the labels under label_key."""

    requires_fit = True

    def __init__(self, label_key: str, min_df: int = 1, max_terms: Optional[int] = None,
                 l2: float = 0.01, epochs: int = 200, learning_rate: float = 0.5):
        super().__init__()
        self.label_key = label_key
        self.min_df = min_df
        self.max_terms = max_terms
        self.l2 = l2
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.vocab: Optional[Vocabulary] = None
        self.model: Optional[LinearModel] = None


class Classifier(_LinearStage):
    """Trains on labelled corpus objects (bag-of-words) and annotates every
    object at the chosen level with "prediction" and "prediction_score"."""

    name = "classifier"
    annotation_key = "prediction"

    def __init__(self, label_key: str, level: str = "utterance", min_df: int = 1,
                 max_terms: Optional[int] = None, l2: float = 0.01,
                 epochs: int = 200, learning_rate: float = 0.5):
        super().__init__(label_key, min_df, max_terms, l2, epochs, learning_rate)
        _level_objects(Corpus(), level)  # refuses an unknown level before any corpus is read
        self.level = level

    def _fit(self, corpus: Corpus) -> None:
        labelled = [o for o in _level_objects(corpus, self.level)
                    if self.label_key in o.meta]
        if not labelled:
            raise EmptySelectionError(
                f"no {self.level}s carry label key {self.label_key!r}"
            )
        self.vocab = fit_vocabulary(
            corpus, self.level, selector=lambda o: self.label_key in o.meta,
            min_df=self.min_df, max_terms=self.max_terms,
        )
        X = [vectorize(self.vocab, doc) for doc in _documents(corpus, self.level, labelled)]
        y = [1.0 if o.meta[self.label_key] else 0.0 for o in labelled]
        self.model = train_classifier(X, y, n_features=self.vocab.size, l2=self.l2,
                                      epochs=self.epochs, learning_rate=self.learning_rate)

    def _transform(self, corpus: Corpus) -> None:
        objects = _level_objects(corpus, self.level)
        labels, scores = predict(self.model, [
            vectorize(self.vocab, doc) for doc in _documents(corpus, self.level, objects)])
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

    Training has one example per prefix of each labelled conversation:
    the cumulative bag-of-words of its first k utterances in traversal
    order, labelled with the conversation's terminal label. Each
    utterance's own bag-of-words is a sparse row; training takes running
    sums of those rows into a dense prefix array (see _DenseRows), and
    scoring takes running sums of their products with the weights, so the
    prefixes are never scored one at a time.
    """

    name = "forecaster"
    level = "conversation"
    annotation_key = "forecast_final"

    def _utterance_rows(self, corpus: Corpus) -> tuple[list[Utterance], list[int], _Rows]:
        """Every utterance, conversation by conversation in traversal order;
        the conversations' lengths; and each utterance's own bag-of-words
        row, whose bias column holds 1.0 on each conversation's first
        utterance only, so that its running sums are all ones."""
        utterances: list[Utterance] = []
        lengths = []
        for convo in corpus.conversations.values():
            walk = traverse(corpus, convo.id, "bfs")
            utterances.extend(walk)
            lengths.append(len(walk))
        rows = _csr_rows([vectorize(self.vocab, _words([utt])) for utt in utterances],
                         self.vocab.size)
        first = np.zeros(len(utterances), dtype=bool)
        first[np.cumsum(lengths, dtype=np.intp) - np.asarray(lengths, dtype=np.intp)] = True
        return utterances, lengths, rows.with_ones_column(first)

    def _fit(self, corpus: Corpus) -> None:
        for convo in corpus.conversations.values():
            if self.label_key not in convo.meta:
                raise MissingLabelError(
                    f"conversation {convo.id!r} lacks label key {self.label_key!r}"
                )
        self.vocab = fit_vocabulary(corpus, "utterance", min_df=self.min_df,
                                    max_terms=self.max_terms)
        utterances, lengths, rows = self._utterance_rows(corpus)
        y = [1.0 if corpus.conversations[utt.conversation_id].meta[self.label_key] else 0.0
             for utt in utterances]
        prefixes = _DenseRows(_running_sums(rows.to_array(), lengths))
        self.model = _descend(prefixes, _checked_labels(y), self.l2, self.epochs,
                              self.learning_rate, decay=0.0)

    def _transform(self, corpus: Corpus) -> None:
        utterances, lengths, rows = self._utterance_rows(corpus)
        _, scores = _labelled_scores(_running_sums(rows.matvec(self.model.weights), lengths))
        scores = scores.tolist()
        for utt, score in zip(utterances, scores):
            self._annotate(utt, score, key="forecast")
        # A conversation's final forecast is that of its last utterance in traversal order.
        for convo, end in zip(corpus.conversations.values(), accumulate(lengths)):
            self._annotate(convo, scores[end - 1])
