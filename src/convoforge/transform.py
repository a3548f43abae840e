"""Transformer contract and sequential pipelines.

A Transformer learns from a corpus in fit(), annotates the same corpus in
place in transform() (returning it for chaining), and reports what it
computed in summarize(). Annotations live in metadata tables; every key a
transformer writes goes through Transformer._annotate. Of the registered
stages only merge_consecutive changes the utterance tree itself.
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, field

from .corpus_io import _refusal
from .errors import MissingAnnotationError, NotFittedError, PipelineStageError
from .model import LEVELS, Corpus, _field, _level_objects

logger = logging.getLogger(__name__)


def format_value(value) -> str:
    """Render one table cell. Floats are pinned to 6 significant digits so
    command output is byte-stable across runs."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


@dataclass
class SummaryTable:
    """Rows of labelled values with a fixed column order."""

    columns: list[str]
    rows: list[tuple[str, list]] = field(default_factory=list)
    label_header: str = "item"

    def add_row(self, label: str, values: list) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row {label!r} has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append((label, list(values)))

    def to_delimited(self, delimiter: str = "\t") -> str:
        """The header row, then one row per label with its values rendered by
        format_value, joined by "\\n" with none after the last; each cell goes
        through model._field, so one holding the delimiter is quoted."""
        rows = [[self.label_header, *self.columns]] + [
            [label, *map(format_value, values)] for label, values in self.rows]
        return "\n".join(delimiter.join(_field(c, delimiter) for c in row) for row in rows)


def _read_foreign(obj, key: str, kind: type):
    """obj.meta[key] for a key the reading stage does not own: None when it
    is absent or null, else a ``kind`` (str or bool); any other value is a
    ValueError naming the object and the key."""
    value = obj.meta.get(key)
    if value is None or isinstance(value, kind):
        return value
    noun = {str: "string", bool: "boolean"}[kind]
    raise ValueError(f"{type(obj).__name__.lower()} {obj.id!r}: {key!r} is not a {noun}")


def _real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _level(value) -> bool:
    if value not in LEVELS:
        raise ValueError(f"unknown level {value!r}; expected one of {LEVELS}")
    return True


def _filter(value) -> bool:
    from .filters import parse_expression  # loaded only by a stage that takes a filter

    # A bad filter string raises parse_expression's own error, quoting the clause.
    return callable(value) or isinstance(value, str) and bool(parse_expression(value))


# Parameter name -> (test, wording): the one rule for that parameter of every
# registered stage's constructor and of fit_fw. A bool is never a number.
_PARAM_RULES = {name: rule for names, rule in (
    ("learning_rate alpha alpha_total",
     (lambda v: _real(v) and 0 < v < math.inf, "a positive finite number")),
    ("l2", (lambda v: _real(v) and 0 <= v < math.inf, "a finite number of at least 0")),
    ("epochs min_df ngram_max min_count top_k min_tokens_per_convo",
     (lambda v: type(v) is int and v >= 1, "a positive integer")),
    ("max_terms", (lambda v: v is None or type(v) is int and v >= 1,
                   "null or a positive integer")),
    ("label_key speaker_key output_key",
     (lambda v: isinstance(v, str) and v != "", "a non-empty string")),
    ("overwrite_text", (lambda v: type(v) is bool, "true or false")),
    ("level", (_level, f"one of {LEVELS}")),
    ("class1 class2", (_filter, "a predicate or a filter expression string")),
) for name in names.split()}


def _check_params(**params) -> None:
    """corpus_io._refusal's ValueError for the first value that its name's
    rule in _PARAM_RULES refuses."""
    for name, value in params.items():
        accepts, wording = _PARAM_RULES[name]
        if not accepts(value):
            raise _refusal(name, wording, value)


class Transformer:
    """Base class; subclasses override _fit/_transform/summarize as needed.

    ``fitted`` is False until fit() succeeds, and ``requires_fit`` gates
    transform() behind it.
    A transformer writes only its own annotations, through _annotate(): one
    that reads tokens takes them from textprep.utterance_tokens, which
    tokenizes an utterance without the "tokens" annotation on the fly.
    summarize() defaults to one row per ``level`` object holding its
    annotation under ``annotation_key``, read through _annotations(). A
    registered transformer's config parameters are its constructor's, which
    _set_params checks and keeps as the attributes of those names.
    """

    name = "transformer"
    requires_fit = False
    level = "utterance"
    annotation_key = ""
    fitted = False

    def fit(self, corpus: Corpus) -> "Transformer":
        """Learn whatever state transform() needs; never modifies the corpus."""
        self._fit(corpus)
        self.fitted = True
        return self

    def transform(self, corpus: Corpus) -> Corpus:
        """Annotate the corpus in place and return the same object.

        Overwritten annotations are logged one per object at DEBUG and as
        one WARNING with their count per key.
        """
        if self.requires_fit and not self.fitted:
            raise NotFittedError(f"{self.name}: transform() called before fit()")
        self._overwrites = Counter()
        try:
            self._transform(corpus)
        finally:
            # A stage that fails part-way has still overwritten these.
            if self._overwrites:
                logger.warning("%s: overwrote %s", self.name, ", ".join(
                    f"{count} existing {key!r} annotations"
                    for key, count in self._overwrites.items()))
        return corpus

    def fit_transform(self, corpus: Corpus) -> Corpus:
        return self.fit(corpus).transform(corpus)

    def summarize(self, corpus: Corpus) -> SummaryTable:
        table = SummaryTable(columns=[self.annotation_key], label_header=self.level)
        for obj, value in self._annotations(corpus):
            table.add_row(obj.id, [value])
        return table

    def _set_params(self, **params) -> None:
        """A constructor's arguments, checked by _check_params, so that a bad
        value fails before any corpus is read, and kept as attributes."""
        _check_params(**params)
        vars(self).update(params)

    def _fit(self, corpus: Corpus) -> None:
        pass

    def _transform(self, corpus: Corpus) -> None:
        raise NotImplementedError

    def _annotations(self, corpus: Corpus) -> list[tuple]:
        """(object, its annotation) for every ``level`` object, or
        MissingAnnotationError naming the first object without one."""
        pairs = []
        for obj in _level_objects(corpus, self.level):
            value = obj.meta.get(self.annotation_key)
            if value is None:
                raise MissingAnnotationError(
                    f"{self.level} {obj.id!r} lacks {self.annotation_key!r}; run transform first")
            pairs.append((obj, value))
        return pairs

    def _annotate(self, obj, value, key: str = "") -> None:
        """obj.meta[key] = value, key defaulting to ``annotation_key``. An
        overwritten annotation is allowed; transform() reports how many."""
        key = key or self.annotation_key
        if key in obj.meta:
            self._overwrites[key] += 1
            logger.debug("overwriting %r annotation on %s %s", key,
                         type(obj).__name__.lower(), obj.id)
        obj.meta[key] = value


@dataclass
class Pipeline:
    """Fits each transformer to one corpus, as the stages before it left it,
    and applies it, strictly in order."""

    stages: list[Transformer]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("pipeline needs at least one stage")

    def run(self, corpus: Corpus) -> Corpus:
        for index, stage in enumerate(self.stages):
            try:
                stage.fit(corpus)
                corpus = stage.transform(corpus)
            except PipelineStageError:
                raise
            except Exception as exc:
                raise PipelineStageError(index, stage.name, exc) from exc
        return corpus


def _mix_key(value):
    # Hashable values compare as themselves; a JSON object or array compares
    # by its canonical JSON text, wrapped in a tuple so that it never equals
    # a string value holding the same text.
    try:
        hash(value)
    except TypeError:
        return (json.dumps(value, sort_keys=True),)
    return value


class SpeakerMixAnnotator(Transformer):
    """Marks each conversation with whether its speakers span more than one
    value of a speaker metadata key (e.g. mixed-gender casts). Objects and
    arrays are values too: two are the same when their JSON is, whatever the
    key order."""

    name = "speaker_mix"
    level = "conversation"

    def __init__(self, speaker_key: str, output_key: str = "mixed"):
        self._set_params(speaker_key=speaker_key, output_key=output_key)
        self.annotation_key = output_key

    def _transform(self, corpus: Corpus) -> None:
        # Each speaker's value is keyed once, not once per utterance.
        keys = {}
        for speaker in corpus.speakers.values():
            value = speaker.meta.get(self.speaker_key)
            if value is not None:
                keys[speaker.id] = _mix_key(value)
        for convo in corpus.conversations.values():
            values = set()
            for uid in convo.utterance_ids:
                speaker_id = corpus.utterances[uid].speaker_id
                if speaker_id in keys:
                    values.add(keys[speaker_id])
            self._annotate(convo, len(values) >= 2)
