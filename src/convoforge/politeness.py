"""Politeness strategy counts per utterance.

Strategies are lexical markers (gratitude, apologies, hedges, sentence-
initial question words, ...) counted over lowercased tokens. The inventory
and every marker list live in data/politeness_markers.txt; its section
order fixes the key order of every extracted vector, and the file declares
per-strategy matching scope (anywhere / sentence-initial / utterance-
initial / non-initial).

Matching is one pass over the tokens: the inventory is compiled into an
index from each entry's first token to the entries it starts, so the cost
is linear in tokens rather than in tokens times entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Callable, Optional

from .errors import EmptySelectionError
from .model import Corpus, Utterance
from .textprep import utterance_tokens
from .transform import SummaryTable, Transformer, _require_annotations

ANNOTATION_KEY = "politeness_strategies"


@dataclass(frozen=True)
class Strategy:
    name: str
    scope: str
    entries: tuple[tuple[str, ...], ...]  # each entry is a token sequence


def _parse_inventory(text: str) -> tuple[Strategy, ...]:
    sections: list[tuple[str, str, list[tuple[str, ...]]]] = []  # name, scope, entries
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            name, scope = line[1:-1].split()
            sections.append((name, scope, []))
        else:
            sections[-1][2].append(tuple(line.lower().split()))
    return tuple(Strategy(name, scope, tuple(entries)) for name, scope, entries in sections)


@lru_cache(maxsize=1)
def inventory() -> tuple[Strategy, ...]:
    """The canonical strategy inventory, loaded from the bundled data file."""
    text = resources.files("convoforge.data").joinpath("politeness_markers.txt").read_text(
        encoding="utf-8"
    )
    return _parse_inventory(text)


def strategy_names() -> list[str]:
    return [s.name for s in inventory()]


# One index hit: (position of the strategy in the inventory, its scope, entry).
_Hit = tuple[int, str, tuple[str, ...]]


def _compile_index(strategies: tuple[Strategy, ...]) -> dict[str, tuple[_Hit, ...]]:
    """Map each entry's first token to every entry it starts, in inventory order.

    Duplicate entries and entries that prefix one another (``i`` and
    ``i think``) stay separate hits, so counts remain occurrences.
    """
    index: dict[str, list[_Hit]] = {}
    for position, strategy in enumerate(strategies):
        for entry in strategy.entries:
            index.setdefault(entry[0], []).append((position, strategy.scope, entry))
    return {token: tuple(hits) for token, hits in index.items()}


@lru_cache(maxsize=1)
def _marker_index() -> dict[str, tuple[_Hit, ...]]:
    return _compile_index(inventory())


def _count_markers(
    sentences: list[list[str]],
    strategies: tuple[Strategy, ...],
    index: dict[str, tuple[_Hit, ...]],
) -> dict[str, int]:
    """Count each strategy over lowercased sentences, keyed in inventory order.

    ``index`` must be ``_compile_index(strategies)``.
    """
    counts = [0] * len(strategies)
    for sentence_index, sentence in enumerate(sentences):
        for pos, token in enumerate(sentence):
            hits = index.get(token)
            if hits is None:
                continue
            for position, scope, entry in hits:
                if scope == "anywhere":
                    in_scope = True
                elif scope == "non_initial":
                    in_scope = pos > 0
                else:  # sentence_initial, or utterance_initial: first sentence only
                    in_scope = pos == 0 and (scope == "sentence_initial" or sentence_index == 0)
                if in_scope and (len(entry) == 1
                                 or tuple(sentence[pos:pos + len(entry)]) == entry):
                    counts[position] += 1
    return {strategy.name: count for strategy, count in zip(strategies, counts)}


def extract_strategies(utterance: Utterance) -> dict[str, int]:
    """Count each politeness strategy in one utterance's tokens
    (utterance_tokens); counts are occurrences, not presence."""
    sentences = [[tok.lower() for tok in sentence] for sentence in utterance_tokens(utterance)]
    return _count_markers(sentences, inventory(), _marker_index())


def summarize_politeness(
    corpus: Corpus, selector: Optional[Callable[[Utterance], bool]] = None
) -> SummaryTable:
    """Mean count of each strategy over the selected annotated utterances."""
    selected = [
        u for u in corpus.utterances.values() if selector is None or selector(u)
    ]
    if not selected:
        raise EmptySelectionError("no utterances selected")
    vectors = [v for _, v in _require_annotations(selected, "utterance", ANNOTATION_KEY)]
    table = SummaryTable(columns=["mean"], label_header="strategy")
    n = len(selected)
    for name in strategy_names():
        total = sum(vector[name] for vector in vectors)
        table.add_row(name, [total / n])
    return table


class PolitenessStrategies(Transformer):
    """Annotates every utterance with its strategy-count vector."""

    name = "politeness"
    annotation_key = ANNOTATION_KEY

    def _transform(self, corpus: Corpus) -> None:
        for utt in corpus.utterances.values():
            self._annotate(utt, extract_strategies(utt))

    def summarize(self, corpus: Corpus) -> SummaryTable:
        return summarize_politeness(corpus)
