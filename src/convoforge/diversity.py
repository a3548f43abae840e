"""Per-speaker linguistic diversity across conversations.

A speaker's diversity is the mean Jensen-Shannon divergence (natural log,
so bounded by ln 2) over all unordered pairs of their per-conversation
lowercased unigram distributions. Identical language in every conversation
scores 0; fully disjoint vocabularies score ln 2. Speakers active in fewer
than two eligible conversations get a null score. SpeakerDiversity is the
one way to compute it over a corpus; jensen_shannon is its per-pair kernel.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from itertools import chain
from sys import float_info
from typing import Optional

from .corpus_io import _refusal
from .model import Corpus
from .textprep import utterance_tokens
from .transform import SummaryTable, Transformer, _real

LN2 = math.log(2.0)


def jensen_shannon(p: dict[str, float], q: dict[str, float]) -> float:
    """JSD between two distributions given as term -> probability maps.

    A term with mass in one distribution only has midpoint prob / 2, so its
    term 0.5 * prob * ln(prob / mid) is exactly 0.5 * prob * ln 2: those
    masses are summed, and the logarithm runs on shared terms alone.
    Fast path: every shared term is in the smaller map, so only it is
    walked; the larger map's one-sided mass is its total less its shared
    mass, or exactly 0 when all its terms are shared.

    A mass is an int or float from 0 to the largest float, zero being as good
    as absent; any other is a ValueError naming its term, as are a p or q that
    is not a mapping and masses of p and q that total more than the largest
    float or lie too far apart in scale.
    """
    p, q = _positive(p, "p"), _positive(q, "q")
    if p[1] + q[1] > float_info.max:
        raise ValueError("the masses of p and q total more than the largest float")
    try:
        return _jsd(p, q)
    except ValueError:  # a mass over its midpoint underflowed to 0
        raise ValueError("p and q hold masses too far apart in scale") from None


def _positive(dist: dict[str, float], name: str) -> tuple[dict[str, float], float]:
    # The positive entries of a distribution and their total mass.
    if not isinstance(dist, Mapping):
        raise _refusal(name, "a mapping of terms to masses", dist)
    for term, x in dist.items():
        if not (_real(x) and 0 <= x <= float_info.max):
            raise ValueError(f"{name}[{term!r}] is {x!r}, not a finite number of at least 0")
    kept = {term: x for term, x in dist.items() if x > 0.0}
    return kept, sum(kept.values())


def _jsd(p: tuple[dict[str, float], float], q: tuple[dict[str, float], float]) -> float:
    (small, _), (large, large_mass) = (p, q) if len(p[0]) <= len(q[0]) else (q, p)
    shared = 0.0
    one_sided = 0.0
    matched = 0
    matched_mass = 0.0
    find = large.get
    for term, x in small.items():
        y = find(term)
        if y is None:
            one_sided += x
        else:
            matched += 1
            matched_mass += y
            mid = (x + y) / 2.0
            shared += x * math.log(x / mid) + y * math.log(y / mid)
    if matched < len(large):
        one_sided += large_mass - matched_mass
    return 0.5 * (shared + LN2 * one_sided)


def _unigram_distribution(counts: dict[str, int]) -> dict[str, float]:
    total = float(sum(counts.values()))
    return {term: count / total for term, count in counts.items()}


def _token_counts_by_speaker(corpus: Corpus) -> dict[str, dict[str, Counter]]:
    """speaker -> conversation -> lowercased term counts of utterance_tokens,
    from one pass over the utterances in corpus order."""
    grouped: dict[str, dict[str, Counter]] = {}
    for utt in corpus.utterances.values():
        per_convo = grouped.setdefault(utt.speaker_id, {})
        counts = per_convo.get(utt.conversation_id)
        if counts is None:
            counts = per_convo[utt.conversation_id] = Counter()
        counts.update(map(str.lower, chain.from_iterable(utterance_tokens(utt))))
    return grouped


def _distributions(
    per_convo: dict[str, dict[str, int]], min_tokens_per_convo: int
) -> list[dict[str, float]]:
    return [
        _unigram_distribution(counts)
        for counts in per_convo.values()
        if sum(counts.values()) >= min_tokens_per_convo
    ]


class SpeakerDiversity(Transformer):
    """Annotates every speaker with their diversity score under
    "convo_diversity": {"value": float or None, "n_conversations": int}."""

    name = "speaker_diversity"
    level = "speaker"
    annotation_key = "convo_diversity"

    def __init__(self, min_tokens_per_convo: int = 1):
        self._set_params(min_tokens_per_convo=min_tokens_per_convo)

    def _transform(self, corpus: Corpus) -> None:
        grouped = _token_counts_by_speaker(corpus)
        for speaker in corpus.speakers.values():
            distributions = _distributions(grouped.get(speaker.id, {}),
                                           self.min_tokens_per_convo)
            n = len(distributions)
            value: Optional[float] = None
            if n >= 2:
                # Built from counts, a distribution has no zero entry for _positive to drop.
                prepared = [(dist, sum(dist.values())) for dist in distributions]
                total = 0.0
                for i in range(n):
                    for j in range(i + 1, n):
                        total += _jsd(prepared[i], prepared[j])
                value = total / (n * (n - 1) // 2)
            self._annotate(speaker, {"value": value, "n_conversations": n})

    def summarize(self, corpus: Corpus) -> SummaryTable:
        rows = [(speaker.id, score["value"], score["n_conversations"])
                for speaker, score in self._annotations(corpus)]
        # Highest diversity first; unscored speakers last, ties by id.
        rows.sort(key=lambda r: (r[1] is None, -(r[1] or 0.0), r[0]))
        table = SummaryTable(columns=["diversity", "n_conversations"], label_header="speaker")
        for speaker_id, value, n in rows:
            table.add_row(speaker_id, [value, n])
        return table
