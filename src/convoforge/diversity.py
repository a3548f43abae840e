"""Per-speaker linguistic diversity across conversations.

A speaker's diversity is the mean Jensen-Shannon divergence (natural log,
so bounded by ln 2) over all unordered pairs of their per-conversation
lowercased unigram distributions. Identical language in every conversation
scores 0; fully disjoint vocabularies score ln 2. Speakers active in fewer
than two eligible conversations get a null score.
"""

from __future__ import annotations

import math
from typing import Optional

from .model import Corpus
from .textprep import utterance_tokens
from .transform import SummaryTable, Transformer

ANNOTATION_KEY = "convo_diversity"

LN2 = math.log(2.0)


def jensen_shannon(p: dict[str, float], q: dict[str, float]) -> float:
    """JSD between two distributions given as term -> probability maps.

    A term with mass in one distribution only has midpoint prob / 2, so its
    term 0.5 * prob * ln(prob / mid) is exactly 0.5 * prob * ln 2: those
    masses are summed, and the logarithm runs on shared terms alone.
    """
    shared = 0.0
    one_sided = 0.0
    for term, x in p.items():
        if x <= 0.0:
            continue
        y = q.get(term, 0.0)
        if y > 0.0:
            mid = (x + y) / 2.0
            shared += x * math.log(x / mid) + y * math.log(y / mid)
        else:
            one_sided += x
    for term, y in q.items():
        if y > 0.0 and p.get(term, 0.0) <= 0.0:
            one_sided += y
    return 0.5 * (shared + LN2 * one_sided)


def _unigram_distribution(counts: dict[str, int]) -> dict[str, float]:
    total = float(sum(counts.values()))
    return {term: count / total for term, count in counts.items()}


def _token_counts_by_speaker(
    corpus: Corpus, speaker_id: Optional[str] = None
) -> dict[str, dict[str, dict[str, int]]]:
    """speaker -> conversation -> lowercased term counts of utterance_tokens,
    from one pass over the utterances in corpus order (all speakers, or only
    ``speaker_id``)."""
    grouped: dict[str, dict[str, dict[str, int]]] = {}
    for utt in corpus.utterances.values():
        if speaker_id is not None and utt.speaker_id != speaker_id:
            continue
        counts = grouped.setdefault(utt.speaker_id, {}).setdefault(utt.conversation_id, {})
        for sentence in utterance_tokens(utt):
            for tok in sentence:
                tok = tok.lower()
                counts[tok] = counts.get(tok, 0) + 1
    return grouped


def _distributions(
    per_convo: dict[str, dict[str, int]], min_tokens_per_convo: int
) -> list[dict[str, float]]:
    return [
        _unigram_distribution(counts)
        for counts in per_convo.values()
        if sum(counts.values()) >= min_tokens_per_convo
    ]


def speaker_distributions(
    corpus: Corpus, speaker_id: str, min_tokens_per_convo: int = 1
) -> list[dict[str, float]]:
    """One unigram distribution per conversation the speaker spoke in,
    skipping conversations where they produced fewer than
    min_tokens_per_convo tokens."""
    per_convo = _token_counts_by_speaker(corpus, speaker_id).get(speaker_id, {})
    return _distributions(per_convo, min_tokens_per_convo)


def compute_diversity(corpus: Corpus, min_tokens_per_convo: int = 1) -> Corpus:
    """Annotate every speaker with their diversity score under
    "convo_diversity": {"value": float or None, "n_conversations": int}."""
    return SpeakerDiversity(min_tokens_per_convo).transform(corpus)


class SpeakerDiversity(Transformer):
    """Annotates every speaker with their diversity score (see compute_diversity)."""

    name = "speaker_diversity"
    level = "speaker"
    annotation_key = ANNOTATION_KEY

    def __init__(self, min_tokens_per_convo: int = 1):
        super().__init__()
        self.min_tokens_per_convo = min_tokens_per_convo

    def _transform(self, corpus: Corpus) -> None:
        grouped = _token_counts_by_speaker(corpus)
        for speaker in corpus.speakers.values():
            distributions = _distributions(grouped.get(speaker.id, {}),
                                           self.min_tokens_per_convo)
            n = len(distributions)
            value: Optional[float] = None
            if n >= 2:
                total = 0.0
                pairs = 0
                for i in range(n):
                    for j in range(i + 1, n):
                        total += jensen_shannon(distributions[i], distributions[j])
                        pairs += 1
                value = total / pairs
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
