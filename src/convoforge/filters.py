"""Tiny metadata filter language used by the CLI and pipeline configs.

An expression is a comma-separated conjunction of key=value tests, e.g.
"mixed=true" or "lang=en,mixed=false". Values parse as standard JSON scalars
when possible (true, false, finite numbers), else stay strings, as NaN does.
A key is looked up on the utterance's metadata first, then its conversation's.
"""

from __future__ import annotations

from typing import Callable

from .corpus_io import _decode
from .model import Corpus, Utterance

_MISSING = object()


def _parse_value(raw: str):
    try:
        return _decode(raw)
    except ValueError:
        return raw


def parse_expression(expression: str) -> list[tuple[str, object]]:
    tests = []
    for clause in expression.split(","):
        clause = clause.strip()
        if not clause:
            continue
        if "=" not in clause:
            raise ValueError(f"bad filter clause {clause!r}; expected key=value")
        key, raw = clause.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"bad filter clause {clause!r}; empty key")
        tests.append((key, _parse_value(raw.strip())))
    if not tests:
        raise ValueError(f"empty filter expression {expression!r}")
    return tests


def _lookup(corpus: Corpus, utt: Utterance, key: str):
    if key in utt.meta:
        return utt.meta[key]
    convo = corpus.conversations.get(utt.conversation_id)
    if convo is not None and key in convo.meta:
        return convo.meta[key]
    return _MISSING

def build_meta_predicate(corpus: Corpus, expression: str) -> Callable[[Utterance], bool]:
    """Compile an expression into an utterance predicate bound to a corpus."""
    tests = parse_expression(expression)

    def predicate(utt: Utterance) -> bool:
        return all(_lookup(corpus, utt, key) == value for key, value in tests)

    return predicate
