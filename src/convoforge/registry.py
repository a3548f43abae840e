"""Name -> transformer registry backing pipeline configs and the CLI.

A config's parameters for a stage are the keyword arguments of its
transformer's constructor, so a config file can be validated against the
constructor signature before any corpus is touched.

numpy is convoforge's only runtime dependency, and only the ``ml`` stages
and the fighting-words fit use it. ``REGISTRY`` is a read-only mapping that
imports ``ml`` (and so numpy) the first time ``classifier`` or
``forecaster`` is looked up; listing the names does not.
"""

from __future__ import annotations

import inspect
from collections.abc import Iterator, Mapping

from .diversity import SpeakerDiversity
from .fightingwords import FightingWords
from .hyperconvo import HyperConvo
from .politeness import PolitenessStrategies
from .textprep import MergeConsecutive, TextCleaner, Tokenizer
from .transform import SpeakerMixAnnotator, Transformer


class _Registry(Mapping):
    """Stage name -> transformer class. A value given as a string names a
    class in ``convoforge.ml``, imported when that name is looked up."""

    def __init__(self, entries: dict[str, type[Transformer] | str]):
        self._entries = entries

    def __getitem__(self, name: str) -> type[Transformer]:
        entry = self._entries[name]
        if isinstance(entry, str):
            from . import ml

            return getattr(ml, entry)
        return entry

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


REGISTRY: Mapping[str, type[Transformer]] = _Registry({
    **{cls.name: cls for cls in (
        TextCleaner,
        Tokenizer,
        MergeConsecutive,
        PolitenessStrategies,
        HyperConvo,
        SpeakerDiversity,
        SpeakerMixAnnotator,
        FightingWords,
    )},
    "classifier": "Classifier",
    "forecaster": "Forecaster",
})


def create_transformer(name: str, params: dict) -> Transformer:
    """Instantiate a registered transformer, validating parameter names."""
    cls = REGISTRY.get(name)
    if cls is None:
        raise ValueError(f"unknown transformer {name!r}; known: {sorted(REGISTRY)}")
    accepted = inspect.signature(cls).parameters
    required = {p for p, spec in accepted.items() if spec.default is inspect.Parameter.empty}
    missing = required - set(params)
    if missing:
        raise ValueError(f"{name}: missing required parameters {sorted(missing)}")
    unknown = set(params) - set(accepted)
    if unknown:
        raise ValueError(f"{name}: unknown parameters {sorted(unknown)}")
    return cls(**params)
