"""Name -> transformer registry backing pipeline configs and the CLI.

A config's parameters for a stage are the keyword arguments of its
transformer's constructor, so a config file can be validated against the
constructor signature before any corpus is touched.

``REGISTRY`` is a read-only mapping from stage name to the name of a class
the package exports, which ``__init__._EXPORTS`` alone locates and which is
imported when the name is looked up: listing the names loads no stage
module, and a pipeline loads only the modules of its stages (numpy only
with ``classifier`` or ``forecaster``).
"""

from __future__ import annotations

import importlib
import inspect
from collections.abc import Iterator, Mapping
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .transform import Transformer


class _Registry(Mapping):
    """Stage name -> transformer class, imported through the package on lookup."""

    def __init__(self, entries: dict[str, str]):
        self._entries = entries

    def __getitem__(self, name: str) -> type[Transformer]:
        return getattr(importlib.import_module(__package__), self._entries[name])

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


REGISTRY: Mapping[str, type[Transformer]] = _Registry({
    "text_cleaner": "TextCleaner",
    "tokenizer": "Tokenizer",
    "merge_consecutive": "MergeConsecutive",
    "politeness": "PolitenessStrategies",
    "hyperconvo": "HyperConvo",
    "speaker_diversity": "SpeakerDiversity",
    "speaker_mix": "SpeakerMixAnnotator",
    "fighting_words": "FightingWords",
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
