"""Name -> transformer registry backing pipeline configs and the CLI.

A config's parameters for a stage are the keyword arguments of its
transformer's constructor, so a config file can be validated against the
constructor signature before any corpus is touched.
"""

from __future__ import annotations

import inspect

from .diversity import SpeakerDiversity
from .fightingwords import FightingWords
from .hyperconvo import HyperConvo
from .ml import Classifier, Forecaster
from .politeness import PolitenessStrategies
from .textprep import MergeConsecutive, TextCleaner, Tokenizer
from .transform import SpeakerMixAnnotator, Transformer

REGISTRY: dict[str, type[Transformer]] = {
    cls.name: cls
    for cls in (
        TextCleaner,
        Tokenizer,
        MergeConsecutive,
        PolitenessStrategies,
        HyperConvo,
        SpeakerDiversity,
        SpeakerMixAnnotator,
        FightingWords,
        Classifier,
        Forecaster,
    )
}


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
