"""convoforge: represent, navigate, and analyze threaded conversations.

Every public name, and every submodule that defines one, loads on first
attribute access (PEP 562): importing the package loads only ``errors``,
and ``convoforge.Corpus`` imports ``convoforge.model`` when it is first
used. Only the ``ml`` names import numpy.
"""

import importlib

from . import errors

__version__ = "0.1.0"

# Submodule -> the public names it defines, each listed once.
_EXPORTS = {
    "corpus_io": ("ImportMapping", "export_tabular", "identity_mapping", "import_tabular",
                  "load", "merge", "save"),
    "diversity": ("SpeakerDiversity", "jensen_shannon"),
    "fightingwords": ("FightingWords", "FwModel"),
    "hyperconvo": ("HyperConvo", "ResponseGraph", "build_response_graph", "extract_features"),
    "ml": ("Classifier", "Forecaster", "LinearModel", "predict", "train_classifier"),
    "model": ("Conversation", "Corpus", "Speaker", "Utterance", "Violation", "build_corpus",
              "check_integrity", "speaker_history", "traverse"),
    "politeness": ("PolitenessStrategies", "extract_strategies"),
    "textprep": ("MergeConsecutive", "TextCleaner", "Tokenizer", "clean_text", "tokenize"),
    "transform": ("Pipeline", "SpeakerMixAnnotator", "SummaryTable", "Transformer"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "errors"])


def __getattr__(name: str):
    # importlib, not ``from . import``: its hasattr check would re-enter here.
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
