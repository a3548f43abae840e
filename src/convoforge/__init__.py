"""convoforge: represent, navigate, and analyze threaded conversations.

The ``ml`` submodule and the names it exports load on first attribute
access (PEP 562), so importing the package does not import numpy.
"""

import importlib

from . import errors
from .corpus_io import (
    CorpusManifest,
    ImportMapping,
    export_tabular,
    identity_mapping,
    import_tabular,
    load,
    merge,
    save,
)
from .diversity import SpeakerDiversity, compute_diversity, jensen_shannon
from .fightingwords import FightingWords, FwModel, fit_fw, summarize_fw
from .hyperconvo import HyperConvo, ResponseGraph, build_response_graph, extract_features
from .model import (
    Conversation,
    Corpus,
    IntegrityReport,
    Speaker,
    Utterance,
    Violation,
    build_corpus,
    check_integrity,
    speaker_history,
    traverse,
)
from .politeness import PolitenessStrategies, extract_strategies, summarize_politeness
from .textprep import (
    MergeConsecutive,
    TextCleaner,
    TokenAnnotation,
    Tokenizer,
    clean_text,
    merge_consecutive,
    tokenize,
)
from .transform import Pipeline, SpeakerMixAnnotator, SummaryTable, Transformer

__version__ = "0.1.0"

_ML_NAMES = frozenset({
    "Classifier",
    "Forecaster",
    "LinearModel",
    "Vocabulary",
    "fit_vocabulary",
    "load_model",
    "predict",
    "save_model",
    "train_classifier",
    "vectorize",
})


def __getattr__(name: str):
    if name == "ml" or name in _ML_NAMES:
        # Not ``from . import ml``: its hasattr check would re-enter here.
        ml = importlib.import_module(".ml", __name__)
        return ml if name == "ml" else getattr(ml, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _ML_NAMES | {"ml"})

__all__ = [
    "Classifier",
    "Conversation",
    "Corpus",
    "CorpusManifest",
    "FightingWords",
    "Forecaster",
    "FwModel",
    "HyperConvo",
    "ImportMapping",
    "IntegrityReport",
    "LinearModel",
    "MergeConsecutive",
    "Pipeline",
    "PolitenessStrategies",
    "ResponseGraph",
    "Speaker",
    "SpeakerDiversity",
    "SpeakerMixAnnotator",
    "SummaryTable",
    "TextCleaner",
    "TokenAnnotation",
    "Tokenizer",
    "Transformer",
    "Utterance",
    "Violation",
    "Vocabulary",
    "build_corpus",
    "build_response_graph",
    "check_integrity",
    "clean_text",
    "compute_diversity",
    "errors",
    "export_tabular",
    "extract_features",
    "extract_strategies",
    "fit_fw",
    "fit_vocabulary",
    "identity_mapping",
    "import_tabular",
    "jensen_shannon",
    "load",
    "load_model",
    "merge",
    "merge_consecutive",
    "predict",
    "save",
    "save_model",
    "speaker_history",
    "summarize_fw",
    "summarize_politeness",
    "tokenize",
    "train_classifier",
    "traverse",
    "vectorize",
]
