"""Traced in-process run of one pipeline config.

    python3 benchmarks/traced.py CONFIG.json SPANS.json

does what ``convoforge run CONFIG.json`` does, calling the same public
functions in the same order: ``registry.create_transformer`` for every stage,
``corpus_io.load``, each stage's ``fit`` then ``transform``, and
``corpus_io.save``. Every call gets a span, recorded from outside the
program, and each stage gets one around its fit and transform.
``check_integrity``, which ``load`` and ``save`` call, is wrapped so that its
time shows as a child span of theirs. Spans are kept in memory as
{name, start, end, parent} plus peak RSS at both ends, all under one root
span, and written to SPANS.json with work counts taken at the same
boundaries when the run ends.
"""

from __future__ import annotations

import json
import logging
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT_SPAN = "run"

# Span prefix per registered stage: the module (layer) it lives in, then the
# stage where a module holds more than one.
_SPAN_PREFIX = {
    "text_cleaner": "textprep.text_cleaner",
    "tokenizer": "textprep.tokenizer",
    "merge_consecutive": "textprep.merge_consecutive",
    "politeness": "politeness",
    "hyperconvo": "hyperconvo",
    "speaker_diversity": "diversity",
    "speaker_mix": "transform.speaker_mix",
    "fighting_words": "fightingwords",
    "forecaster": "ml.forecaster",
}


def span_prefix(stage: dict) -> str:
    if stage["name"] == "classifier":
        return f"ml.classifier-{stage.get('params', {}).get('level', 'utterance')}"
    return _SPAN_PREFIX[stage["name"]]


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "parent": self._open[-1] if self._open else None,
                  "rss_start_kb": _maxrss_kb(), "start": time.perf_counter()}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            record["rss_end_kb"] = _maxrss_kb()
            self._open.pop()

    def wrap(self, module, attribute: str, name: str) -> None:
        """Replace ``module.attribute`` by a function that runs it in a span."""
        original = getattr(module, attribute, None)
        if original is None:
            return

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attribute, traced)


def _tokens(corpus) -> int:
    return sum(len(sentence) for utt in corpus.utterances.values()
               for sentence in utt.meta.get("tokens") or ())


def _vocab_size(stage) -> int:
    vocab = getattr(stage, "vocab", None)
    return vocab.size if vocab is not None else 0


def run(config: dict) -> tuple[Tracer, dict]:
    from convoforge import corpus_io, model, registry

    tracer = Tracer()
    for module in (corpus_io, model):
        tracer.wrap(module, "check_integrity", "model.check_integrity")
    counts = {"corpus_io.bytes_read": _dir_bytes(Path(config["input"]))}
    with tracer.span(ROOT_SPAN):
        stages = [registry.create_transformer(spec["name"], spec.get("params", {}))
                  for spec in config["stages"]]
        with tracer.span("corpus_io.load"):
            corpus = corpus_io.load(config["input"])
        for spec, stage in zip(config["stages"], stages):
            prefix = span_prefix(spec)
            utterances_before = len(corpus.utterances)
            if spec["name"] == "politeness":
                counts["politeness.tokens_scanned"] = _tokens(corpus)
            with tracer.span(prefix):
                with tracer.span(f"{prefix}.fit"):
                    stage.fit(corpus)
                with tracer.span(f"{prefix}.transform"):
                    corpus = stage.transform(corpus)
            if spec["name"] == "merge_consecutive":
                counts["textprep.merge_consecutive.folds"] = (
                    utterances_before - len(corpus.utterances))
            elif spec["name"] == "speaker_diversity":
                counts["diversity.jsd_pairs"] = sum(
                    n * (n - 1) // 2 for n in (
                        (spk.meta.get("convo_diversity") or {}).get("n_conversations", 0)
                        for spk in corpus.speakers.values()))
            elif spec["name"] == "fighting_words":
                fitted = getattr(stage, "model", None)
                counts["fightingwords.vocab_terms"] = len(fitted.vocab) if fitted else 0
            elif spec["name"] in ("classifier", "forecaster"):
                counts["ml.vocab_terms"] = counts.get("ml.vocab_terms", 0) + _vocab_size(stage)
                if spec["name"] == "forecaster":
                    # One training row per prefix of every labelled conversation.
                    counts["ml.forecaster.train_rows"] = utterances_before
        with tracer.span("corpus_io.save"):
            corpus_io.save(corpus, config["output"])
    counts["corpus_io.bytes_written"] = _dir_bytes(Path(config["output"]))
    return tracer, counts


def _dir_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.iterdir() if path.is_file())


def main() -> None:
    config_path, spans_path = sys.argv[1:3]
    # The same logging set-up as the command line, so warnings cost the same.
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    tracer, counts = run(config)
    Path(spans_path).write_text(json.dumps({"spans": tracer.spans, "counts": counts}))


if __name__ == "__main__":
    main()
