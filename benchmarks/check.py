"""Output check for one benchmark run.

For any seed, the output corpus must load, pass ``check_integrity`` and
carry every stage's annotation key on every object of the stage's level;
after ``merge_consecutive`` no foldable pair may remain. For the default
seed the output's summary must also match ``reference.json``, which was made
from the seed code: counts, booleans and strings exactly, floats within
1e-9 relative.

    python3 benchmarks/check.py --write-reference

rewrites ``reference.json`` from the current code (run from the repository
root, with ``src`` importable).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
DEFAULT_SEED = 1
FLOAT_REL_TOL = 1e-9


def _stage_keys(stage: dict) -> list[tuple[str, str]]:
    """(level, metadata key) pairs one stage must write on every object."""
    params = stage.get("params", {})
    name = stage["name"]
    if name == "classifier":
        level = params.get("level", "utterance")
        return [(level, "prediction"), (level, "prediction_score")]
    return {
        "text_cleaner": [("utterance", "clean_text")],
        "tokenizer": [("utterance", "tokens")],
        "politeness": [("utterance", "politeness_strategies")],
        "hyperconvo": [("conversation", "hyperconvo")],
        "speaker_mix": [("conversation", params.get("output_key", "mixed"))],
        "speaker_diversity": [("speaker", "convo_diversity")],
        "fighting_words": [("utterance", "fw_class")],
        "forecaster": [("utterance", "forecast"), ("conversation", "forecast_final")],
        "merge_consecutive": [],
    }[name]


def _objects(corpus, level: str):
    return {"utterance": corpus.utterances, "conversation": corpus.conversations,
            "speaker": corpus.speakers}[level].values()


def _foldable_pairs(corpus) -> int:
    children: dict[str, list] = {}
    for utt in corpus.utterances.values():
        if utt.reply_to is not None:
            children.setdefault(utt.reply_to, []).append(utt)
    return sum(1 for uid, kids in children.items()
               if len(kids) == 1 and kids[0].speaker_id == corpus.utterances[uid].speaker_id)


class _Summary:
    """Order-sensitive digest of every metadata value, by level and key path."""

    def __init__(self):
        self.numbers: dict[str, object] = {}
        self.strings: dict[str, "hashlib._Hash"] = {}
        self.counts: dict[str, int] = {}

    def add(self, path: str, value) -> None:
        if isinstance(value, dict):
            for key, item in value.items():
                self.add(f"{path}.{key}", item)
        elif value is None or isinstance(value, bool):
            label = f"{path}#{'none' if value is None else str(value).lower()}"
            self.counts[label] = self.counts.get(label, 0) + 1
        elif isinstance(value, (int, float)):
            self.numbers[path] = self.numbers.get(path, 0) + value
        else:
            digest = self.strings.setdefault(path, hashlib.sha256())
            digest.update(json.dumps(value, ensure_ascii=False).encode("utf-8"))

    def result(self) -> dict:
        out: dict[str, object] = dict(self.counts)
        out.update(self.numbers)
        out.update({path: digest.hexdigest() for path, digest in self.strings.items()})
        return dict(sorted(out.items()))


def summarize(corpus) -> dict:
    """Counts, sums of numeric metadata and digests of the rest.

    Corpus-level metadata is left out: it may record provenance.
    """
    summary = _Summary()
    summary.counts.update({"utterances": len(corpus.utterances),
                           "conversations": len(corpus.conversations),
                           "speakers": len(corpus.speakers)})
    for utt in corpus.utterances.values():
        summary.add("utterance.record", [utt.id, utt.conversation_id, utt.reply_to,
                                         utt.speaker_id, utt.timestamp, utt.text])
        summary.add("utterance.meta", utt.meta)
    for convo in corpus.conversations.values():
        summary.add("conversation.record", [convo.id, convo.utterance_ids])
        summary.add("conversation.meta", convo.meta)
    for speaker in corpus.speakers.values():
        summary.add("speaker.record", speaker.id)
        summary.add("speaker.meta", speaker.meta)
    return summary.result()


def compare_summaries(expected: dict, actual: dict) -> list[str]:
    problems = []
    for key in sorted(set(expected) | set(actual)):
        if key not in actual or key not in expected:
            problems.append(f"summary key {key!r} only in "
                            f"{'reference' if key in expected else 'output'}")
            continue
        want, got = expected[key], actual[key]
        if isinstance(want, float) or isinstance(got, float):
            if not (isinstance(got, (int, float)) and isinstance(want, (int, float))
                    and math.isclose(want, got, rel_tol=FLOAT_REL_TOL, abs_tol=1e-12)):
                problems.append(f"{key}: expected {want!r}, got {got!r}")
        elif want != got:
            problems.append(f"{key}: expected {want!r}, got {got!r}")
    return problems


def check_output(output_dir: Path, config: dict, workload: str, seed: int,
                 input_utterances: int) -> list[str]:
    """Problems found in one run's output corpus; empty when it is correct.

    Raises whatever ``load`` raises when the output does not load."""
    from convoforge import corpus_io
    from convoforge.model import check_integrity

    corpus = corpus_io.load(output_dir)
    report = check_integrity(corpus)
    if not report.ok:
        return [f"integrity: {violation}" for violation in report.violations[:5]]

    problems = []
    structural = any(stage["name"] == "merge_consecutive" for stage in config["stages"])
    if structural:
        if len(corpus.utterances) > input_utterances:
            problems.append(f"{len(corpus.utterances)} utterances out of {input_utterances}")
        if _foldable_pairs(corpus):
            problems.append("merge_consecutive left foldable same-speaker pairs")
    elif len(corpus.utterances) != input_utterances:
        problems.append(f"{len(corpus.utterances)} utterances out of {input_utterances}")
    for stage in config["stages"]:
        for level, key in _stage_keys(stage):
            missing = sum(1 for obj in _objects(corpus, level) if key not in obj.meta)
            if missing:
                problems.append(f"{stage['name']}: {missing} {level}s lack {key!r}")

    if seed == DEFAULT_SEED and not problems:
        reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
        problems += compare_summaries(reference["workloads"][workload], summarize(corpus))
    return problems


def write_reference() -> None:
    """Run every workload once at the default seed through the command
    line and record the summaries of their outputs."""
    import tempfile

    import corpora
    from convoforge import corpus_io
    from convoforge.cli import main as convoforge_main

    workloads = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as scratch:
        for name in corpora.WORKLOADS:
            base = Path(scratch) / name
            corpora.write_corpus(name, DEFAULT_SEED, base / "in")
            config_path = base / "config.json"
            config_path.write_text(json.dumps(
                corpora.pipeline_config(name, base / "in", base / "out")))
            if convoforge_main(["--quiet", "run", str(config_path)]) != 0:
                sys.exit(f"convoforge run failed on workload {name}")
            workloads[name] = summarize(corpus_io.load(base / "out"))
    REFERENCE_FILE.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": workloads},
                                         indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-reference"]:
        sys.exit("usage: python3 benchmarks/check.py --write-reference")
    sys.path.insert(0, str(HERE.parent / "src"))
    write_reference()
