"""Properties of every pipeline, over seeded random corpora and stage
chains drawn from the registry:

- a split run (stages[:k], save, load, stages[k:]) writes files
  byte-identical to the whole run, and every stage summarizes the same;
- shuffling the lines of utterances.jsonl leaves every record and every
  summary row equal, floats within 1e-9 relative;
- every stage but merge_consecutive leaves the utterance tree as it was.

Seed i's chain always holds the registry's stage i mod 10, so each stage is
in some chain. The ml stages take a small learning_rate: at the default
step their training diverges and amplifies rounding changes, so the line
order would show in their output.
"""

import math
import random

import pytest

from convoforge import load, save
from convoforge.corpus_io import CORPUS_FILES, UTTERANCES_FILE
from convoforge.model import _level_objects
from convoforge.registry import REGISTRY, create_transformer
from convoforge.transform import Pipeline
from helpers import random_corpus

SEEDS = range(20)
NAMES = list(REGISTRY)


def _params(rng: random.Random, name: str) -> dict:
    """Valid params for the named stage, some left at their defaults."""
    ml = {"label_key": "label", "min_df": rng.choice([1, 2]),
          "max_terms": rng.choice([None, 5]), "epochs": rng.choice([5, 30]),
          "learning_rate": rng.choice([0.01, 0.05])}
    return {
        "text_cleaner": {"overwrite_text": rng.choice([False, True])},
        "speaker_diversity": {"min_tokens_per_convo": rng.choice([1, 3])},
        "speaker_mix": {"speaker_key": rng.choice(["key0", "key1"])},
        "fighting_words": {"class1": "side=0", "class2": "side=1",
                           "ngram_max": rng.choice([1, 2]), "alpha": rng.choice([0.01, 0.5]),
                           "top_k": rng.choice([3, 10])},
        "classifier": {**ml, "level": rng.choice(["utterance", "conversation", "speaker"])},
        "forecaster": ml,
    }.get(name, {})


def _labelled_corpus(rng: random.Random):
    """A random corpus whose objects at every level alternate "label" in
    id order, and whose utterances alternate "side"."""
    corpus = random_corpus(rng, max_utterances=40)
    for level in ("utterance", "conversation", "speaker"):
        for i, obj in enumerate(sorted(_level_objects(corpus, level), key=lambda o: o.id)):
            obj.meta["label"] = i % 2 == 0
            if level == "utterance":
                obj.meta["side"] = i % 2
    return corpus


def _run(chain, corpus_path, output_path):
    """Fresh stages for the chain, run over the corpus at corpus_path and
    saved to output_path; returns the stages and the annotated corpus."""
    stages = [create_transformer(name, params) for name, params in chain]
    corpus = Pipeline(stages).run(load(corpus_path))
    save(corpus, output_path)
    return stages, corpus


def _chain_and_input(seed: int, tmp_path):
    """The seed's chain of 3 to 5 stages with their params, and its input
    corpus, saved under tmp_path."""
    rng = random.Random(seed)
    names = [NAMES[seed % len(NAMES)]] + rng.sample(NAMES, rng.randint(2, 4))
    rng.shuffle(names)
    chain = [(name, _params(rng, name)) for name in names]
    source = tmp_path / "input"
    save(_labelled_corpus(rng), source)
    return chain, source


def _summaries(stages, corpus):
    return [stage.summarize(corpus) for stage in stages]


@pytest.mark.parametrize("seed", SEEDS)
def test_split_run_writes_the_whole_run_files(tmp_path, seed):
    chain, source = _chain_and_input(seed, tmp_path)
    whole_stages, whole = _run(chain, source, tmp_path / "whole")
    k = random.Random(seed).randint(1, len(chain) - 1)
    first_stages, _ = _run(chain[:k], source, tmp_path / "half")
    rest_stages, split = _run(chain[k:], tmp_path / "half", tmp_path / "split")
    for name in CORPUS_FILES:
        assert (tmp_path / "split" / name).read_bytes() == \
            (tmp_path / "whole" / name).read_bytes(), (chain, k, name)
    assert [table.to_delimited() for table in _summaries(first_stages + rest_stages, split)] \
        == [table.to_delimited() for table in _summaries(whole_stages, whole)], (chain, k)


def _close(a, b) -> bool:
    """Equal, except that floats need only agree within 1e-9 relative."""
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9)
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_close(a[key], b[key]) for key in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


def _records(corpus) -> dict:
    return {
        "meta": corpus.meta,
        "utterances": {uid: (u.conversation_id, u.reply_to, u.speaker_id, u.timestamp,
                             u.text, u.meta) for uid, u in corpus.utterances.items()},
        "speakers": {sid: s.meta for sid, s in corpus.speakers.items()},
        "conversations": {cid: c.meta for cid, c in corpus.conversations.items()},
    }


def _rows(table) -> tuple:
    # Rows follow corpus order, or a float ranking that rounding can reorder
    # among near-ties, so they are compared in label order.
    def key(row):
        return row[0], [str(v) for v in row[1] if not isinstance(v, float)]
    return table.label_header, table.columns, sorted(table.rows, key=key)


@pytest.mark.parametrize("seed", SEEDS)
def test_utterance_line_order_changes_no_annotation(tmp_path, seed):
    chain, source = _chain_and_input(seed, tmp_path)
    shuffled = tmp_path / "shuffled"
    shuffled.mkdir()
    for name in CORPUS_FILES:
        (shuffled / name).write_bytes((source / name).read_bytes())
    lines = (source / UTTERANCES_FILE).read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(seed).shuffle(lines)
    (shuffled / UTTERANCES_FILE).write_text("".join(lines), encoding="utf-8")
    stages, corpus = _run(chain, source, tmp_path / "out")
    shuffled_stages, shuffled_corpus = _run(chain, shuffled, tmp_path / "shuffled_out")
    assert _close(_records(shuffled_corpus), _records(corpus)), chain
    assert _close([_rows(t) for t in _summaries(shuffled_stages, shuffled_corpus)],
                  [_rows(t) for t in _summaries(stages, corpus)]), chain


def _tree(corpus) -> tuple:
    """The utterance tree: each utterance's parent and conversation, in
    corpus order, and each conversation's utterance ids."""
    return ({uid: (u.reply_to, u.conversation_id) for uid, u in corpus.utterances.items()},
            list(corpus.utterances),
            {cid: list(c.utterance_ids) for cid, c in corpus.conversations.items()})


@pytest.mark.parametrize("name", NAMES)
def test_only_merge_consecutive_changes_the_tree(name):
    changed = []
    for seed in SEEDS:
        rng = random.Random(seed)
        corpus = _labelled_corpus(rng)
        before = _tree(corpus)
        Pipeline([create_transformer(name, _params(rng, name))]).run(corpus)
        if _tree(corpus) != before:
            changed.append(seed)
    # merge_consecutive folds utterances away; on no seed would be a test
    # that cannot fail.
    assert bool(changed) == (name == "merge_consecutive"), changed
