"""Shared test fixtures: random corpus generation and strict equality.

The generator exercises the full data model: multi-conversation reply
trees, missing timestamps, nested metadata of every supported value type,
and unicode text.
"""

import json
import os
import random
import shutil
from pathlib import Path

import convoforge
from convoforge import Corpus, Speaker, Utterance, build_corpus
from convoforge.datasets import toy_movie_path

WORDS = [
    "alpha", "beta", "gamma", "note", "plan", "vault", "night", "river",
    "stone", "go", "now", "later", "fine", "sure", "thanks", "maybe",
    "réussi", "naïve", "ok",
]

META_WORDS = ["red", "blue", "green", "café", "x", "long-tail", ""]


def child_env() -> dict:
    """The environment for a fresh interpreter that imports this checkout's
    convoforge."""
    src = str(Path(convoforge.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def random_text(rng: random.Random) -> str:
    n = rng.randint(0, 8)
    words = [rng.choice(WORDS) for _ in range(n)]
    text = " ".join(words)
    if words and rng.random() < 0.5:
        text += rng.choice([".", "!", "?"])
    return text


def random_meta_value(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if roll < 0.15:
        return None
    if roll < 0.30:
        return rng.choice([True, False])
    if roll < 0.50:
        return rng.randint(-1000, 1000)
    if roll < 0.65:
        return round(rng.uniform(-100.0, 100.0), 6)
    if roll < 0.80 or depth >= 2:
        return rng.choice(META_WORDS)
    if roll < 0.90:
        return [random_meta_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {
        f"k{i}": random_meta_value(rng, depth + 1) for i in range(rng.randint(0, 3))
    }


def random_meta(rng: random.Random) -> dict:
    return {f"key{i}": random_meta_value(rng) for i in range(rng.randint(0, 4))}


def random_corpus(rng: random.Random, max_utterances: int = 50,
                  min_utterances: int = 1) -> Corpus:
    total = rng.randint(min_utterances, max_utterances)
    speaker_ids = [f"s{i}" for i in range(rng.randint(1, 6))]
    speakers = [
        Speaker(sid, random_meta(rng) if rng.random() < 0.7 else {})
        for sid in speaker_ids
    ]
    utterances = []
    convo_index = 0
    while total > 0:
        size = rng.randint(1, min(8, total))
        total -= size
        cid = f"c{convo_index}"
        convo_index += 1
        ids = [f"{cid}_u{j}" for j in range(size)]
        for j, uid in enumerate(ids):
            utterances.append(
                Utterance(
                    id=uid,
                    speaker_id=rng.choice(speaker_ids),
                    conversation_id=cid,
                    text=random_text(rng),
                    reply_to=None if j == 0 else rng.choice(ids[:j]),
                    timestamp=rng.randint(0, 10**9) if rng.random() < 0.7 else None,
                    meta=random_meta(rng) if rng.random() < 0.5 else {},
                )
            )
    corpus = build_corpus(utterances, speakers, corpus_meta=random_meta(rng))
    for convo in corpus.conversations.values():
        if rng.random() < 0.5:
            convo.meta = random_meta(rng)
    return corpus


def typed_equal(a, b) -> bool:
    """Equality that distinguishes 3 from 3.0 from True at every depth."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(typed_equal(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(typed_equal(x, y) for x, y in zip(a, b))
    return a == b


def corpus_equal_strict(a: Corpus, b: Corpus) -> bool:
    if a != b:
        return False
    if not typed_equal(a.meta, b.meta):
        return False
    for sid, spk in a.speakers.items():
        if not typed_equal(spk.meta, b.speakers[sid].meta):
            return False
    for cid, convo in a.conversations.items():
        if not typed_equal(convo.meta, b.conversations[cid].meta):
            return False
    for uid, utt in a.utterances.items():
        if not typed_equal(utt.meta, b.utterances[uid].meta):
            return False
    return True


def write_non_object_meta(directory: Path, name: str, value) -> str:
    """Copy the toy corpus to directory with value as the metadata of its
    first speaker or conversation, or as its corpus_meta, depending on name:
    speakers.json, conversations.json or manifest.json. Returns what an
    error should name besides the file: the object's id or "corpus_meta"."""
    shutil.copytree(toy_movie_path(), directory)
    path = directory / name
    document = json.loads(path.read_text())
    if name == "manifest.json":
        document["corpus_meta"] = value
        owner = "corpus_meta"
    else:
        owner = next(iter(document))
        document[owner]["meta"] = value
    path.write_text(json.dumps(document))
    return owner
