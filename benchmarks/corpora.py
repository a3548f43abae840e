"""Seeded synthetic corpora and the pipeline config of each benchmark workload.

    python3 benchmarks/corpora.py --workload annotate --seed 1 --out DIR

writes one standard corpus directory (manifest.json, utterances.jsonl,
speakers.json, conversations.json) to DIR. The same workload and seed always
give the same bytes. Sizes are fixed per workload, so a new seed changes the
text and the shapes, never the amount of input.

Text is drawn from a Zipf vocabulary of pseudo-words, salted with politeness
markers and, in a few percent of utterances, web debris (tags, entities,
URLs, emails, non-ASCII). Speaker activity is heavy-tailed: speaker k is
chosen with weight 1/(k+1).
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

FORMAT_VERSION = "1.0"

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
VOCAB_SIZE = 4000
_ZIPF_EXPONENT = 1.05

# Marker phrases from the bundled politeness inventory, split by where they
# make sense in a sentence.
_OPENERS = ["please", "hi", "hello", "hey", "great", "good", "nice", "so", "but",
            "and", "what", "why", "how", "when", "i", "my", "you", "your"]
_INSERTS = ["please", "thanks", "thank you", "sorry", "oops", "by the way",
            "could you", "would you", "can you", "maybe", "perhaps", "probably",
            "seems", "really", "actually", "in fact", "i", "my", "we", "our",
            "us", "you", "your", "i appreciate"]
_DEBRIS = ["<b>{w}</b>", "<i>{w}</i>", '<a href="http://x.example/{w}">{w}</a>',
           "{w} &amp; {w}", "&quot;{w}&quot;", "https://forum.example.com/t/{w}",
           "www.{w}.example.org", "{w}@mail.example.com", "café {w}",
           "naïve {w}", "“{w}”", "{w} — {w}", "＜{w}＞"]
_ATTACKS = ["idiot", "nonsense", "wrong", "stupid", "liar", "ridiculous"]
_AWARDS = ["gold", "silver", "helpful", "wholesome", "insightful"]
CHAIN_LENGTH = 250
STAR_SIZE = 100


def _pseudo_words(count: int) -> list[str]:
    words = []
    for length in itertools.count(2):
        for combo in itertools.product(_SYLLABLES, repeat=length):
            words.append("".join(combo))
            if len(words) == count:
                return words


_WORDS = _pseudo_words(VOCAB_SIZE)
random.Random("vocabulary").shuffle(_WORDS)  # frequency rank unrelated to spelling
_WORD_CUM = list(itertools.accumulate(1.0 / (k + 1) ** _ZIPF_EXPONENT
                                      for k in range(VOCAB_SIZE)))


class _Generator:
    def __init__(self, utterances: int, speakers: int, seed: str):
        self.total = utterances
        self.rng = random.Random(seed)
        self.speaker_ids = [f"s{i:04d}" for i in range(speakers)]
        self.activity = {sid: 1.0 / (k + 1) for k, sid in enumerate(self.speaker_ids)}
        self.speaker_cum = list(itertools.accumulate(self.activity.values()))
        self.speakers = {sid: {"meta": {"gender": "f" if k % 2 else "m"}}
                         for k, sid in enumerate(self.speaker_ids)}
        self.conversations: dict[str, dict] = {}
        self.utterances: list[dict] = []
        self.clock = 1_600_000_000

    def speaker(self) -> str:
        return self.rng.choices(self.speaker_ids, cum_weights=self.speaker_cum)[0]

    def cast(self, pool=None) -> list[str]:
        """Two to six speakers drawn by activity, optionally from a pool."""
        pool = pool or self.speaker_ids
        cum = list(itertools.accumulate(self.activity[sid] for sid in pool))
        return sorted(set(self.rng.choices(pool, cum_weights=cum, k=self.rng.randint(2, 6))))

    def words(self, count: int) -> list[str]:
        return self.rng.choices(_WORDS, cum_weights=_WORD_CUM, k=count)

    def sentence(self, length: int, extra: list[str]) -> list[str]:
        rng = self.rng
        words = self.words(length) + extra
        rng.shuffle(words)
        if rng.random() < 0.3:
            words.insert(0, rng.choice(_OPENERS))
        if rng.random() < 0.3:
            words.insert(rng.randrange(len(words) + 1), rng.choice(_INSERTS))
        words = " ".join(words).split()
        if rng.random() < 0.5:
            words[0] = words[0].capitalize()
        return words

    def text(self, extra: list[str] = ()) -> tuple[str, list[list[str]]]:
        """Return the utterance text and its sentence/token split."""
        rng = self.rng
        total = rng.randint(10, 18)
        sentences = []
        pending = list(extra)
        while total > 0:
            length = min(total, rng.randint(4, 8))
            total -= length
            take, pending = pending[:1], pending[1:]
            sentences.append(self.sentence(length, take) + [rng.choice(".?!")])
        text = " ".join(" ".join(s[:-1]) + s[-1] for s in sentences)
        if rng.random() < 0.05:
            debris = rng.choice(_DEBRIS).format(w=self.words(1)[0])
            text = f"{text} {debris}" if rng.random() < 0.5 else f"{debris} {text}"
        return text, sentences

    def conversation(self, meta: dict) -> str:
        convo = f"c{len(self.conversations):04d}"
        self.conversations[convo] = {"meta": meta}
        return convo

    def add(self, convo: str, index: int, parent, speaker: str, text: str, meta: dict):
        self.clock += self.rng.randint(1, 120)
        self.utterances.append({
            "id": f"{convo}_u{index:03d}", "conversation_id": convo,
            "reply_to": None if parent is None else f"{convo}_u{parent:03d}",
            "speaker": speaker, "timestamp": self.clock, "text": text, "meta": meta,
        })

    def conversation_sizes(self, low: int, high: int) -> list[int]:
        remaining = self.total
        sizes = []
        while remaining > 0:
            size = min(remaining, self.rng.randint(low, high))
            if 0 < remaining - size < low:
                size = remaining
            sizes.append(size)
            remaining -= size
        return sizes

    def bushy(self, convo: str, size: int, cast: list[str], attack_rate: float = 0.0):
        """Reply tree whose parents are drawn among the five latest utterances."""
        for j in range(size):
            parent = None if j == 0 else self.rng.randrange(max(0, j - 5), j)
            speaker = self.rng.choice(cast)
            extra = [self.rng.choice(_ATTACKS)] if self.rng.random() < attack_rate else []
            text, _ = self.text(extra)
            self.add(convo, j, parent, speaker, text, {})

    def forum_meta(self, tokens: list[list[str]]) -> dict:
        rng = self.rng
        return {
            "score": rng.randint(-5, 200),
            "flags": {"edited": rng.random() < 0.2, "stickied": rng.random() < 0.02},
            "awards": rng.sample(_AWARDS, rng.randint(0, 2)),
            "tokens": tokens,
        }


def _annotate(gen: _Generator) -> None:
    by_gender = {g: [sid for sid in gen.speaker_ids if gen.speakers[sid]["meta"]["gender"] == g]
                 for g in "fm"}
    for size in gen.conversation_sizes(10, 30):
        # About a third of the conversations draw a single-gender cast, so
        # both fighting-words classes are populated.
        pool = by_gender[gen.rng.choice("fm")] if gen.rng.random() < 0.35 else None
        gen.bushy(gen.conversation({}), size, gen.cast(pool))


def _forecast(gen: _Generator) -> None:
    rng = gen.rng
    sizes = gen.conversation_sizes(10, 30)
    derailed = [c % 2 == 0 for c in range(len(sizes))]
    rng.shuffle(derailed)
    trolls = set(rng.sample(gen.speaker_ids, len(gen.speaker_ids) * 3 // 10))
    for sid in gen.speaker_ids:
        gen.speakers[sid]["meta"]["troll"] = sid in trolls
    for size, label in zip(sizes, derailed):
        gen.bushy(gen.conversation({"derailed": label}), size, gen.cast(),
                  attack_rate=0.3 if label else 0.05)


def _fold(gen: _Generator) -> None:
    chained = gen.total // 2
    while chained > 0:
        convo = gen.conversation({"forum": "chains"})
        size = min(chained, CHAIN_LENGTH)
        speaker = None
        run_left = 0
        for j in range(size):
            if run_left == 0:
                previous = speaker
                while speaker == previous:
                    speaker = gen.speaker()
                run_left = gen.rng.randint(1, 8)
            run_left -= 1
            text, tokens = gen.text()
            gen.add(convo, j, None if j == 0 else j - 1, speaker, text, gen.forum_meta(tokens))
        chained -= size
    starred = gen.total - gen.total // 2
    while starred > 0:
        convo = gen.conversation({"forum": "stars"})
        size = min(starred, STAR_SIZE)
        for j in range(size):
            text, tokens = gen.text()
            gen.add(convo, j, None if j == 0 else 0, gen.speaker(), text, gen.forum_meta(tokens))
        starred -= size


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: input size, corpus shape and pipeline stages."""

    utterances: int
    speakers: int
    build: Callable[[_Generator], None]
    stages: tuple


WORKLOADS = {
    "annotate": Workload(utterances=2000, speakers=200, build=_annotate, stages=(
        {"name": "text_cleaner"},
        {"name": "tokenizer"},
        {"name": "politeness"},
        {"name": "hyperconvo"},
        {"name": "speaker_mix", "params": {"speaker_key": "gender"}},
        {"name": "speaker_diversity"},
        {"name": "fighting_words", "params": {"class1": "mixed=true",
                                              "class2": "mixed=false"}},
    )),
    "forecast": Workload(utterances=3000, speakers=300, build=_forecast, stages=(
        {"name": "tokenizer"},
        {"name": "classifier", "params": {"label_key": "derailed",
                                          "level": "conversation"}},
        {"name": "classifier", "params": {"label_key": "troll", "level": "speaker"}},
        {"name": "forecaster", "params": {"label_key": "derailed"}},
    )),
    "fold": Workload(utterances=5000, speakers=250, build=_fold, stages=(
        {"name": "merge_consecutive"},
        {"name": "hyperconvo"},
        {"name": "speaker_mix", "params": {"speaker_key": "gender"}},
    )),
}


def generate(name: str, seed: int) -> tuple[list[dict], dict, dict]:
    """Utterance records, speakers and conversations of one workload."""
    workload = WORKLOADS[name]
    gen = _Generator(workload.utterances, workload.speakers, f"{name}:{seed}")
    workload.build(gen)
    return gen.utterances, gen.speakers, gen.conversations


def write_corpus(name: str, seed: int, directory: Path) -> int:
    """Write the workload's corpus to ``directory``; returns its utterance count."""
    utterances, speakers, conversations = generate(name, seed)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": FORMAT_VERSION,
        "utterance_count": len(utterances),
        "conversation_count": len(conversations),
        "speaker_count": len(speakers),
        "corpus_meta": {"generator": "benchmarks/corpora.py", "workload": name, "seed": seed},
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    with open(directory / "utterances.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for record in utterances:
            fh.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n")
    (directory / "speakers.json").write_text(
        json.dumps(speakers, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
    (directory / "conversations.json").write_text(
        json.dumps(conversations, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
    return len(utterances)


def pipeline_config(name: str, input_dir: Path, output_dir: Path) -> dict:
    return {"input": str(input_dir), "output": str(output_dir),
            "stages": [dict(stage) for stage in WORKLOADS[name].stages]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path, help="corpus directory to write")
    args = parser.parse_args()
    count = write_corpus(args.workload, args.seed, args.out)
    print(f"wrote {count} utterances to {args.out}")


if __name__ == "__main__":
    main()
