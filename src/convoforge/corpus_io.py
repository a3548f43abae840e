"""Disk format, corpus merging, and tabular import/export.

On-disk layout of a corpus directory (all files UTF-8):

    manifest.json        keys in order: format_version, utterance_count,
                         conversation_count, speaker_count, corpus_meta
    utterances.jsonl     one record per line, fixed key order:
                         id, conversation_id, reply_to, speaker, timestamp, text, meta
    speakers.json        map speaker id -> {"meta": {...}}
    conversations.json   map conversation id -> {"meta": {...}}

Records are written in corpus insertion order, which makes output bytes
stable across runs and lets load() reconstruct an equal corpus. Numbers in
metadata keep their integer/float identity through the JSON round trip.

Input faults follow one rule: the code that finds a fault raises ValueError
saying what is wrong, and each reader has one boundary that turns it into
MalformedRecordError naming the file, and the line where there are lines;
a file that is not there is MissingFileError (_require_file), and a tabular
header without a mapped column is MissingColumnError naming the file.

load() keeps one str object per distinct id: an utterance's speaker_id and
conversation_id are the objects its speaker and conversation hold, and its
reply_to is its parent's id when the parent's line came first. Loaded
"tokens" annotations are not shared; each token is its own str.
"""

from __future__ import annotations

import copy
import csv
import gc
import json
import math
import os
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from .errors import (
    CountMismatchError,
    IntegrityViolationError,
    IoFailureError,
    IrreconcilableCollisionError,
    MalformedRecordError,
    MissingColumnError,
    MissingFileError,
    UnserializableValueError,
    UnsupportedVersionError,
)
from .model import Conversation, Corpus, Speaker, Utterance, _require_integrity, build_corpus

FORMAT_VERSION = "1.0"

MANIFEST_FILE = "manifest.json"
UTTERANCES_FILE = "utterances.jsonl"
SPEAKERS_FILE = "speakers.json"
CONVERSATIONS_FILE = "conversations.json"
CORPUS_FILES = (MANIFEST_FILE, UTTERANCES_FILE, SPEAKERS_FILE, CONVERSATIONS_FILE)


def _finite_float(literal: str) -> float:
    # Called for NaN, Infinity and -Infinity, and for every float literal,
    # since one such as 1e999 overflows to infinity.
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {literal}")
    return value


# Shared by every corpus file. Standard JSON has no NaN or Infinity and
# save() refuses to write them, so load() refuses to read them.
_DECODER = json.JSONDecoder(parse_constant=_finite_float, parse_float=_finite_float)


# One encoder per file layout, reused for every record and fault probe rather
# than built anew for each call.
_INDENTED = json.JSONEncoder(ensure_ascii=False, allow_nan=False, indent=2)
_ONE_LINE = json.JSONEncoder(ensure_ascii=False, allow_nan=False, separators=(",", ":"))

_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")  # \uD800 to \uDFFF


def _decode(text: str):
    """The JSON value of text; ValueError for invalid JSON, NaN, Infinity, and a lone
    surrogate escape (not half of a pair such as "\\ud83d\\ude00"), which UTF-8 cannot encode."""
    try:
        value = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON ({exc.msg})") from None
    # Only text with such an escape pays; the memchr first is far faster than the regex.
    if "\\" in text and _SURROGATE_ESCAPE.search(text):
        try:
            _ONE_LINE.encode(value).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(_unencodable(exc)) from None
    return value


def _unencodable(exc: UnicodeEncodeError) -> str:
    return f"lone surrogate {exc.object[exc.start]!r} cannot be encoded as UTF-8"


# Canonical field names understood by the tabular importer/exporter.
TABULAR_FIELDS = ("id", "speaker_id", "conversation_id", "reply_to", "timestamp", "text")
MANDATORY_TABULAR_FIELDS = ("id", "speaker_id", "conversation_id", "text")


def check_delimiter(delimiter: str) -> str:
    """Return ``delimiter`` if the csv module can write and read it back:
    one character, and not the double quote or a line break that its
    quoting relies on; raise ValueError otherwise."""
    if len(delimiter) != 1 or delimiter in '"\r\n':
        raise ValueError("delimiter must be one character other than a double quote "
                         f"or line break, got {delimiter!r}")
    return delimiter


@dataclass
class ImportMapping:
    """Maps canonical utterance fields to source column names.

    id, speaker_id, conversation_id, and text are mandatory; reply_to and
    timestamp are optional. ``meta_columns`` are copied into utterance
    metadata as strings.
    """

    column_for: dict[str, str]
    meta_columns: list[str] = field(default_factory=list)
    delimiter: str = ","

    def __post_init__(self) -> None:
        for name in MANDATORY_TABULAR_FIELDS:
            if name not in self.column_for:
                raise MissingColumnError(f"mapping for mandatory field {name!r} is missing")
        unknown = set(self.column_for) - set(TABULAR_FIELDS)
        if unknown:
            raise MissingColumnError(f"unknown mapped fields: {sorted(unknown)}")
        check_delimiter(self.delimiter)


@dataclass(frozen=True)
class MergeConflict:
    """A metadata key that differed between the two merged corpora."""

    kind: str  # corpus_meta | speaker_meta | conversation_meta | utterance_meta
    object_id: str
    key: str
    kept: object
    discarded: object


def _utterance_record(utt: Utterance) -> dict:
    # Key order is part of the format; do not reorder.
    return {
        "id": utt.id,
        "conversation_id": utt.conversation_id,
        "reply_to": utt.reply_to,
        "speaker": utt.speaker_id,
        "timestamp": utt.timestamp,
        "text": utt.text,
        "meta": utt.meta,
    }


def _meta_owners(corpus: Corpus) -> Iterator[tuple[str, dict]]:
    """Every metadata table with its owner's name: the corpus's, then each
    utterance's, speaker's and conversation's in insertion order."""
    yield "corpus", corpus.meta
    for utt in corpus.utterances.values():
        yield f"utterance {utt.id!r}", utt.meta
    for sid, spk in corpus.speakers.items():
        yield f"speaker {sid!r}", spk.meta
    for cid, convo in corpus.conversations.items():
        yield f"conversation {cid!r}", convo.meta


def _to_json(value, corpus: Corpus, encoder: json.JSONEncoder) -> str:
    """``encoder.encode(value)``, refusing what standard JSON cannot hold;
    the error names the first meta key of ``corpus`` at fault."""
    try:
        return encoder.encode(value)
    except (TypeError, ValueError):
        for owner, meta in _meta_owners(corpus):
            for key, item in meta.items():
                try:
                    _ONE_LINE.encode({key: item})
                except (TypeError, ValueError) as exc:
                    raise UnserializableValueError(
                        f"{owner} meta key {key!r} cannot be saved as JSON: {exc}"
                    ) from None
        raise


def _write_files(corpus: Corpus, directory: Path) -> None:
    manifest = {"format_version": FORMAT_VERSION, "utterance_count": len(corpus.utterances),
                "conversation_count": len(corpus.conversations),
                "speaker_count": len(corpus.speakers), "corpus_meta": corpus.meta}
    speakers = {sid: {"meta": spk.meta} for sid, spk in corpus.speakers.items()}
    conversations = {cid: {"meta": convo.meta} for cid, convo in corpus.conversations.items()}
    for name, document in ((MANIFEST_FILE, manifest), (SPEAKERS_FILE, speakers),
                           (CONVERSATIONS_FILE, conversations)):
        (directory / name).write_text(_to_json(document, corpus, _INDENTED) + "\n",
                                      encoding="utf-8")
    with open(directory / UTTERANCES_FILE, "w", encoding="utf-8", newline="\n") as fh:
        for utt in corpus.utterances.values():
            fh.write(_to_json(_utterance_record(utt), corpus, _ONE_LINE))
            fh.write("\n")


def _replace_directory(staging: Path, directory: Path) -> None:
    if not directory.exists():
        os.rename(staging, directory)
        return
    shutil.copymode(directory, staging)
    retired = staging.with_suffix(".old")
    os.rename(directory, retired)
    try:
        os.rename(staging, directory)
    except OSError:
        os.rename(retired, directory)
        raise
    # The new corpus is in place; a leftover copy of the old one is no
    # reason to report the save as failed.
    shutil.rmtree(retired, ignore_errors=True)


def save(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus directory; refuses to persist an invalid corpus.

    The files are written into a temporary sibling directory, which then
    takes the place of ``path``: a save that fails leaves what was there.
    An existing ``path`` may hold nothing but corpus files. Metadata that
    standard JSON cannot hold (NaN, Infinity, sets, ...) is refused.
    """
    _require_integrity(corpus, "corpus to save")
    # Resolved, so that a symlinked directory is replaced at its target.
    directory = Path(path).resolve()
    try:
        if directory.exists():
            if not directory.is_dir():
                raise IoFailureError(f"cannot write corpus to {directory}: not a directory")
            foreign = sorted(set(os.listdir(directory)) - set(CORPUS_FILES))
            if foreign:
                raise IoFailureError(
                    f"refusing to replace {directory}: it holds {foreign[0]!r}, "
                    "which is not a corpus file"
                )
        directory.parent.mkdir(parents=True, exist_ok=True)
        staging = directory.with_name(f".{directory.name}.{os.urandom(16).hex()}.tmp")
        staging.mkdir()
        try:
            _write_files(corpus, staging)
            _replace_directory(staging, directory)
        except UnicodeEncodeError as exc:
            raise UnserializableValueError(f"cannot save corpus: {_unencodable(exc)}") from None
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    except OSError as exc:
        raise IoFailureError(f"cannot write corpus to {directory}: {exc}") from exc


def _require_file(path: Path) -> Path:
    """path, or MissingFileError unless it is a file."""
    if not path.is_file():
        raise MissingFileError(f"no such file: {path}")
    return path


def _decode_object(path: Path, name: str) -> dict:
    """The JSON object in the file at path; a fault in it is MalformedRecordError naming name."""
    try:
        value = _decode(_require_file(path).read_text(encoding="utf-8"))
        if not isinstance(value, dict):
            raise ValueError("top-level value is not an object")
    except ValueError as exc:
        raise MalformedRecordError(f"{name}: {exc}") from exc
    return value


def _meta_by_id(directory: Path, name: str) -> Iterator[tuple[str, dict]]:
    """The (id, meta) pairs of speakers.json or conversations.json."""
    for object_id, payload in _decode_object(directory / name, name).items():
        if not isinstance(payload, dict):
            raise MalformedRecordError(f"{name}: record {object_id!r} is not an object")
        meta = payload.get("meta", {})
        if not isinstance(meta, dict):
            raise MalformedRecordError(f"{name}: record {object_id!r} meta is not an object")
        yield object_id, meta


# The keys of an utterances.jsonl record, in the order save() writes them.
_RECORD_KEYS = ("id", "conversation_id", "reply_to", "speaker", "timestamp", "text", "meta")


def _utterance(line: str) -> Utterance:
    """The utterance of one utterances.jsonl line; ValueError saying what is wrong with it."""
    record = _decode(line)
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    try:
        uid, conversation_id, reply_to, speaker, timestamp, text, meta = map(
            record.__getitem__, _RECORD_KEYS)
    except KeyError:
        raise ValueError(f"missing keys {[k for k in _RECORD_KEYS if k not in record]}") from None
    if not isinstance(uid, str) or not uid:
        raise ValueError("bad utterance id")
    if reply_to is not None and not isinstance(reply_to, str):
        raise ValueError("bad reply_to")
    if timestamp is not None and (isinstance(timestamp, bool) or not isinstance(timestamp, int)):
        raise ValueError("bad timestamp")
    if not isinstance(speaker, str) or not isinstance(conversation_id, str):
        raise ValueError("bad speaker or conversation id")
    if not isinstance(text, str) or not isinstance(meta, dict):
        raise ValueError("bad text or meta")
    return Utterance(uid, speaker, conversation_id, text, reply_to, timestamp, meta)


class _paused_gc:
    """Run the block with the cyclic garbage collector off, then put back
    the state it had. ``load`` builds the corpus under it, and ``cli.main``
    runs each whole command under it. Corpus data is acyclic: reference
    counting frees what a run drops, and a command leaves the same hundred
    or so cyclic objects for a corpus of any size (``tests/test_cli.py``
    pins that), so a collection would only re-scan the corpus and the
    imported modules, and the process exits when the command ends (the
    batch pattern of Instagram's "Dismissing Python Garbage Collection").
    """

    # A class: a generator's exit would allocate with the collector back on.
    def __enter__(self) -> None:
        self.was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self.was_enabled:
            gc.enable()


def load(path: str | Path) -> Corpus:
    """Read a corpus directory; verifies manifest counts and integrity.
    The corpus is built under ``_paused_gc``."""
    with _paused_gc():
        return _load(Path(path))


def _load(directory: Path) -> Corpus:
    if not directory.is_dir():
        raise MissingFileError(f"not a corpus directory: {directory}")

    manifest = _decode_object(directory / MANIFEST_FILE, MANIFEST_FILE)
    version = str(manifest.get("format_version", ""))
    if version.split(".", 1)[0] != FORMAT_VERSION.split(".", 1)[0]:
        raise UnsupportedVersionError(f"unsupported corpus format version: {version!r}")

    corpus_meta = manifest.get("corpus_meta", {})
    if not isinstance(corpus_meta, dict):
        raise MalformedRecordError(f"{MANIFEST_FILE}: corpus_meta is not an object")
    corpus = Corpus(meta=corpus_meta)

    for sid, meta in _meta_by_id(directory, SPEAKERS_FILE):
        corpus.speakers[sid] = Speaker(id=sid, meta=meta)

    for cid, meta in _meta_by_id(directory, CONVERSATIONS_FILE):
        corpus.conversations[cid] = Conversation(id=cid, meta=meta)

    # Lines end at \n alone; each is decoded on its own, so that invalid
    # UTF-8 is reported at its line like any other fault.
    with open(_require_file(directory / UTTERANCES_FILE), "rb") as fh:
        try:
            for line_number, raw in enumerate(fh, start=1):
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                utt = _utterance(line)
                if utt.id in corpus.utterances:
                    raise ValueError(f"duplicate utterance id {utt.id!r}")
                speaker = corpus.speakers.get(utt.speaker_id)
                if speaker is not None:
                    utt.speaker_id = speaker.id
                convo = corpus.conversations.get(utt.conversation_id)
                if convo is not None:
                    utt.conversation_id = convo.id
                    convo.utterance_ids.append(utt.id)
                parent = corpus.utterances.get(utt.reply_to)
                if parent is not None:
                    utt.reply_to = parent.id
                corpus.utterances[utt.id] = utt
        except ValueError as exc:
            raise MalformedRecordError(f"{UTTERANCES_FILE} line {line_number}: {exc}",
                                       line_number=line_number) from exc

    for label, actual in (("utterance", len(corpus.utterances)),
                          ("conversation", len(corpus.conversations)),
                          ("speaker", len(corpus.speakers))):
        declared = manifest.get(f"{label}_count")
        if type(declared) is not int:  # bool is not a count
            raise MalformedRecordError(f"{MANIFEST_FILE}: '{label}_count' is not an integer")
        if declared != actual:
            raise CountMismatchError(
                f"manifest declares {declared} {label}s but payload has {actual}"
            )

    _require_integrity(corpus, "loaded corpus")
    return corpus


def _merge_meta(kind: str, object_id: str, base: dict, incoming: dict,
                log: list) -> dict:
    merged = dict(base)
    for key, value in incoming.items():
        if key in merged and merged[key] != value:
            log.append(MergeConflict(kind, object_id, key, kept=value,
                                     discarded=merged[key]))
        merged[key] = value
    return merged


def merge(a: Corpus, b: Corpus) -> Corpus:
    """Union of two corpora. Metadata conflicts resolve in b's favor and are
    recorded in the result's merge_log; differing structural fields on a
    shared utterance id are irreconcilable.
    """
    log: list[MergeConflict] = []
    # Deep copies of both sides, so the result shares no object with either.
    result, b = copy.deepcopy(a), copy.deepcopy(b)
    result.meta = _merge_meta("corpus_meta", "", result.meta, b.meta, log)

    for sid, spk in b.speakers.items():
        target = result.speakers.get(sid)
        if target is None:
            result.speakers[sid] = spk
        else:
            target.meta = _merge_meta("speaker_meta", sid, target.meta, spk.meta, log)

    for cid, convo in b.conversations.items():
        target = result.conversations.get(cid)
        if target is None:
            result.conversations[cid] = convo
            continue
        target.meta = _merge_meta("conversation_meta", cid, target.meta, convo.meta, log)
        known = set(target.utterance_ids)
        target.utterance_ids.extend(u for u in convo.utterance_ids if u not in known)

    structural = ("speaker_id", "conversation_id", "reply_to", "timestamp", "text")
    for uid, utt in b.utterances.items():
        existing = result.utterances.get(uid)
        if existing is None:
            result.utterances[uid] = utt
            continue
        for fname in structural:
            if getattr(existing, fname) != getattr(utt, fname):
                raise IrreconcilableCollisionError(
                    f"utterance {uid!r} differs in {fname} between the merged corpora"
                )
        existing.meta = _merge_meta("utterance_meta", uid, existing.meta, utt.meta, log)

    result.merge_log = log
    _require_integrity(result, "merged corpus")
    return result


def import_tabular(path: str | Path, mapping: ImportMapping) -> Corpus:
    """Build a corpus from a delimited file with a header row.

    Each row becomes one utterance, and a repeated id is a fault of its row.
    Without a reply_to mapping every row is its own conversation root.
    Quoting follows RFC 4180 conventions.
    """
    source = _require_file(Path(path))
    utterances: dict[str, Utterance] = {}
    # Latin-1 keeps every byte, so lines split where they would in UTF-8;
    # each is then decoded on its own, and invalid UTF-8 is found at its line.
    with open(source, encoding="latin-1", newline="") as fh:
        reader = csv.reader((line.encode("latin-1").decode("utf-8") for line in fh),
                            delimiter=mapping.delimiter)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError("empty file: no header row")
            index: dict[str, int] = {}
            for field_name, column in mapping.column_for.items():
                if column not in header:
                    raise MissingColumnError(
                        f"{source}: column {column!r} (for {field_name}) not in header")
                index[field_name] = header.index(column)
            meta_index: dict[str, int] = {}
            for column in mapping.meta_columns:
                if column not in header:
                    raise MissingColumnError(f"{source}: meta column {column!r} not in header")
                meta_index[column] = header.index(column)

            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                uid = row[index["id"]]
                if not uid:
                    raise ValueError("empty id cell")
                if uid in utterances:
                    raise ValueError(f"duplicate utterance id {uid!r}")
                reply_to: Optional[str] = None
                if "reply_to" in index and row[index["reply_to"]]:
                    reply_to = row[index["reply_to"]]
                timestamp: Optional[int] = None
                if "timestamp" in index and row[index["timestamp"]]:
                    try:
                        timestamp = int(row[index["timestamp"]])
                    except ValueError:
                        raise ValueError("timestamp is not an integer") from None
                utterances[uid] = Utterance(
                    id=uid, speaker_id=row[index["speaker_id"]],
                    conversation_id=row[index["conversation_id"]], text=row[index["text"]],
                    reply_to=reply_to, timestamp=timestamp,
                    meta={column: row[pos] for column, pos in meta_index.items()},
                )
        except (ValueError, csv.Error) as exc:
            # A line that fails to decode follows the last one read; an empty file lacks line 1.
            line_number = max(reader.line_num + isinstance(exc, UnicodeDecodeError), 1)
            raise MalformedRecordError(f"{source} line {line_number}: {exc}",
                                       line_number=line_number) from exc
    try:
        return build_corpus(utterances.values())
    except IntegrityViolationError as exc:
        raise IntegrityViolationError(f"{source}: {exc}", exc.violations) from None


def export_tabular(corpus: Corpus, path: str | Path, delimiter: str = ",",
                   meta_columns: Optional[list[str]] = None) -> None:
    """Write utterances as one delimited row each; inverse of import_tabular
    under the identity mapping (meta columns export as strings). Text that
    UTF-8 cannot encode raises UnserializableValueError and leaves no file.
    """
    check_delimiter(delimiter)
    path = os.fspath(path)  # open() would take an int or bool as a file descriptor
    meta_columns = meta_columns or []
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, delimiter=delimiter)
            writer.writerow(list(TABULAR_FIELDS) + meta_columns)
            for utt in corpus.utterances.values():
                row = [
                    utt.id,
                    utt.speaker_id,
                    utt.conversation_id,
                    utt.reply_to if utt.reply_to is not None else "",
                    str(utt.timestamp) if utt.timestamp is not None else "",
                    utt.text,
                ]
                row.extend(str(utt.meta.get(col, "")) for col in meta_columns)
                writer.writerow(row)
    except UnicodeEncodeError as exc:
        os.remove(path)
        raise UnserializableValueError(f"cannot export corpus: {_unencodable(exc)}") from None


def identity_mapping(delimiter: str = ",", with_optional: bool = True) -> ImportMapping:
    """Mapping matching export_tabular's header, for lossless re-import."""
    fields = TABULAR_FIELDS if with_optional else MANDATORY_TABULAR_FIELDS
    return ImportMapping(column_for={name: name for name in fields}, delimiter=delimiter)
