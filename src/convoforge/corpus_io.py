"""Disk format, corpus merging, and tabular import/export.

A corpus directory holds four UTF-8 files: manifest.json, one object;
utterances.jsonl, one record per line; speakers.json and conversations.json,
each a map from id to a record {"meta": {...}}. _FORMAT_RULES names every key
of the manifest and of each record, in the order save() writes them, with
the one rule for its value; load() checks each key through it, and README's
"Corpus directory format" states the same rules.

save() writes each .json file, and each record, as one line of compact JSON
(load() reads any layout) in corpus insertion order, which makes output bytes
stable across runs and lets load() reconstruct an equal corpus. Numbers in
metadata keep their integer/float identity through the JSON round trip.

Input faults follow one rule: the code that finds a fault raises ValueError
saying what is wrong, and each reader has one boundary that turns it into
MalformedRecordError naming the file, and the line or record where there is one;
a file that is not there is MissingFileError (_require_file). No fault has a
class of its own: a manifest version load() cannot read, or a count the payload
does not bear out, is a MalformedRecordError naming manifest.json and the key,
and a tabular header without a mapped column one naming the file and its line.

load() keeps one str object per distinct id: an utterance's speaker_id and
conversation_id are the objects its speaker and conversation hold, and its
reply_to is its parent's id when the parent's line came first. Loaded
"tokens" annotations are not shared; each token is its own str.
"""

from __future__ import annotations

import copy
import gc
import json
import logging
import math
import operator
import os
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from .errors import (
    IntegrityViolationError,
    IoFailureError,
    IrreconcilableCollisionError,
    MalformedRecordError,
    MissingFileError,
    UnserializableValueError,
)
from .model import (Conversation, Corpus, Speaker, Utterance, _cells, _field, _records,
                    _require_integrity, build_corpus)

FORMAT_VERSION = "1.0"
_MAJOR = FORMAT_VERSION.split(".", 1)[0]  # the one major version load() reads

MANIFEST_FILE = "manifest.json"
UTTERANCES_FILE = "utterances.jsonl"
SPEAKERS_FILE = "speakers.json"
CONVERSATIONS_FILE = "conversations.json"
CORPUS_FILES = (MANIFEST_FILE, UTTERANCES_FILE, SPEAKERS_FILE, CONVERSATIONS_FILE)

logger = logging.getLogger(__name__)


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


# The one encoder of every corpus file and fault probe, built once. Without
# indent, json encodes in C, which leaves the collector no cyclic garbage.
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
        _line(value)
    return value


def _line(value) -> bytes:
    """value as compact JSON in UTF-8; TypeError or ValueError where JSON or
    UTF-8 cannot hold it, a lone surrogate worded as _unencodable does."""
    try:
        return _ONE_LINE.encode(value).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(_unencodable(exc)) from None


def _unencodable(exc: UnicodeEncodeError) -> str:
    return f"lone surrogate {exc.object[exc.start]!r} cannot be encoded as UTF-8"


def _refusal(name: str, wording: str, value) -> ValueError:
    """ValueError("<name> must be <wording>, got <value>"), the value spelled as
    compact JSON, or by its repr where JSON cannot hold it (a Python predicate),
    and cut to its first 60 characters and "..." where it is longer."""
    try:
        spelled = _ONE_LINE.encode(value)
    except (TypeError, ValueError):
        spelled = repr(value)
    return ValueError(f"{name} must be {wording}, got {spelled[:60]}{'...' * (len(spelled) > 60)}")


_OBJECT = ({dict}, None, "an object")
_STRING = ({str}, None, "a string")
_INTEGER = ({int}, None, "an integer")

# file -> key -> (the JSON types its value may have, a further test of such a
# value or None, the wording of a refusal), each file's keys in the order
# save() writes them. Every key is required, and a bool is never an integer.
_FORMAT_RULES = {
    MANIFEST_FILE: {
        "format_version": ({str}, re.compile(f"{_MAJOR}[.][0-9]+").fullmatch,
                           f"a string of the form {_MAJOR}.<digits>"),
        "utterance_count": _INTEGER, "conversation_count": _INTEGER,
        "speaker_count": _INTEGER, "corpus_meta": _OBJECT},
    UTTERANCES_FILE: {
        "id": ({str}, bool, "a non-empty string"), "conversation_id": _STRING,
        "reply_to": ({str, type(None)}, None, "null or a string"), "speaker": _STRING,
        "timestamp": ({int, type(None)}, None, "null or an integer"), "text": _STRING,
        "meta": _OBJECT},
    SPEAKERS_FILE: {"meta": _OBJECT},
    CONVERSATIONS_FILE: {"meta": _OBJECT},
}


def _reader(rules: dict) -> tuple:
    """A getter of a record's values under the keys of rules, as a tuple, and
    the (key, rule) pairs in order: what _checked walks for each record."""
    keys = tuple(rules)
    # itemgetter gives the bare value of one key, and a tuple of two or more.
    get = operator.itemgetter(*keys) if len(keys) > 1 else lambda record: (record[keys[0]],)
    return get, tuple(rules.items())


_READERS = {name: _reader(rules) for name, rules in _FORMAT_RULES.items()}


def _checked(name: str, record) -> tuple:
    """The values of record's keys in _FORMAT_RULES[name], in order; ValueError
    if it is not an object, lacks a key, or holds a value its rule refuses.
    Accepting a value takes a set lookup of its type, and its further test."""
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    get, rules = _READERS[name]
    try:
        values = get(record)
    except KeyError:
        missing = [key for key, _ in rules if key not in record]
        raise ValueError(f"missing keys {missing}") from None
    for value, (key, (kinds, test, wording)) in zip(values, rules):
        if type(value) not in kinds or test and not test(value):
            raise _refusal(repr(key), wording, value)
    return values


# Canonical field names understood by the tabular importer/exporter.
TABULAR_FIELDS = ("id", "speaker_id", "conversation_id", "reply_to", "timestamp", "text")
MANDATORY_TABULAR_FIELDS = ("id", "speaker_id", "conversation_id", "text")


def check_delimiter(delimiter: str) -> str:
    """Return ``delimiter`` if model._field can write it and model._cells
    read it back: one character, and not the double quote or a line break
    that quoting relies on; raise ValueError otherwise."""
    if len(delimiter) != 1 or delimiter in '"\r\n':
        raise ValueError("delimiter must be one character other than a double quote "
                         f"or line break, got {delimiter!r}")
    return delimiter


@dataclass
class ImportMapping:
    """Maps canonical utterance fields to source column names.

    id, speaker_id, conversation_id, and text are mandatory; reply_to and
    timestamp are optional. ``meta_columns`` are copied into utterance
    metadata as strings. A mapping that lacks a mandatory field or maps an
    unknown one, or a delimiter that check_delimiter refuses, is a ValueError.
    """

    column_for: dict[str, str]
    meta_columns: list[str] = field(default_factory=list)
    delimiter: str = ","

    def __post_init__(self) -> None:
        for name in MANDATORY_TABULAR_FIELDS:
            if name not in self.column_for:
                raise ValueError(f"mapping for mandatory field {name!r} is missing")
        unknown = set(self.column_for) - set(TABULAR_FIELDS)
        if unknown:
            raise ValueError(f"unknown mapped fields: {sorted(unknown)}")
        check_delimiter(self.delimiter)


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


def _to_json(value, owners: Iterable, name: str) -> bytes:
    """``value``, a record of the corpus file ``name``, as one line of compact
    JSON in UTF-8, refusing what standard JSON or UTF-8 cannot hold. The error
    names the first id or meta key at fault of ``owners``, the corpus,
    speakers, conversations or utterance that value holds, or else its
    utterance or file."""
    try:
        return _line(value)
    except (TypeError, ValueError) as exc:
        for obj in owners:
            if isinstance(obj, Corpus):
                owner = "corpus"
            else:
                owner = f"{type(obj).__name__.lower()} {obj.id!r}"
                try:
                    _line(obj.id)
                except (TypeError, ValueError) as id_exc:
                    raise UnserializableValueError(
                        f"{owner} cannot be saved as JSON: {id_exc}") from None
            for key, item in obj.meta.items():
                try:
                    _line({key: item})
                except (TypeError, ValueError) as key_exc:
                    raise UnserializableValueError(
                        f"{owner} meta key {key!r} cannot be saved as JSON: {key_exc}"
                    ) from None
        owner = f"utterance {value['id']!r}" if name == UTTERANCES_FILE else name
        raise UnserializableValueError(f"{owner} cannot be saved as JSON: {exc}") from None


def _write_files(corpus: Corpus, directory: Path) -> None:
    manifest = {"format_version": FORMAT_VERSION, "utterance_count": len(corpus.utterances),
                "conversation_count": len(corpus.conversations),
                "speaker_count": len(corpus.speakers), "corpus_meta": corpus.meta}
    speakers = {sid: {"meta": spk.meta} for sid, spk in corpus.speakers.items()}
    conversations = {cid: {"meta": convo.meta} for cid, convo in corpus.conversations.items()}
    # Each file's lines, each with the objects whose metadata it holds.
    lines = ((_utterance_record(utt), (utt,)) for utt in corpus.utterances.values())
    for name, values in ((MANIFEST_FILE, [(manifest, [corpus])]),
                         (SPEAKERS_FILE, [(speakers, corpus.speakers.values())]),
                         (CONVERSATIONS_FILE, [(conversations, corpus.conversations.values())]),
                         (UTTERANCES_FILE, lines)):
        with open(directory / name, "wb") as fh:
            for value, owners in values:
                fh.write(_to_json(value, owners, name))
                fh.write(b"\n")


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
    An existing ``path`` may hold nothing but corpus files. A value that
    standard JSON or UTF-8 cannot hold (NaN, Infinity, a set, a lone
    surrogate) is refused, naming its object and key as _to_json does.
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
    """The JSON object in the file at path; a fault in it is MalformedRecordError
    naming name. Of a corpus file, _checked checks the manifest's keys, or
    those of each record of speakers.json and conversations.json, whose id
    the error names too."""
    object_id = None
    try:
        value = _decode(_require_file(path).read_text(encoding="utf-8"))
        if not isinstance(value, dict):
            raise ValueError("top-level value is not an object")
        if name == MANIFEST_FILE:
            _checked(name, value)
        elif name in _FORMAT_RULES:
            for object_id, record in value.items():
                _checked(name, record)
    except ValueError as exc:
        where = name if object_id is None else f"{name}: record {object_id!r}"
        raise MalformedRecordError(f"{where}: {exc}") from exc
    return value


def _utterance(line: str) -> Utterance:
    """The utterance of one utterances.jsonl line; ValueError saying what is wrong with it."""
    uid, conversation_id, reply_to, speaker, timestamp, text, meta = _checked(
        UTTERANCES_FILE, _decode(line))
    return Utterance(uid, speaker, conversation_id, text, reply_to, timestamp, meta)


class _paused_gc:
    """Run the block with the cyclic garbage collector off, then put back
    the state it had. ``load`` builds the corpus under it, and ``cli.main``
    runs each whole command under it. Corpus data is acyclic: reference
    counting frees what a run drops, and a command leaves the same few
    dozen cyclic objects for a corpus of any size (``tests/test_cli.py``
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
    corpus = Corpus(meta=manifest["corpus_meta"])
    for name, kind, objects in ((SPEAKERS_FILE, Speaker, corpus.speakers),
                                (CONVERSATIONS_FILE, Conversation, corpus.conversations)):
        for object_id, record in _decode_object(directory / name, name).items():
            objects[object_id] = kind(id=object_id, meta=record["meta"])

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

    for key, name, objects in (("utterance_count", UTTERANCES_FILE, corpus.utterances),
                               ("conversation_count", CONVERSATIONS_FILE, corpus.conversations),
                               ("speaker_count", SPEAKERS_FILE, corpus.speakers)):
        if manifest[key] != len(objects):
            raise MalformedRecordError(
                f"{MANIFEST_FILE}: {key!r} is {manifest[key]}, but {name} holds {len(objects)}")

    _require_integrity(corpus, "loaded corpus")
    return corpus


def _merge_meta(owner: str, base: dict, incoming: dict) -> int:
    """Update base with incoming, whose values win; log each key whose values
    differed at DEBUG under owner ("corpus", "speaker 's'", ...), and count them."""
    conflicts = 0
    for key, value in incoming.items():
        if key in base and base[key] != value:
            conflicts += 1
            logger.debug("merge: keeping the second corpus's value for %s meta key %r",
                         owner, key)
        base[key] = value
    return conflicts


def merge(a: Corpus, b: Corpus) -> Corpus:
    """Union of two corpora. A metadata key both hold with different values
    takes b's value, and the count of such keys is one warning; differing
    structural fields on a shared utterance id are irreconcilable.
    """
    # Deep copies of both sides, so the result shares no object with either.
    result, b = copy.deepcopy(a), copy.deepcopy(b)
    conflicts = _merge_meta("corpus", result.meta, b.meta)

    for sid, spk in b.speakers.items():
        target = result.speakers.get(sid)
        if target is None:
            result.speakers[sid] = spk
        else:
            conflicts += _merge_meta(f"speaker {sid!r}", target.meta, spk.meta)

    for cid, convo in b.conversations.items():
        target = result.conversations.get(cid)
        if target is None:
            result.conversations[cid] = convo
            continue
        conflicts += _merge_meta(f"conversation {cid!r}", target.meta, convo.meta)
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
        conflicts += _merge_meta(f"utterance {uid!r}", existing.meta, utt.meta)

    _require_integrity(result, "merged corpus")
    if conflicts:
        logger.warning("merge: %d metadata conflicts kept the second corpus's value", conflicts)
    return result


def import_tabular(path: str | Path, mapping: ImportMapping) -> Corpus:
    """Build a corpus from a delimited file with a header row.

    Each row becomes one utterance, and a repeated id is a fault of its row.
    Without a reply_to mapping every row is its own conversation root.
    Rows are read by model._records and model._cells, the inverse of export's quoting.
    """
    source = _require_file(Path(path))
    data = source.read_bytes()
    utterances: dict[str, Utterance] = {}
    try:
        records = _records(data.decode("utf-8"))
        line, header = next(records, (1, None))
        if header is None:
            raise ValueError("empty file: no header row")
        header = _cells(header, mapping.delimiter)
        for field_name, column in mapping.column_for.items():
            if column not in header:
                raise ValueError(f"column {column!r} (for {field_name}) not in header")
        for column in mapping.meta_columns:
            if column not in header:
                raise ValueError(f"meta column {column!r} not in header")
        index = {name: header.index(column) for name, column in mapping.column_for.items()}
        meta_index = {column: header.index(column) for column in mapping.meta_columns}

        for line, record in records:
            if not record:
                continue
            row = _cells(record, mapping.delimiter)
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            cell = {name: row[pos] for name, pos in index.items()}
            uid = cell["id"]
            if not uid:
                raise ValueError("empty id cell")
            if uid in utterances:
                raise ValueError(f"duplicate utterance id {uid!r}")
            # Empty, or the JSON integer grammar that export writes, in ASCII.
            stamp = cell.get("timestamp", "")
            if stamp and not re.fullmatch("-?(0|[1-9][0-9]*)", stamp):
                raise ValueError("timestamp is not an integer")
            utterances[uid] = Utterance(
                id=uid, speaker_id=cell["speaker_id"], conversation_id=cell["conversation_id"],
                text=cell["text"], reply_to=cell.get("reply_to") or None,
                timestamp=int(stamp) if stamp else None,
                meta={column: row[pos] for column, pos in meta_index.items()})
    except ValueError as exc:
        if isinstance(exc, UnicodeDecodeError):  # the lines through its bad byte
            line = len(data[:exc.start + 1].splitlines())
        raise MalformedRecordError(f"{source} line {line}: {exc}", line_number=line) from exc
    try:
        return build_corpus(utterances.values())
    except IntegrityViolationError as exc:
        raise IntegrityViolationError(f"{source}: {exc}", exc.violations) from None


def _json_cell(utt: Utterance, name: str, value) -> str:
    try:
        return value if isinstance(value, str) else _ONE_LINE.encode(value)
    except (TypeError, ValueError) as exc:  # an int too long for str() is a ValueError
        raise UnserializableValueError(
            f"utterance {utt.id!r} {name} cannot be exported as JSON: {exc}") from None


def export_tabular(corpus: Corpus, path: str | Path, delimiter: str = ",",
                   meta_columns: Optional[list[str]] = None) -> None:
    """Write utterances as one delimited row each, every cell through model._field
    and every line ending in CRLF; None is an empty cell. A timestamp or meta cell
    holds a string as itself, any other value as the compact JSON text
    utterances.jsonl holds, and a meta cell nothing for a missing key. Inverse of
    import_tabular under the identity mapping (meta columns import as strings). The
    file is rendered before it is opened: text UTF-8 cannot encode, or a timestamp or
    meta value JSON cannot hold, raises UnserializableValueError and leaves no file."""
    check_delimiter(delimiter)
    path = os.fspath(path)  # open() would take an int or bool as a file descriptor
    meta_columns = meta_columns or []
    rows = [[*TABULAR_FIELDS, *meta_columns]]
    for utt in corpus.utterances.values():
        stamp = None if utt.timestamp is None else _json_cell(utt, "timestamp", utt.timestamp)
        rows.append([utt.id, utt.speaker_id, utt.conversation_id, utt.reply_to, stamp, utt.text,
                     *(_json_cell(utt, f"meta key {col!r}", utt.meta.get(col, ""))
                       for col in meta_columns)])
    text = "".join(delimiter.join(_field("" if cell is None else str(cell), delimiter)
                                  for cell in row) + "\r\n" for row in rows)
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise UnserializableValueError(f"cannot export corpus: {_unencodable(exc)}") from None
    with open(path, "wb") as fh:
        fh.write(data)


def identity_mapping(delimiter: str = ",") -> ImportMapping:
    """Mapping of all TABULAR_FIELDS to the columns of export_tabular's header,
    for lossless re-import."""
    return ImportMapping(column_for={name: name for name in TABULAR_FIELDS}, delimiter=delimiter)
