"""Preprocessing: web-text cleaning, tokenization, and merging of
consecutive same-speaker utterances. clean_text and tokenize are per-string
kernels; TextCleaner, Tokenizer and MergeConsecutive are the stages that
run over a corpus.

clean_text applies, in order: markup stripping with entity decoding, URL and
email replacement by the sentinel tokens <url> and <email>, compatibility
Unicode normalization with transliteration to ASCII (unmappable symbols are
dropped), and whitespace collapsing. The markup and sentinel passes are
re-applied after transliteration because compatibility normalization can
materialize ASCII markup (e.g. fullwidth brackets); this keeps the function
idempotent, which downstream pipelines rely on when re-run over their own
output. Idempotence is bounded: each markup pass stops after 25 rounds, so
text nesting entities deeper than both passes together can decode (such as
60 levels of "&amp;") still holds entities after one cleaning, and a second
cleaning decodes them further.
"""

from __future__ import annotations

import html
import logging
import re
import string
import unicodedata

from .model import Corpus, Utterance, _rooted_tree
from .transform import SummaryTable, Transformer, _read_foreign

logger = logging.getLogger(__name__)

URL_SENTINEL = "<url>"
EMAIL_SENTINEL = "<email>"

# Strip anything tag-shaped except the sentinels themselves.
_TAG_RE = re.compile(r"<(?!(?:url|email)>)[^<>]+>")
_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_EMAIL_RE = re.compile(r"[\w.+-]+@[\w-]+(?:\.[\w-]+)+")
_WS_RE = re.compile(r"\s+")
_SENTENCE_END_RE = re.compile(r"[.!?](?=\s)")

# Trailing periods on these words do not end a sentence.
ABBREVIATIONS = frozenset(
    ["mr.", "mrs.", "dr.", "st.", "vs.", "e.g.", "i.e.", "etc."]
)
_ABBREVIATION_MAX_LEN = max(map(len, ABBREVIATIONS))

_PUNCT = frozenset(string.punctuation)


def _strip_markup(text: str) -> tuple[str, bool]:
    # Tag stripping and entity decoding feed each other ("&lt;b&gt;" decodes
    # to a tag), so iterate to a fixed point; the flag says whether it was
    # reached within the cap.
    for _ in range(25):
        stripped = html.unescape(_TAG_RE.sub(" ", text))
        if stripped == text:
            return text, True
        text = stripped
    return text, False


def _replace_sentinels(text: str) -> str:
    text = _URL_RE.sub(URL_SENTINEL, text)
    # An address needs an "@": the substring test saves the regex's attempt
    # at every position of text that has none.
    return _EMAIL_RE.sub(EMAIL_SENTINEL, text) if "@" in text else text


def clean_text(raw: str) -> str:
    """Normalize dirty web text to a single-spaced ASCII string.

    Fast path: NFKD of ASCII is the identity, so the second pass is skipped
    when the first markup pass reached its fixed point and the text is ASCII.
    """
    text, converged = _strip_markup(raw)
    text = _replace_sentinels(text)
    if not (converged and text.isascii()):
        text = unicodedata.normalize("NFKD", text).encode("ascii", "ignore").decode("ascii")
        text, _ = _strip_markup(text)
        text = _replace_sentinels(text)
    # str.split's whitespace is re's \s, so this is the \s+ collapse.
    return " ".join(text.split())


def _split_sentences(text: str) -> list[str]:
    """Split after each "." "!" or "?" followed by whitespace, unless the
    word it ends is an abbreviation.

    Fast path: re's \\s on a str pattern is str.isspace() (both test
    Py_UNICODE_ISSPACE), so one regex finds the ends a character walk would.
    """
    sentences = []
    start = 0
    for end in _SENTENCE_END_RE.finditer(text):
        i = end.start()
        if text[i] == "." and _ends_abbreviation(text, start, i):
            continue
        sentences.append(text[start:i + 1])
        start = _WS_RE.match(text, i + 1).end()
    if start < len(text):
        sentences.append(text[start:])
    return [s for s in sentences if s.strip()]


def _ends_abbreviation(text: str, start: int, i: int) -> bool:
    # The word ending at the period text[i], e.g. "dr." or "e.g.", looked for
    # in a window one longer than the longest abbreviation: a longer word is
    # never one, since lowercasing never shortens a string.
    window = text[max(start, i - _ABBREVIATION_MAX_LEN):i + 1]
    return window.split()[-1].lower() in ABBREVIATIONS


def _split_tokens(chunk: str) -> list[str]:
    # Leading, then trailing punctuation characters become tokens of their
    # own around the rest; an all-punctuation chunk is all leading.
    body = chunk.lstrip(string.punctuation)
    core = body.rstrip(string.punctuation)
    tokens = list(chunk[:len(chunk) - len(body)])
    if core:
        tokens.append(core)
    tokens.extend(body[len(core):])
    return tokens


def tokenize(text: str) -> list[list[str]]:
    """Sentences as token lists, the shape of the "tokens" annotation; no
    sentence or token is ever empty. Splits into sentences on terminal
    punctuation (with a fixed abbreviation list exempted), then into tokens
    on whitespace with leading/trailing punctuation peeled off as separate
    tokens. Case is preserved; lowercasing is the consumer's decision."""
    sentences = []
    for sentence in _split_sentences(text):
        tokens: list[str] = []
        for chunk in sentence.split():
            if chunk[0] in _PUNCT or chunk[-1] in _PUNCT:
                tokens.extend(_split_tokens(chunk))
            else:
                tokens.append(chunk)
        if tokens:
            sentences.append(tokens)
    return sentences


def utterance_tokens(utt: Utterance) -> list[list[str]]:
    """Token sentences for an utterance: the stored "tokens" annotation if
    present, otherwise what Tokenizer would store, computed on the fly and
    not written. Every reader of the annotation goes through here, so it
    alone refuses, with ValueError, a stored value that is not a list of
    lists of str."""
    stored = utt.meta.get("tokens")
    if stored is None:
        return _tokenized(utt)
    try:
        if not isinstance(stored, list):
            raise TypeError
        for sentence in stored:
            if not isinstance(sentence, list):
                raise TypeError
            "".join(sentence)  # refuses any token that is not a str, at C speed
    except TypeError:
        raise ValueError(f"utterance {utt.id!r}: 'tokens' is not a list of token lists") from None
    return stored


def _tokenized(utt: Utterance) -> list[list[str]]:
    """tokenize of the "clean_text" annotation when a cleaner ran earlier,
    else of the text; a null one is missing, and any other value that is not
    a str is a ValueError naming the utterance."""
    text = _read_foreign(utt, "clean_text", str)
    return tokenize(utt.text if text is None else text)


class TextCleaner(Transformer):
    """Annotates each utterance with its cleaned text under "clean_text".

    With overwrite_text=True the utterance text itself is replaced instead
    of only annotated.
    """

    name = "text_cleaner"
    annotation_key = "clean_text"

    def __init__(self, overwrite_text: bool = False):
        self._set_params(overwrite_text=overwrite_text)

    def _transform(self, corpus: Corpus) -> None:
        for utt in corpus.utterances.values():
            cleaned = clean_text(utt.text)
            self._annotate(utt, cleaned)
            if self.overwrite_text:
                utt.text = cleaned


class Tokenizer(Transformer):
    """Annotates each utterance with sentence/token lists under "tokens".

    Prefers the "clean_text" annotation when a cleaner ran earlier. A run
    stores one str object per distinct token: every sentence passes through
    one memo of the run, so a token repeated across the corpus costs a
    pointer, not a string.
    """

    name = "tokenizer"
    annotation_key = "tokens"

    def _transform(self, corpus: Corpus) -> None:
        share = {}.setdefault  # token -> the run's one object for it
        for utt in corpus.utterances.values():
            self._annotate(utt, [list(map(share, s, s)) for s in _tokenized(utt)])


class MergeConsecutive(Transformer):
    """Folds every utterance that is its parent's only child and shares the
    parent's speaker into that parent, repeatedly, until no pair is left.

    Texts join with a newline, the child's children re-parent, metadata
    merges key-wise with the parent winning, and the earliest timestamp is
    kept. Branch points never merge. Structural: utterances are removed.
    Each metadata conflict is logged at DEBUG, and their count in one
    WARNING. summarize() reports each conversation's utterance count.
    """

    name = "merge_consecutive"

    def _transform(self, corpus: Corpus) -> None:
        conflicts = 0
        for convo in corpus.conversations.values():
            queue, children = _rooted_tree(corpus, convo.id)
            folded: set[str] = set()
            # Each node absorbs its whole same-speaker chain before the walk goes
            # below it, so a chain always folds top-down into its top utterance.
            for parent in queue:
                kids = children.get(parent.id, [])
                texts = [parent.text]
                while len(kids) == 1 and kids[0].speaker_id == parent.speaker_id:
                    child = kids[0]
                    texts.append(child.text)
                    for key, value in child.meta.items():
                        if key not in parent.meta:
                            parent.meta[key] = value
                        elif parent.meta[key] != value:
                            conflicts += 1
                            logger.debug(
                                "merge_consecutive: keeping %r's value for meta key %r, "
                                "dropping %r's", parent.id, key, child.id,
                            )
                    if child.timestamp is not None and (
                            parent.timestamp is None or child.timestamp < parent.timestamp):
                        parent.timestamp = child.timestamp
                    kids = children.pop(child.id, [])
                    for grandchild in kids:
                        grandchild.reply_to = parent.id
                    folded.add(child.id)
                parent.text = "\n".join(texts)
                queue.extend(kids)
            if folded:
                convo.utterance_ids = [uid for uid in convo.utterance_ids if uid not in folded]
                for uid in folded:
                    del corpus.utterances[uid]
        if conflicts:
            logger.warning("merge_consecutive: %d metadata conflicts kept the parent "
                           "utterance's value", conflicts)

    def summarize(self, corpus: Corpus) -> SummaryTable:
        table = SummaryTable(columns=["utterances"], label_header="conversation")
        for convo in corpus.conversations.values():
            table.add_row(convo.id, [len(convo.utterance_ids)])
        return table
