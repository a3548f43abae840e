import pytest

from convoforge import Utterance, build_corpus
from convoforge.filters import build_meta_predicate, parse_expression


def corpus_with(utterance_meta: dict, conversation_meta: dict):
    corpus = build_corpus([Utterance("u0", "s", "c0", "hi", None, 1, utterance_meta)])
    corpus.conversations["c0"].meta.update(conversation_meta)
    return corpus


def matches(expression: str, utterance_meta: dict, conversation_meta=None) -> bool:
    corpus = corpus_with(utterance_meta, conversation_meta or {})
    return build_meta_predicate(corpus, expression)(corpus.utterances["u0"])


@pytest.mark.parametrize("raw,value", [
    ("true", True),
    ("false", False),
    ("null", None),
    ("1", 1),
    ("-3", -3),
    ("1.5", 1.5),
    ("1e3", 1000.0),
    ('"x"', "x"),
    ('"1"', "1"),
    # Not JSON: the value is the text as written.
    ("x", "x"),
    ("True", "True"),
    ("en-GB", "en-GB"),
    ("01", "01"),
    ("'x'", "'x'"),
    ("", ""),
])
def test_json_scalar_or_plain_string(raw, value):
    [(key, parsed)] = parse_expression(f"k={raw}")
    assert key == "k"
    assert parsed == value and type(parsed) is type(value)


@pytest.mark.parametrize("raw", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_non_finite_literal_is_a_string(raw):
    # Standard JSON has no NaN or Infinity, and every corpus file refuses
    # them, so a filter reads them as the text they spell.
    assert parse_expression(f"k={raw}") == [("k", raw)]
    assert matches(f"k={raw}", {"k": raw})
    assert not matches(f"k={raw}", {"k": float(raw)})


def test_integer_and_float_compare_by_value():
    assert matches("n=1", {"n": 1.0})
    assert matches("n=1.0", {"n": 1})
    assert not matches("n=1", {"n": "1"})
    assert matches('n="1"', {"n": "1"})


def test_clauses_are_a_conjunction_with_whitespace_trimmed():
    assert parse_expression(" a = true , b=x,, ") == [("a", True), ("b", "x")]
    assert parse_expression("a=b=c") == [("a", "b=c")]
    assert matches("a=1,b=2", {"a": 1, "b": 2})
    assert not matches("a=1,b=2", {"a": 1, "b": 3})


def test_utterance_meta_takes_precedence_over_conversation_meta():
    assert matches("lang=en", {"lang": "en"}, {"lang": "fr"})
    assert not matches("lang=fr", {"lang": "en"}, {"lang": "fr"})
    # A key the utterance lacks is looked up on its conversation.
    assert matches("lang=fr", {}, {"lang": "fr"})
    # Even a null utterance value shadows the conversation's.
    assert matches("lang=null", {"lang": None}, {"lang": "fr"})


def test_missing_key_matches_nothing_not_even_null():
    assert not matches("lang=null", {}, {})
    assert not matches("lang=", {}, {})


@pytest.mark.parametrize("expression,message", [
    ("", "empty filter expression ''"),
    (" , ,", "empty filter expression ' , ,'"),
    ("mixed", "bad filter clause 'mixed'; expected key=value"),
    ("a=1,b", "bad filter clause 'b'; expected key=value"),
    ("=1", "bad filter clause '=1'; empty key"),
    (" =1", "bad filter clause '=1'; empty key"),
])
def test_empty_and_bad_expressions_are_refused(expression, message):
    with pytest.raises(ValueError) as err:
        parse_expression(expression)
    assert str(err.value) == message
