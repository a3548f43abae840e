import copy
import csv
import inspect
import io
import random
import re
from itertools import chain
from pathlib import Path

import pytest

from convoforge import (
    Classifier,
    FightingWords,
    Forecaster,
    HyperConvo,
    Pipeline,
    PolitenessStrategies,
    SpeakerDiversity,
    SpeakerMixAnnotator,
    SummaryTable,
    TextCleaner,
    Tokenizer,
    Transformer,
    Utterance,
    build_corpus,
    check_integrity,
    load,
)
from convoforge.datasets import toy_movie_path
from convoforge.errors import (
    EmptySelectionError,
    MissingAnnotationError,
    NotFittedError,
    PipelineStageError,
)
from convoforge.model import _level_objects
from convoforge.registry import REGISTRY, create_transformer
from convoforge.transform import _PARAM_RULES, format_value


def two_class_corpus():
    return build_corpus([
        Utterance("u0", "a", "c0", "alpha words here", None, 1, {"side": 1}),
        Utterance("u1", "b", "c0", "beta words there", "u0", 2, {"side": 2}),
    ])


def labelled_toy():
    """The toy corpus with "label" alternating at every level, in id order,
    and "side" alternating over the utterances."""
    corpus = load(toy_movie_path())
    for level in ("utterance", "conversation", "speaker"):
        for i, obj in enumerate(sorted(_level_objects(corpus, level), key=lambda o: o.id)):
            obj.meta["label"] = i % 2 == 0
            if level == "utterance":
                obj.meta["side"] = i % 2
    return corpus


class TestTransformerContract:
    def test_fit_is_read_only(self):
        corpus = two_class_corpus()
        snapshot = copy.deepcopy(corpus)
        fw = FightingWords(class1=lambda u: u.meta["side"] == 1,
                           class2=lambda u: u.meta["side"] == 2)
        fw.fit(corpus)
        assert fw.fitted
        assert corpus == snapshot

    def test_stateless_fit_is_noop(self):
        corpus = two_class_corpus()
        cleaner = TextCleaner()
        assert cleaner.fit(corpus) is cleaner
        assert cleaner.fitted

    def test_fit_twice_replaces_state(self):
        corpus = two_class_corpus()
        fw = FightingWords(class1=lambda u: u.meta["side"] == 1,
                           class2=lambda u: u.meta["side"] == 2)
        fw.fit(corpus)
        first = dict(zip(fw.model.vocab, fw.model.zscores))
        fw.fit(corpus)  # refit with classes swapped below changes sign, not scale
        assert dict(zip(fw.model.vocab, fw.model.zscores)) == first
        fw2 = FightingWords(class1=lambda u: u.meta["side"] == 2,
                            class2=lambda u: u.meta["side"] == 1)
        fw2.fit(corpus)
        for term, z in zip(fw2.model.vocab, fw2.model.zscores):
            assert z == pytest.approx(-first[term], abs=1e-12)

    def test_subclass_without_transform_raises(self):
        class Bare(Transformer):
            name = "bare"

        with pytest.raises(NotImplementedError):
            Bare().transform(two_class_corpus())

    def test_transform_returns_same_object(self):
        corpus = two_class_corpus()
        assert Tokenizer().transform(corpus) is corpus

    def test_transform_before_fit_raises(self):
        fw = FightingWords(class1="side=1", class2="side=2")
        with pytest.raises(NotFittedError):
            fw.transform(two_class_corpus())

    def test_politeness_annotates_every_utterance(self):
        corpus = two_class_corpus()
        Tokenizer().transform(corpus)
        PolitenessStrategies().fit_transform(corpus)
        assert all("politeness_strategies" in u.meta
                   for u in corpus.utterances.values())
        assert check_integrity(corpus) == []

    def test_summarize_is_deterministic(self):
        corpus = two_class_corpus()
        Tokenizer().transform(corpus)
        strategies = PolitenessStrategies()
        strategies.fit_transform(corpus)
        assert strategies.summarize(corpus).to_delimited() == \
            strategies.summarize(corpus).to_delimited()

    def test_summarize_untransformed_raises(self):
        with pytest.raises(MissingAnnotationError):
            PolitenessStrategies().summarize(two_class_corpus())


@pytest.mark.parametrize("transformer, owner, key", [
    (SpeakerMixAnnotator(speaker_key="gender"), "conversation", "mixed"),
    (HyperConvo(), "conversation", "hyperconvo"),
    (SpeakerDiversity(), "speaker", "convo_diversity"),
    (Classifier(label_key="x"), "utterance", "prediction"),
    (Classifier(label_key="x", level="conversation"), "conversation", "prediction"),
    (Classifier(label_key="x", level="speaker"), "speaker", "prediction"),
    (Forecaster(label_key="x"), "conversation", "forecast_final"),
    (PolitenessStrategies(), "utterance", "politeness_strategies"),
], ids=lambda value: getattr(value, "name", None))
def test_summarize_before_transform_names_object_and_key(transformer, owner, key):
    corpus = load(toy_movie_path())
    with pytest.raises(MissingAnnotationError, match=f"^{owner} '.*' lacks '{key}'"):
        transformer.summarize(corpus)


class TestRegistry:
    # (required, optional) constructor parameters of every registered stage.
    PARAMETERS = {
        "text_cleaner": (set(), {"overwrite_text"}),
        "tokenizer": (set(), set()),
        "merge_consecutive": (set(), set()),
        "politeness": (set(), set()),
        "hyperconvo": (set(), set()),
        "speaker_diversity": (set(), {"min_tokens_per_convo"}),
        "speaker_mix": ({"speaker_key"}, {"output_key"}),
        "fighting_words": ({"class1", "class2"}, {"ngram_max", "min_count", "alpha", "top_k"}),
        "classifier": ({"label_key"}, {"level", "min_df", "max_terms", "l2", "epochs",
                                       "learning_rate"}),
        "forecaster": ({"label_key"}, {"min_df", "max_terms", "l2", "epochs", "learning_rate"}),
    }

    @staticmethod
    def full_params(name):
        required, optional = TestRegistry.PARAMETERS[name]
        defaults = {"overwrite_text": False, "min_tokens_per_convo": 1, "output_key": "mixed",
                    "ngram_max": 1, "min_count": 1, "alpha": 0.01, "top_k": 10,
                    "level": "utterance", "min_df": 1, "max_terms": None, "l2": 0.01,
                    "epochs": 200, "learning_rate": 0.5}
        return {**{p: "x=1" for p in required}, **{p: defaults[p] for p in optional}}

    def test_names(self):
        assert list(REGISTRY) == list(self.PARAMETERS)

    @pytest.mark.parametrize("name", list(PARAMETERS))
    def test_every_parameter_accepted(self, name):
        stage = create_transformer(name, self.full_params(name))
        assert type(stage) is REGISTRY[name] and stage.name == name

    @pytest.mark.parametrize("name", list(PARAMETERS))
    def test_unknown_parameter_rejected(self, name):
        with pytest.raises(ValueError, match=rf"^{name}: unknown parameters \['bogus'\]$"):
            create_transformer(name, {**self.full_params(name), "bogus": 1})

    @pytest.mark.parametrize("name", list(PARAMETERS))
    def test_missing_required_parameter_rejected(self, name):
        for missing in self.PARAMETERS[name][0]:
            params = self.full_params(name)
            del params[missing]
            with pytest.raises(ValueError, match=rf"^{name}: missing required parameters "
                                                 rf"\['{missing}'\]$"):
                create_transformer(name, params)

    @pytest.mark.parametrize("name", list(PARAMETERS))
    def test_fit_contract(self, name):
        # fitted is False until fit(); transform() before fit() raises
        # NotFittedError for exactly the stages that require a fit, and every
        # other stage transforms without one.
        values = {"speaker_key": "gender", "class1": "side=0", "class2": "side=1",
                  "label_key": "label"}
        stage = create_transformer(name, {p: values[p] for p in self.PARAMETERS[name][0]})
        assert stage.fitted is False
        if stage.requires_fit:
            with pytest.raises(NotFittedError):
                stage.transform(labelled_toy())
        else:
            stage.transform(labelled_toy())
        assert stage.fitted is False
        corpus = labelled_toy()
        assert stage.fit(corpus) is stage
        assert stage.fitted is True
        assert stage.transform(corpus) is corpus

    def test_every_parameter_has_one_rule(self):
        # A new constructor parameter cannot skip the contract.
        names = {p for cls in REGISTRY.values() for p in inspect.signature(cls).parameters}
        assert set(_PARAM_RULES) == names

    def test_readme_table_names_every_rule(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Pipeline config", 1)[1].split("\n### ", 1)[0]
        rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
        named = [name for cell in rows for name in re.findall(r"`(\w+)`", cell)]
        assert sorted(named) == sorted(_PARAM_RULES)

    def test_unknown_transformer_rejected(self):
        with pytest.raises(ValueError, match="unknown transformer 'nope'; known: "):
            create_transformer("nope", {})


class TestSummaryTable:
    def test_row_arity_checked(self):
        table = SummaryTable(columns=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("r", [1])

    def test_float_formatting_pinned(self):
        table = SummaryTable(columns=["v"], label_header="row")
        table.add_row("x", [1.0 / 3.0])
        table.add_row("y", [2])
        table.add_row("z", [None])
        assert table.to_delimited() == "row\tv\nx\t0.333333\ny\t2\nz\t"

    def test_to_delimited_quotes_by_one_rule(self):
        # A cell holding the delimiter, a double quote, CR or LF is quoted with
        # its quotes doubled, a lone CR included; no other cell is.
        table = SummaryTable(columns=["v", 'say "hi"'], label_header="row")
        table.add_row("a\tb", ["x,y", "cr\rhere"])
        table.add_row("plain", ["line\nbreak", 1.5])
        assert table.to_delimited() == (
            'row\tv\t"say ""hi"""\n"a\tb"\tx,y\t"cr\rhere"\nplain\t"line\nbreak"\t1.5')
        assert table.to_delimited(",") == (
            'row,v,"say ""hi"""\na\tb,"x,y","cr\rhere"\nplain,"line\nbreak",1.5')

    @pytest.mark.parametrize("delimiter", ['"', "\r", "\n", "", ",,"], ids=repr)
    def test_to_delimited_refuses_a_delimiter_its_cells_cannot_be_read_back_with(
            self, delimiter):
        table = SummaryTable(columns=["a"])
        table.add_row("x", ['v"w'])
        with pytest.raises(ValueError, match="^delimiter must be one character other than "):
            table.to_delimited(delimiter)
        # The delimiters the CLI passes write what they always wrote.
        assert table.to_delimited() == 'item\ta\nx\t"v""w"'
        assert table.to_delimited(",") == 'item,a\nx,"v""w"'

    @pytest.mark.parametrize("delimiter", ["\t", ",", ";", "|"],
                             ids=["tab", "comma", "semicolon", "pipe"])
    def test_to_delimited_reads_back_through_csv(self, delimiter):
        rng = random.Random(28)
        pieces = [delimiter, '"', "\r", "\n", "\r\n", " ", "", "a", "b c", "é"]

        def text():
            return "".join(rng.choice(pieces) for _ in range(rng.randint(0, 4)))

        def value():
            roll = rng.random()
            if roll < 0.15:
                return None
            if roll < 0.3:
                return rng.choice([True, False])
            if roll < 0.5:
                return rng.uniform(-1e6, 1e6)
            if roll < 0.6:
                return rng.randint(-1000, 1000)
            return text()

        for _ in range(300):
            table = SummaryTable(columns=[text() for _ in range(rng.randint(1, 4))],
                                 label_header=text())
            for _ in range(rng.randint(0, 5)):
                table.add_row(text(), [value() for _ in table.columns])
            rendered = table.to_delimited(delimiter)
            read = csv.reader(io.StringIO(rendered + "\n", newline=""), delimiter=delimiter)
            assert list(read) == [[table.label_header, *table.columns]] + [
                [label, *map(format_value, values)] for label, values in table.rows], rendered


class TestPipeline:
    def test_two_stage_equals_manual_chain(self):
        via_pipeline = two_class_corpus()
        Pipeline([TextCleaner(), Tokenizer()]).run(via_pipeline)
        manual = two_class_corpus()
        Tokenizer().transform(TextCleaner().transform(manual))
        assert via_pipeline == manual

    def test_single_stage_equals_stage_alone(self):
        a, b = two_class_corpus(), two_class_corpus()
        Pipeline([Tokenizer()]).run(a)
        Tokenizer().transform(b)
        assert a == b

    def test_associativity(self):
        stages = lambda: [TextCleaner(), Tokenizer(), PolitenessStrategies()]  # noqa: E731
        full = two_class_corpus()
        Pipeline(stages()).run(full)
        split = two_class_corpus()
        first, second, third = stages()
        Pipeline([first, second]).run(split)
        Pipeline([third]).run(split)
        assert full == split

    def test_stage_error_names_index(self):
        pipeline = Pipeline([Tokenizer(), Classifier(label_key="absent")])
        with pytest.raises(PipelineStageError) as err:
            pipeline.run(two_class_corpus())
        assert (err.value.stage_index, err.value.stage_name) == (1, "classifier")
        assert isinstance(err.value.__cause__, EmptySelectionError)
        assert str(err.value) == "stage 1 (classifier): no utterances carry label key 'absent'"

    def test_nested_stage_error_is_reported_once(self):
        class Nested(Transformer):
            name = "nested"

            def _transform(self, corpus):
                Pipeline([Tokenizer(), Classifier(label_key="absent")]).run(corpus)

        with pytest.raises(PipelineStageError) as err:
            Pipeline([TextCleaner(), Tokenizer(), Nested()]).run(two_class_corpus())
        assert (err.value.stage_index, err.value.stage_name) == (1, "classifier")
        assert isinstance(err.value.__cause__, EmptySelectionError)
        assert str(err.value) == "stage 1 (classifier): no utterances carry label key 'absent'"

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            Pipeline([])

    def test_rerun_warns_once_per_stage(self, caplog):
        corpus = load(toy_movie_path())
        with caplog.at_level("WARNING"):
            Pipeline([TextCleaner(), Tokenizer()]).run(corpus)
        assert caplog.messages == []
        with caplog.at_level("WARNING"):
            Pipeline([TextCleaner(), Tokenizer()]).run(corpus)
        assert caplog.messages == [
            "text_cleaner: overwrote 14 existing 'clean_text' annotations",
            "tokenizer: overwrote 14 existing 'tokens' annotations",
        ]

    def test_each_overwrite_logged_at_debug(self, caplog):
        corpus = load(toy_movie_path())
        TextCleaner().transform(corpus)
        with caplog.at_level("DEBUG", logger="convoforge.transform"):
            TextCleaner().transform(corpus)
        debug = [r.getMessage() for r in caplog.records if r.levelname == "DEBUG"]
        assert sorted(debug) == sorted(
            f"overwriting 'clean_text' annotation on utterance {uid}"
            for uid in corpus.utterances)

    def test_rerun_counts_every_key_each_stage_writes(self, caplog):
        corpus = load(toy_movie_path())
        for i, obj in enumerate(chain(corpus.utterances.values(),
                                      corpus.conversations.values(),
                                      corpus.speakers.values())):
            obj.meta["label"] = i % 2 == 0

        def stages():
            return [SpeakerDiversity()] + [
                Classifier(label_key="label", level=level)
                for level in ("utterance", "conversation", "speaker")
            ] + [Forecaster(label_key="label")]

        with caplog.at_level("WARNING"):
            Pipeline(stages()).run(corpus)
        assert caplog.messages == []
        with caplog.at_level("WARNING"):
            Pipeline(stages()).run(corpus)
        # forecast_final is written once per conversation, not once per utterance.
        assert caplog.messages == [
            "speaker_diversity: overwrote 6 existing 'convo_diversity' annotations",
            "classifier: overwrote 14 existing 'prediction' annotations, "
            "14 existing 'prediction_score' annotations",
            "classifier: overwrote 4 existing 'prediction' annotations, "
            "4 existing 'prediction_score' annotations",
            "classifier: overwrote 6 existing 'prediction' annotations, "
            "6 existing 'prediction_score' annotations",
            "forecaster: overwrote 14 existing 'forecast' annotations, "
            "4 existing 'forecast_final' annotations",
        ]

    @pytest.mark.parametrize("stage, owners", [
        (SpeakerMixAnnotator(speaker_key="gender"),
         [f"'mixed' annotation on conversation {cid}" for cid in ("m1", "m2", "f1", "g1")]),
        (SpeakerDiversity(),
         [f"'convo_diversity' annotation on speaker {sid}"
          for sid in ("rick", "ilsa", "sam", "vivian", "marla", "tyler")]),
    ], ids=lambda value: getattr(value, "name", None))
    def test_overwrite_names_its_owner_at_debug(self, caplog, stage, owners):
        corpus = stage.transform(load(toy_movie_path()))
        with caplog.at_level("DEBUG", logger="convoforge.transform"):
            stage.transform(corpus)
        debug = [r.getMessage() for r in caplog.records if r.levelname == "DEBUG"]
        assert debug == [f"overwriting {owner}" for owner in owners]

    def test_failing_stage_reports_overwrites_made(self, caplog):
        class FailsAfterOne(Transformer):
            name = "fails_after_one"

            def _transform(self, corpus):
                self._annotate(corpus.utterances["u0"], 0, key="side")
                raise RuntimeError("boom")

        with caplog.at_level("WARNING"), pytest.raises(PipelineStageError):
            Pipeline([FailsAfterOne()]).run(two_class_corpus())
        assert caplog.messages == ["fails_after_one: overwrote 1 existing 'side' annotations"]


class TestSpeakerMix:
    def test_toy_corpus_mixed_flags(self):
        corpus = load(toy_movie_path())
        SpeakerMixAnnotator(speaker_key="gender").fit_transform(corpus)
        assert corpus.conversations["m1"].meta["mixed"] is True
        assert corpus.conversations["m2"].meta["mixed"] is True
        assert corpus.conversations["f1"].meta["mixed"] is False
        assert corpus.conversations["g1"].meta["mixed"] is False
