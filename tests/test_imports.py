"""The package's lazy names, which modules each command loads, and
README's Quick start run as written.

Every submodule, ``convoforge.ml`` and numpy among them, loads on first use.
The subprocess cases start a fresh interpreter, because this test process
has imported them all already.
"""

import inspect
import json
import subprocess
import sys
import textwrap
from collections.abc import Mapping
from pathlib import Path

import pytest

import convoforge
from convoforge.cli import main
from convoforge.datasets import toy_movie_path
from convoforge.registry import REGISTRY
from helpers import child_env

ML_NAMES = ["Classifier", "Forecaster", "LinearModel", "predict", "train_classifier"]

# The parameter names of every public function, and of Pipeline.run and
# ResponseGraph.add_edge: adding or removing an option is an edit of this pin.
PUBLIC_PARAMETERS = {
    "build_corpus": ["utterances", "speakers", "corpus_meta"],
    "build_response_graph": ["corpus", "conversation_id"],
    "check_integrity": ["corpus"],
    "clean_text": ["raw"],
    "export_tabular": ["corpus", "path", "delimiter", "meta_columns"],
    "extract_features": ["graph"],
    "extract_strategies": ["utterance"],
    "identity_mapping": ["delimiter"],
    "import_tabular": ["path", "mapping"],
    "jensen_shannon": ["p", "q"],
    "load": ["path"],
    "merge": ["a", "b"],
    "predict": ["model", "X"],
    "save": ["corpus", "path"],
    "speaker_history": ["corpus", "speaker_id"],
    "tokenize": ["text"],
    "train_classifier": ["X", "y", "l2", "epochs", "learning_rate"],
    "traverse": ["corpus", "conversation_id", "order"],
    "Pipeline.run": ["self", "corpus"],
    "ResponseGraph.add_edge": ["self", "source", "target"],
}


class TestLazyNames:
    def test_every_public_name_resolves(self):
        for name in convoforge.__all__:
            assert getattr(convoforge, name) is not None, name

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from convoforge import *", namespace)
        assert set(convoforge.__all__) <= set(namespace)

    def test_dir_lists_public_names_and_ml(self):
        listed = dir(convoforge)
        assert set(convoforge.__all__) <= set(listed)
        assert "ml" in listed

    def test_ml_names_are_the_ml_objects(self):
        assert set(ML_NAMES) <= set(convoforge.__all__)
        for name in ML_NAMES:
            assert getattr(convoforge, name) is getattr(convoforge.ml, name), name

    def test_public_function_parameters_are_pinned(self):
        functions = {name: getattr(convoforge, name) for name in convoforge.__all__}
        functions = {name: f for name, f in functions.items() if inspect.isfunction(f)}
        functions["Pipeline.run"] = convoforge.Pipeline.run
        functions["ResponseGraph.add_edge"] = convoforge.ResponseGraph.add_edge
        assert {name: list(inspect.signature(f).parameters)
                for name, f in functions.items()} == PUBLIC_PARAMETERS

    def test_unknown_attribute_raises_standard_error(self):
        with pytest.raises(AttributeError) as info:
            convoforge.no_such_name
        assert str(info.value) == "module 'convoforge' has no attribute 'no_such_name'"


class TestRegistryMapping:
    def test_read_only_mapping(self):
        assert isinstance(REGISTRY, Mapping)
        with pytest.raises(TypeError):
            REGISTRY["extra"] = object
        assert "nope" not in REGISTRY and REGISTRY.get("nope") is None

    def test_items_resolve_every_class(self):
        assert [(name, cls.name) for name, cls in REGISTRY.items()] == [
            (name, name) for name in REGISTRY]
        assert REGISTRY["classifier"] is convoforge.ml.Classifier
        assert REGISTRY["forecaster"] is convoforge.ml.Forecaster


def _run_child(code: str):
    """Run ``code`` in a fresh interpreter that imports this checkout's
    convoforge; it prints a JSON value as its last line."""
    result = subprocess.run([sys.executable, "-c", code], env=child_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


LOADED = """
import json, sys
print(json.dumps({"numpy": "numpy" in sys.modules, "ml": "convoforge.ml" in sys.modules}))
"""


def _loaded_after(code: str) -> dict:
    return _run_child(textwrap.dedent(code) + LOADED)


class TestNumpyLoadsOnlyWhenUsed:
    def test_importing_the_cli(self):
        assert _loaded_after("import convoforge.cli") == {"numpy": False, "ml": False}

    def test_listing_the_registry_and_an_unknown_stage(self):
        loaded = _loaded_after("""
            from convoforge.registry import REGISTRY, create_transformer
            assert sorted(REGISTRY)[:2] == ["classifier", "fighting_words"]
            try:
                create_transformer("nope", {})
            except ValueError as exc:
                assert str(exc).startswith("unknown transformer 'nope'; known: "), exc
            else:
                raise AssertionError("no error")
        """)
        assert loaded == {"numpy": False, "ml": False}

    def test_running_a_numpy_free_pipeline(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "input": str(toy_movie_path()), "output": str(tmp_path / "out"),
            "stages": [{"name": "merge_consecutive"}, {"name": "hyperconvo"}],
        }))
        loaded = _loaded_after(f"""
            import convoforge.cli
            assert convoforge.cli.main(["--quiet", "run", {str(config)!r}]) == 0
        """)
        assert loaded == {"numpy": False, "ml": False}
        assert (tmp_path / "out" / "utterances.jsonl").is_file()

    def test_running_the_annotate_chain(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "input": str(toy_movie_path()), "output": str(tmp_path / "out"),
            "stages": [
                {"name": "text_cleaner"}, {"name": "tokenizer"}, {"name": "politeness"},
                {"name": "speaker_mix", "params": {"speaker_key": "gender"}},
                {"name": "speaker_diversity"},
                {"name": "fighting_words",
                 "params": {"class1": "mixed=true", "class2": "mixed=false"}},
            ],
        }))
        loaded = _loaded_after(f"""
            import convoforge.cli
            assert convoforge.cli.main(["--quiet", "run", {str(config)!r}]) == 0
        """)
        assert loaded == {"numpy": False, "ml": False}
        assert "fw_class" in (tmp_path / "out" / "utterances.jsonl").read_text()

    def test_the_fightingwords_command(self, tmp_path):
        config = tmp_path / "config.json"
        prepared = tmp_path / "prepared"
        config.write_text(json.dumps({
            "input": str(toy_movie_path()), "output": str(prepared),
            "stages": [{"name": "tokenizer"},
                       {"name": "speaker_mix", "params": {"speaker_key": "gender"}}],
        }))
        assert main(["--quiet", "run", str(config)]) == 0
        loaded = _loaded_after(f"""
            import contextlib, io
            import convoforge.cli
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = convoforge.cli.main(["--corpus", {str(prepared)!r}, "fightingwords",
                                            "--class1", "mixed=true",
                                            "--class2", "mixed=false", "--top-k", "1"])
            assert code == 0, code
            assert out.getvalue().splitlines()[1].startswith("alpha\tclass1"), out.getvalue()
        """)
        assert loaded == {"numpy": False, "ml": False}

    def test_a_classifier_stage_loads_both(self):
        loaded = _loaded_after("""
            from convoforge.registry import create_transformer
            stage = create_transformer("classifier", {"label_key": "y"})
            assert type(stage).__module__ == "convoforge.ml"
        """)
        assert loaded == {"numpy": True, "ml": True}

    def test_ml_attribute_without_prior_import(self):
        loaded = _loaded_after("""
            import convoforge
            assert callable(convoforge.ml.train_classifier)
        """)
        assert loaded == {"numpy": True, "ml": True}


# The public names, in the order __all__ lists them.
PUBLIC_NAMES = [
    "Classifier", "Conversation", "Corpus", "FightingWords", "Forecaster",
    "FwModel", "HyperConvo", "ImportMapping", "LinearModel",
    "MergeConsecutive", "Pipeline", "PolitenessStrategies", "ResponseGraph", "Speaker",
    "SpeakerDiversity", "SpeakerMixAnnotator", "SummaryTable", "TextCleaner",
    "Tokenizer", "Transformer", "Utterance", "Violation",
    "build_corpus", "build_response_graph", "check_integrity", "clean_text",
    "errors", "export_tabular", "extract_features", "extract_strategies",
    "identity_mapping", "import_tabular", "jensen_shannon", "load", "merge", "predict",
    "save", "speaker_history", "tokenize", "train_classifier", "traverse",
]

MODULES = """
import json, sys
print(json.dumps({"package": sorted(m for m in sys.modules if m.startswith("convoforge")),
                  "numpy": "numpy" in sys.modules, "uuid": "uuid" in sys.modules}))
"""


def _modules_after(code: str) -> dict:
    return _run_child(textwrap.dedent(code) + MODULES)


class TestModulesLoadOnDemand:
    def test_importing_the_cli_loads_only_errors(self):
        assert _modules_after("import convoforge.cli")["package"] == [
            "convoforge", "convoforge.cli", "convoforge.errors"]

    def test_listing_the_registry_loads_no_stage_module(self):
        loaded = _modules_after("""
            from convoforge.registry import REGISTRY
            assert len(sorted(REGISTRY)) == 10
        """)
        assert loaded["package"] == ["convoforge", "convoforge.errors", "convoforge.registry"]

    def test_a_run_loads_only_its_stages_and_saves_without_uuid(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "input": str(toy_movie_path()), "output": str(tmp_path / "out"),
            "stages": [{"name": "merge_consecutive"}, {"name": "hyperconvo"},
                       {"name": "speaker_mix", "params": {"speaker_key": "gender"}}],
        }))
        loaded = _modules_after(f"""
            import convoforge.cli
            assert convoforge.cli.main(["--quiet", "run", {str(config)!r}]) == 0
        """)
        assert loaded == {
            "package": ["convoforge", "convoforge.cli", "convoforge.corpus_io",
                        "convoforge.errors", "convoforge.hyperconvo", "convoforge.model",
                        "convoforge.registry", "convoforge.textprep", "convoforge.transform"],
            "numpy": False, "uuid": False}

    def test_every_public_name_is_the_object_of_its_module(self):
        mismatched = _run_child(textwrap.dedent("""
            import json, sys
            import convoforge
            wrong = []
            for name in convoforge.__all__:
                value = getattr(convoforge, name)
                home = "convoforge.errors" if name == "errors" else value.__module__
                defined = sys.modules[home] if name == "errors" else getattr(sys.modules[home], name)
                if not home.startswith("convoforge.") or value is not defined:
                    wrong.append(name)
            print(json.dumps(wrong))
        """))
        assert mismatched == []

    def test_public_names_are_unchanged(self):
        assert _run_child("import json, convoforge; print(json.dumps(convoforge.__all__))") == (
            PUBLIC_NAMES)


def test_readme_quick_start_prints_one():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert _run_child(block) == 1
