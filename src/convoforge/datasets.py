"""Bundled example corpora.

toy_movie: 14 fictional dialog utterances across four conversations, with a
"gender" key on every speaker. The token "alpha" appears only in the two
mixed-cast conversations and "ledger" only in the single-cast ones, so the
corpus has a known planted signal for language-comparison demos and tests.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path


def toy_movie_path() -> Path:
    """Directory of the bundled toy movie-dialog corpus."""
    return Path(str(resources.files("convoforge.data").joinpath("toy_movie")))
