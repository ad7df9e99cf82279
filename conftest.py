"""Repo-root pytest configuration.

Ensures ``src/`` is importable even when the package has not been
installed (the reproduction environment is offline and pip editable
installs need the absent ``wheel`` package; ``python setup.py develop``
works, but this fallback makes ``pytest`` self-sufficient either way).
"""

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


@pytest.fixture(scope="session")
def experiments_md_text():
    """The full EXPERIMENTS.md text, generated once per session.

    A generation runs every experiment (~12 s); the tests that only
    need *a* generated document share this one.
    """
    from repro.bench.make_experiments_md import generate

    return generate()


@pytest.fixture
def shared_generation(experiments_md_text, monkeypatch):
    """Make ``make_experiments_md.generate`` return the session's text,
    so a test of a writer (``main``, ``repro report``) exercises the
    writer without regenerating."""
    from repro.bench import make_experiments_md

    monkeypatch.setattr(make_experiments_md, "generate",
                        lambda: experiments_md_text)
