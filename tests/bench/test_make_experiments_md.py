"""Tests for the EXPERIMENTS.md generator."""

from pathlib import Path

from repro.bench.make_experiments_md import main

COMMITTED = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


def test_generate_contains_every_experiment(experiments_md_text):
    text = experiments_md_text
    from repro.bench.experiments import EXPERIMENTS

    for exp_id in EXPERIMENTS:
        assert f"## `{exp_id}`" in text
    assert "Known deviations" in text
    assert "FAIL" not in text  # every fidelity check passes


def test_committed_experiments_md_is_current(experiments_md_text):
    """The checked-in record is what the code generates, byte for byte:
    any change to a reproduced number must regenerate it."""
    assert experiments_md_text == COMMITTED.read_text()


def test_main_writes_given_path(tmp_path, capsys, shared_generation):
    out = tmp_path / "X.md"
    main(str(out))
    assert out.exists()
    assert "paper vs. measured" in out.read_text()
    assert str(out) in capsys.readouterr().out
