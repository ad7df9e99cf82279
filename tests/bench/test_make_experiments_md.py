"""Tests for the EXPERIMENTS.md generator."""

from repro.bench.make_experiments_md import main


def test_generate_contains_every_experiment(experiments_md_text):
    text = experiments_md_text
    from repro.bench.experiments import EXPERIMENTS

    for exp_id in EXPERIMENTS:
        assert f"## `{exp_id}`" in text
    assert "Known deviations" in text
    assert "FAIL" not in text  # every fidelity check passes


def test_main_writes_given_path(tmp_path, capsys, shared_generation):
    out = tmp_path / "X.md"
    main(str(out))
    assert out.exists()
    assert "paper vs. measured" in out.read_text()
    assert str(out) in capsys.readouterr().out
