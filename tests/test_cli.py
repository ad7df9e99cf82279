"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


def test_workloads_lists_all(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    for name in ("tmm", "tpacf", "mri-gridding", "spmv", "sad", "histo",
                 "cutcp", "mri-q", "megakv"):
        assert name in out


def test_run_clean(capsys):
    assert main(["run", "histo", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "output verified" in out


def test_run_with_crash_recovers(capsys):
    code = main(["run", "tmm", "--scale", "tiny", "--crash-after", "4",
                 "--cache-lines", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "CRASHED" in out
    assert "recovered" in out
    assert "output verified" in out


def test_run_with_table_choice(capsys):
    assert main(["run", "spmv", "--scale", "tiny",
                 "--config", "cuckoo"]) == 0
    assert "cuckoo" in capsys.readouterr().out


def test_run_sharded_clean(capsys):
    assert main(["run", "histo", "--scale", "tiny", "--shards", "2"]) == 0
    assert "output verified" in capsys.readouterr().out


def test_run_sharded_with_crash_recovers(capsys):
    code = main(["run", "tmm", "--scale", "tiny", "--crash-after", "4",
                 "--cache-lines", "8", "--shards", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "CRASHED" in out
    assert "recovered" in out
    assert "output verified" in out


def test_experiments_single(capsys):
    assert main(["experiments", "fig1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "shuffle" in out


def test_experiments_unknown_id(capsys):
    assert main(["experiments", "fig99"]) == 2
    assert "unknown experiments" in capsys.readouterr().err


def test_report_writes_file(tmp_path, capsys, shared_generation):
    out_file = tmp_path / "EXP.md"
    assert main(["report", str(out_file)]) == 0
    text = out_file.read_text()
    assert "paper vs. measured" in text
    assert "fig5" in text


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_serve_on_an_unreadable_heap_fails_closed(tmp_path, capsys):
    """``--heap`` naming something that cannot be a heap (here: a
    directory) is a typed error on stderr and exit 2, not a traceback."""
    assert main(["serve", "--heap", str(tmp_path),
                 "--socket", str(tmp_path / "s.sock")]) == 2
    assert "HeapTruncatedError" in capsys.readouterr().err
    assert not (tmp_path / "s.sock").exists()


# ---------------------------------------------------------------------------
# The engine choice: two names, no worker count.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["run", "spmv", "--engine", "parallel"],
    ["mc", "--engine", "parallel"],
    ["crash-test", "--engines", "parallel"],
    ["serve", "--engine", "parallel"],
], ids=lambda argv: argv[0])
def test_parallel_is_not_an_engine_choice(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'parallel'" in err
    assert "'serial'" in err and "'batched'" in err


@pytest.mark.parametrize("argv", [
    ["run", "spmv"], ["profile", "spmv"], ["mc"], ["crash-test"], ["serve"],
], ids=lambda argv: argv[0])
def test_jobs_is_not_an_option(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--jobs", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
