"""Acceptance: SIGKILL the daemon mid-batch under live load; resume.

This is the issue's end-to-end criterion, run for real: a spawned
``python -m repro serve`` child is SIGKILLed by a ``writebacks:N``
trigger from inside an armed write-back window while three clients
drive mixed traffic; the harness restarts the daemon on the same heap
and the same clients — reconnect-retrying the whole time — finish
their plans. Convergence asserts every acked PUT/DELETE is observable
after the restart and every un-acked in-flight request was cleanly
retryable.
"""

import os
import signal

import pytest

from repro.harness.serve import render_serve_text, run_serve_scenario


@pytest.mark.parametrize("shards", [0, 4], ids=["mapped", "sharded"])
def test_sigkill_mid_batch_resumes_with_no_acked_loss(shards):
    shm_before = sorted(os.listdir("/dev/shm"))
    report = run_serve_scenario(shards=shards)
    detail = render_serve_text(report)

    assert sorted(os.listdir("/dev/shm")) == shm_before, detail

    assert report["kill_rc"] == -signal.SIGKILL, detail
    # The trigger fires inside commit(): the torn-write journal must
    # still be armed on the post-kill image.
    assert report["journal_armed_at_kill"], detail
    # The clients lived through the kill (their reconnect loop is the
    # "cleanly retryable" half of the contract).
    assert report["load"]["reconnects"] > 0, detail
    assert report["load"]["resent"] > 0, detail
    assert not report["client_failures"], detail
    # The restarted daemon really resumed (cold open → WAL replay →
    # validate → recover), and nothing acked went missing.
    assert report["resume"]["resumed"], detail
    assert not report["read_your_writes_mismatches"], detail
    assert not report["final_sweep_mismatches"], detail
    assert report["acked_writes_checked"] > 0, detail
    assert report["resumed_exit_rc"] == 0, detail
    assert report["converged"], detail
    # No engine was named, so both generations ran `serve`'s default —
    # and the resumed one validated and served without leaving it.
    assert report["engine"] == "batched", detail
    assert report["engine_fallbacks"] == {}, detail
    # ... and every window it served was at most search + write.
    assert 0 < report["launches"] <= 2 * report["windows"], detail
