"""Traced daemon entry: install the ledger's wrappers, then run the CLI.

``python launcher.py SPANS.json serve ...`` is ``python -m repro serve
...`` with the timing wrappers of :mod:`layers` in place, so the traced
and the untraced daemon execute the same ``repro.__main__.main`` path.
Spans are written to ``SPANS.json`` on exit, or at once on ``SIGUSR1``
— the benchmark asks for them just before it SIGKILLs the child.
"""

from __future__ import annotations

import os
import signal
import sys


def main(argv: list[str]) -> int:
    spans_path, cli = argv[0], argv[1:]
    import layers
    from tracer import Tracer

    from repro.__main__ import main as repro_main

    tracer = Tracer()

    def write_spans(*_signal_args) -> None:
        tracer.dump(spans_path + ".tmp")
        os.replace(spans_path + ".tmp", spans_path)

    tracer.install(layers.targets())
    signal.signal(signal.SIGUSR1, write_spans)
    try:
        return repro_main(cli)
    finally:
        tracer.uninstall()
        write_spans()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
