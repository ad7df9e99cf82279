"""Machine-speed probe: how slow is this machine *right now*?

The sandbox this benchmark is written for does not run at one speed.
Its two vCPUs drift between an undisturbed state and one about 1.3-1.5x
slower, in phases that last from seconds to minutes (a neighbour on the
same host). Ten identical runs taken across such phases spread by 30-45 %
on every timing, serve or simulator alike, whatever the run length —
wider than any bound a regression gate could use.

So each serve run keeps this probe running beside the measurement: a
child process that, every ``PERIOD_S``, executes one fixed chunk of
interpreter work (about 2.5 ms) and records the **CPU time** the chunk
took. (``crash_cycle`` is one thread on one core while the other idles,
where a separate process would measure the wrong core; it runs the same
chunk in-process before and after every leg instead.) CPU time
does not grow when the probe merely waits for a core, so the program
under test cannot move it by using more threads; it grows when the
hardware itself delivers fewer instructions per second. The mean chunk
time over an interval, divided by ``CHUNK_REFERENCE_S``, is that
interval's *slowness*; the benchmark divides the times it measured in
the interval by it (and multiplies rates), which reports them as they
would read on the undisturbed machine. Measured on this sandbox, the
correction takes the spread of single 5 s repetitions from 1.30x to
1.09x (max / min of 14) on ``serve_mixed_mapped`` and from 1.32x to
1.06x on ``serve_read_mapped``; the correlation between a repetition's
time per request and the probe is 0.92-0.99.

Not every workload slows down as much as the chunk does. The mapped
serve workloads do; ``serve_mixed_sharded4`` and ``crash_cycle`` (Python
and numpy over far more memory than the chunk touches) read about
``slowness ** 1.5`` times slower — fitted over 30 runs each, taken across
three slow phases of the machine, which do not agree on the exponent
(README.md, "Machine-speed correction"). A workload states that exponent
as its *sensitivity*, and its times are divided by the slowness raised
to it.

The probe costs one core 2.5 % of its time.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

#: CPU seconds one chunk takes on this sandbox when nothing disturbs it.
#: A constant, not a calibration: slowness only has to be *consistent*
#: between the runs that are compared; on another machine every value is
#: scaled by the same factor.
CHUNK_REFERENCE_S = 0.00250
PERIOD_S = 0.1


def chunk_cpu_s() -> float:
    """Run one chunk — fixed interpreter work: integer loop, dict stores,
    str() — and return the CPU seconds it took on this thread."""
    scratch: dict = {}
    cpu = time.thread_time()
    total = 0
    for i in range(60000):
        total += i
    for i in range(2000):
        scratch[i & 255] = str(i)
    return time.thread_time() - cpu


def slowness_of(chunks_cpu_s: list[float]) -> float:
    """Mean chunk time as a multiple of the undisturbed chunk time."""
    return sum(chunks_cpu_s) / len(chunks_cpu_s) / CHUNK_REFERENCE_S


def main(path: str) -> int:
    parent = os.getppid()
    with open(path, "w") as out:
        while os.getppid() == parent:  # never outlive the benchmark
            wall = time.perf_counter()
            out.write(f"{wall} {chunk_cpu_s()}\n")
            out.flush()
            time.sleep(PERIOD_S)
    return 0


class Probe:
    """The probe child and the slowness of any interval it has covered."""

    def __init__(self, work: Path) -> None:
        work.mkdir(parents=True, exist_ok=True)
        self._path = work / "probe.samples"
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self._path)],
            stdout=subprocess.DEVNULL)
        self._offset = 0
        self._samples: list[tuple[float, float]] = []

    def _read(self) -> None:
        if not self._path.exists():
            return
        with open(self._path) as fh:
            fh.seek(self._offset)
            while True:
                line = fh.readline()
                if not line.endswith("\n"):
                    break  # nothing more, or a line still being written
                self._offset = fh.tell()
                wall, cpu = line.split()
                self._samples.append((float(wall), float(cpu)))

    def slowness(self, t0: float, t1: float) -> float:
        """Mean chunk time over ``[t0, t1]`` (``perf_counter`` seconds),
        as a multiple of the undisturbed chunk time."""
        self._read()
        margin = 0.0
        while True:
            chunks = [cpu for wall, cpu in self._samples
                      if t0 - margin <= wall <= t1 + margin]
            if len(chunks) >= 3:
                return slowness_of(chunks)
            if margin > 5.0:
                raise RuntimeError("the machine-speed probe has no samples "
                                   f"near [{t0}, {t1}]; did it die?")
            # Too short an interval to hold three samples: widen it.
            margin += PERIOD_S
            time.sleep(PERIOD_S)
            self._read()

    def stop(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
