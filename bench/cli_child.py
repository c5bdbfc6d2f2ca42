"""Run ``python -m donaldson.cli`` in this process under the speed clock.

    python3 bench/cli_child.py <timing file> <cli arguments...>

The cli_session workload starts each CLI process through this wrapper, so
that the process's own work is scaled to the reference speed by probes
taken inside it (see speed.py); a probe in the parent would compete with
the child for its CPU.  The CLI runs as ``-m`` runs it and keeps its
stdout, stderr and exit code.  The timing file gets one JSON object:
``wall``, ``busy`` and ``scaled`` seconds of the region from the import
of the CLI to its exit, and ``probes_outside``, the seconds of the probes
taken just before and after that region.
"""

import json
import runpy
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import SpeedClock  # noqa: E402


def main() -> None:
    timing_file = sys.argv[1]
    sys.argv = [sys.argv[0], *sys.argv[2:]]
    clock = SpeedClock()
    clock.tick()
    clock.arm()
    t0 = time.perf_counter()
    try:
        runpy.run_module("donaldson.cli", run_name="__main__", alter_sys=True)
    finally:
        t1 = time.perf_counter()
        clock.disarm()
        clock.tick()
        outside = (clock.ends[0] - clock.starts[0]) + (clock.ends[-1] - clock.starts[-1])
        timing = {
            "wall": t1 - t0,
            "busy": clock.busy(t0, t1),
            "scaled": clock.scaled(t0, t1),
            "probes_outside": outside,
        }
        Path(timing_file).write_text(json.dumps(timing))


if __name__ == "__main__":
    main()
