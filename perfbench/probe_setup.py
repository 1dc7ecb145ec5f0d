"""Set-up as one command-line call pays it: import relayosc, build the plants.

    python3 perfbench/probe_setup.py <workload> <seed>

run.py starts this in a fresh interpreter several times and reports the
median wall time as setup_s.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import relayosc  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].make_calls(int(sys.argv[2]))
