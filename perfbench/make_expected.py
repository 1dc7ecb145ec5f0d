"""Write expected_seed0.json: each call's results for the default seed.

    python3 perfbench/make_expected.py

Run it on the code whose results are the reference. run.py compares
every seed-0 run against the file; cells at the dead-zone edge and calls
that fail their checks are stored as null and not compared.
"""

import json
import sys
import tempfile

import run

run.pin()
sys.path.insert(0, str(run.SRC))

import reference  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    expected = {}
    with tempfile.TemporaryDirectory(dir=run.HERE) as scratch:
        for name, workload in workloads.WORKLOADS.items():
            runner = run.Runner(workload, workload.make_calls(0), scratch, reference.Speed())
            runner.one_pass(traced=False)
            for line in runner.unexpected:
                print(f"{name}: {line}", file=sys.stderr)
            expected[name] = runner.fingerprints
    with open(run.HERE / "expected_seed0.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
