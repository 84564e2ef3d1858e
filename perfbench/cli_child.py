"""Run ``freedeconv.cli.main`` under the benchmark's tracing wrappers.

Usage: python3 perfbench/cli_child.py STATS_JSON LAUNCH_TIME [cli arguments...]

LAUNCH_TIME is the parent's ``time.time()`` just before it started this
process; the time from then until ``freedeconv.cli`` is imported is recorded
as the CLI's start-up.  The aggregated spans go to STATS_JSON.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import tracing  # noqa: E402

import freedeconv.cli  # noqa: E402

if __name__ == "__main__":
    stats_path, launched = sys.argv[1], float(sys.argv[2])
    tracer = tracing.Tracer()
    tracer.samples["cli_start_s"].append(time.time() - launched)
    tracing.install(tracer)
    try:
        status = freedeconv.cli.main(sys.argv[3:])
    finally:
        with open(stats_path, "w") as fh:
            json.dump(tracer.to_dict(), fh)
    sys.exit(status)
