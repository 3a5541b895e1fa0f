"""Time one set-up in a fresh interpreter, as a user invocation pays it.

Reads ``{"workload": ..., "specs": [...], "workdir": ...}`` as JSON on
stdin, then imports the package and builds every case of the workload.
Prints the elapsed seconds and a machine-speed reading taken right after
(see ``speed.py``) as JSON.  ``run.py`` starts this script several times and
reports the median, rescaled to reference speed, as ``setup_s``.
"""

import json
import os
import sys
from time import perf_counter


def main():
    job = json.load(sys.stdin)
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    start = perf_counter()
    import cases  # imports maslovstab, numpy and scipy: part of the cost

    cases.BUILDERS[job["workload"]](job["specs"], job["workdir"])
    elapsed = perf_counter() - start
    import speed

    print(json.dumps({"setup_s": elapsed, "kernel_s": speed.kernel_seconds()}))


if __name__ == "__main__":
    main()
