"""One cold start: a fresh interpreter imports drfeas and builds the inputs.

Run by ``run.py`` as a child process with the path of a generated-inputs
file.  It prints ``ready`` once the program objects exist; the parent times
the interval from spawning it to that line.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402

with open(sys.argv[1], encoding="utf-8") as fh:
    workloads.build(json.load(fh))
print("ready", flush=True)
