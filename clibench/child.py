"""Runs one sgk command in a fresh interpreter and reports its timings.

Usage: python3 child.py '<json spec>' where the spec holds ``src`` (the
directory that contains the ``sgk`` package), ``argv`` (the command line
after ``sgk``), ``trace`` (whether to record spans) and ``spans`` (where
to write them, or null).

Prints one JSON line: ``ready`` is the monotonic clock after ``import
sgk.cli``, so the parent can time interpreter start plus import, less
``ref_wall``, the time spent on the reference loop before the import;
``ref_s`` is that loop's best time, which shows how fast this core ran;
``job_s`` is the time spent in ``sgk.cli.main``; ``maxrss_kb`` is this
process's peak resident set.  Traced runs add ``layers``, the
per-function aggregates of the span tree.
"""

import json
import sys
import time


def reference():
    """A few milliseconds of tuple building, the kind of work sgk does."""
    a = tuple(range(12))
    b = a[::-1]
    start = time.perf_counter()
    for _ in range(6000):
        a = tuple(b[i] for i in a)
    return time.perf_counter() - start


# first, on a clean heap, so that nothing sgk leaves behind can bend it
start = time.monotonic()
ref_s = min(reference() for _ in range(3))
ref_wall = time.monotonic() - start

spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])
import sgk.cli  # noqa: E402

ready = time.monotonic()

tracer = None
if spec["trace"]:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()

t0 = time.perf_counter()
if tracer:
    tracer.open_root(t0)
raised = False
try:
    code = sgk.cli.main(spec["argv"])
except SystemExit as exc:
    # argparse rejects a command line by exiting
    code, raised = exc.code, True
t1 = time.perf_counter()

import resource  # noqa: E402

result = {
    "ready": ready,
    "job_s": t1 - t0,
    "exit": code,
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "ref_s": ref_s,
    "ref_wall": ref_wall,
}
if tracer:
    tracer.close_root(t1, raised)
    result["layers"] = tracer.aggregate()
    if spec.get("spans"):
        tracer.write_spans(spec["spans"])
sys.stdout.write(json.dumps(result) + "\n")
