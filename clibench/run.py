"""End-to-end benchmark of the sgk command line.

Usage, from the root of a checkout:

    python3 clibench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Closed loop with one client: the jobs of a workload run one at a time,
each in a fresh interpreter, the next starting when the previous exits.
Jobs run in rounds, each round running the job list once and each desk
job twice, until the next job would end after ``--seconds``.  Every job's certificate is
checked: exit status 0, ``"ok": true``, claim ids from the program's
vocabulary, the job's invariant facts, and the same certificate (apart
from ``timing_ms``) in every run.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` each job's untraced run is
followed by a traced one, and the metrics are the per-layer figures of
the traced runs, plus the tracing overhead.  A table of every metric
with its unit goes to standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")
JOB_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))
import check_tracer  # noqa: E402
from metrics import end_to_end, per_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    def __init__(self, jobs, vocabulary, spans_dir):
        self.jobs = jobs
        self.vocabulary = vocabulary
        self.spans_dir = spans_dir
        self.reference = {}
        self.attempted = 0
        self.failures = []

    def run_job(self, job, trace):
        spec = {
            "src": "src",
            "argv": job.argv + ["--certificate", str(self.cert_path(job))],
            "trace": trace,
            "spans": str(self.spans_dir / f"{job.name}.json") if trace else None,
        }
        self.cert_path(job).unlink(missing_ok=True)
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=ROOT, capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, f"timed out after {JOB_TIMEOUT_S} s"
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
        res = json.loads(lines[-1])
        res["setup_s"] = res["ready"] - start - res["ref_wall"]
        return res, self.check(job, res)

    def cert_path(self, job):
        return WORK / "out" / f"{job.name}.cert.json"

    def check(self, job, res):
        """None when the job's outputs are right, else the reason."""
        if res["exit"] != 0:
            return f"exit status {res['exit']}"
        try:
            doc = json.loads(self.cert_path(job).read_text())
        except (OSError, ValueError) as exc:
            return f"no readable certificate: {exc}"
        if doc.get("ok") is not True:
            return "certificate has ok false"
        unknown = [c["id"] for c in doc["claims"] if c["id"] not in self.vocabulary]
        if unknown or not doc["claims"]:
            return f"claim ids {unknown} outside the vocabulary, or no claims"
        facts = doc["facts"]
        wrong = {k: facts.get(k) for k, v in job.expect.items() if facts.get(k) != v}
        if wrong:
            return f"facts {wrong} differ from {job.expect}"
        missing = [p for p in job.outputs if not Path(p).is_file()]
        if missing:
            return f"outputs {missing} not written"
        doc.pop("timing_ms")
        if self.reference.setdefault(job.name, doc) != doc:
            return "certificate differs from its first run apart from timing_ms"
        res["claims"] = len(doc["claims"])
        res["claims_failed"] = sum(not c["pass"] for c in doc["claims"])
        return None

    def run(self, job, trace, samples):
        self.attempted += 1
        res, problem = self.run_job(job, trace)
        if problem:
            self.failures.append(f"{job.name}: {problem}")
            print(f"FAILED {job.name}: {problem}", file=sys.stderr)
        else:
            samples[job.name].append(res)

    def measure(self, seconds, trace):
        """Rounds of every job until the next job would end after ``seconds``.

        A traced run follows each untraced run of a job at once, so the
        two see the same load.  Desk jobs run twice a round: they take
        milliseconds, so their medians need more samples, and those cost
        little.  Every job runs at least twice untraced, or once each way
        when tracing, whatever ``seconds`` says.
        """
        plain = {job.name: [] for job in self.jobs}
        traced = {job.name: [] for job in self.jobs}
        last = {}
        begin = time.monotonic()
        rounds = 0
        while True:
            for job in self.jobs:
                for _ in range(2 if job.desk else 1):
                    if rounds >= (1 if trace else 2) and (
                            time.monotonic() - begin + last[job.name] > seconds):
                        return plain, traced, rounds
                    start = time.monotonic()
                    self.run(job, False, plain)
                    if trace:
                        self.run(job, True, traced)
                    last[job.name] = time.monotonic() - start
            rounds += 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sgk" / "cli.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"clibench: no sgk sources under {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        problems = check_tracer.problems()
        if problems:
            print("clibench: tracer arithmetic is wrong:", *problems, sep="\n", file=sys.stderr)
            return 1
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    from sgk.cli import CLAIM_INVARIANTS

    shutil.rmtree(WORK, ignore_errors=True)
    for sub in ("in", "out", "spans"):
        (WORK / sub).mkdir(parents=True)
    jobs = WORKLOADS[args.workload](args.seed, WORK / "in", WORK / "out")
    runner = Runner(jobs, CLAIM_INVARIANTS, WORK / "spans")

    # compile the package's bytecode once; CLI users do not pay for that per run
    runner.run_job(jobs[0], False)
    runner.reference.clear()

    begin = time.monotonic()
    plain, traced, rounds = runner.measure(args.seconds, args.trace)
    (WORK / "samples.json").write_text(json.dumps({"plain": plain, "traced": traced}))
    if args.trace:
        metrics = per_layer(jobs, plain, traced)
        (WORK / "layers.json").write_text(json.dumps(metrics, indent=1))
    else:
        metrics = end_to_end(jobs, plain, runner.attempted, len(runner.failures))
    print(
        f"{args.workload} seed {args.seed}: {runner.attempted} runs of {len(jobs)} jobs"
        f" ({rounds} full rounds) in {time.monotonic() - begin:.1f} s",
        file=sys.stderr,
    )
    for name, m in metrics.items():
        print(f"  {name:48} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
