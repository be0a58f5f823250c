"""The outcome of every job in ``test_unlisted_groups``, pinned.

For each job of ``ladder``, ``construction_jobs`` (with
``lattice_and_arc_jobs``), ``biggs_jobs`` and ``group_jobs`` (``ladder``
holds ``quotient_layer_jobs``), ``goldens.json`` holds the exit status, stdout,
stderr, the certificate without ``timing_ms``, and the files the job
writes (``--group-out``, ``--out-file``), with the temporary directory
and the fixtures directory replaced by placeholders.

A change that means to leave every command's output alone leaves the
goldens as they are.  After a deliberate change of output, regenerate
them with ``python tests/test_goldens.py`` (``sgk`` importable, e.g.
``PYTHONPATH=src``) and review the diff.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from conftest import FIXDIR
from sgk.cli import main
from test_unlisted_groups import biggs_jobs, construction_jobs, group_jobs, ladder

GOLDENS = Path(__file__).with_name("goldens.json")
WRITES = ("--group-out", "--out-file")


class _Captured:
    """Stdout and stderr of the jobs, read back the way ``capsys`` reads
    them: ``readouterr`` returns what was printed since the last call."""

    def __init__(self):
        self.out, self.err = io.StringIO(), io.StringIO()

    def readouterr(self):
        text = self.out.getvalue(), self.err.getvalue()
        for buf in (self.out, self.err):
            buf.seek(0)
            buf.truncate()
        return text


def _outcome(captured, tmp, argv):
    cert = tmp / "cert.json"
    cert.unlink(missing_ok=True)
    written = [Path(argv[i + 1]) for i, flag in enumerate(argv) if flag in WRITES]
    for path in written:
        path.unlink(missing_ok=True)
    code = main(argv + ["--certificate", str(cert)])
    out, err = captured.readouterr()
    doc = json.loads(cert.read_text()) if cert.exists() else None
    if doc is not None:
        doc.pop("timing_ms")
    files = {str(p): p.read_text() if p.exists() else None for p in written}
    record = {"argv": argv, "code": code, "stdout": out, "stderr": err,
              "certificate": doc, "written": files}
    text = json.dumps(record).replace(str(tmp), "<tmp>").replace(str(FIXDIR), "<fixtures>")
    return json.loads(text)


def outcomes(tmp):
    """Every job's outcome, in job order, run in the directory ``tmp``."""
    captured = _Captured()
    with contextlib.redirect_stdout(captured.out), contextlib.redirect_stderr(captured.err):
        jobs = ladder(tmp) + construction_jobs(captured, tmp)
        jobs += [argv for argv, _ in biggs_jobs(tmp)]
        jobs += group_jobs(tmp)
        return [_outcome(captured, tmp, argv) for argv in jobs]


def test_every_outcome_is_pinned(tmp_path):
    expected = json.loads(GOLDENS.read_text())
    got = outcomes(tmp_path)
    assert [o["argv"] for o in got] == [o["argv"] for o in expected]
    for o, e in zip(got, expected):
        assert o == e, o["argv"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pinned = outcomes(Path(tmp))
    GOLDENS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"{len(pinned)} outcomes written to {GOLDENS}", file=sys.stderr)
