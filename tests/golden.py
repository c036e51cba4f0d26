"""The seeded constructed commands whose outputs ``golden.json`` holds, and its regeneration.

Each command runs in process through ``cli.main``. For every stream it
digests (standard output, standard error and the file written at
``{out}``) the file keeps:

- the SHA-256 of the stream's bytes, under the key of the platform that
  wrote it: numpy's major.minor version and the long-double format,
  which the error blocks are summed in. No constructed command calls a
  BLAS or LAPACK routine, so the digests need no BLAS key;
- the stream's text with every number replaced by ``#`` and its numbers,
  which :mod:`test_golden` compares at ``RTOL`` on every platform, its
  own key or not.

A change that moves output bits shows as a diff of ``golden.json``. Run
from the repository root to regenerate it::

    PYTHONPATH=src python tests/golden.py

Digests held under another key are kept when every stream's numbers and
text here are as the file holds them, and dropped otherwise, as stale.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np

import pilotopt.cli as cli

PATH = Path(__file__).with_name("golden.json")

# Off its key a command's numbers must agree to nine significant digits.
# Another long-double format or numpy build moves the last bits of sums
# of at most a few hundred thousand terms, many decades below that; a
# changed formula, draw or seed moves a Monte Carlo cell by far more.
RTOL = 1e-9

_ALL = ["stdout", "stderr", "out"]

# (name, argv, digested streams); "{out}" stands for the output file's path
COMMANDS = [
    ("desk-sweep", ["sweep-snr", "--profile", "desk", "--mode", "both", "--trials", "200",
                    "--seed", "1", "--out", "{out}"], _ALL),
    ("paper-point", ["sweep-snr", "--profile", "paper", "--snr-db", "0", "--mode", "both",
                     "--trials", "200", "--seed", "1", "--out", "{out}"], _ALL),
    ("paper-sweep", ["sweep-snr", "--profile", "paper", "--trials", "200", "--seed", "1",
                     "--out", "{out}"], _ALL),
    ("paper-sweep-n", ["sweep-n", "--profile", "paper", "--n", "1,16,32,40", "--snr-db", "0",
                       "--trials", "50", "--seed", "1", "--out", "{out}"], _ALL),
    ("desk-estimate", ["estimate", "--profile", "desk", "--snr-db", "0", "--seed", "1",
                       "--out", "{out}"], _ALL),
    ("paper-estimate", ["estimate", "--profile", "paper", "--snr-db", "0", "--seed", "1",
                        "--out", "{out}"], _ALL),
    # the objective on standard error comes from LAPACK's SVD of the pilots
    ("desk-optimize", ["optimize", "--profile", "desk", "--snr-db", "0", "--seed", "1",
                       "--out", "{out}"], ["out"]),
    ("paper-optimize", ["optimize", "--profile", "paper", "--snr-db", "0", "--seed", "1",
                        "--out", "{out}"], ["out"]),
    ("singular-sweep", ["sweep-snr", "--k", "2", "--n", "4", "--snr-db", "130", "--trials", "5",
                        "--out", "-"], ["stdout", "stderr"]),
    ("desk-sweep-json", ["sweep-snr", "--profile", "desk", "--trials", "200", "--format", "json",
                         "--seed", "1", "--out", "{out}"], _ALL),
    ("paper-chart", ["sweep-snr", "--profile", "paper", "--snr-db", "0", "--format", "svg",
                     "--seed", "1", "--out", "{out}"], _ALL),
    # three trials at M = 2 are too few for the consistency gate: a false
    # alarm that exits 3
    ("false-alarm", ["sweep-snr", "--k", "2", "--m", "2", "--n", "1", "--trials", "3", "--seed",
                     "336"], ["stdout", "stderr"]),
]

_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def digest_key():
    """The platform key of the digests: numpy's major.minor and the long-double format."""
    major, minor = np.__version__.split(".")[:2]
    ld = np.finfo(np.longdouble)
    return f"numpy {major}.{minor}, long double nmant={ld.nmant} nexp={ld.nexp}"


def run(argv, tmp_dir):
    """``(exit code, {stream: text})`` of ``cli.main(argv)``, the output file at ``{out}``."""
    out = Path(tmp_dir) / "out"
    out.unlink(missing_ok=True)  # a run that writes no file must not read an older one
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([str(out) if a == "{out}" else a for a in argv])
    texts = {"stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    if "{out}" in argv:
        texts["out"] = out.read_text(encoding="utf-8")
    return code, texts


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cells(text):
    """``(text with each number as "#", [the numbers])``."""
    return _NUMBER.sub("#", text), [float(v) for v in _NUMBER.findall(text)]


def load():
    return json.loads(PATH.read_text(encoding="utf-8"))


def regenerate(tmp_dir):
    """The file's content for this platform, keeping other keys' digests that still hold."""
    old = load() if PATH.exists() else {"commands": [], "digests": {}}
    key = digest_key()
    commands, digests, held = [], {}, old["commands"]
    for name, argv, streams in COMMANDS:
        code, texts = run(argv, tmp_dir)
        reference = {}
        for stream in streams:
            text, values = cells(texts[stream])
            reference[stream] = {"text": text, "values": values}
        commands.append({"name": name, "argv": argv, "exit": code, "streams": reference})
        digests[name] = {stream: sha256(texts[stream]) for stream in streams}
    kept = {k: v for k, v in old["digests"].items()
            if k != key and commands == held and set(v) == set(digests)}
    return {"rtol": RTOL, "commands": commands, "digests": {**kept, key: digests}}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = regenerate(tmp)
    PATH.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PATH.name}: {len(data['commands'])} commands, keys {sorted(data['digests'])}",
          file=sys.stderr)
