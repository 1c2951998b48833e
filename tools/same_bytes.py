"""Check that the CLI prints the same bytes as at a git revision, argv by argv.

Usage: python tools/same_bytes.py REV

Extracts ``src/`` of REV (``git archive REV src | tar -x``) into a temporary
directory and runs a built-in list of argv against that tree and against the
working tree's ``src/``.  Each tree runs in its own interpreter, which imports
``latticewell`` from that tree and calls ``latticewell.cli.main`` in process
for every argv.  Prints every argv whose exit code, stdout or stderr differ
between the two trees, and exits 1 if any do, else 0.  Standard library only.

The list (``ARGVS``): the seven golden configs in CSV and in JSON; 225
``density-matrix`` runs, N in {2, 3, 5, 8, 12, 16, 32, 63, 64, 65, 400} x beta
in {0, 1, 50, 1e3, 1e5} x with and without ``--normalized`` x CSV/JSON, plus
SI, ``--T``, N = 1 and no-beta runs; and the error and SI rows of
``test_no_silent_non_finite_output`` in ``tests/test_cli.py``.
"""

import hashlib
import itertools
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

GOLDEN = [
    ["spectrum", "--N", "8", "--natural"],
    ["wavefunction", "--N", "8", "--n-E", "2", "--natural"],
    ["density-matrix", "--N", "5", "--beta", "2", "--natural"],
    ["partition", "--N", "6", "--natural", "--sweep", "0.5:4:4:linear"],
    ["mean-energy", "--N", "6", "--natural", "--beta", "1.5"],
    ["heat-capacity", "--N", "6", "--natural", "--sweep", "0.01:10:12:log"],
    ["converge", "--L", "1", "--natural", "--sweep", "50:400:4:log", "--n-E", "2"],
]

DENSITY = [
    ["density-matrix", "--N", str(N), "--natural", "--beta", beta, *normalized, "--output", output]
    for N, beta, normalized, output in itertools.product(
        (2, 3, 5, 8, 12, 16, 32, 63, 64, 65, 400), ("0", "1", "50", "1e3", "1e5"),
        ([], ["--normalized"]), ("csv", "json"))
] + [
    ["density-matrix", "--N", "8", "--SI", "--a", "1e-9", "--T", "300"],
    ["density-matrix", "--N", "8", "--SI", "--a", "1e-9", "--T", "300", "--normalized", "--output", "json"],
    ["density-matrix", "--N", "5", "--natural", "--T", "0.5"],
    ["density-matrix", "--N", "1", "--natural", "--beta", "1"],
    ["density-matrix", "--N", "5", "--natural"],
]

NON_FINITE = [
    ["spectrum", "--N", "4", "--a", "1e160", "--SI", "--hbar", "1e154"],
    ["mean-energy", "--L", "1", "--natural", "--beta", "1e-309"],
    ["mean-energy", "--N", "4", "--L", "1", "--natural", "--beta", "1e-309"],
    ["wavefunction", "--N", "33", "--L", "3e-309", "--natural"],
    ["partition", "--N", "4", "--a", "1e150", "--SI", "--hbar", "1e154", "--beta", "1e-12"],
    ["mean-energy", "--N", "4", "--a", "1e150", "--SI", "--hbar", "1e154", "--beta", "1e-12"],
    ["partition", "--N", "4", "--a", "1", "--SI", "--hbar", "1e-170", "--beta", "1e-10"],
    ["mean-energy", "--N", "4", "--a", "1", "--SI", "--hbar", "1e-170", "--beta", "1e-10"],
    ["partition", "--N", "4", "--a", "5e-150", "--natural", "--T", "9.99e307"],
    ["mean-energy", "--N", "4", "--SI", "--m-star", "1.7e-200", "--k-B", "1.7e10",
     "--sweep", "1.7e-320:3.40016e-320:3:linear"],
    ["partition", "--L", "1", "--SI", "--hbar", "1e160", "--beta", "1"],
    ["mean-energy", "--L", "1", "--SI", "--hbar", "1e200", "--beta", "1"],
    ["partition", "--L", "1e150", "--SI", "--m-star", "5e-324", "--hbar", "1", "--beta", "1"],
    ["partition", "--L", "1e-160", "--SI", "--m-star", "1e160", "--hbar", "1e100", "--beta", "1e300"],
    ["mean-energy", "--L", "1e-160", "--SI", "--m-star", "1e160", "--hbar", "1e100", "--beta", "1e300"],
    ["partition", "--L", "1e160", "--SI", "--m-star", "1", "--hbar", "1e160", "--beta", "1"],
    ["mean-energy", "--L", "1e160", "--SI", "--m-star", "1", "--hbar", "1e160", "--beta", "1"],
    ["spectrum", "--N", "24", "--L", "3.286117576999689e-153", "--natural"],
    ["density-matrix", "--N", "8", "--L", "1e200", "--beta", "1e6", "--SI", "--hbar", "1e160"],
]

ARGVS = [*GOLDEN, *(argv + ["--output", "json"] for argv in GOLDEN), *DENSITY, *NON_FINITE]

# Run in a child interpreter: argv[1] is the src/ directory, stdin the JSON list of argv;
# writes one [exit code, stdout SHA-256, stderr SHA-256] per argv as JSON.
CHILD = """
import contextlib, hashlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from latticewell.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, *(hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))])
json.dump(results, sys.stdout)
"""


def results(src: Path) -> list:
    """Each argv's exit code and output digests, from the tree whose package lives in ``src``."""
    proc = subprocess.run([sys.executable, "-B", "-c", CHILD, str(src)], input=json.dumps(ARGVS),
                          capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"the run against {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(rev: str) -> int:
    with tempfile.TemporaryDirectory() as tree:
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tree], input=archive.stdout, check=True)
        old = results(Path(tree) / "src")
    new = results(ROOT / "src")
    differ = [(argv, a, b) for argv, a, b in zip(ARGVS, old, new) if a != b]
    for argv, a, b in differ:
        what = ", ".join(part for part, x, y in zip(("exit code", "stdout", "stderr"), a, b) if x != y)
        print(f"{' '.join(argv)}: {what} differ (exit {a[0]} at {rev}, {b[0]} in the working tree)")
    print(f"{len(ARGVS)} argv, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
