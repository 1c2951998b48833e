"""Check that the CLI prints the same bytes as at a git revision, argv by argv.

Usage: python tools/same_bytes.py REV

Extracts ``src/`` of REV (``git archive REV src | tar -x``) into a temporary
directory and runs a built-in list of argv against that tree and against the
working tree's ``src/``.  Each tree runs in its own interpreter, which imports
``latticewell`` from that tree and calls ``latticewell.cli.main`` in process
for every argv.  Its stdout is a text layer over a byte buffer, as a pipe's
is, so ``cli.run`` takes its real-stdout path, and the digest is of the bytes
that buffer receives.  Prints every argv whose exit code, stdout or stderr
differ between the two trees, and exits 1 if any do, else 0.  Standard library
only.

The list (``ARGVS``): the seven golden configs (``GOLDEN_ARGS``) in CSV and in
JSON; 225 ``density-matrix`` runs, N in {2, 3, 5, 8, 12, 16, 32, 63, 64, 65,
400} x beta in {0, 1, 50, 1e3, 1e5} x with and without ``--normalized`` x
CSV/JSON, plus SI, ``--T``, N = 1 and no-beta runs; and the argv of
``NON_FINITE_ROWS``, the error and SI rows of ``test_no_silent_non_finite_output``.
Both lists are read from ``tests/test_cli.py`` with ``ast.literal_eval``, not
imported.
"""

import ast
import itertools
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

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

# The goldens and the non-finite rows are the tests' own lists, read as literals
# from tests/test_cli.py so that this tool never imports the tests or what they need.
_TESTS = {node.targets[0].id: node.value for node in ast.parse((ROOT / "tests" / "test_cli.py").read_text()).body
          if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
GOLDEN = list(ast.literal_eval(_TESTS["GOLDEN_ARGS"]).values())
NON_FINITE = [argv for argv, _, _ in ast.literal_eval(_TESTS["NON_FINITE_ROWS"])]

ARGVS = [*GOLDEN, *(argv + ["--output", "json"] for argv in GOLDEN), *DENSITY, *NON_FINITE]

# Run in a child interpreter: argv[1] is the src/ directory, stdin the JSON list of argv;
# writes one [exit code, stdout SHA-256, stderr SHA-256] per argv as JSON.
CHILD = """
import contextlib, hashlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from latticewell.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out.flush()
    results.append([code, *(hashlib.sha256(b).hexdigest() for b in (out.buffer.getvalue(), err.getvalue().encode()))])
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
