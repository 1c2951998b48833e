"""Mutation survey of one function: which small changes to it does tier-1 let pass?

Usage: python tools/mutants.py PATH FUNCTION

PATH is a module under ``src/`` (e.g. ``src/latticewell/thermo.py``) and
FUNCTION a function in it (``Class.method`` for a method).  Inside that
function it makes each change of three kinds, one at a time:

- swap + and -, and * and / (binary and augmented operators);
- flip < and <=, and > and >=;
- change an int constant by 1, or double a float constant.

Docstrings, f-strings and ``raise`` statements are left alone.  The working
tree is copied once into a temporary directory, without ``.git``,
``__pycache__``, ``*.egg-info`` and ``bench/out``.  Each mutant is the
function's ``ast.unparse`` with that one change, written over the function in
the copy's ``src/``; tier-1 then runs with ``-x -q`` with the copy as its
working directory, one run per mutant, so the tests and every interpreter they
start import the mutant.  The unchanged function, unparsed the same way,
must pass first.  A mutant that tier-1 passes survives: each survivor is printed
with its line and its change, and the exit status is 1 if any survive, else 0.
A mutant that hangs past ten times the first run's time counts as killed.
Standard library only.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}


def find(tree: ast.Module, name: str) -> ast.FunctionDef:
    """The function (or Class.method) called name in tree; LookupError if there is none."""
    node = tree
    for part in name.split("."):
        node = next((n for n in getattr(node, "body", []) if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     and n.name == part), None)
        if node is None:
            raise LookupError(f"no function {name}")
    return node


def sites(func: ast.FunctionDef) -> list:
    """(node, shown, apply) for each mutation in func, in source order.

    apply(node) makes the change; shown is the node whose text the report prints
    before and after it: the operator's expression, or a constant's parent.
    """
    skip, parent = set(), {}
    first = func.body[0]
    if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
        skip.add(id(first.value))
    for node in ast.walk(func):
        parent.update((id(child), node) for child in ast.iter_child_nodes(node))
        if isinstance(node, (ast.JoinedStr, ast.Raise)):
            skip.update(id(n) for n in ast.walk(node))
    out = []
    for node in ast.walk(func):
        if id(node) in skip:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAP:
            out.append((node, node, lambda n: setattr(n, "op", SWAP[type(n.op)]())))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in FLIP:
                    out.append((node, node, lambda n, i=i: n.ops.__setitem__(i, FLIP[type(n.ops[i])]())))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            if node.value != (node.value + 1 if type(node.value) is int else node.value * 2):  # 0.0 doubles to itself
                shown = parent[id(node)] if isinstance(parent[id(node)], ast.expr) else node
                out.append((node, shown, lambda n: setattr(n, "value", n.value + 1 if type(n.value) is int else n.value * 2)))
    return sorted(out, key=lambda site: (site[0].lineno, site[0].col_offset))


def mutant(source: str, name: str, k: int | None) -> tuple[str, int, str]:
    """The module's source with the function unparsed and, unless k is None, its k-th site changed.

    Returns (source, line of the change, "before -> after").
    """
    tree = ast.parse(source)
    func = find(tree, name)
    line, change = func.lineno, "none"
    if k is not None:
        node, shown, apply = sites(func)[k]
        before = ast.unparse(shown)
        apply(node)
        line, change = node.lineno, f"{before}  ->  {ast.unparse(shown)}"
    lines = source.splitlines(keepends=True)
    start = min([func.lineno, *(d.lineno for d in func.decorator_list)]) - 1
    body = "".join(" " * func.col_offset + row + "\n" for row in ast.unparse(func).splitlines())
    return "".join([*lines[:start], body, *lines[func.end_lineno:]]), line, change


def skipped(directory: str, names: list[str]) -> set[str]:
    """The entries of directory that the copy of the working tree leaves out."""
    return {n for n in names if n in (".git", "__pycache__") or n.endswith(".egg-info")
            or Path(directory, n) == ROOT / "bench" / "out"}


def tier1(tree: Path, timeout: float | None) -> tuple[bool, float]:
    """(passed, seconds) of tier-1 run with -x -q in the copy of the working tree at tree."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    t0 = time.perf_counter()
    try:
        run = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - t0
    return run.returncode == 0, time.perf_counter() - t0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    path, name = Path(argv[0]).resolve(), argv[1]
    if not path.is_relative_to(ROOT / "src"):
        print(f"{argv[0]} is not under {ROOT / 'src'}", file=sys.stderr)
        return 2
    relative = path.relative_to(ROOT / "src")
    source = path.read_text()
    try:
        count = len(sites(find(ast.parse(source), name)))
    except LookupError as exc:
        print(f"{exc} in {argv[0]}", file=sys.stderr)
        return 2
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=skipped)
        target = tree / "src" / relative
        target.write_text(mutant(source, name, None)[0])
        passed, seconds = tier1(tree, None)
        if not passed:
            print(f"tier-1 fails on the unmutated {name}; nothing to survey", file=sys.stderr)
            return 2
        print(f"{count} mutants of {relative}:{name}; tier-1 takes {seconds:.0f} s", file=sys.stderr)
        for k in range(count):
            text, line, change = mutant(source, name, k)
            target.write_text(text)
            passed, _ = tier1(tree, 10 * seconds + 60)
            print(f"  {k + 1}/{count} {'SURVIVED' if passed else 'killed'}  line {line}: {change}", file=sys.stderr)
            if passed:
                survivors.append(f"{path.name}:{line}: {change}")
    for survivor in survivors:
        print(survivor)
    print(f"{len(survivors)} of {count} mutants survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
