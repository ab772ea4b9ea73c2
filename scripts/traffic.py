#!/usr/bin/env python3
"""Hash what the CLI prints on fixed traffic, in one process.

    python3 scripts/traffic.py [--lines]

Runs, through toricding.cli.main, every argv of tests/golden/cli_outputs.json
("{out}" a fresh temporary directory, from the root of the checkout) and, for
each of the seeds 0-2, every task of each benchmark workload of perfbench/workloads.py
(read, not changed).  Prints one line per set: its name, its task count, a
sha256 over each task's argv, exit code, stdout, stderr and the files it
wrote under "{out}", with the input and output directories masked, and the
number of kernel records (geometry._record misses) the set built, with the
package's four caches emptied before each set, and the number of calls to
Fraction.__eq__ and Fraction.__hash__ the set made.  Two checkouts that
print the same hashes behave the same on this traffic; the record and
call counts are deterministic measures of the kernel's work.

With --lines it then lists, per module of src/toricding, the statement lines
(lines that carry bytecode) that no task ran, and the public functions and
methods (of public classes, names without a leading underscore) that no task
called, traced with sys.settrace.
"""

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "toricding"
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py)

OUT = "{out}"
SEEDS = (0, 1, 2)


def run_task(main, argv: list[str], root: str | None = None) -> list:
    """[argv, exit code, stdout, stderr, files written under "{out}"] of one
    task, with the output directory read as "{out}" and root as "@"."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.replace(OUT, tmp) for arg in argv])
        files = {p.name: p.read_text() for p in sorted(Path(tmp).iterdir())}
    texts = [json.dumps(argv), out.getvalue(), err.getvalue(), json.dumps(files, sort_keys=True)]
    for path, name in [(tmp, OUT)] + ([(root, "@")] if root else []):
        texts = [t.replace(path, name) for t in texts]
    return [code, *texts]


def digest(results: list[list]) -> str:
    h = hashlib.sha256()
    for result in results:
        h.update(json.dumps(result).encode() + b"\n")
    return h.hexdigest()


def counted(run) -> tuple[list, int, int]:
    """(run(), the kernel records it built, the calls to Fraction.__eq__ and
    Fraction.__hash__ it made), the package's four caches emptied first."""
    from toricding import extremal, geometry, lattice

    for cache in (geometry._record, geometry._region_subdivision_cached,
                  extremal.extremal_affine, lattice._fiber_rows):
        cache.cache_clear()
    calls = [0]

    def counting(method):
        def wrapper(*args):
            calls[0] += 1
            return method(*args)
        return wrapper

    saved = Fraction.__eq__, Fraction.__hash__
    Fraction.__eq__, Fraction.__hash__ = map(counting, saved)
    try:
        results = run()
    finally:
        Fraction.__eq__, Fraction.__hash__ = saved
    return results, geometry._record.cache_info().misses, calls[0]


def traffic(main):
    """(set name, task results, kernel records built, Fraction equality and
    hash calls) per set: the goldens, then each workload and seed."""
    golden = json.loads((REPO / "tests" / "golden" / "cli_outputs.json").read_text())
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        yield "golden", *counted(
            lambda: [run_task(main, golden[case]["argv"]) for case in sorted(golden)])
    finally:
        os.chdir(cwd)
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            files, tasks = workloads.build_inputs(workload, seed)
            with tempfile.TemporaryDirectory() as root:
                workloads.write_inputs(files, Path(root))
                yield f"{workload}:{seed}", *counted(lambda: [
                    run_task(main, workloads.resolve(task.argv, Path(root)), root)
                    for task in tasks])


def statement_lines(path: Path) -> set[int]:
    """The lines of a module that carry bytecode, in any code object."""
    codes, lines = [compile(path.read_text(), str(path), "exec")], set()
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def public_functions(path: Path) -> dict[int, str]:
    """The first line of each public module-level function and public method of
    a public class, decorators included as in co_firstlineno, to its name."""
    out = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            defs = [(f"{node.name}.", item) for item in node.body]
        else:
            defs = [("", node)]
        for prefix, item in defs:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                out[first] = prefix + item.name
    return out


def ranges(lines: list[int]) -> str:
    out, start = [], None
    for i, line in enumerate(lines):
        start = line if start is None else start
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(line) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lines", action="store_true",
                        help="list the statement lines of src/toricding that no task ran")
    args = parser.parse_args()
    modules = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: set[tuple[str, int]] = set()
    called: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in modules:
            return None
        called.add((code.co_filename, code.co_firstlineno))
        return local

    if args.lines:
        sys.settrace(tracer)  # before the import, so module-level lines count
    from toricding.cli import main as cli_main

    for name, results, records, calls in traffic(cli_main):
        print(f"{name:10s} {len(results):3d} {digest(results)} {records:5d} {calls:7d}",
              flush=True)
    sys.settrace(None)
    if args.lines:
        for path, module in modules.items():
            unrun = sorted(statement_lines(module) - {line for f, line in ran if f == path})
            print(f"{module.name}: {len(unrun)} unrun: {ranges(unrun)}")
            uncalled = [name for first, name in sorted(public_functions(module).items())
                        if (path, first) not in called]
            print(f"{module.name}: {len(uncalled)} public uncalled: {', '.join(uncalled)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
