"""Mutation sweep of ``src/lightclock``: which one-token faults do the tests miss?

Five operators, applied one site at a time with the stdlib ``ast`` module
(Offutt et al., "An Experimental Determination of Sufficient Mutant
Operators", ACM TOSEM 5(2), 1996):

* swap a relational operator: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``;
* swap an arithmetic operator: ``+`` and ``-``, ``*`` and ``/``;
* swap ``and`` and ``or``;
* drop a ``not``;
* change a numeric constant: +1 for an int, x2 for a float (0.0 becomes 1.0).

The checkout is never edited.  ``src``, ``tests``, ``pyproject.toml``,
``README.md`` and the root ``conftest.py`` (the tests' environment policy)
are copied to a temporary directory; each mutant rewrites one
module there (as ``ast.unparse`` prints it, so comments are dropped) and runs
``pytest -x tests``: every test, so a survivor is one that no test kills.  The
mutant is killed when pytest fails or times out.  One JSON line per mutant,
with its operator, the source it changes as written and as mutated, and the
first failed test, goes to stdout, and the counts to stderr.  Before the
first mutant, the unparsed but unmutated modules must pass the tests.

A survivor that behaves as the original does (an equivalent mutant) gets a
line in the ledger, ``tests/data/mutants.txt``, keyed by text, not by site
number; the sweep marks each survivor the ledger names.  The ledger's own
test, which checks that each line still names a site, is left out of the
sweep's test runs, since the modules there are unparsed and mutated.

    python tests/mutation_sweep.py \\
        --function errors.check_speed --function radar.simulate_ping > sweep.jsonl

``--function MODULE.QUALNAME`` (repeatable) limits the sites to the bodies of
those functions and classes.  ``--since REV`` adds every function whose
``ast.dump`` differs from the same function at the git revision REV, or that
is new since, so a change can sweep what it touched:

    python tests/mutation_sweep.py --since HEAD~1 > sweep.jsonl

Without either, every site of every module is mutated, one test run per
site.  The file is not named ``test_*.py``, so pytest does not collect it.
"""

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "lightclock"
LEDGER = ROOT / "tests" / "data" / "mutants.txt"
LEDGER_TEST = "tests/test_mutant_ledger.py"
TIMEOUT = 600  # seconds; a mutant that hangs the tests counts as killed
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
         ast.Mult: ast.Div, ast.Div: ast.Mult, ast.And: ast.Or, ast.Or: ast.And}


class Mutator(ast.NodeTransformer):
    """Counts the mutation sites of one module in a fixed order, within the
    wanted scopes, and applies the site numbered ``target``, if any."""

    def __init__(self, module, source, wanted, target=None):
        self.module, self.wanted, self.target = module, wanted, target
        self.lines = source.splitlines()
        self.scope, self.count, self.applied = [], 0, None

    def _in_scope(self):
        name = ".".join([self.module, *self.scope])
        return not self.wanted or any(name == w or name.startswith(w + ".")
                                      for w in self.wanted)

    def _site(self, node, operator, make):
        """One site at ``node``; at the target, the node that ``make()`` builds.

        ``before`` and ``after`` are the source lines that hold the node,
        joined into one, with the node's span as ``ast.unparse`` prints the
        node, and the mutant in its place."""
        if not self._in_scope():
            return node
        self.count += 1
        if self.count - 1 != self.target:
            return node
        mutant = ast.copy_location(make(), node)
        lines = self.lines[node.lineno - 1:node.end_lineno]
        head = lines[0].encode()[:node.col_offset].decode()  # offsets count UTF-8 bytes
        tail = lines[-1].encode()[node.end_col_offset:].decode()
        self.applied = {"module": self.module, "function": ".".join(self.scope),
                        "line": node.lineno, "operator": operator,
                        "before": " ".join(f"{head}{ast.unparse(node)}{tail}".split()),
                        "after": " ".join(f"{head}{ast.unparse(mutant)}{tail}".split())}
        return mutant

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()
        return node

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            if type(op) in SWAPS:
                ops = [*node.ops[:i], SWAPS[type(op)](), *node.ops[i + 1:]]
                node = self._site(node, "relational", lambda ops=ops:
                                  ast.Compare(node.left, ops, node.comparators))
        return node

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if type(node.op) not in SWAPS:
            return node
        return self._site(node, "arithmetic", lambda: ast.BinOp(
            node.left, SWAPS[type(node.op)](), node.right))

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        return self._site(node, "boolean",
                          lambda: ast.BoolOp(SWAPS[type(node.op)](), node.values))

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if not isinstance(node.op, ast.Not):
            return node
        return self._site(node, "not", lambda: node.operand)

    def visit_Constant(self, node):
        value = node.value
        if type(value) is int:
            return self._site(node, "constant", lambda: ast.Constant(value + 1))
        if type(value) is float:
            return self._site(node, "constant", lambda: ast.Constant(value * 2 or 1.0))
        return node


def mutate(module, source, wanted, target=None):
    """(source as ast.unparse prints it with site ``target`` mutated, the
    applied site or None, the number of sites)."""
    mutator = Mutator(module, source, wanted, target)
    tree = ast.fix_missing_locations(mutator.visit(ast.parse(source)))
    return ast.unparse(tree) + "\n", mutator.applied, mutator.count


def ledger_key(site):
    """What a ledger line names of a site: module, qualname, operator, and
    the source as written and as mutated."""
    return tuple(site[k] for k in ("module", "function", "operator", "before", "after"))


def read_ledger(path=LEDGER):
    """{ledger_key: reason} of each ledger line: the five key fields, then
    ``equivalent: <reason>``, separated by tabs; "#" starts a comment line."""
    entries = {}
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        *key, verdict = line.split("\t")
        if len(key) != 5 or not verdict.startswith("equivalent: "):
            raise ValueError(f"{path.name}:{number}: expected 5 tab-separated key "
                             f"fields, then 'equivalent: <reason>'")
        entries[tuple(key)] = verdict[len("equivalent: "):]
    return entries


def functions(source):
    """QUALNAME: ``ast.dump`` of every function in ``source``, methods and
    nested functions included."""
    found = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = [*scope, child.name]
                if not isinstance(child, ast.ClassDef):
                    found[".".join(name)] = ast.dump(child)
                visit(child, name)
            else:
                visit(child, scope)

    visit(ast.parse(source), [])
    return found


def changed_functions(rev, sources):
    """MODULE.QUALNAME of each function in ``sources`` that differs from, or
    is missing in, the same module at the git revision ``rev``."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)

    if git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}").returncode:
        sys.exit(f"unknown git revision {rev!r}")
    changed = []
    for module, source in sources.items():
        old = git("show", f"{rev}:{(PACKAGE / module).as_posix()}.py")
        before = functions(old.stdout) if old.returncode == 0 else {}  # a new module
        changed += [f"{module}.{name}" for name, dump in functions(source).items()
                    if before.get(name) != dump]
    return changed


def run_tests(workdir):
    """None when the tests pass in ``workdir``, else what failed first."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                               "-p", "no:cacheprovider", "--ignore", LEDGER_TEST, "tests"],
                              cwd=workdir, env=env,
                              capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode == 0:
        return None
    failed = [line for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else f"pytest exit {proc.returncode}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--function", action="append", default=[],
                        help="MODULE.QUALNAME whose body to mutate; repeatable")
    parser.add_argument("--since", metavar="REV",
                        help="also mutate every function changed since git revision REV")
    args = parser.parse_args(argv)
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / PACKAGE).glob("*.py"))}
    if args.since:
        changed = changed_functions(args.since, sources)
        if not changed:
            sys.exit(f"no function changed since {args.since}")
        args.function += changed
        print(f"changed since {args.since}: {' '.join(changed)}", file=sys.stderr)
    counts = {m: mutate(m, text, args.function)[2] for m, text in sources.items()}
    counts = {m: n for m, n in counts.items() if n}
    if not counts:
        sys.exit(f"no mutation site in {args.function}")
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as tmp:
        workdir = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, workdir / name, ignore=ignore)
        for name in ("pyproject.toml", "README.md", "conftest.py"):
            shutil.copy(ROOT / name, workdir)
        for module in counts:
            (workdir / PACKAGE / f"{module}.py").write_text(
                mutate(module, sources[module], args.function)[0], encoding="utf-8")
        failed = run_tests(workdir)
        if failed:
            sys.exit(f"the unmutated modules, as ast.unparse prints them, fail: {failed}")
        ledger, killed, survived, known = read_ledger(), 0, 0, 0
        for module, count in counts.items():
            path = workdir / PACKAGE / f"{module}.py"
            unmutated = path.read_text(encoding="utf-8")
            for target in range(count):
                text, site, _ = mutate(module, sources[module], args.function, target)
                path.write_text(text, encoding="utf-8")
                start = time.perf_counter()
                site["failed"] = run_tests(workdir)
                site["killed"] = site["failed"] is not None
                site["seconds"] = round(time.perf_counter() - start, 1)
                if not site["killed"] and ledger_key(site) in ledger:
                    site["equivalent"] = ledger[ledger_key(site)]
                    known += 1
                killed, survived = killed + site["killed"], survived + (not site["killed"])
                print(json.dumps(site), flush=True)
            path.write_text(unmutated, encoding="utf-8")
    print(f"{killed + survived} mutants: {killed} killed, {survived} survived, "
          f"{known} of them in the ledger", file=sys.stderr)


if __name__ == "__main__":
    main()
