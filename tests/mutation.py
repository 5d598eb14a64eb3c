"""Seeded mutation testing of ``src/multisent``: which small faults does
tier-1 miss?

A mutant changes one operator or constant of one module, through
``ast``: ``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``+``/``-``, ``*`` to
``/``, ``and``/``or``, or an int constant to itself + 1 (``SWAPS``). A
seeded sample of every module's sites is drawn. Each mutant is unparsed
into a copy of the repository's ``src``, ``tests`` and ``pyproject.toml``
in a work directory, and its module's test files (``TESTS``) run against
it; a mutant they pass runs against the whole suite, and one that passes
that too survives. The mutants ``EQUIVALENT`` lists compute what the
source computes; they are drawn but not run.

Run it by hand, not in tier-1 (40 mutants took about 20 minutes on a
2-vCPU host):

    python tests/mutation.py --count 40 --seed 0 --work <empty directory>

It prints one line per mutant and then the kill rate, and exits 1 if a
mutant survived.
"""

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/multisent"
# Seconds allowed for one run of a module's test files; the whole suite
# gets four times as long.
TIMEOUT = 600.0

# The test files that run first against a mutant of each module.
TESTS = {
    "cli.py": ["tests/test_cli.py", "tests/test_cli_surface.py"],
    "corpus_io.py": ["tests/test_corpus_io.py", "tests/test_library_fuzz.py"],
    "corpus_quality.py": ["tests/test_corpus_quality.py"],
    "evaluation.py": ["tests/test_evaluation.py"],
    "features.py": ["tests/test_features.py"],
    "lexicon.py": ["tests/test_lexicon.py"],
    "parallel.py": ["tests/test_parallel.py"],
    "pipeline.py": ["tests/test_sweep.py", "tests/test_cli.py",
                    "tests/test_util.py"],
    "scoring.py": ["tests/test_scoring.py", "tests/test_util.py"],
    "synth.py": ["tests/test_synth.py", "tests/test_util.py"],
    "util.py": ["tests/test_util.py", "tests/test_features.py",
                "tests/test_classifiers.py", "tests/test_synth.py"],
    "classifiers/__init__.py": ["tests/test_classifiers.py"],
    "classifiers/ann.py": ["tests/test_classifiers.py", "tests/test_util.py"],
    "classifiers/io.py": ["tests/test_classifiers.py"],
    "classifiers/normalize.py": ["tests/test_classifiers.py"],
    "classifiers/svm.py": ["tests/test_classifiers.py", "tests/test_util.py"],
    "classifiers/tree.py": ["tests/test_classifiers.py", "tests/test_util.py"],
}

# (module, scope, source, change, ordinal) of each mutant that computes
# what the source computes, with the reason.
EQUIVALENT = {
    ("scoring.py", "sentence_scores", "scores < 0", "< -> <=", 0):
        "``scores`` holds the nonzero token scores only",
    ("synth.py", "PhiloxBatch._bounded", "2 ** 32 - span", "- -> +", 0):
        "2**32 - span and 2**32 + span leave the same residue mod span",
    ("classifiers/tree.py", "_best_split", "gain <= _GAIN_EPS", "<= -> <",
     0):
        "they differ only at a gain of exactly _GAIN_EPS, which an "
        "entropy difference all but never equals",
    ("synth.py", "_documents", "stream.random(rows) < cfg.purity", "< -> <=",
     0):
        "they differ only on a draw exactly equal to purity, one chance in "
        "2**53 per draw",
    ("synth.py", "_documents", "stream.random(rows) < cfg.rule_fraction",
     "< -> <=", 0):
        "they differ only on a draw exactly equal to rule_fraction, one "
        "chance in 2**53 per draw",
    ("synth.py", "_documents", "stream.random(rows) < 0.5", "< -> <=", 0):
        "they differ only on a draw of exactly 0.5, one chance in 2**53 "
        "per draw",
    # The minimum clip; the negative count before it (ordinal 0) counts
    # a zero score once its < is a <=.
    ("features.py", "doc_rows", "values < 0", "< -> <=", 1):
        "sentence scores are never -0.0 (MAX_SUB's pos - neg of equal "
        "sides is +0.0, MAX_MAX's negative side is nonzero), and at +0.0 "
        "both keep 0.0",
    ("classifiers/ann.py", "_run_once", "work[0]", "0 -> 1", 0):
        "work[0] and work[1] are both (n,) scratch, which _mse and "
        "_backward write before they read",
    ("classifiers/ann.py", "_run_once", "work[0]", "0 -> 1", 1):
        "the candidate's _mse squares into work[1] instead: both are (n,) "
        "scratch, which _mse and _backward write before they read",
    ("classifiers/svm.py", "_pair_step", "a_i * y_i", "* -> /", 0):
        "y_i is +1.0 or -1.0, and a float times or over +-1 is the same "
        "float",
    ("classifiers/svm.py", "_pair_step", "a_j * y_j", "* -> /", 0):
        "y_j is +1.0 or -1.0, and a float times or over +-1 is the same "
        "float",
    ("classifiers/svm.py", "_smo", "violations += 1", "1 -> 2", 0):
        "violations is only compared with 0, and a count of 2 per "
        "violation is 0 exactly when a count of 1 is",
    ("classifiers/tree.py", "_best_split",
     "ratios >= ratios[sure].max() - margin", ">= -> >", 0):
        "a cut whose screened ratio is exactly M - margin has an exact "
        "ratio below M - delta (margin > 2 delta), so it cannot win or tie "
        "whether the screen keeps it or not",
    ("classifiers/tree.py", "_grow", "estimates[item] > below + 1e-10",
     "> -> >=", 0):
        "they differ only when a leaf's estimate equals its subtrees' sum "
        "plus 1e-10 exactly, which sums of binomial bounds all but never "
        "do",
    # The maximum clip; the positive count (ordinal 0) is not equivalent.
    ("features.py", "doc_rows", "values > 0", "> -> >=", 1):
        "sentence scores are never -0.0 (see the values < 0 entry), and at "
        "+0.0 both keep 0.0",
    ("synth.py", "_documents", "2 * longest", "2 -> 3", 0):
        "the code table's width only bounds what a row may hold; no row "
        "writes past 2 * longest codes, so a wider table writes the same "
        "words",
    ("parallel.py", "_start_helper", "code = 1", "1 -> 2", 0):
        "the parent reads a helper's outcome from its pipe, never from its "
        "exit status",
    ("synth.py", "_documents", "initial=0", "0 -> 1", 0):
        "the initial maximum decides only when no document is longer than "
        "0 tokens, and then the lockstep walk writes nothing either way",
}

SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub,
         ast.Sub: ast.Add, ast.Mult: ast.Div, ast.And: ast.Or,
         ast.Or: ast.And}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Eq: "==", ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-",
           ast.Mult: "*", ast.Div: "/", ast.And: "and", ast.Or: "or"}


@dataclass(frozen=True)
class Site:
    """One mutant: the ``index``-th site of ``module``, at ``line`` in the
    function or class ``scope``, where ``change`` edits the operator or
    constant of ``source``: the node's ``ast.unparse``, or its parent's
    for a constant. ``ordinal`` counts the sites before it alike in
    module, scope, source and change, so ``key``, which names it in
    ``EQUIVALENT``, names one site only."""
    module: str
    index: int
    line: int
    scope: str
    source: str
    change: str
    ordinal: int

    @property
    def key(self) -> tuple:
        return (self.module, self.scope, self.source, self.change,
                self.ordinal)


class _Sites(ast.NodeVisitor):
    """Each mutable node of a module in visiting order, as (node, where,
    scope, change): ``where`` is the index of a Compare's operator, or
    None."""

    def __init__(self):
        self.found, self.scopes = [], []

    def _scoped(self, node):
        self.scopes.append(node.name)
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def _add(self, node, where, old, new):
        self.found.append((node, where, ".".join(self.scopes),
                           f"{old} -> {new}"))

    def visit_Compare(self, node):
        for i, op in enumerate(node.ops):
            if type(op) in SWAPS:
                self._add(node, i, SYMBOLS[type(op)],
                          SYMBOLS[SWAPS[type(op)]])
        self.generic_visit(node)

    def _operator(self, node):
        # BinOp, AugAssign (``+=`` is a ``+``) and BoolOp.
        if type(node.op) in SWAPS:
            self._add(node, None, SYMBOLS[type(node.op)],
                      SYMBOLS[SWAPS[type(node.op)]])
        self.generic_visit(node)

    visit_BinOp = visit_AugAssign = visit_BoolOp = _operator

    def visit_Constant(self, node):
        if type(node.value) is int:
            self._add(node, None, node.value, node.value + 1)


def _walk(text: str):
    tree = ast.parse(text)
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node
    visitor = _Sites()
    visitor.visit(tree)
    return tree, visitor.found


def sites(package: Path) -> list:
    """Every site of every module under ``package``, module by module."""
    found, alike = [], Counter()
    for path in sorted(package.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        module = path.relative_to(package).as_posix()
        for index, (node, _, scope, change) in enumerate(_walk(text)[1]):
            shown = node.parent if isinstance(node, ast.Constant) else node
            key = (module, scope, ast.unparse(shown), change)
            found.append(Site(module, index, node.lineno, scope, *key[2:],
                              alike[key]))
            alike[key] += 1
    return found


def mutant_source(package: Path, site: Site) -> str:
    """The text of ``site.module`` with ``site`` changed, unparsed."""
    tree, found = _walk((package / site.module).read_text(encoding="utf-8"))
    node, where, _, _ = found[site.index]
    if isinstance(node, ast.Compare):
        node.ops[where] = SWAPS[type(node.ops[where])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree) + "\n"


def _passes(work: Path, tests, timeout: float) -> bool:
    """Whether pytest passes ``tests`` in ``work`` within ``timeout`` s."""
    # No bytecode, so no stale .pyc outlives a mutant; no plugin the suite
    # does not use; and the copy's pyproject.toml names its own src.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    env.pop("PYTHONPATH", None)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *tests], cwd=work, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def run_mutant(root: Path, package: str, site: Site, tests,
               work: Path) -> str:
    """``killed``, ``killed by the suite`` or ``survived``: ``site``'s
    mutant against ``tests``, then against all of ``tests/``, in a copy
    of ``root`` under ``work``."""
    copy = work / "repo"
    shutil.rmtree(copy, ignore_errors=True)
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(root / name, copy / name, ignore=ignore)
    shutil.copy(root / "pyproject.toml", copy)
    (copy / package / site.module).write_text(
        mutant_source(root / package, site), encoding="utf-8")
    if not _passes(copy, tests, TIMEOUT):
        return "killed"
    if not _passes(copy, ["tests"], TIMEOUT * 4):
        return "killed by the suite"
    return "survived"


def main(argv=None, root=ROOT, package=PACKAGE, tests=None,
         equivalent=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work", required=True,
                        help="directory for the mutated copies")
    args = parser.parse_args(argv)
    tests = TESTS if tests is None else tests
    equivalent = EQUIVALENT if equivalent is None else equivalent
    drawn = random.Random(args.seed).sample(sites(root / package),
                                            args.count)
    outcomes = []
    for site in drawn:
        outcome = ("equivalent" if site.key in equivalent else run_mutant(
            root, package, site, tests[site.module], Path(args.work)))
        outcomes.append(outcome)
        print(f"{outcome:20} {site.module}:{site.line} {site.scope or '-'} "
              f"{site.source!r} {site.change} #{site.ordinal}", flush=True)
    run = [o for o in outcomes if o != "equivalent"]
    killed = sum(o != "survived" for o in run)
    print(f"killed {killed} of {len(run)} mutants run "
          f"({len(outcomes) - len(run)} equivalent not run)")
    return int(killed < len(run))


if __name__ == "__main__":
    sys.exit(main())
