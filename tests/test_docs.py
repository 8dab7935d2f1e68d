"""The documented examples run, and the package's public names are the ones its table lists."""

import ast
import doctest
import importlib
import os
import pathlib
import pkgutil
import shlex
import subprocess
import sys

import pytest

import psl2count
from psl2count import cli, search

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(f"psl2count.{info.name}" for info in pkgutil.iter_modules(psl2count.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_readme_example():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_commands_parse():
    # every psl2count line of the usage block parses, with its case read by
    # split_of, so a renamed flag, subcommand or case breaks this test
    lines = [line for line in README.read_text().split("\n## CLI\n")[1].split("\n## ")[0].splitlines()
             if line.startswith("psl2count ")]
    assert len(lines) >= 15
    parser = cli.build_parser()
    cases = set()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        if argv[-2:-1] == [">"]:
            argv = argv[:-2]
        args = parser.parse_args(argv)
        if args.command in ("search", "bhc"):
            search.split_forms(*search.split_of(args.case))
            cases.add(args.case)
    assert {"a", "b", "4:3"} <= cases


# The package's public names, as __all__ lists them; a name that leaves this
# set is an API removal.
PUBLIC = {
    "is_prime", "factorize", "tau", "big_omega", "divisors", "two_adic_valuation", "primes_in_range",
    "PolynomialFamily", "ResourceLimitError", "InvariantProfile", "profile", "counts", "census", "ClassCensus",
    "ClassEntry", "GoldenRow", "golden_table", "verify_golden", "PermGroup", "Subgroup", "OracleClass",
    "build_psl2", "enumerate_subgroups", "classify", "oracle_census", "CaseSpec", "TripleHit", "SearchSummary",
    "case_spec", "scan", "verify_attainment", "HlConstant", "BhcEstimate", "family", "check_sh", "omega_roots",
    "hl_constant", "estimate_E", "HbCandidate", "HbScan", "qualifies", "scan_hb", "derive_upper_bounds",
}
SUBMODULES = {"arith", "bhc", "heathbrown", "invariants", "oracle", "runner", "search"}


def test_all_is_the_table_of_public_names():
    # one table, each name under the module that defines it, and no name twice
    assert [name for names in psl2count._PUBLIC.values() for name in names] == psl2count.__all__
    assert set(psl2count._PUBLIC) == SUBMODULES
    assert len(psl2count.__all__) == len(set(psl2count.__all__))
    assert set(psl2count.__all__) == PUBLIC
    for module, names in psl2count._PUBLIC.items():
        for name in names:
            obj = getattr(psl2count, name)
            assert obj is getattr(importlib.import_module(f"psl2count.{module}"), name), name
            assert obj.__module__ == f"psl2count.{module}", name


def test_public_attributes_resolve():
    for module in SUBMODULES:
        assert getattr(psl2count, module) is importlib.import_module(f"psl2count.{module}")
    assert PUBLIC | SUBMODULES | {"__version__"} <= set(dir(psl2count))
    with pytest.raises(AttributeError, match="'no_such_name'"):
        psl2count.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from psl2count import no_such_name  # noqa: F401
    namespace = {}
    exec("from psl2count import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(psl2count.__all__)


def _loaded_after(code: str) -> list[str]:
    """The psl2count modules, and numpy, that a fresh interpreter holds after running code."""
    probe = f"{code}\nimport sys\nprint(*sorted(m for m in sys.modules if m == 'numpy' or m.startswith('psl2count')))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return proc.stdout.split()


def test_bare_import_loads_no_module():
    assert _loaded_after("import psl2count") == ["psl2count"]
    # a name loads its own module and what that module imports, and no other
    assert _loaded_after("import psl2count\npsl2count.runner") == ["psl2count", "psl2count.runner"]
    assert _loaded_after("import psl2count\npsl2count.counts") == [
        "numpy", "psl2count", "psl2count.arith", "psl2count.invariants"]


def test_cli_loads_every_module():
    # the start-up that the benchmark's setup_s times: the CLI imports all eight modules when it loads
    assert _loaded_after("import psl2count.cli") == [
        "numpy", "psl2count", *sorted(f"psl2count.{m}" for m in SUBMODULES | {"cli"})]


def _package_imports(source: str) -> set[str]:
    """The psl2count modules that source imports, relatively or by the package's name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "psl2count"):
            module = (node.module or "").removeprefix("psl2count").lstrip(".").split(".")[0]
            found |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("psl2count.")}
    return found


def test_search_does_not_import_bhc():
    # search takes PolynomialFamily from arith, so a scan need not load bhc
    assert _package_imports(pathlib.Path(search.__file__).read_text()) == {"arith", "invariants", "runner"}
    code = "from . import arith\nfrom .bhc import family\nimport psl2count.oracle\nfrom psl2count.heathbrown import qualifies\n"
    assert _package_imports(code) == {"arith", "bhc", "oracle", "heathbrown"}


def _private_reads(source: str) -> list[str]:
    """The _-prefixed names, dunders aside, that source reads from a psl2count module, by attribute or import."""
    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "psl2count"):
            if (node.module or "").removeprefix("psl2count").lstrip("."):  # from .arith import name
                found += [f"{node.module}.{alias.name}" for alias in node.names if private(alias.name)]
            else:
                modules |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name.startswith("psl2count.")}
    return found + [f"{ast.unparse(node.value)}.{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and ast.unparse(node.value) in modules and private(node.attr)]


def test_no_module_reads_another_modules_private_names():
    # a _-prefixed name is its module's own choice, such as arith's window size: a read
    # from another module would make two modules know it
    found = [f"{path.name}: {name}" for path in sorted(pathlib.Path(psl2count.__file__).parent.rglob("*.py"))
             for name in _private_reads(path.read_text())]
    assert found == []
    code = ("from . import arith\nimport psl2count.bhc as b\nimport psl2count.oracle\nfrom .search import _BLOCK, scan\n"
            "arith._PRIME_SEGMENT\nb._SUM_SCALE\npsl2count.oracle._MAX\narith.windows\narith.__name__\nself._x\n")
    assert _private_reads(code) == ["search._BLOCK", "arith._PRIME_SEGMENT", "b._SUM_SCALE", "psl2count.oracle._MAX"]


def test_no_assert_statements_in_the_package():
    # invariants raise explicitly: python -O strips assert statements
    found = [f"{path.name}:{node.lineno}" for path in sorted(pathlib.Path(psl2count.__file__).parent.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []


def _bare_ufunc_at_values(source: str) -> list[int]:
    """The lines of the ufunc.at(a, indices, b) calls in source whose b is a bare literal, name or arithmetic."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "at" and len(node.args) > 2
            and isinstance(node.args[2], (ast.Constant, ast.Name, ast.BinOp, ast.UnaryOp))]


def test_ufunc_at_values_are_numpy_typed():
    # a Python scalar takes ufunc.at off its indexed fast path, some 30 times
    # slower: every value is built by numpy, as np.int32(e) or np.repeat(q, count)
    found = [f"{path.name}:{line}" for path in sorted(pathlib.Path(psl2count.__file__).parent.rglob("*.py"))
             for line in _bare_ufunc_at_values(path.read_text())]
    assert found == []
    calls = "np.add.at(w, i, 1)\nnp.add.at(w, i, e)\nnp.add.at(w, i, -e + 1)\nnp.add.at(w, i, np.int8(1))\n"
    assert _bare_ufunc_at_values(calls) == [1, 2, 3]


# Fields kept although no package code reads them:
UNREAD_FIELDS = {
    "HbCandidate.qualifies",  # the per-prime reference's verdict, read by its tests
    "BhcEstimate.quadrature_error",  # the integration error, for the printed error budget of E(x)
}


def test_every_record_field_is_read():
    # a field that no package code reads as an attribute is a second copy of
    # a value or a value nothing uses
    trees = [ast.parse(path.read_text()) for path in sorted(pathlib.Path(psl2count.__file__).parent.rglob("*.py"))]
    fields = {f"{node.name}.{item.target.id}" for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef)
              and any(ast.unparse(d).split("(")[0] == "dataclass" for d in node.decorator_list)
              for item in node.body if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert {f for f in fields if f.split(".")[1] not in read} == UNREAD_FIELDS
