"""The documented examples run, and the package's public names are the ones it imports."""

import ast
import doctest
import importlib
import pathlib
import pkgutil
import shlex

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


def test_all_matches_imports():
    tree = ast.parse(pathlib.Path(psl2count.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert len(psl2count.__all__) == len(set(psl2count.__all__))
    assert set(psl2count.__all__) == set(imported)
    for name in psl2count.__all__:
        assert getattr(psl2count, name) is not None, name


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
