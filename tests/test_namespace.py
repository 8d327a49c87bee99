"""The lazy ``pptball`` namespace: every public name resolves, on demand, to its module's object."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import pptball


@pytest.mark.parametrize("name", pptball.__all__)
def test_public_name_is_its_modules_object(name):
    module = importlib.import_module(f"pptball.{pptball._MODULE_OF[name]}")
    obj = getattr(pptball, name)
    assert obj is getattr(module, name)
    # The table names the defining module, not one that imports the name.
    assert getattr(obj, "__module__", module.__name__) == module.__name__


@pytest.mark.parametrize("name", ["build_witness", "witness_from_operator"])
def test_witness_builders_left_the_namespace(name):
    # Certificate is the one constructor of the witness; no other builder remains.
    from pptball import robustness, witness

    assert name not in pptball.__all__ and name not in dir(pptball)
    with pytest.raises(AttributeError, match=f"'pptball' has no attribute '{name}'"):
        getattr(pptball, name)
    assert not hasattr(witness, name) and not hasattr(robustness, name)


@pytest.mark.parametrize("name", ["build_tiles", "build_pyramid", "build_shifts"])
def test_catalog_builders_left_the_namespace(name):
    # get_upb is the one door to a catalog set; its builders are CATALOG's own.
    from pptball import upb

    assert name not in pptball.__all__ and name not in dir(pptball)
    with pytest.raises(AttributeError, match=f"'pptball' has no attribute '{name}'"):
        getattr(pptball, name)
    assert not hasattr(upb, name)


def test_certify_left_the_namespace():
    # Certificate(upb, lam) is the one constructor of a certificate.
    from pptball import robustness

    assert "certify" not in pptball.__all__ and "certify" not in dir(pptball)
    with pytest.raises(AttributeError, match="'pptball' has no attribute 'certify'"):
        pptball.certify
    assert not hasattr(robustness, "certify")


@pytest.mark.parametrize("name", ["tiles", "pyramid", "shifts", "complete-2x2"])
def test_catalog_builder_gives_what_get_upb_gives(name):
    built, got = pptball.CATALOG[name](), pptball.get_upb(name)
    assert (built.name, built.structure.local_dims) == (got.name, got.structure.local_dims)
    assert len(built.members) == len(got.members)
    for a, b in zip(built.members, got.members):
        assert all(np.array_equal(u, v) for u, v in zip(a.local_vectors, b.local_vectors))


def test_dir_lists_every_public_name():
    listed = dir(pptball)
    assert set(pptball.__all__) <= set(listed)
    assert "__version__" in listed
    assert len(pptball.__all__) == len(set(pptball.__all__))


def test_version_has_one_home():
    # The package metadata declares its version dynamic and reads it from the
    # attribute that reports stamp; the attribute must exist.
    import tomllib

    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text())
    assert "version" not in config["project"] and config["project"]["dynamic"] == ["version"]
    module, _, name = config["tool"]["setuptools"]["dynamic"]["version"]["attr"].rpartition(".")
    assert (module, name) == ("pptball", "__version__")
    assert isinstance(getattr(importlib.import_module(module), name), str)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'pptball' has no attribute 'no_such_name'"):
        pptball.no_such_name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from pptball import *", namespace)
    assert all(namespace[name] is getattr(pptball, name) for name in pptball.__all__)


def test_submodules_import_by_name():
    from pptball import gridsearch, proof

    assert gridsearch.__name__ == "pptball.gridsearch"
    assert proof.prove_product_minimum is pptball.prove_product_minimum


def test_gridsearch_holds_only_the_benchmark_grid_constants():
    from pptball import gridsearch

    names = {name for name in vars(gridsearch) if not name.startswith("__")}
    assert names == {"THETA_POINTS", "PHI_POINTS", "PAIR_BLOCK_DOUBLES"}
    assert gridsearch.THETA_POINTS == {2: 13, 3: 9}
    assert gridsearch.PHI_POINTS == {2: 16, 3: 12}
    assert gridsearch.PAIR_BLOCK_DOUBLES == 2**17


def test_names_are_not_cached_in_the_package(monkeypatch):
    from pptball import witness

    pptball.minimum_overlap
    assert "minimum_overlap" not in vars(pptball)
    sentinel = object()
    monkeypatch.setattr(witness, "minimum_overlap", sentinel)
    assert pptball.minimum_overlap is sentinel


# The package's layers: the pptball modules each module imports at module
# level ("__init__" is ``from . import``).  The CLI's handlers import what
# they run inside their bodies, which is not a module-level edge.  The
# certificate (robustness) needs no seesaw; only the suites and the CLI's
# handlers reach the witness module's seesaw and streams.
LAYERS = {
    "__init__": set(),
    "operators": set(),
    "gridsearch": set(),
    "upb": {"operators"},
    "proof": {"operators"},
    "witness": {"operators", "upb"},
    "robustness": {"operators", "upb"},
    "montecarlo": {"operators", "robustness", "witness"},
    "cli": {"__init__", "operators", "upb"},
}


def test_module_level_imports_follow_the_layers():
    package = Path(pptball.__file__).resolve().parent
    edges = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        edges[path.stem] = {
            node.module or "__init__"
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
        }
    assert edges == LAYERS


def test_eigvalsh_is_called_by_the_kernel_and_the_proofs_prelude_alone():
    # operators._lowest_eigenvalues is the one smallest-eigenvalue kernel of
    # states, cuts, membership and the proof's cells; proof._prelude needs
    # W's full spectrum.  Each mention of eigvalsh is charged to the function
    # around it, or to "<module>".
    package = Path(pptball.__file__).resolve().parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            named = (getattr(node, "attr", None), getattr(node, "id", None))
            if "eigvalsh" in named or "eigvalsh" in str(getattr(node, "name", "")):
                scope = node
                while scope in parents and not isinstance(scope, ast.FunctionDef):
                    scope = parents[scope]
                callers.add((path.stem, getattr(scope, "name", "<module>")))
    assert callers == {("operators", "_lowest_eigenvalues"), ("proof", "_prelude")}


DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_imports_only_public_names(demo):
    # CI runs the demos; this catches a removed public name in milliseconds.
    tree = ast.parse(demo.read_text(), filename=str(demo))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "pptball"
        for alias in node.names
    ]
    assert imported
    assert sorted(set(imported) - set(pptball.__all__)) == []
