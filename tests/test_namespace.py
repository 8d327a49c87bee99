"""The lazy ``pptball`` namespace: every public name resolves, on demand, to its module's object."""

import importlib

import pytest

import pptball


@pytest.mark.parametrize("name", pptball.__all__)
def test_public_name_is_its_modules_object(name):
    module = importlib.import_module(f"pptball.{pptball._MODULE_OF[name]}")
    obj = getattr(pptball, name)
    assert obj is getattr(module, name)
    # The table names the defining module, not one that imports the name.
    assert getattr(obj, "__module__", module.__name__) == module.__name__


def test_dir_lists_every_public_name():
    listed = dir(pptball)
    assert set(pptball.__all__) <= set(listed)
    assert "__version__" in listed
    assert len(pptball.__all__) == len(set(pptball.__all__))


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
