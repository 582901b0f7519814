"""The package's public names: every ``__all__`` entry resolves, and a star import works."""

import importlib
import pkgutil

import pytest

import mailpp

MODULES = sorted(info.name for info in pkgutil.iter_modules(mailpp.__path__))


def test_the_modules_are_found():
    assert {"agents", "autodiff", "encoder", "state", "training", "verify"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"mailpp.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_star_import_binds_the_package_api():
    namespace = {}
    exec("from mailpp import *", namespace)
    for attr in ("train", "evaluate", "fuse_model", "check_fusion_equivalence", "Tensor", "RunConfig"):
        assert namespace[attr] is getattr(mailpp, attr)
