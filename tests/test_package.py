"""The package republishes its modules' public APIs, and nothing else."""

import types

import qcond
from qcond import errors

_STARRED = ("context_stats", "core", "entropy", "instruments", "linalg", "observables", "operations", "rand")


def test_each_starred_module_is_republished_whole():
    for module in (getattr(qcond, name) for name in _STARRED):
        for name in module.__all__:
            assert getattr(qcond, name) is getattr(module, name), (module.__name__, name)


def test_the_package_holds_no_module_helper():
    # A star import republishes only __all__, so no np, annotations or typing name leaks:
    # every public name is a qcond module, a name in a module's __all__ or an error type.
    public = {name: getattr(qcond, name) for name in dir(qcond) if not name.startswith("_")}
    modules = {name for name, value in public.items() if isinstance(value, types.ModuleType)}
    assert all(public[name].__name__ == f"qcond.{name}" for name in modules)
    listed = {n for module in modules for n in getattr(public[module], "__all__", ())}
    error_types = {name for name, value in vars(errors).items() if isinstance(value, type)}
    assert set(public) - modules <= listed | error_types
