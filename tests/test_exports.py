"""The package's public surface: what ``bootbayes`` re-exports, each defining
module lists in its ``__all__``."""

import inspect
import sys

import bootbayes


def test_every_reexported_function_and_class_is_in_its_module_all():
    unlisted, seen = [], 0
    for name in bootbayes.__all__:
        obj = getattr(bootbayes, name)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        module = sys.modules[obj.__module__]
        if module is bootbayes or not module.__name__.startswith("bootbayes."):
            continue
        seen += 1
        if name not in getattr(module, "__all__", ()):
            unlisted.append(f"{module.__name__}.{name}")
    assert seen >= 40  # the package's exports were found
    assert not unlisted, f"re-exported but missing from __all__: {unlisted}"


def test_every_submodule_all_entry_resolves():
    # a traced benchmark run looks up each __all__ name with getattr, so a
    # name deleted from its module but left listed would crash it
    missing, seen = [], 0
    for name in sorted(sys.modules):
        if not name.startswith("bootbayes."):
            continue
        listed = getattr(sys.modules[name], "__all__", None)
        if listed is None:
            continue
        seen += 1
        missing += [f"{name}.{entry}" for entry in listed
                    if not hasattr(sys.modules[name], entry)]
    assert seen >= 9  # every module that declares __all__ was checked
    assert "os" not in bootbayes.__all__  # the package's own imports stay private
    assert not missing, f"listed in __all__ but undefined: {missing}"
