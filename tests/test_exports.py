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
