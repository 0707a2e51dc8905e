import importlib
import inspect
import pkgutil

import spinphase


def test_every_all_entry_is_an_attribute_of_its_module():
    # A stale name in __all__ breaks ``from spinphase.<module> import *``.
    names = [spinphase.__name__] + [f"{spinphase.__name__}.{info.name}"
                                    for info in pkgutil.iter_modules(spinphase.__path__)]
    checked = 0
    for name in names:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        missing = [entry for entry in exported if not hasattr(module, entry)]
        assert not missing, f"{name}.__all__ lists missing names {missing}"
        checked += 1
    assert checked >= 8


def test_every_package_export_is_in_the_all_of_its_defining_module():
    # A name removed from its module's __all__ must not linger as a re-export.
    checked = 0
    for name, obj in vars(spinphase).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        home = importlib.import_module(obj.__module__)
        assert name in getattr(home, "__all__", ()), \
            f"spinphase.{name} is not in {obj.__module__}.__all__"
        checked += 1
    assert checked >= 30
