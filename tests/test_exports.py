import importlib
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
