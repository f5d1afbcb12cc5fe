"""Dropping the package and importing it again must free the old copy.

A typing subscription such as ``Tuple[JordanBlock, int]`` at import time
puts the class in typing's global cache, which then keeps the old module
(through its functions' globals) and everything it imports alive."""

import gc
import importlib
import sys
import weakref


def _purge():
    return {name: sys.modules.pop(name) for name in list(sys.modules)
            if name == "arthurcalc" or name.startswith("arthurcalc.")}


def _import_all():
    importlib.import_module("arthurcalc.cli")
    importlib.import_module("arthurcalc.testing")
    return importlib.import_module("arthurcalc.params")


def test_reimport_frees_the_old_package():
    original = _purge()
    try:
        old = weakref.ref(_import_all().JordanBlock)
        _purge()
        _import_all()
        gc.collect()
        assert old() is None
    finally:
        _purge()
        sys.modules.update(original)
