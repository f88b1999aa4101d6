"""Modules registered in sys.modules and run on their first attribute access.

A `gc` command runs only part of the pipeline: `gc polytope` never calls
the potential, system, degeneration or Toda layers, and neither it nor
`gc potential` calls numpy, whose import costs more than either command.
The package registers every layer module through lazy(), and the layers
bind numpy through it.  Once run, the module is a plain module
(importlib.util.LazyLoader), so calls pay no extra lookup.
"""

import importlib.util
import sys


def lazy(name):
    """sys.modules[name], registered without running it if not yet imported."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        # as importlib leaves it after a plain import: without it, each
        # `from .layer import f` run inside a function fails a lookup
        spec._initializing = False
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module
