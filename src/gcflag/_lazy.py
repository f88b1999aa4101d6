"""numpy, imported on its first attribute access.

`gc polytope` and `gc potential` are exact and never touch numpy, whose
import costs more than either command.  Once loaded, the module is plain
numpy (importlib.util.LazyLoader), so calls pay no extra lookup.
"""

import importlib.util
import sys

numpy = sys.modules.get("numpy")
if numpy is None:
    spec = importlib.util.find_spec("numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    numpy = sys.modules["numpy"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(numpy)
