"""Modules loaded on first use: numpy and the package's own modules.

Every command uses a few of the package's modules, and some use no
floating-point array at all: the exact commands (`dims`, `basis`, `seq`,
`check dim-bounds`, `widths bounds`, `widths spectrum`),
`widths compare-gradings`, `widths fit` on a CSV written by
`widths spectrum`, and `levy --p 2 --omega-samples 0`. Loading numpy
costs more than the rest of the package's start-up together, and where no
bytecode cache is written every module a process loads is compiled from
source. So a module is registered here with
_deferred and runs only when it is first used: `_deferred(name)` returns the
real module if `name` is already in `sys.modules`; otherwise it puts a
`importlib.util.LazyLoader` module there (and on its parent package), and
the module's own code runs on the first attribute access (`mod.anything`, or
an `import` of it elsewhere in the process), exactly once.

The modules that need numpy take it from here as `numpy`. `cli` registers
all eight of the package's other modules (`basis`, `dimensions`, `levy`,
`multipliers`, `polynomials`, `report`, `sphere`, `widths`), not only the
ones its handlers name: the benchmark's tracer (`bench/tracer.py`) lists the
package's modules in `sys.modules` right after `from cspherelab import cli`
and then looks its targets up in them, which runs each one. A
handler-local import would leave a module out of that list; a registered
module that no command has touched yet does not.
"""

import importlib.util
import sys


def _deferred(name):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module


numpy = _deferred("numpy")
