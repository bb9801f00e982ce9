"""numpy, loaded on first use.

The exact commands (`dims`, `basis`, `seq`, `check dim-bounds`,
`widths bounds`, `widths spectrum`), `widths compare-gradings` and
`widths fit` on a CSV written by `widths spectrum` use no floating-point
array, yet `cli` imports every module, and loading numpy costs more than the
rest of the package's start-up together. So the modules that need numpy take it from
here: `numpy` below is the real module if numpy is already in
`sys.modules`; otherwise it is registered there through
`importlib.util.LazyLoader`, and numpy's own initialisation runs on the first
attribute access (`np.anything`, or an `import numpy` elsewhere in the
process), exactly once.

The modules keep their contents and `cli` keeps importing all of them, on
purpose: the benchmark's tracer (`bench/tracer.py`) looks its targets up in
`sys.modules` right after `from cspherelab import cli`, so every traced
module must be imported by `cli`. Handler-local imports of the numeric
modules would break that; deferring numpy inside them does not.
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
    return module


numpy = _deferred("numpy")
