"""Traced launcher: one `cspherelab` command with spans around its layers.

    python3 bench/tracer.py TRACE_JSON CLI_ARGS...

runs `cspherelab CLI_ARGS...` in this process, as `cspherelab.cli.run`
would, after wrapping the public functions named in TARGETS in every
`cspherelab` module namespace that holds them (so `build_basis` is wrapped
in both `basis` and `levy`). The program's files are not changed. Spans
(name, start, end, parent) and counts stay in memory and are written to
TRACE_JSON when the command ends; stdout and the exit code are the
command's own. A target that no longer exists stops the launcher with exit
code MISSING_TARGET_EXIT before the command runs, so a rename can never
silently zero a layer.
"""

import functools
import json
import sys
import time

MISSING_TARGET_EXIT = 97

# (module, attribute path, metric prefix, kind). "span" records a span per
# outermost call; "count" only counts calls, for functions called too often
# for a span each.
TARGETS = (
    ("basis", "build_basis", "basis.build_basis", "span"),
    ("basis", "monomial_inner", "basis.monomial_inner", "count"),
    ("basis", "MonomialPoly.inner", "basis.MonomialPoly.inner", "count"),
    ("basis", "MonomialPoly.eval", "basis.MonomialPoly.eval", "span"),
    ("basis", "HarmonicBasis.eval_orthonormal", "basis.HarmonicBasis.eval_orthonormal", "span"),
    ("basis", "verify_addition", "basis.verify_addition", "span"),
    ("basis", "verify_gegenbauer", "basis.verify_gegenbauer", "span"),
    ("basis", "project_mc", "basis.project_mc", "span"),
    ("levy", "build_real_system", "levy.build_real_system", "span"),
    ("levy", "RealCoordinateSystem.eval_matrix", "levy.RealCoordinateSystem.eval_matrix", "span"),
    ("levy", "levy_mean_mc", "levy.levy_mean_mc", "span"),
    ("levy", "nikolskii_check", "levy.nikolskii_check", "span"),
    ("sphere", "sample_points", "sphere.sample_points", "span"),
    ("polynomials", "disk_poly_eval", "polynomials.disk_poly_eval", "span"),
    ("polynomials", "gegenbauer_eval", "polynomials.gegenbauer_eval", "span"),
    ("multipliers", "build_level_sequence", "multipliers.build_level_sequence", "span"),
    ("multipliers", "lambda_value", "multipliers.lambda_value", "count"),
    ("multipliers", "plan_beta", "multipliers.plan_beta", "span"),
    ("dimensions", "layer", "dimensions.layer", "span"),
    ("dimensions", "check_dim_bounds", "dimensions.check_dim_bounds", "span"),
    ("widths", "l2_width_table", "widths.l2_width_table", "span"),
    ("widths", "WidthTable.values", "widths.WidthTable.values", "span"),
    ("widths", "table_from_values", "widths.table_from_values", "span"),
    ("widths", "fit_power", "widths.fit", "span"),
    ("widths", "fit_stretched", "widths.fit", "span"),
    ("widths", "grading_compare", "widths.grading_compare", "span"),
    ("report", "dumps", "report.dumps", "span"),
    ("report", "csv_lines", "report.csv_lines", "span"),
    ("report", "write_output", "report.write_output", "span"),
)

# lru-cached targets whose cache_info() misses are recorded.
CACHED = ("basis.build_basis",)


class MissingTarget(Exception):
    """A function named in TARGETS is not in the package any more."""


def _term_points(tracer, args, kwargs, result):
    # Sum of terms x points: the work of one sparse polynomial evaluation.
    size = getattr(result, "size", 1)
    return "basis.MonomialPoly.eval.term_points", len(args[0].terms) * size


def _points(tracer, args, kwargs, result):
    return "sphere.sample_points.points", len(result)


def _bytes_out(tracer, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return "report.bytes_out", len(text.encode("utf-8")) + (0 if text.endswith("\n") else 1)


def _matmul_flops(tracer, args, kwargs, result):
    # Computed, not measured: 2 * S * Omega * s for the (S x s) @ (s x Omega)
    # products; 0 on the exact p = 2 path, which has no point cloud.
    prob = args[0] if args else kwargs["prob"]
    s = tracer.originals["levy.build_real_system"](prob.d, prob.m1, prob.m2).s
    return "levy.levy_mean_mc.matmul_flops", 2 * result.sphere_samples * result.omega_samples * s


# Extra counters, computed from a call's arguments and result.
HOOKS = {
    "basis.MonomialPoly.eval": _term_points,
    "sphere.sample_points": _points,
    "report.write_output": _bytes_out,
    "levy.levy_mean_mc": _matmul_flops,
}


def resolve_targets():
    """(metric, kind, owner, attribute, original) per target; MissingTarget if one is gone."""
    out = []
    for module, path, metric, kind in TARGETS:
        owner = sys.modules.get(f"cspherelab.{module}")
        *outer, attr = path.split(".")
        try:
            for part in outer:
                owner = getattr(owner, part)
            out.append((metric, kind, owner, attr, getattr(owner, attr)))
        except AttributeError:
            raise MissingTarget(f"cspherelab.{module}.{path}") from None
    return out


class Tracer:
    """In-memory spans and counts of one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self.originals = {}
        self._stack = []
        self._open = set()

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name, fn, *args, **kwargs):
        if name in self._open:  # a recursive call stays inside the outer span
            return fn(*args, **kwargs)
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self._open.add(name)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            self._open.discard(name)

    def _wrapper(self, metric, kind, original):
        hook = HOOKS.get(metric)
        if kind == "count":
            @functools.wraps(original)
            def counted(*args, **kwargs):
                self.count(metric + ".calls")
                return original(*args, **kwargs)
            return counted

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            result = self.span(metric, original, *args, **kwargs)
            if hook is not None:
                self.count(*hook(self, args, kwargs, result))
            return result
        return spanned

    def install(self):
        """Wrap every target wherever the package holds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "cspherelab" or name.startswith("cspherelab.")]
        for metric, kind, owner, attr, original in resolve_targets():
            self.originals[metric] = original
            wrapper = self._wrapper(metric, kind, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)

    def write(self, path, import_s):
        for metric in CACHED:
            self.counts[metric + ".misses"] = self.originals[metric].cache_info().misses
        doc = {"import_s": import_s, "spans": self.spans, "counts": self.counts}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def summarize(doc):
    """Flat metrics of one traced process: NAME.s, NAME.self_s, counts, cli.import_s."""
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = dict(doc["counts"])
    out["cli.import_s"] = doc["import_s"]
    for (name, start, end, _), inner in zip(spans, child):
        out[name + ".s"] = out.get(name + ".s", 0.0) + (end - start)
        out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + (end - start - inner)
    return out


def main(argv):
    trace_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    from cspherelab import cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    try:
        tracer.install()
    except MissingTarget as exc:
        print(f"tracer: traced target {exc} no longer exists", file=sys.stderr)
        return MISSING_TARGET_EXIT
    try:
        return tracer.span("cli.run", cli.run, cli_args)
    finally:
        tracer.write(trace_path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
