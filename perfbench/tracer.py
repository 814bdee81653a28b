"""Outside-in tracing of the pklab layers.

The tracer wraps public functions and methods of the ``pklab`` modules
from the outside: nothing under ``src/`` is edited.  Two kinds of probe:

* counters, for jet-level methods that run about a million times per pass
  (a span there would cost more than the work it measures);
* spans, at the coarser functions.  Spans nest; a span's self time is its
  duration minus the time covered by its child spans, whatever their layer.

A function is patched in every ``pklab`` module namespace that holds it,
so ``from .curvature import riemann`` call sites are traced as well.
Per-check suite time comes from the suite dispatch table
``pklab.suites._SUITES``.  A probe whose target no longer exists, or a
wildcard that matches nothing, makes installation raise ``ProbeError``,
and reading a figure that no probe collects raises ``KeyError``: a layer
that moved must be traced anew, not read as 0.
"""

from __future__ import annotations

import sys
from time import perf_counter

# Counter-only probes: (module, attribute path, counter name).
COUNTERS = (
    ("pklab.jets", "Jet.__mul__", "jets.jet_mul_calls"),
    ("pklab.jets", "Jet.__rmul__", "jets.jet_mul_calls"),
    *(("pklab.jets", f"Jet.{m}", "jets.jet_elementary_calls")
      for m in ("exp", "log", "sqrt", "pow", "sin", "cos", "reciprocal")),
    ("pklab.jets", "Jet.derivative", "jets.jet_derivative_calls"),
    ("pklab.jets", "DualBatch.__mul__", "jets.dual_mul_calls"),
    ("pklab.jets", "DualBatch.__rmul__", "jets.dual_mul_calls"),
    ("pklab.linalg", "mmul", "linalg.mmul_calls"),
    ("pklab.linalg", "mdet", "linalg.mdet_calls"),
)

# Span probes: (module, attribute path). The layer is the module's last part.
SPANS = (
    ("pklab.linalg", "minv"),
    ("pklab.fields", "TensorField.components"),
    ("pklab.fields", "TensorField.jets"),
    ("pklab.fields", "TensorField.values"),
    ("pklab.fields", "TensorField.batch_duals"),
    ("pklab.fields", "TensorField.batch_values"),
    ("pklab.fields", "ScalarField.jet"),
    *(("pklab.fields", f) for f in (
        "tensor_values_and_partials", "metric_inverse", "metric_inverse_jets",
        "gradient", "lie_derivative_metric", "lie_derivative_endo", "lie_bracket",
        "exterior_derivative_2form", "nijenhuis",
    )),
    ("pklab.curvature", "*"),
    ("pklab.projective", "*"),
    ("pklab.parakahler", "*"),
    ("pklab.catalog", "build_*"),
    ("pklab.exprs", "compile_profile"),
    ("pklab.curves", "*"),
    ("pklab.report", "VerificationReport.to_json"),
)


class ProbeError(LookupError):
    """A probe target is gone from pklab."""


def _resolve(module: str, attr: str):
    """(owner object, attribute name) for an 'attr' or 'Class.attr' path.

    The attribute must be defined on the owner itself, not inherited, so
    that patching it reaches every call.
    """
    try:
        owner = sys.modules[module]
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
    except (KeyError, AttributeError):
        raise ProbeError(f"no probe target {module}.{attr}") from None
    if name not in vars(owner):
        raise ProbeError(f"no probe target {module}.{attr}")
    return owner, name


def _expand(module: str, pattern: str) -> list[str]:
    """Public functions of a module matching '*', 'prefix_*' or one name."""
    if not pattern.endswith("*"):
        return [pattern]
    mod = sys.modules.get(module)
    prefix = pattern[:-1]
    names = [
        n for n in getattr(mod, "__all__", ())
        if n.startswith(prefix)
        and callable(getattr(mod, n))
        and not isinstance(getattr(mod, n), type)
        and getattr(getattr(mod, n), "__module__", None) == module
    ]
    if not names:
        raise ProbeError(f"{module}.{pattern} matches no public function")
    return names


class Tracer:
    """Counters and nested spans over the pklab modules, in memory.

    Use as a context manager: probes are installed on entry and the
    original functions restored on exit.  ``reset`` clears the figures
    between passes.
    """

    def __init__(self):
        self.counts: dict[str, int] = {}
        # span name -> [calls, inclusive seconds, self seconds]
        self.spans: dict[str, list] = {}
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for k in self.counts:
            self.counts[k] = 0
        for rec in self.spans.values():
            rec[:] = [0, 0.0, 0.0]

    # -- wrappers --------------------------------------------------------

    def _counter(self, fn, name):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn, name, rows_counter=None):
        """Wrap fn in a span; rows_counter adds len(points) for (obj, points, ...) calls."""
        stack, depth = self._stack, self._depth
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        depth.setdefault(name, 0)
        counts = self.counts
        if rows_counter:
            counts.setdefault(rows_counter, 0)

        def spanned(*args, **kwargs):
            if rows_counter:
                counts[rows_counter] += len(args[1])
            child = [0.0]
            stack.append(child)
            depth[name] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                depth[name] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += d
                rec[0] += 1
                rec[2] += d - child[0]
                if depth[name] == 0:  # inclusive time counts the outermost call only
                    rec[1] += d

        return spanned

    # -- installation ----------------------------------------------------

    def _patch_everywhere(self, owner, attr, wrapper) -> None:
        """Replace owner.attr and every pklab module global bound to it."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for name, mod in list(sys.modules.items()):
            if name.startswith("pklab.") and mod is not owner:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        # Jet.__rmul__ is Jet.__mul__: both attributes get their own wrapper,
        # and each call passes through exactly one of them
        for module, attr, counter in COUNTERS:
            owner, name = _resolve(module, attr)
            self._patch_everywhere(owner, name, self._counter(vars(owner)[name], counter))
        for module, pattern in SPANS:
            layer = module.rsplit(".", 1)[1]
            for attr in _expand(module, pattern):
                owner, name = _resolve(module, attr)
                span_name = f"{layer}.{name}"
                rows = f"{span_name}_rows" if name in ("batch_duals", "christoffel_batch") else None
                self._patch_everywhere(owner, name, self._span(vars(owner)[name], span_name, rows))
        owner, name = _resolve("pklab.suites", "_SUITES")
        table = vars(owner)[name]
        for check, fn in list(table.items()):
            self._patches.append((table, check, fn))
            table[check] = self._span(fn, f"suites.{check}")

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- read-out ----------------------------------------------------------

    def calls(self, span: str) -> int:
        return self.spans[span][0]

    def inclusive_s(self, span: str) -> float:
        return self.spans[span][1]

    def layer_self_s(self, layer: str) -> float:
        recs = [rec for name, rec in self.spans.items() if name.startswith(layer + ".")]
        if not recs:
            raise KeyError(f"no span of layer {layer}")
        return sum(rec[2] for rec in recs)
