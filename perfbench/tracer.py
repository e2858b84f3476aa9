"""Span recorder and call counters installed from outside the program.

Nothing in ``src/derham`` knows about tracing.  The traced run replaces
functions and methods of the already-imported ``derham`` modules with thin
wrappers: span wrappers time a call and attribute it to a layer, counting
wrappers count calls.  Spans nest; a span's self time is its duration minus
the time covered by the spans it caused.  Spans are kept in memory,
aggregated by name, and written out once at the end.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from contextlib import contextmanager

# An operator entry counts as nonzero above this share of the largest one.
NNZ_RTOL = 1e-12

# FormPolynomial methods whose call counts are reported as layer metrics.
FORMS_COUNTERS = {
    "restrict": "forms.restrict_calls",
    "wedge": "forms.wedge_calls",
    "integrate": "forms.integrate_calls",
    "integrate_scalar": "forms.integrate_calls",
    "exterior_derivative": "forms.d_calls",
}


class Tracer:
    def __init__(self):
        self.spans = {}     # name -> {"total_s", "self_s", "calls", "parents"}
        self.counts = {}    # name -> int
        self._stack = []    # [name, time covered by child spans]

    @contextmanager
    def span(self, name):
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([name, 0.0])
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            _, child = self._stack.pop()
            if self._stack:
                self._stack[-1][1] += duration
            rec = self.spans.setdefault(
                name, {"total_s": 0.0, "self_s": 0.0, "calls": 0, "parents": {}})
            rec["total_s"] += duration
            rec["self_s"] += duration - child
            rec["calls"] += 1
            key = parent or "-"
            rec["parents"][key] = rec["parents"].get(key, 0) + 1

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def to_json(self):
        return {"spans": self.spans, "counts": self.counts}

    # -- wrappers ----------------------------------------------------------------
    def spanned(self, name, fn, after=None):
        """``fn`` wrapped in a span.  ``after(result, args)`` adds counts; it
        runs only for the outermost of nested spans of the same name, so a
        wrapped function calling another one of its layer counts once."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = not self._stack or self._stack[-1][0] != name
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None and outermost:
                after(result, args)
            return result
        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper


def replace_function(module, attr, wrapper):
    """Install ``wrapper`` for ``module.attr`` in every loaded derham module
    that imported the same function object by name."""
    original = getattr(module, attr)
    for name, mod in list(sys.modules.items()):
        if (name == "derham" or name.startswith("derham.")) and \
                getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def install_counters(tracer):
    """Count calls to the public methods of ``FormPolynomial`` (as
    ``forms.<method>``), to ``apply`` of every ``DoF`` subclass (as
    ``elements.apply.<class>``) and to ``BGGContext.__init__``."""
    from derham import bgg, elements, forms

    for attr, value in list(vars(forms.FormPolynomial).items()):
        if attr.startswith("_") or not callable(value) or \
                isinstance(value, (classmethod, staticmethod)):
            continue
        setattr(forms.FormPolynomial, attr, tracer.counted(f"forms.{attr}", value))
    for cls in _subclasses(elements.DoF):
        if "apply" in vars(cls):
            setattr(cls, "apply", tracer.counted(f"elements.apply.{cls.__name__}",
                                                 vars(cls)["apply"]))
    bgg.BGGContext.__init__ = tracer.counted("bgg.context_builds",
                                             bgg.BGGContext.__init__)


def layer_counts(counts):
    """The per-layer call counts reported as metrics, from raw counters."""
    out = {name: 0 for name in set(FORMS_COUNTERS.values())}
    for method, name in FORMS_COUNTERS.items():
        out[name] += counts.get(f"forms.{method}", 0)
    out["elements.dof_apply_calls"] = sum(
        v for k, v in counts.items() if k.startswith("elements.apply."))
    return out


def install_spans(tracer):
    """Attribute calls into the program's layers to spans named by module.

    ``mesh.build`` is not installed here: the in-process worker opens it
    around its own mesh construction, the CLI entry around mesh loading.
    """
    from derham import assembly, bgg, elements

    computed = weakref.WeakKeyDictionary()   # space -> cells already built

    def space_dofs(space, args):
        tracer.add("assembly.space_dofs", space.dim)

    def local_entries(mat, args):
        space, ci = args[0], args[1]
        done = computed.setdefault(space, set())
        if ci not in done:
            done.add(ci)
            tracer.add("elements.local_entries", mat.size)

    def operator_size(op, args):
        # entries that cancel in floating point come out as ~1e-17, and which
        # ones do depends on the coordinates; count only those above that
        mag = abs(op.array)
        tracer.add("assembly.operator_entries", op.array.size)
        tracer.add("assembly.operator_nnz",
                   int((mag > NNZ_RTOL * mag.max()).sum()) if op.array.size else 0)

    def rank_call(rank, args):
        tracer.add("assembly.rank_calls")

    for module, attr, span, after in [
            (assembly, "assemble_space", "assembly.space", space_dofs),
            (assembly, "assemble_d", "assembly.operator", operator_size),
            (assembly, "assemble_local_operator", "assembly.operator", operator_size),
            (assembly, "rank_of", "assembly.rank", rank_call),
            (assembly, "complex_residual", "assembly.dd", None),
            (elements, "unisolvence_check", "elements.unisolvence", None),
            (bgg, "verify_bgg_identity", "bgg.identity", None),
            (bgg, "xi_complex", "bgg.xi", None),
            (bgg, "huzhang_stress", "bgg.stress", None)]:
        replace_function(module, attr,
                         tracer.spanned(span, getattr(module, attr), after))

    space_cls = assembly.GlobalSpace
    space_cls.local_matrix = tracer.spanned("elements.local", space_cls.local_matrix,
                                            local_entries)
    space_cls.dual_coeffs = tracer.spanned("elements.dual", space_cls.dual_coeffs)
