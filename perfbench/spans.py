"""Per-layer spans recorded from outside the library.

``Tracer.installed()`` replaces every public function of each ``delvol``
module, in every ``delvol`` namespace that binds it, by a wrapper that records
a span (name, start, end, parent span, op id).  Kernel evaluations are too
many to keep one span each, so the kernel callable is wrapped at construction
(the ``GeneratorKernel`` binding is replaced by a factory) and its calls,
(t, s) pairs and seconds are added to the span that issued them.  Spans stay
in memory; ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import threading
from time import perf_counter

import numpy as np

# layer -> module; `special` only serves step_constant_k1 and the benchmark's
# own oracles, so it gets no layer metrics
LAYERS = ("grid", "quadrature", "gronwall", "volterra", "estimates", "cases", "cli")

# writers whose time and bytes form the cli output layer
OUTPUT_METHODS = (
    ("grid", "GridFunction", "to_csv"),
    ("gronwall", "BoundReport", "to_csv"),
    ("cases", "BlowupReport", "to_csv"),
)

CONVOLUTIONS = frozenset(
    {
        "quadrature.singular_convolution",
        "quadrature.delayed_singular_convolution",
        "quadrature.delayed_product_convolution",
    }
)

# name, start, end, parent index, op id, kappa calls, kappa pairs, kappa seconds
NAME, START, END, PARENT, OP, KCALLS, KPAIRS, KSECS = range(8)


class _TimedFile:
    """File handle whose open-to-close interval is an output span."""

    def __init__(self, tracer, fh):
        self._tracer, self._fh = tracer, fh
        self._rec = tracer.open_span("output.open")

    def write(self, text):
        return self._fh.write(text)

    def close(self):
        try:
            self._fh.close()
        finally:
            self._tracer.close_span(self._rec)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._main = self._stack()
        self._patches: list[tuple] = []
        self._lock = threading.Lock()
        self.bindings: dict[str, list[str]] = {}

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self, stack) -> int:
        # a pool worker starts with an empty stack; its work was caused by
        # whatever the main thread is inside
        if stack:
            return stack[-1]
        return self._main[-1] if self._main else -1

    def open_span(self, name: str) -> list:
        stack = self._stack()
        rec = [name, perf_counter(), 0.0, self._current(stack), self.op, 0, 0, 0.0]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(rec)
        return rec

    def close_span(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self.open_span(name)
        try:
            yield rec
        finally:
            self.close_span(rec)

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer.open_span(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close_span(rec)

        return traced

    def counted_kappa(self, kappa):
        local, main, spans = self._local, self._main, self.spans

        def kappa_traced(t, s, *rest):
            t0 = perf_counter()
            out = kappa(t, s, *rest)
            t1 = perf_counter()
            stack = getattr(local, "stack", None) or main
            if stack:
                rec = spans[stack[-1]]
                rec[KCALLS] += 1
                rec[KPAIRS] += s.size if isinstance(s, np.ndarray) else np.size(s)
                rec[KSECS] += t1 - t0
            return out

        return kappa_traced

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap each public function in every delvol namespace binding it."""
        import delvol
        import delvol.cli  # noqa: F401  (not imported by the package itself)

        namespaces = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "delvol" or name.startswith("delvol.")
        ]
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"delvol.{layer}"]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj):
                    targets[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        real_kernel = sys.modules["delvol.volterra"].GeneratorKernel

        def kernel_factory(kappa, *args, **kwargs):
            return real_kernel(self.counted_kappa(kappa), *args, **kwargs)

        targets[id(real_kernel)] = (real_kernel, kernel_factory)
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
                    self.bindings.setdefault(getattr(obj, "__name__", attr), []).append(
                        f"{mod.__name__}.{attr}"
                    )
        for layer, cls_name, meth in OUTPUT_METHODS:
            cls = getattr(sys.modules[f"delvol.{layer}"], cls_name)
            self._patch(cls, meth, self.wrap(f"output.{cls_name}.{meth}", getattr(cls, meth)))
        # the cli writes its text reports with the builtin open
        self._patch_open(sys.modules["delvol.cli"])

    def _patch_open(self, mod) -> None:
        tracer = self
        real_open = open

        def traced_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return _TimedFile(tracer, fh) if "w" in mode else fh

        self._patches.append((mod, "open", None))
        mod.open = traced_open

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reduction ----------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op means of the layer metrics over the traced spans."""
        spans = self.spans
        children: dict[int, list[int]] = {}
        for i, rec in enumerate(spans):
            children.setdefault(rec[PARENT], []).append(i)

        def ancestors(i):
            p = spans[i][PARENT]
            while p >= 0:
                yield spans[p][NAME]
                p = spans[p][PARENT]

        def self_time(i):
            rec = spans[i]
            ivals = sorted((spans[c][START], spans[c][END]) for c in children.get(i, ()))
            covered, lo, hi = 0.0, None, None
            for a, b in ivals:
                if hi is None or a > hi:
                    if hi is not None:
                        covered += hi - lo
                    lo, hi = a, b
                else:
                    hi = max(hi, b)
            if hi is not None:
                covered += hi - lo
            return rec[END] - rec[START] - covered - rec[KSECS]

        def named(name):
            return [i for i, r in enumerate(spans) if r[NAME] == name]

        def outer(pred):
            return [
                i for i, r in enumerate(spans)
                if pred(r[NAME]) and not any(pred(a) for a in ancestors(i))
            ]

        def dur(idx):
            return sum(spans[i][END] - spans[i][START] for i in idx)

        kcalls = sum(r[KCALLS] for r in spans)
        kpairs = sum(r[KPAIRS] for r in spans)
        picard = named("volterra.picard_solve")
        certify = named("gronwall.certify")
        convs = outer(lambda n: n in CONVOLUTIONS)
        checks = named("estimates.young_check") + named("estimates.corollary_check")
        output = outer(lambda n: n.startswith("output."))
        lp = named("grid.lp_norm")
        m = {
            "volterra.kappa_calls": kcalls,
            "volterra.kappa_pairs": kpairs,
            "volterra.kappa_s": sum(r[KSECS] for r in spans),
            "volterra.picard_s": dur(picard),
            "volterra.picard_self_s": sum(self_time(i) for i in picard),
            "volterra.residual_s": dur(named("volterra.fixed_point_residual")),
            "volterra.stability_s": dur(named("volterra.stability_check")),
            "gronwall.certify_s": dur(certify),
            "gronwall.certify_self_s": sum(self_time(i) for i in certify),
            "gronwall.oracle_s": dur(named("gronwall.resolvent_majorant")),
            "gronwall.oracle_convs": sum(
                1 for i in convs if "gronwall.resolvent_majorant" in ancestors(i)
            ),
            "gronwall.theta_n_s": dur(named("gronwall.theta_n")),
            "quadrature.weights_builds": len(named("quadrature.build_singular_weights")),
            "quadrature.weights_s": dur(named("quadrature.build_singular_weights")),
            "quadrature.convs": len(convs),
            "quadrature.conv_s": dur(convs),
            "cases.blowup_s": dur(named("cases.blowup_diagnostic")),
            "cases.blowup_solves": sum(
                1 for i in picard if "cases.blowup_diagnostic" in ancestors(i)
            ),
            "estimates.checks": len(checks),
            "estimates.check_s": dur(checks),
            "grid.lp_norm_calls": len(lp),
            "grid.lp_norm_s": dur(lp),
            "cli.example414_s": dur(named("cli.example414")),
            "cli.verify_s": dur(named("cli.verify")),
            "cli.solve_s": dur(named("cli.solve")),
            "cli.estimates_s": dur(named("cli.estimates")),
            "cli.output_s": dur(output),
            "cli.output_bytes": self.counters.get("cli.output_bytes", 0.0),
        }
        out = {k: v / ops for k, v in m.items()}
        out["volterra.pairs_per_call"] = kpairs / kcalls if kcalls else 0.0
        return out

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "kappa_calls", "kappa_pairs", "kappa_s")
        with open(path, "w") as fh:
            json.dump(
                {
                    "bindings": self.bindings,
                    "counters": self.counters,
                    "spans": [dict(zip(keys, rec)) for rec in self.spans],
                },
                fh,
            )
