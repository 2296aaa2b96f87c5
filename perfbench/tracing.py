"""Per-layer tracing from outside the program.

`Tracer` wraps every public function of majmeter in every module namespace
that binds it: `cli` reaches other modules through module attributes,
`asymptotics` finds its kernel through its own globals and `exact_dist`
imports `varphi` and `standard_normal_cdf` by name, so each binding gets its
own wrapper. A timed wrapper records a span (name, parent, duration, self
time); kernel-sized functions are only counted, because timing them would
cost more than they do. Spans are folded into per-(parent, name) edges in
memory as they close.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import Counter

# module -> layer; `errors` does no work and `families` builds partitions
LAYERS = {
    "cli": "cli",
    "partitions": "partitions",
    "families": "partitions",
    "exact_dist": "exact_dist",
    "asymptotics": "asymptotics",
    "tableaux": "tableaux",
}
KERNEL = ("asymptotics.phi", "asymptotics.phi_derivs", "asymptotics.varphi")
# called once per quadrature node, coefficient or atom pair: counted, not
# timed, so their time stays in the self time of their caller
COUNT_ONLY = frozenset(KERNEL + ("asymptotics.standard_normal_cdf",
                                 "asymptotics.psi_integrand"))
# work sizes counted at the same wrappers: key -> (counter, size of one call)
WORK_SIZE = {
    "exact_dist.maj_polynomial": ("coeffs", lambda args, kwargs, result: len(result.coeffs)),
    "tableaux.maj_histogram_mc": (
        "samples", lambda args, kwargs, result: args[1] if len(args) > 1 else kwargs["trials"]),
}
TIMED = (
    "exact_dist.maj_polynomial", "exact_dist.maj_polynomial_float",
    "exact_dist.cumulant_from_polynomial", "exact_dist.exact_cumulant",
    "exact_dist.kolmogorov_distance_to_normal", "exact_dist.tail_probability",
    "asymptotics.ld_estimate", "asymptotics.legendre_star", "asymptotics.lambda_derivs",
    "asymptotics.lambda_omega", "asymptotics.psi_omega", "asymptotics.bochner_check",
    "tableaux.maj_histogram_mc", "tableaux.maj_multiset", "tableaux.rsk",
)
CALLED = (
    "exact_dist.maj_polynomial", "exact_dist.cumulant_from_polynomial",
    "asymptotics.ld_estimate", "asymptotics.legendre_star",
    "asymptotics.lambda_derivs", "asymptotics.lambda_omega",
)
OP_SPAN = "bench.op"


class Tracer:
    def __init__(self, modules):
        self._stack: list[list] = []  # open spans: [name, child seconds, start]
        self.edges: dict[tuple[str, str], list] = {}  # (parent, name) -> [calls, seconds, self seconds]
        self.counts: Counter = Counter()
        self._bindings = []
        for module in modules:
            for attr, obj in vars(module).items():
                home = getattr(obj, "__module__", None) or ""
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or home.split(".")[-1] not in LAYERS or not home.startswith("majmeter.")):
                    continue
                name = f"{home.split('.')[-1]}.{obj.__name__}"
                self._bindings.append((module, attr, obj, self._wrap(name, obj)))

    # -- spans ---------------------------------------------------------

    def _enter(self, name: str):
        self._stack.append([name, 0.0, time.perf_counter()])

    def _exit(self):
        name, children, start = self._stack.pop()
        seconds = time.perf_counter() - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += seconds
        edge = self.edges.setdefault((parent[0] if parent else "", name), [0, 0.0, 0.0])
        edge[0] += 1
        edge[1] += seconds
        edge[2] += seconds - children

    def _wrap(self, name: str, fn):
        counts = self.counts
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def spanned_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    self._enter(name)
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit()
                    yield value
            return spanned_generator

        size = WORK_SIZE.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if size is not None:
                counts[size[0]] += size[1](args, kwargs, result)
            return result
        return spanned

    # -- switching -----------------------------------------------------

    def install(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def begin_op(self):
        self._enter(OP_SPAN)

    def end_op(self):
        self._exit()

    # -- results -------------------------------------------------------

    def per_layer(self, ops: int, traced_times, untraced_times) -> dict[str, float]:
        """Per-op means of every layer metric over `ops` traced ops, plus the
        tracing overhead: traced minus untraced median op time."""
        calls, self_s, total = Counter(), Counter(), Counter()
        for (_, name), (n, seconds, own) in self.edges.items():
            calls[name] += n
            total[name] += seconds
            self_s[name] += own
        metrics = {}
        for layer in dict.fromkeys(LAYERS.values()):
            metrics[f"{layer}.self_s"] = sum(
                own for name, own in self_s.items() if LAYERS.get(name.split(".")[0]) == layer) / ops
        for name in TIMED:
            metrics[f"{name}.self_s"] = self_s[name] / ops
        for name in CALLED:
            metrics[f"{name}.calls"] = calls[name] / ops
        metrics["exact_dist.maj_polynomial.coeffs"] = self.counts["coeffs"] / ops
        metrics["asymptotics.kernel_calls"] = sum(self.counts[k] for k in KERNEL) / ops
        legendre = calls["asymptotics.legendre_star"]
        inner = self.edges.get(("asymptotics.legendre_star", "asymptotics.lambda_derivs"), [0])[0]
        metrics["asymptotics.lambda_derivs_per_legendre"] = inner / legendre if legendre else 0.0
        sampling = total["tableaux.maj_histogram_mc"]
        metrics["tableaux.samples"] = self.counts["samples"] / ops
        metrics["tableaux.samples_per_s"] = self.counts["samples"] / sampling if sampling else 0.0
        metrics["trace.overhead_ms"] = 1e3 * (
            statistics.median(traced_times) - statistics.median(untraced_times))
        return metrics

    def dump(self) -> dict:
        return {
            "edges": [
                {"parent": parent, "name": name, "calls": n, "seconds": seconds, "self_s": own}
                for (parent, name), (n, seconds, own) in sorted(self.edges.items())
            ],
            "counts": dict(self.counts),
        }
