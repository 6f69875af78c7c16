"""Span tracer that wraps monalg's public functions at run time.

Installing a Tracer replaces every function named in a layer module's
``__all__`` (for ``cli``, which has no ``__all__``, its public functions) by
a wrapper that records one span per call, in every ``monalg`` namespace that
binds the function.  Public classes get their ``__init__`` wrapped, so object
construction is attributed to the class's layer.  The field callables
returned by the ``*_field`` factories are wrapped too, so field evaluation
inside ``curvilinear_integral`` shows under the layer whose code it runs.

Private helpers called across modules (``_recurrences``,
``_zeta_inverse_batch``, ``_mul_coeffs``, ...) are not wrapped: their time
counts towards the calling layer.  Spans inside the program are out of scope.

Stacks are per thread, because ``verify-all`` runs a thread pool; a span
started on a pool thread has no parent.  Spans are kept in memory and
written out by ``write``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time

import numpy as np

LAYERS = ("algebra", "geometry", "resolvent", "integration", "monogenic",
          "lambda_const", "fixtures", "cli")

# Layer whose code a factory's field runs when it is evaluated.
FIELD_LAYERS = {
    "constant_field": "algebra",
    "zeta_field": "geometry",
    "zeta_power_field": "algebra",
    "zeta_inverse_field": "resolvent",
    "shifted_zeta_inverse_field": "resolvent",
    "representation_field": "monogenic",
}

ATTRIBUTION_NOTE = (
    "spans wrap public monalg functions and class constructors from outside the "
    "program; private helpers called across modules (_recurrences, "
    "_zeta_inverse_batch, _mul_coeffs, _xi_batch, ...) count towards their "
    "caller's layer; field callables count towards the layer whose code they run "
    "(" + ", ".join(f"{k}: {v}" for k, v in FIELD_LAYERS.items()) + ")"
)

# span record slots
NAME, LAYER, START, END, PARENT, TID, CPU, CHILD_WALL, CHILD_CPU, ERROR, WORK = range(11)


def _npoints(p) -> int:
    shape = np.shape(p)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _series(mspec, frame) -> int:
    """Moment series one representation evaluation integrates per point."""
    return frame.spec.m * (1 + len(mspec.G))


WORK_COUNTS = ("resolvent.points", "integration.nodes", "lambda_const.loop_nodes",
               "monogenic.points", "monogenic.point_nodes", "algebra.solves", "fixtures.loads")

WORK_FUNCTIONS = frozenset((
    "invert_direct", "load_fixture", "zeta_inverse_closed", "resolvent_at", "compute_coeffs",
    "curvilinear_integral", "lambda_numeric", "eval_representation"))


def _work(name: str, args: inspect.BoundArguments) -> tuple:
    """(counter, amount) pairs for the work a call is asked to do."""
    a = args.arguments
    if name == "invert_direct":
        return (("algebra.solves", 1),)
    if name == "load_fixture":
        return (("fixtures.loads", 1),)
    if name in ("zeta_inverse_closed", "resolvent_at", "compute_coeffs"):
        return (("resolvent.points", _npoints(a["p"])),)
    if name == "curvilinear_integral":
        return (("integration.nodes", len(a["curve"].points)),)
    if name == "lambda_numeric":
        return (("lambda_const.loop_nodes", len(a["circle"].points) - 1),)
    if name == "eval_representation":
        n = _npoints(a["p"])
        nodes = a.get("nodes", 1024)
        return (("monogenic.points", n),
                ("monogenic.point_nodes", n * nodes * _series(a["mspec"], a["frame"])))
    return ()


class Tracer:
    """Records spans for calls into monalg while installed."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.main_tid = threading.get_ident()
        self._local = threading.local()
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, fn, name: str, layer: str, work=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            rec = [name, layer, 0, 0, parent, threading.get_ident(), 0, 0, 0, None,
                   work(args, kwargs) if work else ()]
            stack.append(rec)
            t0 = time.perf_counter_ns()
            c0 = time.thread_time_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                cpu = time.thread_time_ns() - c0
                t1 = time.perf_counter_ns()
                stack.pop()
                rec[START], rec[END], rec[CPU] = t0, t1, cpu
                if parent is not None:
                    parent[CHILD_WALL] += t1 - t0
                    parent[CHILD_CPU] += cpu
                tracer.spans.append(rec)

        return wrapper

    def _function_wrapper(self, fn, name: str, layer: str):
        sig = inspect.signature(fn)

        def work(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return _work(name, bound)

        wrapped = self._span(fn, name, layer, work if name in WORK_FUNCTIONS else None)
        if name not in FIELD_LAYERS:
            return wrapped
        field_layer = FIELD_LAYERS[name]
        tracer = self

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            field = wrapped(*args, **kwargs)
            if name == "representation_field":
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                per_point = bound.arguments["nodes"] * _series(
                    bound.arguments["mspec"], bound.arguments["frame"])

                def field_work(fargs, _kw):
                    n = _npoints(fargs[0])
                    return (("monogenic.points", n), ("monogenic.point_nodes", n * per_point))
            elif field_layer == "resolvent":
                def field_work(fargs, _kw):
                    return (("resolvent.points", _npoints(fargs[0])),)
            else:
                field_work = None
            return tracer._span(field, f"{name}.field", field_layer, field_work)

        return factory

    # -- installation --------------------------------------------------------

    def _modules(self) -> list:
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == self.package.__name__
                                      or n.startswith(self.package.__name__ + "."))]

    def install(self) -> None:
        prefix = self.package.__name__ + "."
        replace = {}
        for layer in LAYERS:
            mod = sys.modules[prefix + layer]
            names = getattr(mod, "__all__", None)
            if names is None:
                names = [n for n in vars(mod) if not n.startswith("_")]
            for name in names:
                obj = getattr(mod, name)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[id(obj)] = (obj, self._function_wrapper(obj, name, layer))
                elif (inspect.isclass(obj) and not issubclass(obj, BaseException)
                      and "__init__" in vars(obj)):
                    init = vars(obj)["__init__"]
                    self._undo.append((obj, "__init__", init))
                    setattr(obj, "__init__", self._span(init, name, layer))
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self/cpu/wait time, errors, share and useful ratio,
        plus the work counts and the rates derived from them."""
        acc = {layer: {"calls": 0, "failed": 0, "errors": 0, "self_ns": 0, "cpu_ns": 0}
               for layer in LAYERS}
        work = dict.fromkeys(WORK_COUNTS, 0)
        threads = set()
        for rec in self.spans:
            a = acc[rec[LAYER]]
            a["calls"] += 1
            a["self_ns"] += rec[END] - rec[START] - rec[CHILD_WALL]
            a["cpu_ns"] += rec[CPU] - rec[CHILD_CPU]
            if rec[ERROR] is not None:
                a["failed"] += 1
                parent = rec[PARENT]
                if parent is None or parent[LAYER] != rec[LAYER]:
                    a["errors"] += 1
            for key, amount in rec[WORK]:
                work[key] += amount
            if rec[TID] != self.main_tid:
                threads.add(rec[TID])
        busy = sum(a["self_ns"] for a in acc.values())
        out: dict[str, float] = {}
        for layer, a in acc.items():
            self_ms, cpu_ms = a["self_ns"] / 1e6, a["cpu_ns"] / 1e6
            out[f"{layer}.calls"] = a["calls"]
            out[f"{layer}.self_ms"] = self_ms
            out[f"{layer}.cpu_ms"] = cpu_ms
            out[f"{layer}.wait_ms"] = self_ms - cpu_ms
            out[f"{layer}.errors"] = a["errors"]
            out[f"{layer}.share"] = a["self_ns"] / busy if busy else 0.0
            # a layer that was never called wasted nothing
            out[f"{layer}.useful_ratio"] = (
                (a["calls"] - a["failed"]) / a["calls"] if a["calls"] else 1.0)
        out.update(work)
        out["cli.threads"] = len(threads)

        def rate(key, layer, scale):
            return acc[layer]["self_ns"] * scale / work[key] if work[key] else 0.0

        out["monogenic.ns_per_point_node"] = rate("monogenic.point_nodes", "monogenic", 1.0)
        out["resolvent.us_per_point"] = rate("resolvent.points", "resolvent", 1e-3)
        out["integration.ns_per_node"] = rate("integration.nodes", "integration", 1.0)
        return out

    def write(self, path) -> None:
        """One JSON line per span: name, layer, start/end (us), parent index, thread."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        t0 = min((rec[START] for rec in self.spans), default=0)
        with open(path, "w") as fh:
            fh.write(json.dumps({"note": ATTRIBUTION_NOTE}) + "\n")
            for rec in self.spans:
                parent = rec[PARENT]
                fh.write(json.dumps({
                    "name": rec[NAME], "layer": rec[LAYER],
                    "start_us": (rec[START] - t0) / 1e3, "end_us": (rec[END] - t0) / 1e3,
                    "parent": None if parent is None else index.get(id(parent)),
                    "tid": rec[TID], "cpu_us": rec[CPU] / 1e3, "error": rec[ERROR],
                }) + "\n")
