"""Span tracing of the library's public calls, installed from outside the package.

Callers inside the package import functions by name (``from .qp_solver import
solve``), so replacing a function in its own module is not enough.  The
tracer replaces it in every module of the package whose globals hold it, and
replaces ``QpBuilder.build`` on the class; ``uninstall`` restores them all.

Each call records one span: name, start, end, parent span and the id of the
top-level operation it belongs to.  Spans stay in memory until the run ends.
A span's self time is its duration minus the time its child spans cover;
calls are sequential on one thread, so children never overlap.  Durations
are passed in by the caller, in reference seconds from the speed log.
"""

from __future__ import annotations

import functools
import importlib
import math
import pkgutil
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

# (module, function) pairs timed at every place they are looked up
TRACED = (
    ("qp_solver", "solve"),
    ("problem", "transition_feasible"),
    ("problem", "is_rci"),
    ("cost_to_travel", "eval_v"),
    ("cost_to_travel", "optimal_rci"),
    ("dissipativity", "verify_separability"),
    ("dissipativity", "storage_min_on_domain"),
    ("dissipativity", "check_strictness"),
    ("tube_mpc", "solve_tmpc"),
    ("tube_mpc", "sweep_feedback"),
    ("closed_loop", "simulate"),
    ("closed_loop", "rotated_cost"),
)
PACKAGE = "tube_dissip"


@dataclass
class Span:
    id: int
    parent: int
    op: int
    name: str
    start: float
    end: float = math.nan
    error: str | None = None
    attrs: dict = field(default_factory=dict)


def _solve_attrs(args, kwargs, sol):
    return {"n": args[0].n, "status": sol.status.value, "iterations": sol.iterations,
            "polished": sol.polished}


def _eval_v_attrs(args, kwargs, result):
    return {"inf": math.isinf(result.value)}


def _eval_v_steps(args, kwargs):
    return args[3] if len(args) > 3 else kwargs["n_steps"]


ATTRS = {"qp_solver.solve": _solve_attrs, "cost_to_travel.eval_v": _eval_v_attrs}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_op = 0
        self._restore: list[tuple[object, str, object]] = []

    def _call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            op, self._next_op = self._next_op, self._next_op + 1
        else:
            op = parent.op
        span = Span(len(self.spans), -1 if parent is None else parent.id, op, name, 0.0)
        if name == "cost_to_travel.eval_v":
            span.attrs["steps"] = _eval_v_steps(args, kwargs)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if name in ATTRS:
            span.attrs.update(ATTRS[name](args, kwargs, result))
        elif name.startswith("acceptance."):
            span.name = f"acceptance.{result.key}"
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = [package] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        acceptance = importlib.import_module(f"{PACKAGE}.acceptance")
        sampling = importlib.import_module(f"{PACKAGE}.sampling")
        qp_solver = importlib.import_module(f"{PACKAGE}.qp_solver")

        originals = {}
        for mod_name, fn_name in TRACED:
            fn = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), fn_name)
            originals[id(fn)] = self._wrap(f"{mod_name}.{fn_name}", fn)
        for name, fn in vars(acceptance).items():
            if name.startswith("check_") and getattr(fn, "__module__", None) == acceptance.__name__:
                originals[id(fn)] = self._wrap(f"acceptance.{name}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._replace(module, attr, wrapper)

        # the battery's own draws, looked up in the acceptance module only
        for name in sampling.__all__:
            if name in vars(acceptance):
                self._replace(acceptance, name, self._wrap(f"sampling.{name}", getattr(acceptance, name)))

        builder = qp_solver.QpBuilder
        self._replace(builder, "build", self._wrap("qp_solver.QpBuilder.build", builder.build))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span], durations: list[float]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = list(durations)
    for s, dur in zip(spans, durations):
        if s.parent >= 0:
            own[s.parent] -= dur
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def aggregate(spans: list[Span], durations: list[float]) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run and their durations."""
    own = self_times(spans, durations)
    out: dict[str, float] = defaultdict(float)
    solve_iters: dict[tuple, int] = defaultdict(int)
    polished: dict[int, list[int]] = defaultdict(lambda: [0, 0])
    for s, dur, self_s in zip(spans, durations, own):
        base = s.name
        if s.name.startswith("sampling."):
            base = "sampling"
        elif s.name == "qp_solver.solve" and s.error is None:
            n, status = s.attrs["n"], s.attrs["status"]
            key = f"qp_solver.solve.n{n}.{status}"
            out[f"{key}.count"] += 1
            out[f"{key}.busy_s"] += dur
            solve_iters[(n, status)] += s.attrs["iterations"]
            if status == "optimal":
                polished[n][0] += s.attrs["polished"]
                polished[n][1] += 1
        elif s.name == "cost_to_travel.eval_v":
            base = f"cost_to_travel.eval_v.n{s.attrs['steps']}"
            if s.error is None:
                out[f"{base}.inf_count"] += s.attrs["inf"]
        out[f"{base}.count"] += 1
        out[f"{base}.busy_s"] += dur
        out[f"{base}.self_s"] += self_s
        out[f"{base}.errors"] += s.error is not None
        out[f"layer.{layer_of(s.name)}.self_s"] += self_s
    for (n, status), iters in solve_iters.items():
        key = f"qp_solver.solve.n{n}.{status}"
        out[f"{key}.iters_mean"] = iters / out[f"{key}.count"]
    for n, (good, total) in polished.items():
        out[f"qp_solver.solve.n{n}.polished_ratio"] = good / total
    for key in [k for k in out if k.startswith("cost_to_travel.eval_v.") and k.endswith(".inf_count")]:
        base = key[: -len(".inf_count")]
        done = out[f"{base}.count"] - out[f"{base}.errors"]
        out[f"{base}.inf_ratio"] = out.pop(key) / done if done else 0.0
    return dict(out)
