"""Spans and counts around aiflow's public functions, installed from outside.

``Tracer.install`` wraps every public function and every public method of
the aiflow modules, and rebinds each wrapper wherever the original is bound:
module globals (which covers ``from`` imports such as
``aiflow.cli.run_specdec_scenario``) and module-level dispatch tables such
as ``aiflow.cli._COMMANDS``. Nothing inside ``src/`` changes, and
``uninstall`` restores every binding.

A span is ``[function, start, end, parent, job, attrs, counted]``: the index
of the function in ``functions``, perf_counter times, the index of the
enclosing span (-1 at top level), the job id set by the runner, numbers a
hook read off the call, and the seconds of counted calls made directly under
the span, per module. Functions called once per drawn number or coded
symbol (``COUNTED``) get a call count and summed time instead of a span
each; nested counted calls, such as the uniforms inside ``Rng.normal``, are
counted but timed only through the outermost one.

Spans stay in memory; ``to_json`` hands them to the runner, which writes
them out when the run ends. ``layers.py`` derives the per-layer metrics
from that document.
"""

from __future__ import annotations

import functools
import inspect
from importlib import import_module
from time import perf_counter

MODULES = ("numerics", "familial", "toylm", "specdec", "tofc", "rangecoder", "netsim", "cli")

COUNTED = frozenset({
    "numerics.Rng.uniform",
    "numerics.Rng.normal",
    "rangecoder.RangeEncoder.encode",
    "rangecoder.RangeEncoder.encode_raw",
    "rangecoder.RangeDecoder.decode_freq",
    "rangecoder.RangeDecoder.decode_update",
    "rangecoder.RangeDecoder.decode_raw",
})


def _scenario_attrs(args, kwargs, result):
    trace, metrics = result[0], result[1]
    return {
        "events": len(trace),
        "messages": sum(1 for e in trace if e.kind == "message-delivered"),
        "bytes_up": metrics.bytes_up,
        "bytes_down": metrics.bytes_down,
    }


# Numbers read off a call before it runs (the context is extended afterwards).
PRE_HOOKS = {
    "toylm.LmDecoder.next_dist": lambda args, kwargs: {
        "ctx": len(args[1] if len(args) > 1 else kwargs["context"])},
}

# Numbers read off a call's arguments and result after it returns.
POST_HOOKS = {
    "specdec.verify": lambda args, kwargs, r: {
        "drafted": len(args[1].tokens), "accepted": r.accepted_count},
    "specdec.run_sequential": lambda args, kwargs, r: {"rounds": r.totals.rounds},
    "specdec.run_pipelined": lambda args, kwargs, r: {
        "rounds": r[0].totals.rounds, "discarded": r[1].discarded_batches},
    "tofc.encode": lambda args, kwargs, r: {
        "symbols": int(args[0].size), "payload_bytes": len(r.payload)},
    "netsim.run_specdec_scenario": _scenario_attrs,
    "netsim.run_tofc_scenario": _scenario_attrs,
    "netsim.run_single_tier_scenario": _scenario_attrs,
    "netsim.run_device_server_collab": _scenario_attrs,
}


def _run_hook(hook, *args):
    # A hook that no longer fits the program must not break the traced job;
    # the error is recorded and the metrics built on it report as missing.
    try:
        return hook(*args)
    except Exception as exc:  # noqa: BLE001 - recorded, see above
        return {"hook_error": f"{type(exc).__name__}: {exc}"}


class Tracer:
    """Records spans and counts while ``active``; see the module docstring."""

    def __init__(self):
        self.functions: list[dict] = []
        self.spans: list[list] = []
        self.counted: dict[str, list] = {}
        self.job = -1
        self.active = False
        self._stack: list[int] = []
        self._in_counted = False
        self._undo: list = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self) -> None:
        modules = [import_module(f"aiflow.{name}") for name in MODULES]
        wrappers = {}
        for short, mod in zip(MODULES, modules):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{short}.{name}", short, obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{short}.{name}", short, obj)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._rebind(vars(mod), name, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._rebind(value, key, wrappers[id(item)])

    def uninstall(self) -> None:
        for restore in reversed(self._undo):
            restore()
        self._undo.clear()
        self.active = False

    def to_json(self) -> dict:
        return {"functions": self.functions, "spans": self.spans, "counted": self.counted}

    def _rebind(self, namespace: dict, key, wrapper) -> None:
        original = namespace[key]
        namespace[key] = wrapper
        self._undo.append(lambda: namespace.__setitem__(key, original))

    def _wrap_methods(self, qual_class: str, module: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qual = f"{qual_class}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(qual, module, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(qual, module, raw)
            else:
                continue
            setattr(cls, attr, wrapped)
            self._undo.append(lambda cls=cls, attr=attr, raw=raw: setattr(cls, attr, raw))

    def _wrap(self, qual: str, module: str, func):
        index = len(self.functions)
        self.functions.append({"name": qual, "module": module})
        if qual in COUNTED:
            return self._counted_wrapper(qual, module, func)
        return self._span_wrapper(index, func, PRE_HOOKS.get(qual), POST_HOOKS.get(qual))

    def _span_wrapper(self, index: int, func, pre, post):
        tracer = self
        spans = self.spans
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            attrs = _run_hook(pre, args, kwargs) if pre else None
            record = [index, 0.0, 0.0, stack[-1] if stack else -1, tracer.job, attrs, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if post:
                record[5] = {**(attrs or {}), **_run_hook(post, args, kwargs, result)}
            return result

        return wrapper

    def _counted_wrapper(self, qual: str, module: str, func):
        tracer = self
        spans = self.spans
        stack = self._stack
        counter = self.counted.setdefault(qual, [0, 0.0])

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            counter[0] += 1
            if tracer._in_counted:
                return func(*args, **kwargs)
            tracer._in_counted = True
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._in_counted = False
                counter[1] += elapsed
                if stack:
                    record = spans[stack[-1]]
                    if record[6] is None:
                        record[6] = {}
                    record[6][module] = record[6].get(module, 0.0) + elapsed

        return wrapper
