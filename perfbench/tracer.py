"""Per-layer tracing for the benchmark.

A Tracer wraps every public function of the eight sinet modules in a timing
wrapper. The modules import one another's functions by name (detector calls
its own `nms`, not `geometry.nms`), so the wrapper replaces the function at
every import site: each attribute of every loaded sinet module that refers
to it. `uninstall` puts the originals back.

Each call is a span. Spans nest through a stack, so a span's self time is its
duration minus the time its traced children covered. Spans are folded into
per-function totals (calls, inclusive seconds, self seconds) as they close,
and a few functions also feed work counters (boxes offered to NMS, GRU rows
and detections scored).
"""

import functools
import sys
import time
import types

LAYERS = ("synth_data", "geometry", "detector", "structure_inference",
          "memory_cell", "numerics", "evaluation", "harness")

_MARK = "_perfbench_label"


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


def _count_nms(counters, args, kwargs, keep):
    counters["nms_boxes_in"] += len(_arg(args, kwargs, 0, "boxes"))
    counters["nms_kept"] += len(keep)


def _count_gru_rows(counters, args, kwargs, result):
    x = _arg(args, kwargs, 1, "x")
    counters["gru_rows"] += len(x) if getattr(x, "ndim", 1) == 2 else 1


def _count_detections(counters, args, kwargs, result):
    counters["detections"] += sum(len(d) for d in _arg(args, kwargs, 0, "dets_by_image"))


COUNTERS = {
    "geometry.nms": _count_nms,
    "memory_cell.gru_forward": _count_gru_rows,
    "evaluation.evaluate_detections": _count_detections,
}


def _sinet_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sinet" or name.startswith("sinet."))]


def installed_wrappers():
    """Names of module attributes that currently hold a tracing wrapper."""
    return sorted(f"{m.__name__}.{attr}" for m in _sinet_modules()
                  for attr, obj in vars(m).items() if hasattr(obj, _MARK))


class Tracer:
    def __init__(self):
        self.stats = {}          # label -> [calls, inclusive s, self s]
        self.counters = {"nms_boxes_in": 0, "nms_kept": 0, "gru_rows": 0,
                         "detections": 0}
        self._stack = []         # per open span: seconds covered by its children
        self._patched = []       # (module, attribute, original)

    def _wrap(self, fn, label):
        stat = self.stats.setdefault(label, [0, 0.0, 0.0])
        stack, counters, count = self._stack, self.counters, COUNTERS.get(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - children
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        setattr(traced, _MARK, label)
        return traced

    def install(self):
        if self._patched or installed_wrappers():
            raise RuntimeError("tracing wrappers are already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"sinet.{layer}"]
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
        for mod in _sinet_modules():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def calls(self, label):
        return self.stats.get(label, (0, 0.0, 0.0))[0]

    def busy_s(self, label):
        return self.stats.get(label, (0, 0.0, 0.0))[1]

    def self_s(self, label):
        return self.stats.get(label, (0, 0.0, 0.0))[2]
