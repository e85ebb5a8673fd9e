"""Span tracer that wraps szlstm's public functions from the outside.

Every public function defined in a layer module is replaced by a wrapper in
every szlstm module that holds a reference to it: `forward_step` is bound by
name in `training`, `trace`, `cli` and `gradcheck`, and `matmul`,
`softmax_rows` and `sample_update_mask` are looked up through `szlstm.cell`'s
globals, so patching only the defining module would miss most calls. The
program itself is not modified; `uninstall` puts every original back.

Each call becomes a span (name, start, end, parent) kept in flat arrays in
memory and written out by `dump`. Per-name totals are kept as calls go:
calls, wall time, and self time (wall time minus the time of child spans).
"""

import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("numerics", "cell", "optim", "training", "trace", "cli")


def _batch_label(args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return f"cell.forward_step.b{x.shape[0]}"


def _clip_fired(args, kwargs):
    grads = args[0] if args else kwargs["grads"]
    max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
    return {"optim.clip_fired": int(grads.global_norm() > max_norm)}


def _file_bytes(name, pos):
    def after(args, kwargs):
        path = args[pos] if len(args) > pos else kwargs["path"]
        return {name: os.path.getsize(path)}
    return after


# per-function extras: a span label that depends on the arguments, a counter
# taken before the call, a counter taken after it
LABELS = {"cell.forward_step": _batch_label}
BEFORE = {"optim.clip_gradients": _clip_fired}
AFTER = {
    "training.save_checkpoint": _file_bytes("training.save_checkpoint.bytes", 0),
    "trace.export_gate_map": _file_bytes("trace.export_gate_map.bytes", 1),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("I")
        self.parent = array("i")
        self._stack = []            # [span index, time covered by children]
        self._patches = []
        self.totals = {}            # name -> [calls, wall s, self s]
        self.counts = {}            # counter name -> value

    def _name_id(self, name):
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _hidden(self, t0):
        # time spent in a counter hook belongs to no span, not even the parent's self time
        if self._stack:
            self._stack[-1][1] += time.perf_counter() - t0

    def _count(self, values):
        for key, val in values.items():
            self.counts[key] = self.counts.get(key, 0) + val

    def _wrap(self, name, fn):
        label = LABELS.get(name)
        before = BEFORE.get(name)
        after = AFTER.get(name)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                t0 = clock()
                self._count(before(args, kwargs))
                self._hidden(t0)
            key = label(args, kwargs) if label is not None else name
            idx = len(self.start)
            self.name.append(self._name_id(key))
            self.parent.append(stack[-1][0] if stack else -1)
            self.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            self.start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.end[idx] = end
                stack.pop()
                wall = end - start
                if stack:
                    stack[-1][1] += wall
                tot = self.totals.get(key)
                if tot is None:
                    tot = self.totals[key] = [0, 0.0, 0.0]
                tot[0] += 1
                tot[1] += wall
                tot[2] += wall - frame[1]
            if after is not None:
                t0 = clock()
                self._count(after(args, kwargs))
                self._hidden(t0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap the public functions of every layer module, wherever they are bound."""
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"szlstm.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    originals[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "szlstm" or mod_name.startswith("szlstm.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def take(self):
        """Return (totals, counts) gathered since the last take, and reset them."""
        totals, counts = self.totals, self.counts
        self.totals, self.counts = {}, {}
        return totals, counts

    def dump(self, path):
        """Write every span recorded so far as a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
