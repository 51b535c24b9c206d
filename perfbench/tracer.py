"""Spans around idelink's public functions, installed from outside the package.

Only the traced run imports this module.  ``install`` wraps every public
function of the six layers (links, covers, ideles, zlattice, kernel,
hasse) and rebinds the wrapper in every idelink namespace that bound the
original: module globals (``hasse`` imports ``lattice_sum`` by name),
module-level registries (``hasse.CHECKS``), class attributes
(``SubLattice.from_columns``) and the ``kernel`` module that
``zlattice`` resolves kernel calls through.  The backend module that
implements the kernel is left alone, so its own helper calls are not
spans.

A span is (name, start, end, parent, item); spans live in flat arrays
until the run ends.  Self time is a span's duration minus its
children's; since one thread runs one item at a time, children never
overlap, and the self times of an item's spans add up to the item's
duration.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time
from array import array

LAYERS = ("links", "covers", "ideles", "zlattice", "kernel", "hasse")
KERNEL_FUNCS = ("col_hnf", "col_hnf_with_kernel", "smith")
SUBLATTICE_CONSTRUCTORS = ("from_columns", "from_matrix", "zero", "full")
PUSHFORWARD = (
    "covers.pushforward_matrix",
    "covers.pushforward_idele",
    "covers.pushforward_image",
    "covers.pushforward_surface",
    "covers.principal_pushforward",
)
ITEM = "bench.item"  # the span child.py opens around each item
STATS = "trace.stats"  # the tracer's own kernel bookkeeping, kept out of other spans


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.item = [-1]
        # [IntMatrix.__init__ calls, IdeleVector.__init__ calls,
        #  kernel input entries, largest kernel entry in bits]
        self.counts = [0, 0, 0, 0]

    def reset(self):
        for arr in (self.span_name, self.span_parent, self.span_item, self.span_start, self.span_end):
            del arr[:]
        del self.stack[1:]
        self.item[0] = -1
        self.counts[:] = [0, 0, 0, 0]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        i = len(self.span_name)
        self.span_name.append(self._id(name))
        self.span_parent.append(self.stack[-1])
        self.span_item.append(self.item[0])
        self.span_end.append(0.0)
        self.stack.append(i)
        self.span_start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.span_end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)
        names, parents, items = self.span_name, self.span_parent, self.span_item
        starts, ends, stack, cur = self.span_start, self.span_end, self.stack, self.item
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            items.append(cur[0])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return span

    def wrap_kernel(self, name: str, fn):
        """A kernel span, plus input size and entry bit-lengths in a stats span."""
        inner = self.wrap(name, fn)
        sid = self._id(STATS)
        names, parents, items = self.span_name, self.span_parent, self.span_item
        starts, ends, stack, cur = self.span_start, self.span_end, self.stack, self.item
        counts = self.counts
        clock = time.perf_counter

        def stats(start, entries, mats):
            entries_seen = itertools.chain.from_iterable(itertools.chain.from_iterable(mats))
            bits = max(map(abs, entries_seen), default=0).bit_length()
            counts[2] += entries
            if bits > counts[3]:
                counts[3] = bits
            names.append(sid)
            parents.append(stack[-1])
            items.append(cur[0])
            starts.append(start)
            ends.append(clock())

        @functools.wraps(fn)
        def span(nrows, *args):
            start = clock()
            matrix = args[-1]
            stats(start, nrows * (args[0] if len(args) == 2 else len(matrix)), (matrix,))
            out = inner(nrows, *args)
            stats(clock(), 0, out if isinstance(out, tuple) else (out,))
            return out

        return span


def _count_calls(counts, slot, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[slot] += 1
        return fn(*args, **kwargs)

    return counted


def kernel_originals() -> dict[str, object]:
    from idelink import kernel

    return {name: getattr(kernel, name) for name in KERNEL_FUNCS}


def install(tracer: Tracer):
    """Wrap the six layers; return the number of bindings replaced."""
    import idelink  # noqa: F401  (loads every layer)

    mods = {layer: sys.modules[f"idelink.{layer}"] for layer in LAYERS}
    wrappers: dict[int, object] = {}
    for name, fn in kernel_originals().items():
        wrappers[id(fn)] = tracer.wrap_kernel(f"kernel.{name}", fn)
    for layer, mod in mods.items():
        if layer == "kernel":
            continue
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                wrappers[id(obj)] = tracer.wrap(f"{layer}.{name}", obj)
    for check, fn in mods["hasse"].CHECKS.items():
        wrappers[id(fn)] = tracer.wrap(f"hasse.check.{check}", fn)

    replaced = 0
    namespaces = [
        vars(mod) for name, mod in list(sys.modules.items())
        if (name == "idelink" or name.startswith("idelink.")) and not name.startswith("idelink._kernel")
    ]
    for ns in namespaces:
        for key, val in list(ns.items()):
            if id(val) in wrappers:
                ns[key] = wrappers[id(val)]
                replaced += 1
            elif isinstance(val, dict) and not key.startswith("__"):
                for k, v in list(val.items()):
                    if id(v) in wrappers:
                        val[k] = wrappers[id(v)]
                        replaced += 1

    zl = mods["zlattice"]
    for name in SUBLATTICE_CONSTRUCTORS:
        fn = zl.SubLattice.__dict__[name].__func__
        setattr(zl.SubLattice, name, classmethod(tracer.wrap(f"zlattice.{name}", fn)))
        replaced += 1
    zl.IntMatrix.__init__ = _count_calls(tracer.counts, 0, zl.IntMatrix.__init__)
    vector = mods["ideles"].IdeleVector
    vector.__init__ = _count_calls(tracer.counts, 1, vector.__init__)
    return replaced


def independent_kernel_counts(originals: dict[str, object], run) -> dict[str, int]:
    """Kernel calls made by ``run()``, counted by the profiler hook.

    Counts executions of the backend functions themselves, so a caller
    that reaches the kernel through a binding ``install`` missed still
    shows up here.
    """
    by_code = {getattr(fn, "__code__", None): name for name, fn in originals.items()}
    by_id = {id(fn): name for name, fn in originals.items()}
    counts = dict.fromkeys(originals, 0)

    def profile(frame, event, arg):
        if event == "call":
            name = by_code.get(frame.f_code)
        elif event == "c_call":
            name = by_id.get(id(arg))
        else:
            return
        if name is not None:
            counts[name] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def span_counts(tracer: Tracer) -> dict[str, int]:
    out = dict.fromkeys(tracer.names, 0)
    for nid in tracer.span_name:
        out[tracer.names[nid]] += 1
    return out


def summarize(tracer: Tracer) -> dict:
    """Per-name calls, inclusive and self seconds, and per-item consistency."""
    names, parents, items = tracer.span_name, tracer.span_parent, tracer.span_item
    n = len(names)
    dur = [e - s for s, e in zip(tracer.span_start, tracer.span_end)]
    child = [0.0] * n
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]
    label = tracer.names
    calls = dict.fromkeys(label, 0)
    incl = dict.fromkeys(label, 0.0)
    self_s = dict.fromkeys(label, 0.0)
    item_self: dict[int, float] = {}
    item_dur: dict[int, float] = {}
    item_id = tracer._ids.get(ITEM, -1)
    pushforward = {tracer._ids[x] for x in PUSHFORWARD if x in tracer._ids}
    under_pushforward = [False] * n
    pushforward_s = 0.0
    snf_id = tracer._ids.get("zlattice.snf", -1)
    smith_id = tracer._ids.get("kernel.smith", -1)
    smith_kept = 0
    for i in range(n):
        nid = names[i]
        name = label[nid]
        own = dur[i] - child[i]
        calls[name] += 1
        incl[name] += dur[i]
        self_s[name] += own
        it = items[i]
        if it >= 0:
            item_self[it] = item_self.get(it, 0.0) + own
        if nid == item_id:
            item_dur[it] = dur[i]
        p = parents[i]
        if p >= 0 and (under_pushforward[p] or names[p] in pushforward):
            under_pushforward[i] = True
        elif nid in pushforward:
            pushforward_s += dur[i]
        if nid == smith_id and p >= 0 and names[p] == snf_id:
            smith_kept += 1
    mismatched = [
        it for it, d in item_dur.items() if abs(item_self.get(it, 0.0) - d) > 1e-9 * max(1.0, d) + 1e-9
    ]
    return {
        "spans": n,
        "calls": calls,
        "incl": incl,
        "self": self_s,
        "items": len(item_dur),
        "item_s": sum(item_dur.values()),
        "items_not_adding_up": len(mismatched),
        "pushforward_s": pushforward_s,
        "smith_kept": smith_kept,
    }


def write_spans(tracer: Tracer, path_prefix: str):
    """Binary span arrays plus a JSON index naming them."""
    with open(path_prefix + ".bin", "wb") as f:
        for arr in (tracer.span_name, tracer.span_parent, tracer.span_item, tracer.span_start, tracer.span_end):
            arr.tofile(f)
    with open(path_prefix + ".json", "w") as f:
        json.dump(
            {
                "spans": len(tracer.span_name),
                "layout": "int32 name[spans], int32 parent[spans], int32 item[spans], "
                "float64 start[spans], float64 end[spans]; parent -1 is a root",
                "names": tracer.names,
            },
            f,
            indent=1,
        )
