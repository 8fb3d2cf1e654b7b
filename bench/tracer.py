"""Outside-in span tracer for the treegh package.

The tracer never edits the package.  ``install`` replaces every public
function of the layer modules with a timing wrapper, at every place the
function object is bound: its defining module, the package namespace and
every other module that imported it by name.  The ``MetricTree``
constructor and ``MetricTree.as_space`` are wrapped on the class.
``uninstall`` puts every original back.  An untraced run never calls
``install``, so it runs the package exactly as shipped.

A span records its name, start, end, parent span, the item the benchmark
was working on, and the vertex or point count of the tree or space it
handled.  It also records the wrapper's own time outside ``[start, end]``
(bookkeeping and size measurement), which is the tracing cost.  Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("metric", "tree", "families", "gh", "embedding", "io", "cli")


def _size(obj):
    """Vertex or point count of a tree or finite metric space, else None."""
    n = getattr(obj, "n", None)
    return n if isinstance(n, int) else None


def _tree_key(tree):
    """Content key of a tree, so that equal inputs count as one."""
    return hash((tree.vertices, tree.edges))


class Tracer:
    """Records one span per wrapped call; see the module docstring."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, item, size, extra, overhead]
        self.item = None
        self._stack = []
        self._undo = []

    # -- spans ------------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.item, None, None, 0.0])
        self._stack.append(sid)
        return sid

    def _leave(self, sid, t_in, end, size, extra=None):
        span = self.spans[sid]
        span[2] = end
        span[5] = size
        span[6] = extra
        self._stack.pop()
        span[7] = (span[1] - t_in) + (time.perf_counter() - end)

    def _wrap_function(self, name, fn):
        tracer = self

        if name == "gh.distortion":
            def measure(args, kwargs, result):
                corr = args[2] if len(args) > 2 else kwargs["corr"]
                return _size(args[0]), len(corr) ** 2
        elif name == "tree.subdivide":
            def measure(args, kwargs, result):
                return _size(args[0]), _tree_key(args[0])
        else:
            def measure(args, kwargs, result):
                size = _size(result)
                if size is None and args:
                    size = _size(args[0])
                return size, None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = time.perf_counter()
            sid = tracer._enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()  # sizes are read outside the span
                size, extra = measure(args, kwargs, result)
                tracer._leave(sid, t_in, end, size, extra)

        return wrapper

    def _wrap_method(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            t_in = time.perf_counter()
            sid = tracer._enter(name)
            try:
                return fn(obj, *args, **kwargs)
            finally:
                tracer._leave(sid, t_in, time.perf_counter(), _size(obj))

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Wrap every public function of ``package``'s layer modules."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[package.__name__ + "." + layer]
            names = getattr(mod, "__all__", None) or [
                k for k in vars(mod) if not k.startswith("_")
            ]
            for attr in names:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = self._wrap_function(layer + "." + attr, obj)
        sites = [m for k, m in sys.modules.items() if k == package.__name__
                 or k.startswith(package.__name__ + ".")]
        for mod in sites:
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, obj))
        cls = package.MetricTree
        for attr, name in (("__init__", "tree.MetricTree"), ("as_space", "tree.MetricTree.as_space")):
            obj = cls.__dict__[attr]
            setattr(cls, attr, self._wrap_method(name, obj))
            self._undo.append((cls, attr, obj))

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo = []

    # -- results ----------------------------------------------------------

    def aggregate(self, items=None):
        """Per-name calls, self time, tracing cost, sizes and extras.

        Self time is a span's duration minus the durations of its direct
        children and their wrappers' own time; children nest inside their
        parent because the program is single-threaded.
        """
        chosen = [i for i, s in enumerate(self.spans) if items is None or s[4] in items]
        child = defaultdict(float)
        for i in chosen:
            s = self.spans[i]
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1] + s[7]
        out = {}
        for i in chosen:
            name, start, end, _, _, size, extra, overhead = self.spans[i]
            rec = out.setdefault(name, {"calls": 0, "self_s": 0.0, "overhead_s": 0.0,
                                        "sizes": [], "extras": []})
            rec["calls"] += 1
            rec["self_s"] += (end - start) - child[i]
            rec["overhead_s"] += overhead
            rec["sizes"].append(size)
            rec["extras"].append(extra)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, item, size, _, overhead) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "item": item, "size": size, "overhead": overhead,
                }) + "\n")
