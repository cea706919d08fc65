"""Spans around the public functions of fockmod's layers, installed from the
benchmark's side by rebinding module and class attributes.

A layer is one fockmod module, plus numpy.linalg as the kernel boundary
beneath them.  Every public function, every public method (with __init__,
__call__ and the arithmetic operators) and every property of a public class
of a layer module is wrapped; `uninstall` restores the originals.  Spans are
kept in flat arrays (name id, parent index, start, end) and summarised or
written out after the traced pass.
"""

import functools
import gzip
import importlib
import inspect
import json
import time
from array import array

import numpy as np
import numpy.linalg

LAYERS = ("cstar", "hilbmod", "fock", "crossed", "freeprod", "bogoliubov",
          "instances", "report", "cli")
# numpy.linalg functions wrapped besides norm, which gets its own wrapper.
LINALG = ("svd", "eigh", "eigvalsh", "eigvals", "eig", "qr", "solve", "lstsq",
          "cholesky", "matrix_power", "matrix_rank", "pinv", "inv", "det")
# Operators and protocol methods that belong to a layer's public interface.
_DUNDERS = ("__init__", "__call__", "__add__", "__sub__", "__mul__",
            "__rmul__", "__neg__", "__matmul__", "__rmatmul__")
# FockSpace methods that return dense Fock-sized matrices are tallied in
# fock.dense_bytes when they return a (dim, dim) array.
_DENSE_OWNER = "fock.FockSpace"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []             # span name table; ids index into it
        self.layer_of = []          # layer of each name id
        self._ids = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore = []
        self.dense_bytes = 0
        self.max_dim = 0

    # -- wrapping ------------------------------------------------------------

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(name.split(".", 1)[0])
        return self._ids[name]

    def wrap(self, fn, name, on_result=None):
        sid = self._intern(name)
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(sid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _dense_result(self, args, result):
        F = args[0]
        if isinstance(result, np.ndarray) and result.shape == (F.dim, F.dim):
            self.dense_bytes += result.nbytes

    def _fock_init(self, args, result):
        self.max_dim = max(self.max_dim, args[0].dim)

    def _wrap_class(self, cls, prefix):
        for attr, val in list(vars(cls).items()):
            public = not attr.startswith("_") or attr in _DUNDERS
            if not public:
                continue
            label = f"{prefix}.{attr.strip('_')}"
            hook = None
            if prefix == _DENSE_OWNER:
                hook = (self._fock_init if attr == "__init__"
                        else self._dense_result)
            if isinstance(val, property) and val.fget is not None:
                self._set(cls, attr, property(self.wrap(val.fget, label),
                                              val.fset, val.fdel, val.__doc__))
            elif isinstance(val, (staticmethod, classmethod)):
                self._set(cls, attr,
                          type(val)(self.wrap(val.__func__, label)))
            elif (inspect.isfunction(val)
                  and not inspect.isgeneratorfunction(val)):
                self._set(cls, attr, self.wrap(val, label, hook))

    def install(self):
        """Wrap every layer; module functions are rebound in every fockmod
        namespace that imported them."""
        mods = {layer: importlib.import_module(f"fockmod.{layer}")
                for layer in LAYERS}
        spaces = list(mods.values()) + [importlib.import_module("fockmod")]
        for layer, mod in mods.items():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or getattr(val, "__module__",
                                                   None) != mod.__name__:
                    continue
                if inspect.isclass(val):
                    if not issubclass(val, BaseException):
                        self._wrap_class(val, f"{layer}.{attr}")
                elif (inspect.isfunction(val)
                      and not inspect.isgeneratorfunction(val)):
                    wrapped = self.wrap(val, f"{layer}.{attr}")
                    for space in spaces:
                        for name, ref in list(vars(space).items()):
                            if ref is val:
                                self._set(space, name, wrapped)
        for attr in LINALG:
            if hasattr(numpy.linalg, attr):
                self._set(numpy.linalg, attr,
                          self.wrap(getattr(numpy.linalg, attr),
                                    f"linalg.{attr}"))
        # A spectral norm (ord=2 of a matrix) is an SVD; give it its own span.
        original = numpy.linalg.norm
        plain = self.wrap(original, "linalg.norm")
        svd_norm = self.wrap(original, "linalg.svd_norm")

        @functools.wraps(original)
        def norm(x, ord=None, axis=None, keepdims=False):
            if ord == 2 and axis is None and np.ndim(x) == 2:
                return svd_norm(x, ord, axis, keepdims)
            return plain(x, ord, axis, keepdims)

        self._set(numpy.linalg, "norm", norm)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def summary(self):
        """Per-layer self time, inclusive time and calls; per-name calls and
        inclusive time; the total time of root spans.

        A span's self time is its duration minus the durations of its direct
        children, so the layers' self times sum to the root spans' total.
        Inclusive times count a span only when no ancestor has the same name
        (or, per layer, the same layer), so nested calls are not counted
        twice."""
        layers = sorted(set(self.layer_of))
        layer_idx = [layers.index(layer) for layer in self.layer_of]
        k, m = len(self.names), len(layers)
        calls, incl, active = [0] * k, [0.0] * k, [0] * k
        l_self, l_incl, l_active = [0.0] * m, [0.0] * m, [0] * m
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)
        n = len(starts)
        child = [0.0] * n
        open_spans = []
        roots = 0.0
        for i in range(n):
            p = parents[i]
            d = ends[i] - starts[i]
            if p >= 0:
                child[p] += d
            else:
                roots += d
            # spans are numbered in start order: pop the spans that ended
            # before this one began, leaving its ancestors open
            while open_spans and open_spans[-1] != p:
                j = names[open_spans.pop()]
                active[j] -= 1
                l_active[layer_idx[j]] -= 1
            nid = names[i]
            lid = layer_idx[nid]
            calls[nid] += 1
            if active[nid] == 0:
                incl[nid] += d
            if l_active[lid] == 0:
                l_incl[lid] += d
            active[nid] += 1
            l_active[lid] += 1
            open_spans.append(i)
        for i in range(n):
            l_self[layer_idx[names[i]]] += ends[i] - starts[i] - child[i]
        l_calls = [0] * m
        for nid in range(k):
            l_calls[layer_idx[nid]] += calls[nid]
        return {
            "spans": n,
            "roots_s": roots,
            "layer_self_s": dict(zip(layers, l_self)),
            "layer_incl_s": dict(zip(layers, l_incl)),
            "layer_calls": dict(zip(layers, l_calls)),
            "calls": dict(zip(self.names, calls)),
            "incl_s": dict(zip(self.names, incl)),
        }

    def write(self, path):
        """Spans as gzip'd text: a JSON header with the name table, then
        one line per span in start order, "parent name start end", with
        the parent's line number (-1 for none), the name's index in the
        table, and integer nanoseconds since the first span started."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            rows = zip(self.parent, self.name, self.start, self.end)
            fh.writelines(f"{p} {n} {round((a - t0) * 1e9)} "
                          f"{round((b - t0) * 1e9)}\n"
                          for p, n, a, b in rows)
