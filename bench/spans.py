"""Spans around ballwalk's public functions, recorded from outside.

``Tracer.install`` replaces each public function of the package by a
wrapper in every ballwalk module that holds it under its own name (so
``ballwalk.analysis.top_k`` and ``ballwalk.eigensolve.top_k`` are both
covered), and wraps ``DiscreteOperator.matvec``, ``DiscreteOperator.to_banded``
and ``SchrodingerOperator.matvec`` on the classes. A span is
(name, start, end, parent, iteration); spans stay in memory in flat
arrays and are written out once, at the end of the run. ``uninstall``
puts every original back. ``only`` limits the wrapping to the named spans
(``operators.matvec`` stands for both schemes of ``DiscreteOperator.matvec``).

``Marker`` patches the same way but keeps only a timestamp at each entry
and exit, cheap enough for the untraced run, where the stamps cut one
iteration into the segments whose fastest times add up to the floor.
"""

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

MODULES = ("densities", "multiplier", "operators", "eigensolve", "analysis", "walk")


class Tracer:
    def __init__(self, only=None):
        self.only = None if only is None else frozenset(only)  # span names to record
        self.names = []  # span-name table
        self._ids = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.iteration = array("l")
        self.points = array("l")  # eval_density: points evaluated, else 0
        self.retries = array("l")  # count_in_interval: CountResult.retries
        self._stack = []
        self._saved = []
        self.current_iteration = -1

    # -- recording ----------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid, points=0):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.iteration.append(self.current_iteration)
        self.points.append(points)
        self.retries.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        nid = self._id(name)
        if name == "densities.eval_density":
            def wrapper(density, x):
                pts = np.size(x) // density.dim
                idx = self._open(nid, pts)
                try:
                    return fn(density, x)
                finally:
                    self._close(idx)
        elif name == "eigensolve.count_in_interval":
            def wrapper(*args, **kwargs):
                idx = self._open(nid)
                try:
                    res = fn(*args, **kwargs)
                    self.retries[idx] = res.retries
                    return res
                finally:
                    self._close(idx)
        else:
            def wrapper(*args, **kwargs):
                idx = self._open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)
        return functools.wraps(fn)(wrapper)

    def _wrap_matvec(self, fn):
        ids = {s: self._id(f"operators.matvec.{s}") for s in ("banded", "multiplier")}

        def matvec(op, u):
            idx = self._open(ids[op.scheme])
            try:
                return fn(op, u)
            finally:
                self._close(idx)

        return functools.wraps(fn)(matvec)

    # -- patching -----------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"ballwalk.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and self._wanted(f"{short}.{attr}")):
                    wrapped[obj] = self._wrap(obj, f"{short}.{attr}")
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        ops = mods["operators"]
        for cls, attr, name in (
            (ops.DiscreteOperator, "matvec", None),
            (ops.DiscreteOperator, "to_banded", "operators.to_banded"),
            (ops.SchrodingerOperator, "matvec", "operators.matvec.schrodinger"),
        ):
            if not self._wanted(name or "operators.matvec"):
                continue
            orig = vars(cls)[attr]
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, self._wrap_matvec(orig) if name is None
                    else self._wrap(orig, name))

    def _wanted(self, name):
        return self.only is None or name in self.only

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        """Spans as numpy columns, with duration and self time."""
        s = {
            "name": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "iteration": np.frombuffer(self.iteration, dtype=np.int64).copy(),
            "points": np.frombuffer(self.points, dtype=np.int64).copy(),
            "retries": np.frombuffer(self.retries, dtype=np.int64).copy(),
        }
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        # children of one span never overlap (one thread), so what they
        # cover is the sum of their durations
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        s["dur"] = dur
        s["self"] = dur - child
        return s

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **{
            k: v for k, v in self.arrays().items() if k not in ("dur", "self")})


class Marker(Tracer):
    """``same_work`` maps a marked name to a function of its call's
    arguments; calls with equal results do the same work, and ``keyed``
    records (index of the entry stamp, name, result) for each of them.
    A function named there must not call another marked function, so that
    each of its calls is one segment."""

    def __init__(self, only, same_work=None):
        super().__init__(only)
        self.stamps = array("d")
        self.same_work = same_work or {}
        self.keyed = []

    def reset(self):
        del self.stamps[:]
        self.keyed.clear()

    def _wrap(self, fn, name):
        stamps, keyed = self.stamps, self.keyed
        work = self.same_work.get(name)

        def wrapper(*args, **kwargs):
            if work is not None:
                keyed.append((len(stamps), name, work(*args, **kwargs)))
            stamps.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                stamps.append(perf_counter())

        return functools.wraps(fn)(wrapper)

    def _wrap_matvec(self, fn):
        return self._wrap(fn, "operators.matvec")
