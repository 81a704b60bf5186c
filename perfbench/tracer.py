"""Instrumentation from outside the program: wrap sprayseg's public functions.

Nothing under ``src/`` is changed. ``Tracer.install()`` replaces every public
function of the traced modules with a timing wrapper, and rebinds every alias
of that function in every loaded ``sprayseg`` module, because ``cli`` imports
``train``/``predict``/checkpoint helpers by name and ``learner`` imports
``total_loss`` by name. ``uninstall()`` restores the originals.

Spans are kept in memory as per-layer aggregates: call count, inclusive time
and self time (inclusive time minus the time of wrapped callees). A few layers
also get work counters, computed after the call from the arguments and
results the layer sees. Work done to compute those counters is taken off the tracer's clock, so
it shows neither in any span nor in the traced wall time.
"""

from __future__ import annotations

import hashlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("geometry", "synthdata", "objective", "learner", "linker",
                  "spraysim", "cli", "svgplot")


def public_functions(module) -> dict:
    """Functions defined in ``module`` itself whose names do not start with ``_``."""
    return {name: f for name, f in vars(module).items()
            if inspect.isfunction(f) and f.__module__ == module.__name__
            and not name.startswith("_")}


def rebind(replacements: dict) -> list:
    """Point every alias of each original function at its replacement.

    ``replacements`` maps original function -> replacement. Returns the list of
    (module, attribute, original) needed to undo the change.
    """
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "sprayseg" or mod_name.startswith("sprayseg.")):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replacements:
                setattr(mod, attr, replacements[value])
                undo.append((mod, attr, value))
    return undo


def restore(undo: list) -> None:
    for mod, attr, value in reversed(undo):
        setattr(mod, attr, value)


def in_cone_rays(mesh, strokes, gun) -> int:
    """(pose, vertex) pairs inside the gun's cone and range: the rays ``deposit`` tests.

    Mirrors the cone/range test of ``spraysim.deposit`` on its public inputs,
    chunked the same way, so the count is exact for the brute-force path.
    """
    verts = mesh.vertices
    poses = [np.asarray(s, dtype=np.float64) for s in strokes]
    if not poses:
        return 0
    poses = np.concatenate(poses)
    cos_half = np.cos(gun.cone_half_angle)
    chunk = max(1, int(500_000 / max(len(verts), 1)))
    total = 0
    for lo in range(0, len(poses), chunk):
        p = poses[lo: lo + chunk, :3]
        axis = poses[lo: lo + chunk, 3:]
        d = verts[None, :, :] - p[:, None, :]
        r = np.sqrt(np.einsum("cvd,cvd->cv", d, d))
        ok = (r > 1e-12) & (r <= gun.max_range)
        cosang = np.zeros_like(r)
        np.divide(np.einsum("cvd,cd->cv", d, axis), r, out=cosang, where=ok)
        total += int((ok & (cosang >= cos_half)).sum())
    return total


def deposit_key(mesh, strokes, gun) -> str:
    h = hashlib.sha1()
    h.update(np.ascontiguousarray(mesh.vertices, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(mesh.triangles).tobytes())
    for s in strokes:
        s = np.ascontiguousarray(s, dtype=np.float64)
        h.update(repr(s.shape).encode())
        h.update(s.tobytes())
    h.update(repr(gun).encode())
    return h.hexdigest()


class Tracer:
    """Per-layer spans and work counters for one process."""

    def __init__(self) -> None:
        self._excluded = 0.0
        self._stack: list[list[float]] = []   # [start, child_time] per open span
        self._undo: list = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._deposit_keys: set[str] = set()

    def clock(self) -> float:
        """Wall clock minus the time spent computing counters."""
        return time.perf_counter() - self._excluded

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import sprayseg.cli  # noqa: F401  (loads every traced module)
        replacements = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"sprayseg.{short}"]
            for name, f in public_functions(mod).items():
                replacements[f] = self._wrap(f"{short}.{name}", f)
        self._undo = rebind(replacements)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def _wrap(self, layer: str, f):
        after = getattr(self, "_after_" + layer.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            frame = [self.clock(), 0.0]
            self._stack.append(frame)
            try:
                result = f(*args, **kwargs)
            finally:
                self._stack.pop()
                dur = self.clock() - frame[0]
                self.calls[layer] += 1
                self.incl[layer] += dur
                self.self_time[layer] += dur - frame[1]
                if self._stack:
                    self._stack[-1][1] += dur
            if after is not None:
                self._off_clock(after, result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = f
        wrapper.__name__ = f.__name__
        return wrapper

    def _off_clock(self, fn, *args, **kwargs) -> None:
        t0 = time.perf_counter()
        try:
            fn(*args, **kwargs)
        finally:
            self._excluded += time.perf_counter() - t0

    # -- work counters -----------------------------------------------------

    def _after_spraysim_deposit(self, field, mesh, strokes, gun) -> None:
        # after, not before, the call: the count allocates arrays of the shapes
        # deposit's own cone test uses, and would hand deposit warm memory
        self.counts["spraysim.deposit.poses"] += sum(len(s) for s in strokes)
        rays = in_cone_rays(mesh, strokes, gun)
        self.counts["spraysim.deposit.in_cone_rays"] += rays
        self.counts["spraysim.deposit.ray_face_tests"] += rays * len(mesh.triangles)
        key = deposit_key(mesh, strokes, gun)
        if key in self._deposit_keys:
            self.counts["spraysim.deposit.repeat_calls"] += 1
        self._deposit_keys.add(key)

    def _after_linker_build_link_graph(self, graph, *args, **kwargs) -> None:
        self.counts["linker.edges_committed"] += graph.n_edges

    def _after_linker_concatenate(self, strokes, segments, *args, **kwargs) -> None:
        self.counts["linker.segments_in"] += len(segments)
        self.counts["linker.strokes_out"] += len(strokes)

    def _after_learner_train(self, result, *args, **kwargs) -> None:
        self.counts["learner.params"] = max(self.counts["learner.params"],
                                            int(result[0].flat.size))

    def _after_learner_load_checkpoint(self, params, *args, **kwargs) -> None:
        self.counts["learner.params"] = max(self.counts["learner.params"],
                                            int(params.flat.size))

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "incl": dict(self.incl),
                "self": dict(self.self_time), "counts": dict(self.counts)}
