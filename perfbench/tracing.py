"""Per-layer tracing of magrec, done entirely from the benchmark's side.

``Tracer.installed()`` replaces each traced function by a wrapper at every
name it is looked up under: module attributes of every loaded ``magrec``
module (so ``reconstruction.ball_vectors``, bound at import, is wrapped as
well as ``combinatorics.ball_vectors``) and class attributes for methods.
Leaving the ``with`` block restores the originals, so untraced runs pay
nothing.

Each wrapper records a span on a stack: calls, inclusive time and self time
(inclusive minus the time of traced callees).  Generator functions are
wrapped so that the span is the time spent inside each ``next()``.  Small
observers add the per-function counters named in ``EXTRAS``.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
import weakref
from contextlib import contextmanager

from magrec import channel, cli, combinatorics, core, distances, lattice, reconstruction, tandem

# Traced functions: metric prefix -> (owner, attribute).  The owner is a
# module, or a class for methods.  The prefix's first part is the layer.
TARGETS = {
    "cli.main": (cli, "main"),
    "cli.code_distance": (cli, "code_distance"),
    "channel.generate_reads": (channel, "generate_reads"),
    "channel.run_trial": (channel, "run_trial"),
    "channel.exhaustive_read_sets": (channel, "exhaustive_read_sets"),
    "reconstruction.ReadSet": (reconstruction.ReadSet, "__init__"),
    "reconstruction.majority_estimate": (reconstruction, "majority_estimate"),
    "reconstruction.cover_check": (reconstruction, "_covers"),
    "reconstruction.reconstruct_majority": (reconstruction, "reconstruct_majority"),
    "reconstruction.reconstruct_min": (reconstruction, "reconstruct_min"),
    "reconstruction.list_reconstruct_min": (reconstruction, "list_reconstruct_min"),
    "reconstruction.list_reconstruct_majority": (reconstruction, "list_reconstruct_majority"),
    "reconstruction.list_reconstruct_sauer": (reconstruction, "list_reconstruct_sauer"),
    "reconstruction.sauer_shelah_find": (reconstruction, "sauer_shelah_find"),
    "core.decode_within": (core.Code, "decode_within"),
    "lattice.syndrome": (lattice, "syndrome"),
    "lattice.lattice_min_distance": (lattice, "lattice_min_distance"),
    "lattice.max_pairwise_intersection_lattice": (lattice, "max_pairwise_intersection_lattice"),
    "lattice.check_partial_splitting": (lattice, "check_partial_splitting"),
    "distances.distance_general": (distances, "distance_general"),
    "distances.code_min_distance": (distances, "code_min_distance"),
    "combinatorics.ball_vectors": (combinatorics, "ball_vectors"),
    "combinatorics.intersection_exact": (combinatorics, "intersection_exact"),
    "tandem.exhaustive_simplex_read_sets": (tandem, "exhaustive_simplex_read_sets"),
    "tandem.reconstruct_simplex_min": (tandem, "reconstruct_simplex_min"),
    "tandem.upward_ball": (tandem, "upward_ball"),
}

LAYERS = ("cli", "channel", "reconstruction", "core", "lattice", "distances", "combinatorics", "tandem")

# Traced functions whose time, callees included, is the work each workload
# was chosen to stress.
FOCUS = {
    "recon-trials": {
        name for name in TARGETS if name.startswith(("channel.", "reconstruction."))
    } | {"core.decode_within"},
    "exact-geometry": {
        "lattice.lattice_min_distance",
        "lattice.max_pairwise_intersection_lattice",
        "lattice.check_partial_splitting",
        "combinatorics.intersection_exact",
    },
    "exhaustive-search": {
        "reconstruction.list_reconstruct_sauer",
        "channel.exhaustive_read_sets",
        "tandem.exhaustive_simplex_read_sets",
        "tandem.reconstruct_simplex_min",
        "tandem.upward_ball",
    },
}

# Extra per-function stats: name -> (unit, better).  Every traced function
# also reports ``calls`` (count) and ``self_s`` (s); for generators a call is
# one ``next()``, and ``next_s`` is the time inside ``next()``, callees
# included.
EXTRAS = {
    "combinatorics.ball_vectors": {"hit_ratio": ("ratio", "higher"), "vectors_built": ("count", "lower")},
    "combinatorics.intersection_exact": {"elems_tested": ("count", "lower")},
    "lattice.lattice_min_distance": {"box_vectors": ("count", "lower")},
    "core.decode_within": {
        "memo_hit_ratio": ("ratio", "higher"),
        "found_ratio": ("ratio", "higher"),
        "contains_calls": ("count", "lower"),
    },
    "reconstruction.majority_estimate": {"erasures": ("count", "lower")},
    "reconstruction.reconstruct_majority": {
        "fill_candidates": ("count", "lower"),
        "fill_useful_ratio": ("ratio", "higher"),
    },
    "reconstruction.list_reconstruct_sauer": {
        "candidates": ("count", "lower"),
        "list_ratio": ("ratio", "higher"),
    },
    "reconstruction.sauer_shelah_find": {"subsets_scanned": ("count", "lower")},
    "channel.exhaustive_read_sets": {"sets": ("count", "higher"), "next_s": ("s", "lower")},
    "tandem.exhaustive_simplex_read_sets": {"sets": ("count", "higher"), "next_s": ("s", "lower")},
}

# Shares of ``cli.main`` time for the ROADMAP baseline command, reported by
# the traced run next to the workload's own layers.
BASELINE_ARGV = (
    "reconstruct", "--alg", "majority", "--code", "sum-mod:3", "--n", "7",
    "--t", "2", "--kp", "1", "--km", "1", "--trials", "3",
)
BASELINE_SHARES = ("lattice.lattice_min_distance", "lattice.syndrome")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for name in TARGETS:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        for stat, (unit, better) in EXTRAS.get(name, {}).items():
            out.append((f"{name}.{stat}", unit, better))
    out.extend((f"{layer}.self_share", "share", "lower") for layer in LAYERS)
    out.extend((f"focus.{workload}.share", "share", "lower") for workload in FOCUS)
    out.extend((f"baseline.{name}.share", "share", "lower") for name in BASELINE_SHARES)
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


class _Stat:
    __slots__ = ("name", "calls", "total_ns", "self_ns", "counts", "focus")

    def __init__(self, name: str, focus: frozenset):
        self.name = name
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.counts: dict[str, int] = {}
        self.focus = focus

    def add(self, key: str, value: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class _Frame:
    __slots__ = ("stat", "start", "child_ns", "focus")

    def __init__(self, stat: _Stat, start: int, focus: frozenset):
        self.stat = stat
        self.start = start
        self.child_ns = 0
        self.focus = focus


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _hamming_volume(q: int, n: int, r: int) -> int:
    return sum(math.comb(n, i) * (q - 1) ** i for i in range(r + 1))


def _combination_rank(U: tuple[int, ...], n: int) -> int:
    """Index of U in ``itertools.combinations(range(n), len(U))`` order."""
    c = len(U)
    rank = 0
    prev = -1
    for j, u in enumerate(U):
        for v in range(prev + 1, u):
            rank += math.comb(n - 1 - v, c - 1 - j)
        prev = u
    return rank


class Tracer:
    """Span stack and per-function stats for one traced stretch of commands."""

    def __init__(self):
        self.stats = {
            name: _Stat(name, frozenset(w for w, names in FOCUS.items() if name in names))
            for name in TARGETS
        }
        self.stack: list[_Frame] = []
        self.focus_ns = {workload: 0 for workload in FOCUS}
        self.contains_calls = 0
        self._ball_keys: set = set()
        self._decode_keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- spans ---------------------------------------------------------
    def _enter(self, stat: _Stat) -> None:
        focus = stat.focus
        if self.stack:
            parent_focus = self.stack[-1].focus
            if parent_focus:
                focus = focus | parent_focus
        self.stack.append(_Frame(stat, time.perf_counter_ns(), focus))

    def _exit(self) -> None:
        frame = self.stack.pop()
        elapsed = time.perf_counter_ns() - frame.start
        own = elapsed - frame.child_ns
        stat = frame.stat
        stat.calls += 1
        stat.total_ns += elapsed
        stat.self_ns += own
        for workload in frame.focus:
            self.focus_ns[workload] += own
        if self.stack:
            self.stack[-1].child_ns += elapsed

    def _caller(self) -> str | None:
        return self.stack[-1].stat.name if self.stack else None

    # -- counters ------------------------------------------------------
    def _observe(self, name: str, args, kwargs, result, mark: int) -> None:
        stat = self.stats[name]
        if name == "combinatorics.ball_vectors":
            key = tuple(_arg(args, kwargs, i, k) for i, k in enumerate(("n", "t", "k_plus", "k_minus")))
            if key in self._ball_keys:
                stat.add("hits")
            else:
                self._ball_keys.add(key)
                stat.add("vectors_built", len(result))
        elif name == "combinatorics.intersection_exact":
            p = _arg(args, kwargs, 2, "p")
            stat.add("elems_tested", _hamming_volume(p.magnitude_span + 1, p.n, p.t))
        elif name == "lattice.lattice_min_distance":
            spec = _arg(args, kwargs, 0, "spec")
            span = _arg(args, kwargs, 1, "k_plus") + _arg(args, kwargs, 2, "k_minus")
            stat.add("box_vectors", (2 * span + 1) ** spec.n)
        elif name == "core.decode_within":
            code = args[0]
            params = _arg(args, kwargs, 3, "params")
            key = (tuple(_arg(args, kwargs, 1, "z")), _arg(args, kwargs, 2, "radius"),
                   params.k_plus, params.k_minus)
            seen = self._decode_keys.setdefault(code, set())
            if key in seen:
                stat.add("memo_hits")
            seen.add(key)
            stat.add("found", result is not None)
            stat.add("contains_calls", self.contains_calls - mark)
            caller = self._caller()
            if caller == "reconstruction.reconstruct_majority":
                self.stats[caller].add("fill_candidates")
            elif caller == "reconstruction.list_reconstruct_sauer":
                self.stats[caller].add("candidates")
        elif name == "reconstruction.majority_estimate":
            stat.add("erasures", sum(1 for v in result.entries if v is core.ERASURE))
        elif name == "reconstruction.reconstruct_majority":
            stat.add("fill_useful")
        elif name == "reconstruction.list_reconstruct_sauer":
            stat.add("list_entries", len(result))
        elif name == "reconstruction.sauer_shelah_find":
            if result:
                S = _arg(args, kwargs, 0, "S")
                n = len(next(iter(S)))
                stat.add("subsets_scanned", _combination_rank(tuple(result), n) + 1)

    # -- wrappers ------------------------------------------------------
    def _wrap(self, name: str, fn):
        tracer = self
        stat = self.stats[name]
        observed = name in EXTRAS

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)

                def spans():
                    try:
                        while True:
                            tracer._enter(stat)
                            try:
                                item = next(inner)
                            except StopIteration:
                                return
                            finally:
                                tracer._exit()
                            stat.add("sets")
                            yield item
                    finally:
                        inner.close()

                return spans()
        else:
            def wrapper(*args, **kwargs):
                mark = tracer.contains_calls
                tracer._enter(stat)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit()
                if observed:
                    tracer._observe(name, args, kwargs, result, mark)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _count_contains(self, fn):
        tracer = self

        def contains(self_, v):
            tracer.contains_calls += 1
            return fn(self_, v)

        contains.__wrapped__ = fn
        return contains

    @contextmanager
    def installed(self):
        """Swap every traced function for its wrapper; restore on exit."""
        patches = []
        namespaces = [m for k, m in sys.modules.items() if k == "magrec" or k.startswith("magrec.")]
        for name, (owner, attr) in TARGETS.items():
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                patches.append((owner, attr, original, wrapper))
                continue
            for module in namespaces:
                for key, value in vars(module).items():
                    if value is original:
                        patches.append((module, key, original, wrapper))
        for cls in (core.ExplicitCode, lattice.LatticeCode):
            original = cls.__dict__["contains"]
            patches.append((cls, "contains", original, self._count_contains(original)))
        try:
            for owner, attr, _, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original, _ in reversed(patches):
                setattr(owner, attr, original)

    # -- report --------------------------------------------------------
    def total_s(self, name: str) -> float:
        return self.stats[name].total_ns / 1e9

    def metrics(self, scale: float) -> dict[str, float]:
        """calls, self_s (times ``scale``) and extra stats per function,
        layer self shares and focus shares of ``cli.main`` time."""
        out: dict[str, float] = {}
        for name, stat in self.stats.items():
            c = stat.counts
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_ns * scale / 1e9
            for key in EXTRAS.get(name, {}):
                if key == "hit_ratio":
                    value = _ratio(c.get("hits", 0), stat.calls)
                elif key == "memo_hit_ratio":
                    value = _ratio(c.get("memo_hits", 0), stat.calls)
                elif key == "found_ratio":
                    value = _ratio(c.get("found", 0), stat.calls)
                elif key == "fill_useful_ratio":
                    value = _ratio(c.get("fill_useful", 0), c.get("fill_candidates", 0))
                elif key == "list_ratio":
                    value = _ratio(c.get("list_entries", 0), c.get("candidates", 0))
                elif key == "next_s":
                    value = stat.total_ns * scale / 1e9
                else:
                    value = c.get(key, 0)
                out[f"{name}.{key}"] = value
        main_ns = self.stats["cli.main"].total_ns
        for layer in LAYERS:
            own = sum(s.self_ns for n, s in self.stats.items() if n.split(".")[0] == layer)
            out[f"{layer}.self_share"] = _ratio(own, main_ns)
        for workload, ns in self.focus_ns.items():
            out[f"focus.{workload}.share"] = _ratio(ns, main_ns)
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
