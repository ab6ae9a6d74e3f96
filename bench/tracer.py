"""Per-layer tracing of netgame from outside the package.

`Tracer.install` wraps every public module-level function of the netgame
modules, plus ``Network.bfs_distances`` and ``Network.from_edges``, and puts
the wrapper in the defining module and at every ``from ... import`` site
(including the package namespace). Trivial accessors such as
``Network.neighbors`` stay unwrapped: they run once per utility evaluation
and a wrapper there would swamp the trace.

Each wrapped call is a span: an id, its parent span, the job id set by the
benchmark, a name, and start and end times. Self time is a span's duration
minus the part of it that its child spans cover; children that run on a
worker thread (``ineff`` with ``NETGAME_THREADS`` > 1) are attached to the
span that was open on the main thread and counted by the union of their
intervals. Aggregates are kept per thread and merged after the pass, so
counts stay exact when trials fan out over threads. Spans are kept in
memory only while ``record`` is set, and written out by the caller.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
import itertools
import threading
from array import array
from collections import Counter
from math import prod
from time import perf_counter

MODULES = ("cli", "network", "game", "dynamics", "lvl", "local_sim", "simgame", "oracle", "seeds")
METHODS = ("bfs_distances", "from_edges")  # on network.Network
BUILTIN_GAMES = ("game.pgg_game", "game.minority_game", "game.coloring_game")


class _ThreadState:
    """Aggregates and span records of the wrapped calls made on one thread."""

    def __init__(self, size: int) -> None:
        self.calls = [0] * size
        self.total = [0.0] * size  # inclusive time of outermost calls per name
        self.self_time = [0.0] * size
        self.active = [0] * size
        self.stack: list[list] = []  # [span id, time covered by children]
        self.counts: Counter = Counter()
        self.utility_evals = 0
        self.span_ids = array("q")  # span id, parent id, job id, name index
        self.span_times = array("d")  # start, end


def _union_length(intervals: list[tuple[float, float]]) -> float:
    covered, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        covered += b - max(a, end)
        end = b
    return covered


class Tracer:
    def __init__(self, record: bool) -> None:
        self.record = record
        self.job = -1
        self.names: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._main: _ThreadState | None = None
        self._foreign: dict[int, list[tuple[float, float]]] = {}
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []
        self.origin = perf_counter()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import netgame

        mods = {m: importlib.import_module(f"netgame.{m}") for m in MODULES}
        wrappers: dict = {}
        for mname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(obj, f"{mname}.{attr}")
        for site in (netgame, *mods.values()):
            for attr, obj in list(vars(site).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(site, attr, wrappers[obj])
        network_cls = mods["network"].Network
        for attr in METHODS:
            raw = network_cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, f"network.{attr}"))
            else:
                new = self._wrap(raw, f"network.{attr}")
            self._patch(network_cls, attr, new)
        self._main = self._state()

    def uninstall(self) -> None:
        for site, attr, old in reversed(self._patches):
            setattr(site, attr, old)
        self._patches.clear()

    def _patch(self, site, attr: str, new) -> None:
        self._patches.append((site, attr, vars(site)[attr]))
        setattr(site, attr, new)

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(len(self.names))
            with self._lock:
                self._states.append(st)
            self._local.state = st
        return st

    def _wrap(self, fn, name: str):
        idx = self._index(name)
        hook = self._hook(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            sid = next(tracer._ids)
            if stack:
                parent = stack[-1][0]
            else:
                main_stack = tracer._main.stack if st is not tracer._main else ()
                parent = main_stack[-1][0] if main_stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            st.active[idx] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                st.active[idx] -= 1
                dur = t1 - t0
                covered = frame[1]
                foreign = tracer._foreign.pop(sid, None)
                if foreign:
                    covered += _union_length(foreign)
                st.calls[idx] += 1
                st.self_time[idx] += dur - covered
                if not st.active[idx]:
                    st.total[idx] += dur
                if stack:
                    stack[-1][1] += dur
                elif parent >= 0:
                    with tracer._lock:
                        tracer._foreign.setdefault(parent, []).append((t0, t1))
                if tracer.record:
                    st.span_ids.extend((sid, parent, tracer.job, idx))
                    st.span_times.extend((t0 - tracer.origin, t1 - tracer.origin))
            if hook is not None:
                result = hook(st, args, result)
            return result

        return wrapper

    # -- counters recorded at the same boundaries -----------------------------

    def _hook(self, name: str):
        if name in BUILTIN_GAMES:
            return self._count_utility
        if name == "dynamics.preferred_best_response":
            frozen = self._index("oracle.find_frozen_configuration")

            def step(st, args, choice):
                game, profile, v = args
                if choice != profile[v]:
                    st.counts["dynamics.switches"] += 1
                if st.active[frozen]:
                    st.counts["oracle.frozen_steps"] += 1
                return choice

            return step
        if name == "dynamics.run":
            return lambda st, args, trace: _add(st, "dynamics.rounds", trace.rounds_executed, trace)
        if name == "lvl.verify":
            return lambda st, args, verdict: _add(st, "lvl.nodes_checked", len(args[2]), verdict)
        if name == "local_sim.distance_coloring":
            def palette(st, args, coloring):
                st.counts["local_sim.palette"] = max(
                    st.counts["local_sim.palette"], coloring.palette_size
                )
                return coloring

            return palette
        if name == "oracle.max_welfare_exhaustive":
            return lambda st, args, best: _add(st, "oracle.profiles_scanned", _space(args[0]), best)
        if name == "oracle.enumerate_ne":
            def scanned(st, args, report):
                st.counts["oracle.profiles_scanned"] += _space(args[0])
                st.counts["oracle.equilibria"] += len(report.equilibria)
                return report

            return scanned
        return None

    def _index(self, name: str) -> int:
        # A hook may need the slot of a function wrapped later, so slots are
        # reserved by name on first use.
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _count_utility(self, st, args, game):
        fn = game.utility_fn
        tracer = self

        def counted(v, own, nbrs):
            tracer._state().utility_evals += 1
            return fn(v, own, nbrs)

        return dataclasses.replace(game, utility_fn=counted)

    # -- results ---------------------------------------------------------------

    def merged(self) -> dict:
        """Totals over all threads: per name calls, time and self time, plus
        the named counters."""
        size = len(self.names)
        calls, total, self_time = [0] * size, [0.0] * size, [0.0] * size
        counts: Counter = Counter()
        utility_evals = 0
        for st in self._states:
            for i in range(len(st.calls)):
                calls[i] += st.calls[i]
                total[i] += st.total[i]
                self_time[i] += st.self_time[i]
            for key, value in st.counts.items():
                if key == "local_sim.palette":
                    counts[key] = max(counts[key], value)
                else:
                    counts[key] += value
            utility_evals += st.utility_evals
        counts["game.utility_evals"] = utility_evals
        return {
            "calls": dict(zip(self.names, calls)),
            "s": dict(zip(self.names, total)),
            "self_s": dict(zip(self.names, self_time)),
            "counts": dict(counts),
        }

    def span_count(self) -> int:
        return sum(len(st.span_times) // 2 for st in self._states)

    def write_spans(self, path: str) -> int:
        """Write recorded spans as gzip'd tab-separated text; returns the
        number written. Times are seconds since the tracer was created."""
        rows = []
        for st in self._states:
            ids, times = st.span_ids, st.span_times
            for k in range(len(times) // 2):
                sid, parent, job, idx = ids[4 * k : 4 * k + 4]
                rows.append((sid, parent, job, self.names[idx], times[2 * k], times[2 * k + 1]))
        rows.sort()
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span_id\tparent_id\tjob_id\tname\tstart_s\tend_s\n")
            for row in rows:
                fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % row)
        return len(rows)


def _add(st: _ThreadState, key: str, amount: int, result):
    st.counts[key] += amount
    return result


def _space(game) -> int:
    return prod(len(actions) for actions in game.actions)
