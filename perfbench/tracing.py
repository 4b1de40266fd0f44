"""Spans at gammacap's layer boundaries, recorded from outside the package.

Layers are the package's modules.  Each boundary is a public name that one
module imports from the layer below (``gammacap.solver.rho_avg``,
``gammacap.channel.f2``, ``gammacap.cli.oracle.build_channel``, ...) or a
public entry point the workloads call (``gammacap.maximize``,
``gammacap.cli.main``, ...).  The tracer replaces those module attributes
with wrappers for the duration of the traced run; nothing under ``src/`` is
edited.

Spans live in compact typed arrays (name, start, end, parent span, query id)
and are written out once the run has ended.  Self time is derived from the
child spans afterwards.  ``exactcomb.qbinom_ext`` is the hottest leaf, so it
is counted rather than spanned.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

# (module path, attribute, span name, index of the error-rank argument or None)
SPAN_BOUNDARIES: Tuple[Tuple[str, str, str, Optional[int]], ...] = (
    # entry points the workloads call
    ("gammacap", "maximize", "solver.maximize", None),
    ("gammacap", "parse_error_model", "channel.parse_error_model", None),
    ("gammacap", "output_rank_distribution", "channel.output_rank_distribution", None),
    ("gammacap", "c_prime", "matrixfn.c_prime", None),
    ("gammacap.cli", "main", "cli.main", None),
    # solver -> channel
    ("gammacap.solver", "h_r", "channel.h_r", None),
    ("gammacap.solver", "rho_avg", "channel.rho_avg", None),
    ("gammacap.solver", "rank_class_size", "channel.rank_class_size", None),
    # channel -> matrixfn, exactcomb
    ("gammacap.channel", "f0", "matrixfn.f0", None),
    ("gammacap.channel", "f1", "matrixfn.f1", 3),
    ("gammacap.channel", "f2", "matrixfn.f2", 2),
    ("gammacap.channel", "count_rank_matrices", "exactcomb.count_rank_matrices", None),
    # cli -> channel, solver, matrixfn, oracle
    ("gammacap.cli", "parse_error_model", "channel.parse_error_model", None),
    ("gammacap.cli", "output_rank_distribution", "channel.output_rank_distribution", None),
    ("gammacap.cli", "maximize", "solver.maximize", None),
    ("gammacap.matrixfn", "f0", "matrixfn.f0", None),
    ("gammacap.matrixfn", "f1", "matrixfn.f1", None),
    ("gammacap.matrixfn", "f2", "matrixfn.f2", None),
    ("gammacap.oracle", "brute_f_functions", "oracle.brute_f_functions", None),
    ("gammacap.oracle", "build_channel", "oracle.build_channel", None),
    ("gammacap.oracle", "channel_output_rank_marginal", "oracle.channel_output_rank_marginal", None),
    ("gammacap.oracle", "blahut_arimoto", "oracle.blahut_arimoto", None),
)

# (module path, attribute, counter name): hot leaves, counted only.
COUNT_BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("gammacap.channel", "qbinom_ext", "exactcomb.qbinom_ext"),
    ("gammacap.matrixfn", "qbinom_ext", "exactcomb.qbinom_ext"),
)


class Tracer:
    """Records spans while installed; restores every patched name on removal."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_col = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        self.query_id = -1
        self.counts: Dict[str, int] = {}
        self.zero_weight: Dict[str, int] = {}
        # Error rank law of the query in flight, for zero-weight accounting.
        self.error_dist: Optional[Sequence] = None
        self._patched: List[Tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_col.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.query.append(self.query_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, fn, name: str, rank_arg: Optional[int]):
        nid = self._name_id(name)
        stack = self._stack
        name_col, parent, query, start, end = (
            self.name_col, self.parent, self.query, self.start, self.end,
        )
        perf = time.perf_counter
        tracer = self
        zero_weight = self.zero_weight
        if rank_arg is not None:
            zero_weight.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            if rank_arg is not None:
                law = tracer.error_dist
                if law is not None and law[args[rank_arg]] == 0:
                    zero_weight[name] += 1
            idx = len(start)
            name_col.append(nid)
            parent.append(stack[-1])
            query.append(tracer.query_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for path, attr, name, rank_arg in SPAN_BOUNDARIES:
            self._patch(importlib.import_module(path), attr, self._span_wrapper, name, rank_arg)
        for path, attr, name in COUNT_BOUNDARIES:
            self._patch(importlib.import_module(path), attr, self._count_wrapper, name)

    def _patch(self, module, attr: str, make, *args) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, make(original, *args))

    def remove(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds.

        Self time subtracts the time covered by each span's direct children.
        No boundary re-enters itself, so busy time is the plain sum.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for i, nid in enumerate(self.name_col):
            rec = out[self.names[nid]]
            rec["calls"] += 1
            rec["busy_s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
        return out

    def write(self, path: str) -> None:
        """One JSON header line, then the five columns as raw native arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "columns": [
                ["name", "i"], ["parent", "i"], ["query", "i"],
                ["start", "d"], ["end", "d"],
            ],
            "counts": self.counts,
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for col in (self.name_col, self.parent, self.query, self.start, self.end):
                col.tofile(handle)
