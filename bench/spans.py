"""In-memory span recorder and the instrumentation that feeds it.

Spans are recorded from outside the package: `instrument` replaces public
mdpkit names in every mdpkit module namespace that holds them (the place
where callers look them up at call time) with wrappers that open and close
a span, and restores the originals on exit.  Nothing inside the package is
edited.  Each span records its name, start, end, parent span and op id;
the columns are kept in compact arrays and written once, when the
benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

_PACKAGE = "mdpkit"


class SpanRecorder:
    """Spans as parallel columns, plus counters taken at span boundaries.

    A span's self time is its duration minus the time covered by its direct
    children; calls here are single-threaded and strictly nested, so the
    children of a span never overlap one another.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = []
        self.op_id = -1
        self.op_labels = []
        self.counters = defaultdict(float)

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def top_name(self):
        return self.names[self.name[self.stack[-1]]] if self.stack else None

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(self.name_id(name))
        try:
            yield idx
        finally:
            self.close(idx)

    @contextlib.contextmanager
    def op_span(self, label):
        """Root span of one op; every span opened inside shares its op id."""
        self.op_id = len(self.op_labels)
        self.op_labels.append(label)
        try:
            with self.span("op") as idx:
                yield idx
        finally:
            self.op_id = -1

    def columns(self):
        """Spans as numpy columns: name, start, end, parent, op, self time."""
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        dur = end - start
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=dur.shape[0])
        return {"name": name, "start": start, "end": end, "parent": parent,
                "op": op, "duration": dur, "self": dur - child}

    def write(self, path, meta):
        """Write every span and counter once, at the end of the benchmark."""
        cols = self.columns()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names), op_labels=np.array(
            self.op_labels), counter_names=np.array(sorted(self.counters)),
            counter_values=np.array([self.counters[k]
                                     for k in sorted(self.counters)]),
            meta=np.array(repr(meta)), **cols)


def _wrap(rec, name, fn, after=None):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(rec, args, out)
        return out

    return traced


def _counting(rec, key, fn, busy):
    """Count calls of a regularizer method made directly by numeric_conjugate.

    `busy` is shared by every counting wrapper of one key, so a wrapper
    regularizer delegating to its base (scaled, offset) counts once.
    """
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if busy[0] or rec.top_name() != "regularized.numeric_conjugate":
            return fn(*args, **kwargs)
        busy[0] = True
        rec.counters[key] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            busy[0] = False

    return counted


def _q_bytes(rec, args, out):
    model = args[0]
    rec.counters["core.q_vector.bytes"] += 8 * model.num_actions * model.num_states


def _dual_evals(key):
    def after(rec, args, out):
        rec.counters[key] += out.dual_evals
    return after


def _draws(rec, args, out):
    rec.counters["stochastic.draws"] += out.size
    if rec.top_name() == "stochastic.mc":
        rec.counters["stochastic.cache_bytes"] += out.nbytes


def _file_bytes(key, pos):
    def after(rec, args, out):
        rec.counters[key] += os.path.getsize(args[pos])
    return after


def _modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == _PACKAGE or n.startswith(_PACKAGE + ".")) and m is not None]


@contextlib.contextmanager
def instrument(rec):
    """Trace calls into mdpkit's public functions while the block runs."""
    import mdpkit.cli as cli
    import mdpkit.constrained as constrained
    import mdpkit.core as core
    import mdpkit.equivalence as equivalence
    import mdpkit.modelio as modelio
    import mdpkit.regularized as regularized
    import mdpkit.stochastic as stochastic

    def span(name, after=None):
        return lambda fn: _wrap(rec, name, fn, after)

    def traced_value_iteration(fn):
        inner = _wrap(rec, "core.value_iteration", fn)
        backup_id = rec.name_id("core.backup")

        @functools.wraps(fn)
        def run(model, backup, *args, **kwargs):
            def traced_backup(w, state, sweep):
                idx = rec.open(backup_id)
                try:
                    return backup(w, state, sweep)
                finally:
                    rec.close(idx)
            return inner(model, traced_backup, *args, **kwargs)
        return run

    def traced_operator(fn):
        # the Gumbel closed form and the Monte Carlo backup are closures
        # built here, with no public name of their own to wrap
        @functools.wraps(fn)
        def operator(self):
            name = ("stochastic.mc" if self.method == "mc"
                    else "regularized.closed_form")
            return _wrap(rec, name, fn(self))
        return operator

    def traced_main(fn):
        @functools.wraps(fn)
        def main(argv=None):
            with rec.span("cli." + (argv[0] if argv else "main")):
                return fn(argv)
        return main

    functions = [
        (core, "value_iteration", traced_value_iteration),
        (core, "bellman_sweep", span("core.sweep")),
        (core, "q_vector", span("core.q_vector", _q_bytes)),
        (regularized, "entropy_backup", span("regularized.closed_form")),
        (regularized, "kl_backup", span("regularized.closed_form")),
        (regularized, "numeric_conjugate",
         span("regularized.numeric_conjugate")),
        (constrained, "kl_constrained_backup",
         span("constrained.kl_ball",
              _dual_evals("constrained.kl_ball.dual_evals"))),
        (constrained, "l1_constrained_backup", span("constrained.l1_ball")),
        (constrained, "l2_constrained_backup", span("constrained.l2_ball")),
        (constrained, "generic_phi_ball_backup",
         span("constrained.phi_ball",
              _dual_evals("constrained.phi_ball.dual_evals"))),
        (constrained, "r_to_ct_convert", span("constrained.convert")),
        (constrained, "ct_to_r_convert", span("constrained.convert")),
        (constrained, "l2_dual_discrepancy",
         span("constrained.l2_dual_discrepancy")),
        (stochastic, "mc_emax", span("stochastic.mc_emax")),
        (cli, "main", traced_main),
        (equivalence, "check_equivalence", span("equivalence.check")),
        (equivalence, "counterexample_suite", span("equivalence.suite")),
        (modelio, "load_instance",
         span("modelio.load", _file_bytes("modelio.bytes_read", 0))),
        (modelio, "save_instance",
         span("modelio.save", _file_bytes("modelio.bytes_written", 1))),
    ]
    methods = [
        (equivalence.FrameworkInstance, "solve_with_error",
         span("equivalence.solve_with_error")),
        (equivalence.StochasticInstance, "solve_with_error",
         span("equivalence.solve_with_error")),
        (equivalence.StochasticInstance, "operator", traced_operator),
        (stochastic.GumbelIid, "sample", span("stochastic.draw", _draws)),
        (stochastic.UniformPerEntry, "sample",
         span("stochastic.draw", _draws)),
        (stochastic.GaussianJoint, "sample", span("stochastic.draw", _draws)),
    ]

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    try:
        for home, attr, make in functions:
            original = getattr(home, attr)
            new = make(original)
            for module in _modules():
                if vars(module).get(attr) is original:
                    patch(module, attr, new)
        for cls, attr, make in methods:
            patch(cls, attr, make(vars(cls)[attr]))
        busy = {"value": [False], "gradient": [False]}
        pending = [regularized.Regularizer]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for attr, key in (("value", "regularized.value_evals"),
                              ("gradient", "regularized.grad_evals")):
                if attr in vars(cls):
                    patch(cls, attr, _counting(rec, key, vars(cls)[attr],
                                                busy[attr]))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
