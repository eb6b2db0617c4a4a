"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each weylprior module from outside
the package and rebinds every module-level name that refers to them, so
names imported with ``from .x import f`` (``geometry.metric_and_cubic``,
``priors.potential_omega``, ``priors.fisher_metric``, ...) are traced too.
Each span keeps its name, start, end, parent and thread.  A span opened in a
worker thread of the ``priors`` pool with nothing open in that thread takes
the innermost open span of the main thread as its parent, and a span's self
time subtracts the union of its children's intervals, so self time stays
right when children overlap across threads.
"""

import functools
import importlib
import itertools
import sys
import threading
import time
import types
from array import array

import numpy as np

LAYERS = ("models", "numerics", "kernels", "tensors", "geometry", "priors",
          "bayes", "cli")

TENSOR_EVALS = ("tensors.fisher_metric", "tensors.amari_chentsov",
                "tensors.metric_and_cubic")
CONNECTIONS = ("geometry.levi_civita", "geometry.alpha_connection",
               "geometry.weyl_connection")
RESIDUALS = ("geometry.closedness_residual", "geometry.duality_residual",
             "geometry.nabla_g_identity_residual",
             "geometry.weyl_compatibility_residual",
             "geometry.trace_identity_residual", "geometry.ricci_tensor")


class _ThreadState:
    def __init__(self, index, is_main):
        self.index = index
        self.is_main = is_main
        self.stack = []
        self.rows = array("d")      # idx, fid, start, end, parent per span
        self.counts = {}

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount


# count hooks: (thread state, args, result) -> None, run after a call returns
def _count_nodes(st, args, out):
    st.add("nodes", len(out[1]))


def _count_pair(st, args, out):
    q, m = np.shape(args[1])
    st.add("madds", q * m * m)
    st.add(f"shape q={q} m={m}", 1)


def _count_triple(st, args, out):
    q, m = np.shape(args[1])
    st.add("madds", q * m ** 3)


def _count_score_rows(st, args, out):
    st.add("score_rows", len(out))


def _count_field_points(st, args, out):
    st.add("field_points", len(out))


def _count_loglik(st, args, out):
    st.add("loglik_evals", len(out.points) * len(args[2].observations))


HOOKS = {
    "numerics.sample_nodes": _count_nodes,
    "kernels.pair_contract": _count_pair,
    "kernels.triple_contract": _count_triple,
    "models.score_ref": _count_score_rows,
    "priors.prior_values": _count_field_points,
    "bayes.grid_posterior": _count_loglik,
}
CPU_TIMED = ("priors.prior_values",)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._main_ident = threading.main_thread().ident
        self._main = None

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            is_main = threading.get_ident() == self._main_ident
            with self._lock:
                st = _ThreadState(len(self._states), is_main)
                self._states.append(st)
            if is_main:
                self._main = st
            self._local.state = st
            return st

    def _wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        cpu_timed = name in CPU_TIMED
        perf = time.perf_counter
        cpu = time.process_time
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            if stack:
                parent = stack[-1]
            else:
                # a pool thread: the main thread waits inside the span that
                # submitted the work
                main_stack = () if st.is_main or tracer._main is None else tracer._main.stack
                parent = main_stack[-1] if main_stack else -1
            idx = next(tracer._ids)
            stack.append(idx)
            c0 = cpu() if cpu_timed else 0.0
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                st.rows.extend((idx, fid, t0, t1, parent))
            if cpu_timed:
                st.add(f"{name}.cpu_s", cpu() - c0)
            if hook is not None:
                hook(st, args, out)
            return out

        return traced

    def install(self):
        """Wrap every public function of every layer and rebind all references."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"weylprior.{layer}")
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "weylprior" and not modname.startswith("weylprior."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        from weylprior.models import ModelSpec
        ModelSpec.score_ref = self._wrap("models.score_ref", ModelSpec.score_ref)

    # -----------------------------------------------------------------------

    def spans(self):
        """Arrays indexed by span id: fid, start, end, parent, thread."""
        parts = []
        for st in self._states:
            r = np.frombuffer(st.rows, dtype=float).reshape(-1, 5)
            parts.append(np.column_stack([r, np.full(len(r), st.index)]))
        r = np.concatenate(parts) if parts else np.empty((0, 6))
        r = r[np.argsort(r[:, 0], kind="stable")]
        return (r[:, 1].astype(int), r[:, 2], r[:, 3], r[:, 4].astype(int),
                r[:, 5].astype(int))

    def save(self, path):
        """Write every span (function id, start, end, parent, thread) to ``path``."""
        fid, t0, t1, parent, thread = self.spans()
        np.savez(path, names=np.array(self.names), fid=fid, start=t0, end=t1,
                 parent=parent, thread=thread)

    def counts(self):
        out = {}
        for st in self._states:
            for k, v in st.counts.items():
                out[k] = out.get(k, 0) + v
        return out

    def summary(self):
        """Per-function calls, total and self time, plus the hook counts."""
        fid, t0, t1, parent, thread = self.spans()
        n = len(fid)
        dur = t1 - t0
        has_parent = parent >= 0
        safe_parent = np.where(has_parent, parent, 0)
        same = has_parent & (thread[safe_parent] == thread)
        covered = np.bincount(parent[same], weights=dur[same], minlength=n)
        for p in np.unique(parent[has_parent & ~same]):
            kids = np.flatnonzero(parent == p)
            covered[p] = _union_length(t0[kids], t1[kids])
        self_t = dur - covered
        k = len(self.names)
        calls = np.bincount(fid, minlength=k)
        total = np.bincount(fid, weights=dur, minlength=k)
        selfs = np.bincount(fid, weights=self_t, minlength=k)
        under_check = _has_ancestor(fid, parent, self.names.index("cli.run_check"))
        evals = np.isin(fid, [self.names.index(f) for f in TENSOR_EVALS])
        functions = {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                            "self_s": float(selfs[i])}
                     for i, name in enumerate(self.names) if calls[i]}
        return {"spans": n, "threads": len(self._states), "functions": functions,
                "counts": self.counts(),
                "tensor_evals_under_run_check": int(np.sum(evals & under_check))}


def _union_length(starts, ends):
    order = np.argsort(starts)
    total = 0.0
    cur_s = cur_e = None
    for s, e in zip(starts[order], ends[order]):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _has_ancestor(fid, parent, target):
    """Boolean per span: the span or one of its ancestors has function ``target``."""
    flag = fid == target
    anc = parent.copy()
    while np.any(anc >= 0):
        live = anc >= 0
        flag[live] = flag[live] | flag[anc[live]]
        anc[live] = parent[anc[live]]
    return flag


def layer_metrics(summary, points):
    """The per-layer metrics of BENCHMARK.json from one traced round."""
    fns = summary["functions"]
    counts = summary["counts"]

    def calls(*names):
        return sum(fns.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names):
        return sum(fns.get(n, {}).get("self_s", 0.0) for n in names)

    def layer_self(layer):
        return sum(v["self_s"] for n, v in fns.items() if n.startswith(layer + "."))

    evals = calls(*TENSOR_EVALS)
    checks = calls("cli.run_check")
    return {
        "numerics.sample_nodes.calls": (calls("numerics.sample_nodes"), "count"),
        "numerics.sample_nodes.nodes": (counts.get("nodes", 0), "count"),
        "numerics.nodes_per_tensor": (counts.get("nodes", 0) / evals if evals else 0.0,
                                      "nodes/tensor"),
        "numerics.gauss_hermite_nodes.self_s": (self_s("numerics.gauss_hermite_nodes"), "s"),
        "kernels.pair_contract.calls": (calls("kernels.pair_contract"), "count"),
        "kernels.triple_contract.calls": (calls("kernels.triple_contract"), "count"),
        "kernels.self_s": (layer_self("kernels"), "s"),
        "kernels.madds": (counts.get("madds", 0), "madd"),
        "models.score_ref.calls": (calls("models.score_ref"), "count"),
        "models.score_ref.rows": (counts.get("score_rows", 0), "count"),
        "models.score_ref.self_s": (self_s("models.score_ref"), "s"),
        "tensors.evals": (evals, "count"),
        "tensors.self_s": (layer_self("tensors"), "s"),
        "geometry.weyl_one_form.calls": (calls("geometry.weyl_one_form"), "count"),
        "geometry.oneform_per_point": (calls("geometry.weyl_one_form") / points,
                                       "calls/point"),
        "geometry.potential_omega.calls": (calls("geometry.potential_omega"), "count"),
        "geometry.potential_omega.self_s": (self_s("geometry.potential_omega"), "s"),
        "numerics.line_integral.self_s": (self_s("numerics.line_integral"), "s"),
        "geometry.metric_derivatives.calls": (calls("geometry.metric_derivatives"), "count"),
        "geometry.connection.calls": (calls(*CONNECTIONS), "count"),
        "numerics.partial.calls": (calls("numerics.partial"), "count"),
        "geometry.tensor_evals_per_check": (
            summary["tensor_evals_under_run_check"] / checks if checks else 0.0,
            "evals/check"),
        "geometry.residual.self_s": (self_s(*RESIDUALS), "s"),
        "priors.field_points": (counts.get("field_points", 0), "count"),
        "priors.prior_values.self_s": (self_s("priors.prior_values"), "s"),
        "priors.prior_values.cpu_s": (counts.get("priors.prior_values.cpu_s", 0.0), "s"),
        "bayes.grid_posterior.self_s": (self_s("bayes.grid_posterior"), "s"),
        "bayes.loglik_evals": (counts.get("loglik_evals", 0), "count"),
        "cli.self_s": (layer_self("cli"), "s"),
        "cli.run_check.calls": (checks, "count"),
    }
