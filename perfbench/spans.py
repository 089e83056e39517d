"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions and methods of each ``greensim_rl``
layer at its module boundary, in the benchmark's own process, so no file of
the package changes.  Every binding a caller looks up is patched: a function
imported by name into another module (``trainer.rollout_batch``,
``harness.train``, ...) is replaced there too, and methods are replaced on
the concrete classes the trainer uses.  A span records name, start, end,
parent span and a row count; self time is a span's duration minus the
durations of its child spans (calls are nested and single-threaded, so
children never overlap).

Wrappers are installed only in the traced process.  Forked pool workers
inherit them, so untraced figures must come from a process in which no
wrapper was ever installed.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

import workloads
from greensim_rl import bayes, bioenv, core, estimators, harness, policy, trainer

class Span:
    __slots__ = ("name", "start", "end", "parent", "rows", "info")

    def __init__(self, name: str, parent: int, rows: int = 0):
        self.name = name
        self.parent = parent
        self.rows = rows
        self.info: dict | None = None
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _rows_of(index: int, name: str):
    """Row count taken from an array argument (its length) or an int argument."""

    def rows(args, kwargs):
        value = _arg(args, kwargs, index, name)
        return int(value) if isinstance(value, (int, np.integer)) else int(np.shape(value)[0])

    return rows


def _traj_reused(kind: str, args, kwargs) -> int:
    """Trajectories a gradient call reweights."""
    if kind == "pg":
        return _arg(args, kwargs, 0, "record").n_i
    buffer = _arg(args, kwargs, 0, "buffer")
    if kind == "ilr":
        return buffer.total_trajectories()
    window = _arg(args, kwargs, 3 if kind == "mlr" else 2, "rolling_window")
    return sum(r.n_i for r in buffer.window(window))


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object, bool]] = []
        self._fresh_posterior = False

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (set-up, one unit)."""
        s = self._open(name, 0)
        try:
            yield s
        finally:
            self._close(s)

    def _open(self, name: str, rows: int) -> Span:
        s = Span(name, self._stack[-1] if self._stack else -1, rows)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        return s

    def _close(self, s: Span) -> None:
        s.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, rows=None, info=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = self._open(name, rows(args, kwargs) if rows else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if info:
                s.info = info(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        own = attr in vars(owner)
        self._patched.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, wrapper)

    def _patch_function(self, name: str, owners, fn, **hooks) -> None:
        wrapper = self._wrap(name, fn, **hooks)
        for owner in owners:
            if getattr(owner, fn.__name__, None) is fn:
                self._patch(owner, fn.__name__, wrapper)

    def _patch_method(self, layer: str, cls, attr: str, **hooks) -> None:
        self._patch(cls, attr, self._wrap(f"{layer}.{attr}", getattr(cls, attr), **hooks))

    def install(self) -> None:
        """Patch every layer boundary the trainer and harness call through."""

        def mark_fresh(args, kwargs, result):
            self._fresh_posterior = True

        def mh_info(args, kwargs, result):
            burnin, self._fresh_posterior = self._fresh_posterior, False
            return {"burnin": burnin}

        def acceptance_info(args, kwargs, result):
            live = [r for r in result if r["n_obs"] > 0 and r["proposed"] > 0]
            return {
                "accepted": sum(r["accept_rate"] * r["proposed"] for r in live),
                "proposed": sum(r["proposed"] for r in live),
            }

        def train_info(args, kwargs, result):
            cfg = _arg(args, kwargs, 1, "cfg")
            return {"estimator": cfg.estimator, "iterations": cfg.total_iterations, "periods": cfg.periods}

        def gradient_info(kind):
            def info(args, kwargs, result):
                diag = kwargs.get("diag_out") or {}
                return {
                    "reused": _traj_reused(kind, args, kwargs),
                    "ess": float(diag.get("ess", np.nan)),
                    "max_ratio": float(diag.get("max_ratio", np.nan)),
                }

            return info

        modules = (core, bioenv, bayes, estimators, policy, trainer, harness)
        self._patch_function("core.rollout_batch", modules, core.rollout_batch, rows=_rows_of(4, "n"))
        self._patch_function("bioenv.collect_real_data", modules, bioenv.collect_real_data)
        self._patch_function("bayes.make_posterior", modules, bayes.make_posterior, info=mark_fresh)
        self._patch_function("bayes.update_dataset", modules, bayes.update_dataset, info=mark_fresh)
        self._patch_function("bayes.mh_sample", modules, bayes.mh_sample, info=mh_info)
        self._patch_function("bayes.acceptance_rows", modules, bayes.acceptance_rows, info=acceptance_info)
        for kind in trainer.ESTIMATOR_KINDS:
            fn = getattr(estimators, f"{kind}_gradient")
            self._patch_function(f"estimators.{kind}_gradient", modules, fn, info=gradient_info(kind))
        self._patch_function("trainer.train", modules, trainer.train, info=train_info)
        self._patch_function("trainer.policy_update", modules, trainer.policy_update)
        self._patch_function("harness.evaluate_policy", modules, harness.evaluate_policy)
        # The benchmark's own reference loop in eval_fn: a span keeps it out of train's self time.
        self._patch_function("bench.reference_loop", (workloads,), workloads.kernel)

        mlp = policy.MlpSoftmaxPolicy
        self._patch_method("policy", mlp, "log_prob_batch", rows=_rows_of(2, "states"))
        self._patch_method("policy", mlp, "weighted_score_sum", rows=_rows_of(2, "states"))
        self._patch_method("policy", mlp, "sample_actions_batch", rows=_rows_of(2, "states"))
        env = bioenv.ChromatographyEnv
        self._patch_method("bioenv", env, "transition_logpdf_batch", rows=_rows_of(1, "states"))
        self._patch_method("bioenv", env, "sample_transition_batch", rows=_rows_of(1, "states"))
        self._patch_method("bioenv", env, "sample_initial_batch", rows=_rows_of(1, "n"))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()


# --- aggregation ---------------------------------------------------------------


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class SpanTable:
    """Per-name views over the spans that ran inside the benchmark's ``unit`` spans."""

    def __init__(self, spans: list[Span]):
        n = len(spans)
        child = [0.0] * n
        root = list(range(n))
        self.train_of = [-1] * n  # enclosing trainer.train span, if any
        for i, s in enumerate(spans):
            if s.parent >= 0:
                child[s.parent] += s.duration
                root[i] = root[s.parent]
                self.train_of[i] = self.train_of[s.parent]
            if s.name == "trainer.train":
                self.train_of[i] = i
        self.spans = spans
        self.self_s = [s.duration - c for s, c in zip(spans, child)]
        self.units = [s for s in spans if s.name == "unit"]
        self._in_unit: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            if spans[root[i]].name == "unit":
                self._in_unit.setdefault(s.name, []).append(i)
        self.first_initial_s = next(
            (self.self_s[i] for i, s in enumerate(spans) if s.name == "bioenv.sample_initial_batch"),
            0.0,
        )

    def select(self, name: str) -> list[int]:
        """Indices of the spans called ``name`` inside a unit, in call order."""
        return self._in_unit.get(name, [])

    def per_unit(self, total: float) -> float:
        value = total / len(self.units)
        return int(value) if float(value).is_integer() else value

    def calls(self, name: str):
        return self.per_unit(len(self.select(name)))

    def total_self(self, name: str) -> float:
        return float(self.per_unit(sum(self.self_s[i] for i in self.select(name))))

    def total_inclusive(self, name: str) -> float:
        return float(self.per_unit(sum(self.spans[i].duration for i in self.select(name))))

    def rows(self, name: str):
        return self.per_unit(sum(self.spans[i].rows for i in self.select(name)))

    def ms_p50(self, name: str) -> float:
        return _pct([self.spans[i].duration * 1e3 for i in self.select(name)], 50)

    def call_count_problems(self) -> list[str]:
        """Check the trace saw every call the training loop makes, per macro."""
        counts = Counter(
            (self.train_of[i], s.name) for i, s in enumerate(self.spans) if self.train_of[i] >= 0
        )
        problems = []
        for t in self.select("trainer.train"):
            info = self.spans[t].info
            if info is None:  # the macro raised; it counts as a failure, not a wrong output
                continue
            iters = info["iterations"]
            expected = {
                "core.rollout_batch": 2 * iters + info["periods"] + 1,  # iterations + evals + periods + 1
                "harness.evaluate_policy": iters,
                "bayes.mh_sample": 0 if info["estimator"] == "tlr" else iters,
            }
            for name, want in expected.items():
                if counts[(t, name)] != want:
                    problems.append(
                        f"{info['estimator']} macro: {name} called {counts[(t, name)]}x, expected {want}"
                    )
        return problems


def layer_metrics(table: SpanTable) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``; values are per unit of work."""
    m: dict[str, tuple[float, str]] = {}
    mh = table.select("bayes.mh_sample")
    burn = [i for i in mh if table.spans[i].info["burnin"]]
    draws = [i for i in mh if not table.spans[i].info["burnin"]]
    accept = [table.spans[i].info for i in table.select("bayes.acceptance_rows")]
    proposed = sum(a["proposed"] for a in accept)
    m["bayes.mh_sample.calls"] = (table.calls("bayes.mh_sample"), "count")
    m["bayes.mh_sample.self_s"] = (table.total_self("bayes.mh_sample"), "s")
    m["bayes.mh_sample.burnin_s"] = (table.per_unit(sum(table.self_s[i] for i in burn)), "s")
    m["bayes.mh_sample.draw_ms.p50"] = (_pct([table.self_s[i] * 1e3 for i in draws], 50), "ms")
    m["bayes.accept_rate"] = (sum(a["accepted"] for a in accept) / proposed if proposed else 0.0, "ratio")
    m["bayes.update_dataset.self_s"] = (table.total_self("bayes.update_dataset"), "s")

    grads = []
    for kind in trainer.ESTIMATOR_KINDS:
        name = f"estimators.{kind}_gradient"
        grads += table.select(name)
        m[f"{name}.calls"] = (table.calls(name), "count")
        m[f"{name}.self_s"] = (table.total_self(name), "s")
        m[f"{name}.total_s"] = (table.total_inclusive(name), "s")
        m[f"{name}.ms.p50"] = (table.ms_p50(name), "ms")
    infos = [table.spans[i].info for i in grads]
    m["estimators.traj_reused"] = (float(np.mean([g["reused"] for g in infos])) if infos else 0.0, "count")
    m["estimators.ess_frac"] = (
        float(np.mean([g["ess"] / g["reused"] for g in infos])) if infos else 0.0,
        "ratio",
    )
    m["estimators.max_ratio.p90"] = (_pct([g["max_ratio"] for g in infos], 90), "ratio")

    for name in (
        "policy.log_prob_batch",
        "policy.weighted_score_sum",
        "policy.sample_actions_batch",
        "bioenv.transition_logpdf_batch",
        "bioenv.sample_transition_batch",
    ):
        m[f"{name}.rows"] = (table.rows(name), "count")
        m[f"{name}.self_s"] = (table.total_self(name), "s")
    m["bioenv.sample_initial_batch.self_s"] = (table.total_self("bioenv.sample_initial_batch"), "s")
    m["bioenv.sample_initial_batch.first_s"] = (table.first_initial_s, "s")
    m["bioenv.collect_real_data.self_s"] = (table.total_self("bioenv.collect_real_data"), "s")

    m["core.rollout_batch.calls"] = (table.calls("core.rollout_batch"), "count")
    m["core.rollout_batch.rows"] = (table.rows("core.rollout_batch"), "count")
    m["core.rollout_batch.self_s"] = (table.total_self("core.rollout_batch"), "s")

    m["harness.evaluate_policy.calls"] = (table.calls("harness.evaluate_policy"), "count")
    m["harness.evaluate_policy.self_s"] = (table.total_self("harness.evaluate_policy"), "s")
    m["harness.evaluate_policy.ms.p50"] = (table.ms_p50("harness.evaluate_policy"), "ms")

    m["trainer.train.self_s"] = (table.total_self("trainer.train"), "s")
    m["trainer.policy_update.self_s"] = (table.total_self("trainer.policy_update"), "s")
    return m
