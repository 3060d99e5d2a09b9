"""Timing and counting wrappers installed around bootbayes from outside.

The package imports names with ``from .x import y``, so each wrapper is
rebound in every ``bootbayes`` module that holds the original object.  Family
terms, draws, statistics and GLM fits are aggregated into counts and totals
rather than one span each.  A key's inclusive time counts only its outermost
call; its self time is its duration minus the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "studies", "sampler", "families", "glm", "posterior", "bca",
          "accuracy", "fisher")

# family class methods, keyed by the families-layer metric they feed
FAMILY_METHODS = {"sample_replication": "draw", "delta": "delta",
                  "log_xi": "log_xi", "log_bab_multipliers": "bab_multipliers"}
FAMILY_CLASSES = (("expfam", "FamilyModel"), ("families", "GammaScaleFamily"),
                  ("families", "NormalTranslationFamily"),
                  ("families", "MvNormalFamily"), ("glm", "PoissonGlmFamily"))


class Stat:
    __slots__ = ("calls", "incl", "self", "failures")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self = 0.0
        self.failures = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.depth: dict[str, int] = defaultdict(int)
        self.module_depth: dict[str, int] = defaultdict(int)
        self.module_incl: dict[str, float] = defaultdict(float)
        self.children = [0.0]  # wrapped time inside the open span, per level
        self.counts: dict[str, float] = defaultdict(float)
        self.ess_frac_min = math.inf
        self.outer_total = 0
        self.outer_distinct: set = set()
        self.failure_types: tuple = ()
        self._undo: list = []

    # recording ---------------------------------------------------------------

    def call(self, key: str, fn, args, kwargs, post=None):
        module = key.split(".", 1)[0]
        self.children.append(0.0)
        self.depth[key] += 1
        self.module_depth[module] += 1
        t0 = perf_counter()
        failed = False
        try:
            return_value = fn(*args, **kwargs)
        except self.failure_types:
            failed = True
            raise
        finally:
            dt = perf_counter() - t0
            inner = self.children.pop()
            self.depth[key] -= 1
            self.module_depth[module] -= 1
            st = self.stats[key]
            st.calls += 1
            st.failures += failed
            st.self += dt - inner
            if self.depth[key] == 0:
                st.incl += dt
            if self.module_depth[module] == 0:
                self.module_incl[module] += dt
            self.children[-1] += dt
        if post is not None:
            # hook time is kept out of every layer's self time
            t1 = perf_counter()
            post(self, args, kwargs, return_value)
            self.children[-1] += perf_counter() - t1
        return return_value

    # installation ------------------------------------------------------------

    def _wrap(self, key, fn, key_of=None, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = key if key_of is None else key_of(args, kwargs)
            return tracer.call(k, fn, args, kwargs, post)

        return wrapper

    def _rebind_everywhere(self, original, wrapper):
        for name, mod in list(sys.modules.items()):
            if not (name == "bootbayes" or name.startswith("bootbayes.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self):
        import bootbayes  # noqa: F401  (loads every submodule)
        from bootbayes.expfam import NumericalFailure
        import numpy as np
        self.failure_types = (NumericalFailure, np.linalg.LinAlgError)

        for layer in LAYERS:
            mod = importlib.import_module(f"bootbayes.{layer}")
            names = ["main"] if layer == "cli" else mod.__all__
            for name in names:
                obj = getattr(mod, name)
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                key_of, post = HOOKS.get(f"{layer}.{name}", (None, None))
                self._rebind_everywhere(
                    obj, self._wrap(f"{layer}.{name}", obj, key_of, post))

        for modname, clsname in FAMILY_CLASSES:
            cls = getattr(importlib.import_module(f"bootbayes.{modname}"), clsname)
            for meth, metric in FAMILY_METHODS.items():
                if meth in vars(cls):
                    self._set_attr(cls, meth, f"families.{metric}")
        self._set_attr(bootbayes.families.Statistic, "__call__", "families.statistic")
        self._set_attr(bootbayes.sampler.BootstrapRun, "with_statistic",
                       "sampler.with_statistic")

    def _set_attr(self, owner, attr, key):
        original = vars(owner)[attr]
        setattr(owner, attr, self._wrap(key, original))
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # metrics -----------------------------------------------------------------

    def _incl(self, *keys):
        return sum(self.stats[k].incl for k in keys if k in self.stats)

    def _calls(self, *keys):
        return sum(self.stats[k].calls for k in keys if k in self.stats)

    def module_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, st in self.stats.items():
            out[key.split(".", 1)[0]] += st.self
        return out

    def metrics(self) -> dict[str, float]:
        s, c, inc = self.stats, self._calls, self._incl
        fits = ("glm.glm_fit", "glm.glm_fit_sufficient")
        m = {
            "cli.main_s": inc("cli.main"),
            "sampler.run_bootstrap_s": inc("sampler.run_bootstrap"),
            "sampler.run_bootstrap_self_s": s["sampler.run_bootstrap"].self
            if "sampler.run_bootstrap" in s else 0.0,
            "sampler.replications": self.counts["replications"],
            "sampler.substream_s": inc("sampler.substream"),
            "sampler.substream_calls": c("sampler.substream"),
            "families.draw_s": inc("families.draw"),
            "families.draw_calls": c("families.draw"),
            "families.delta_s": inc("families.delta"),
            "families.log_xi_s": inc("families.log_xi"),
            "families.term_calls": c("families.delta", "families.log_xi"),
            "families.statistic_s": inc("families.statistic"),
            "families.statistic_calls": c("families.statistic"),
            "sampler.with_statistic_s": inc("sampler.with_statistic"),
            "sampler.load_store_s": inc("sampler.load_store"),
            "sampler.save_store_s": inc("sampler.save_store"),
            "sampler.store_bytes": self.counts["store_bytes"],
            "sampler.nonparam_resample_s": inc("sampler.nonparametric_resample"),
            "posterior.weights_density_s": inc("posterior.weights_density"),
            "posterior.weights_density_calls": c("posterior.weights_density"),
            "posterior.weights_other_s": inc("posterior.weights_other"),
            "posterior.credible_interval_s": inc("posterior.credible_interval"),
            "posterior.weighted_density_s": inc("posterior.weighted_density"),
            "posterior.ess_frac_min": (self.ess_frac_min
                                       if math.isfinite(self.ess_frac_min) else 0.0),
            "bca.weights_s": inc("bca.bca_weights"),
            "bca.acceleration_s": inc("bca.jackknife_acceleration",
                                      "bca.family_skew_acceleration"),
            "accuracy.bab_s": inc("accuracy.bab_standard_error"),
            "accuracy.bab_calls": c("accuracy.bab_standard_error"),
            "accuracy.outer_draws": self.outer_total,
            "accuracy.distinct_outer_frac": (len(self.outer_distinct) / self.outer_total
                                             if self.outer_total else 0.0),
            "accuracy.outer_dropped": self.counts["outer_dropped"],
            "accuracy.outer_flagged": self.counts["outer_flagged"],
            "accuracy.jackknife_s": inc("accuracy.jackknife_standard_error"),
            "families.bab_multipliers_s": inc("families.bab_multipliers"),
            "families.bab_multipliers_calls": c("families.bab_multipliers"),
            "glm.fit_calls": c(*fits),
            "glm.fit_s": inc(*fits),
            "glm.irls_iterations": self.counts["irls_iterations"],
            "glm.fit_failures": sum(s[k].failures for k in fits if k in s),
            "glm.aic_profile_calls": c("glm.aic_profile"),
            "glm.aic_profile_s": inc("glm.aic_profile"),
            "fisher.s": self.module_incl["fisher"],
        }
        for layer, value in self.module_self().items():
            m[f"{layer}.self_s"] = value
        return m


# per-function key selection and post-call hooks ------------------------------

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _weights_key(args, kwargs):
    prior = _arg(args, kwargs, 1, "prior")
    return ("posterior.weights_density" if prior.kind == "density"
            else "posterior.weights_other")


def _ess_hook(tracer, args, kwargs, weights):
    tracer.ess_frac_min = min(tracer.ess_frac_min, weights.ess / weights.w.size)


def _run_hook(tracer, args, kwargs, run):
    tracer.counts["replications"] += run.B


def _save_hook(tracer, args, kwargs, _):
    path = _arg(args, kwargs, 1, "path")
    tracer.counts["store_bytes"] += os.path.getsize(path)


def _fit_hook(tracer, args, kwargs, fit):
    tracer.counts["irls_iterations"] += fit.iterations


def _bab_hook(tracer, args, kwargs, report):
    run = _arg(args, kwargs, 0, "run")
    K = _arg(args, kwargs, 3, "K")
    seed = _arg(args, kwargs, 4, "master_seed")
    tracer.outer_total += K
    tracer.outer_distinct.update((run.run_id, seed, k) for k in range(K))
    _accuracy_hook(tracer, args, kwargs, report)


def _accuracy_hook(tracer, args, kwargs, report):
    tracer.counts["outer_dropped"] += report.n_dropped
    tracer.counts["outer_flagged"] += len(report.warnings) - report.n_dropped


HOOKS = {
    "posterior.importance_weights": (_weights_key, _ess_hook),
    "posterior.weights_from_log": (lambda args, kwargs: "posterior.weights_other",
                                   _ess_hook),
    "sampler.run_bootstrap": (None, _run_hook),
    "sampler.run_expanded_bootstrap": (None, _run_hook),
    "sampler.save_store": (None, _save_hook),
    "glm.glm_fit": (None, _fit_hook),
    "glm.glm_fit_sufficient": (None, _fit_hook),
    "accuracy.bab_standard_error": (None, _bab_hook),
    "accuracy.jackknife_standard_error": (None, _accuracy_hook),
}
