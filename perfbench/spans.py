"""Span recorder that times hhattrib's layers from outside the library.

Modules import each other's functions by name (`from .factorize import
predict`), so a function is replaced at every name a caller looks it up
by, not only where it is defined. Each replacement records calls and self
time: the span's duration minus the durations of the spans nested in it.

The ALS block spans (`factorize.block_u/v/z`) come from the public
`block_hook` argument, which the recorder injects by wrapping
`fit_lowrank_temporal` (the only fitting routine the pipeline and the CLI
call). A block span opens at the first ridge solve after the previous
boundary and closes when the hook reports that block, so the grouping
before the first block stays in `factorize.fit`. A block that made no
solve counts a call with no time.

Fallback counters come from the library's existing DEBUG log records.
"""

import functools
import inspect
import logging
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from hhattrib import cli, corpus, evaluate, factorize, generative, logistic, temporal

# span name -> every (module, attribute) at which callers look the function up
SITES = {
    "corpus.cv_split": [(corpus, "cv_split"), (evaluate, "cv_split")],
    "corpus.parse": [
        (corpus, "parse_ratings"), (corpus, "parse_households"),
        (corpus, "parse_test_events"), (corpus, "load_dataset"),
        (cli, "parse_ratings"), (cli, "parse_households"),
        (cli, "parse_test_events"), (cli, "load_dataset"),
    ],
    "factorize.solve": [(factorize, "ridge_solve"), (factorize, "smoothed_ridge_solve")],
    "factorize.cost": [(factorize, "cost")],
    "factorize.model_io": [(factorize, "save_model"), (factorize, "load_model")],
    "factorize.predict": [(factorize, "predict"), (generative, "predict")],
    "temporal.fit_priors": [(temporal, "fit_priors")],
    "temporal.score": [
        (temporal, "classify_prior"), (temporal, "prior_value"),
        (generative, "prior_value"),
    ],
    "generative.estimate_sigma": [(generative, "estimate_sigma")],
    "generative.score": [(generative, "classify_generative"), (generative, "posterior")],
    "logistic.fit_logistic": [(logistic, "fit_logistic")],
    "logistic.fit_household": [(logistic, "fit_household")],
    "logistic.build_features": [(logistic, "build_features")],
    "logistic.score": [
        (logistic, "classify_logistic"), (logistic, "member_probabilities"),
    ],
    "evaluate.fit_and_classify": [(evaluate, "fit_and_classify")],
    "evaluate.build_report": [(evaluate, "build_report")],
    "evaluate.write_report": [(evaluate, "write_report")],
    "evaluate.roc_sweep": [(evaluate, "roc_sweep"), (evaluate, "roc_sweep_posterior")],
    "cli.cmd_fit": [(cli, "cmd_fit")],
    "cli.cmd_classify": [(cli, "cmd_classify")],
    "cli.cmd_evaluate": [(cli, "cmd_evaluate")],
    "cli.cmd_roc": [(cli, "cmd_roc")],
}
BLOCKS = ("factorize.block_u", "factorize.block_v", "factorize.block_z")
SPAN_NAMES = (*SITES, "factorize.fit", *BLOCKS)

# counter name -> (logger, substring of the record's message template)
COUNTERS = {
    "temporal.undefined_conditional.count": ("hhattrib.temporal", "undefined"),
    "generative.degenerate_posterior.count": ("hhattrib.generative", "degenerate"),
    "logistic.one_sided_labels.count": ("hhattrib.logistic", "one-sided"),
    "logistic.unknown_movie.count": ("hhattrib.logistic", "unknown to the factor model"),
}


class _CountingHandler(logging.Handler):
    def __init__(self, counts):
        super().__init__(logging.DEBUG)
        self.counts = counts

    def emit(self, record):
        for name, (logger, text) in COUNTERS.items():
            if record.name == logger and text in str(record.msg):
                self.counts[name] += 1


class Recorder:
    """Self time and call count per span, plus fallback counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = {name: 0 for name in COUNTERS}
        self.missing = []        # sites the library no longer has
        self._stack = []         # open spans: [name, start, nested duration]
        self._fit_depth = 0
        self._block_open = False

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name):
        self._stack.append([name, perf_counter(), 0.0])

    def _exit(self, name=None):
        span_name, start, nested = self._stack.pop()
        duration = perf_counter() - start
        name = name or span_name
        self.self_s[name] += duration - nested
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return traced

    def _wrap_solve(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._fit_depth and not self._block_open:
                self._enter("factorize.block")
                self._block_open = True
            self._enter("factorize.solve")
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return traced

    def _block_done(self, kind):
        name = f"factorize.block_{kind}"
        if self._block_open:
            self._block_open = False
            self._exit(name)
        else:
            self.calls[name] += 1

    def _wrap_fit(self, fn):
        signature = inspect.signature(fn)
        if "block_hook" not in signature.parameters:
            return self._wrap("factorize.fit", fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            user_hook = bound.arguments.get("block_hook")

            def hook(kind, b, model):
                self._block_done(kind)
                if user_hook:
                    user_hook(kind, b, model)

            bound.arguments["block_hook"] = hook
            self._enter("factorize.fit")
            self._fit_depth += 1
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                if self._block_open:   # the fit raised inside a block
                    self._block_open = False
                    self._exit()
                self._fit_depth -= 1
                self._exit()
        return traced

    # -- installation -------------------------------------------------------

    @contextmanager
    def installed(self):
        """Replace every site while the block runs; restore them after."""
        originals = []
        plan = [(name, site) for name, sites in SITES.items() for site in sites]
        plan.append(("factorize.fit", (factorize, "fit_lowrank_temporal")))
        for name, (module, attr) in plan:
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            if name == "factorize.fit":
                wrapped = self._wrap_fit(fn)
            elif name == "factorize.solve":
                wrapped = self._wrap_solve(fn)
            else:
                wrapped = self._wrap(name, fn)
            originals.append((module, attr, fn))
            setattr(module, attr, wrapped)

        handler = _CountingHandler(self.counts)
        loggers = {logging.getLogger(logger) for logger, _ in COUNTERS.values()}
        levels = [(lg, lg.level) for lg in loggers]
        for lg in loggers:
            lg.setLevel(logging.DEBUG)
            lg.addHandler(handler)
        try:
            yield self
        finally:
            for lg, level in levels:
                lg.removeHandler(handler)
                lg.setLevel(level)
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)
            self._stack.clear()
            self._fit_depth = 0
            self._block_open = False

    def metrics(self) -> dict:
        """Per-span self time and calls, then the counters (one pass)."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
            out[f"{name}.calls"] = self.calls.get(name, 0)
        out.update(self.counts)
        return out

    def total_self_s(self) -> float:
        return sum(self.self_s.values())
