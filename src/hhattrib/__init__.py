"""Attribute anonymous household movie ratings to individual members.

Submodules:

* corpus     -- data model, file formats, time helpers, synthetic data
* factorize  -- low-rank rating models: one batched ALS fit over time bins
* temporal   -- weekday profiles, household separation, prior scores
* generative -- Gaussian residual scoring combined with priors
* logistic   -- per-member L1-logistic classification on context features
* evaluate   -- metrics, ROC/AUC, cross-validation, report emission
* cli        -- batch command-line frontend
"""

__version__ = "0.1.0"

from . import corpus, evaluate, factorize, generative, logistic, temporal  # noqa: F401
