"""Workload statistics substrate.

Provides the stochastic machinery used by both the broadcast server and the
clients:

* :class:`~repro.stats.zipf.ZipfGenerator` -- the skewed access-pattern
  sampler that the paper's performance model (Section 5.1) is built on.
* :class:`~repro.stats.zipf.OffsetZipfGenerator` -- a Zipf sampler shifted
  by ``offset`` items to model disagreement between the client read pattern
  and the server update pattern.
* :class:`~repro.stats.online.OnlineStats` / :class:`~repro.stats.online.RatioEstimator`
  -- numerically stable accumulation of means, variances and rates.
* :class:`~repro.stats.metrics.MetricsRegistry` -- the named counters and
  samplers the experiment harness reports.
"""

from repro.stats.metrics import Counter, MetricsRegistry, Sampler
from repro.stats.online import OnlineStats, RatioEstimator
from repro.stats.zipf import OffsetZipfGenerator, ZipfGenerator, zipf_pmf

__all__ = [
    "Counter",
    "MetricsRegistry",
    "OffsetZipfGenerator",
    "OnlineStats",
    "RatioEstimator",
    "Sampler",
    "ZipfGenerator",
    "zipf_pmf",
]
