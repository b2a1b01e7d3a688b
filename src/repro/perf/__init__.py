"""Hot-path performance layer: fingerprints, caches and pruning.

The paper's whole pitch is *efficiency* — classification exists so that
rewriting-based query answering is fast enough for practice.  This
package supplies the machinery that makes repeated work free:

* :mod:`~repro.perf.fingerprint` — stable structural TBox hashes, the
  key under which classification results are shared across systems;
* :mod:`~repro.perf.cache` — bounded LRU caches with hit/miss/eviction
  statistics, plus the process-wide classification cache;
* :mod:`~repro.perf.canonical` — variable-renaming- and order-invariant
  cache keys for CQs/UCQs, so alpha-equivalent queries share rewriting,
  unfolding and answer cache entries, and query templates (constants as
  parameters), so queries that differ only in their constants share a
  rewriting;
* :mod:`~repro.perf.prune` — subsumption pruning of rewriting outputs
  (drop disjuncts another disjunct maps into homomorphically), with
  before/after statistics.

:class:`~repro.obda.system.OBDASystem` turns all of this on by default;
pass ``enable_caches=False`` to opt out.
"""

from .cache import (
    CacheStats,
    ClassificationCache,
    LRUCache,
    shared_classification_cache,
)
from .canonical import cq_key, ucq_key
from .fingerprint import tbox_fingerprint
from .prune import PruneResult, prune_ucq

__all__ = [
    "CacheStats",
    "ClassificationCache",
    "LRUCache",
    "PruneResult",
    "cq_key",
    "prune_ucq",
    "shared_classification_cache",
    "tbox_fingerprint",
    "ucq_key",
]
