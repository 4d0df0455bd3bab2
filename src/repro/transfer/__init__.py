"""Cross-task estimator transfer: warm-start navigation from the corpus.

The shared :class:`~repro.runtime.parallel.ResultStore` accumulates
ground-truth runs across tenants, tasks and the fleet; this package turns
it into a *transfer source* so the deployment gets cheaper the more traffic
it serves:

``fingerprint``  task identity (graph stats + arch/platform gates),
                 derived from each stored record;
``corpus``       an index over the store, searched for donors by
                 :meth:`TaskFingerprint.similarity`;
``warmstart``    similarity-decayed donor records fed into
                 ``GrayBoxEstimator.fit(sample_weight=)``;
``prerank``      corpus-guided candidate pre-ranking that shrinks the
                 Step-2 profiling budget as coverage grows.

The package sits above the runtime: it imports the store, and nothing
under ``repro.runtime`` imports it.
"""

from repro.transfer.corpus import TransferCorpus
from repro.transfer.fingerprint import (
    FINGERPRINT_VERSION,
    TaskFingerprint,
    record_fingerprint,
    task_fingerprint,
)
from repro.transfer.policy import TransferPolicy
from repro.transfer.warmstart import TransferContext, WarmStartPlan, donor_weights

__all__ = [
    "FINGERPRINT_VERSION",
    "TaskFingerprint",
    "task_fingerprint",
    "record_fingerprint",
    "TransferPolicy",
    "TransferCorpus",
    "TransferContext",
    "WarmStartPlan",
    "donor_weights",
]
