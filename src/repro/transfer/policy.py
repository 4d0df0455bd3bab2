"""Transfer tuning knobs, serializable for the wire protocol.

A :class:`TransferPolicy` rides per-request on
:class:`~repro.serving.types.NavigationRequest` (``transfer_policy``) and
server-wide as the :class:`~repro.transfer.warmstart.TransferContext`
default.  Keeping it a frozen dataclass with strict ``from_dict`` mirrors
the rest of the request vocabulary: a typo in a job file fails at submit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = ["TransferPolicy"]


@dataclass(frozen=True)
class TransferPolicy:
    """How aggressively one navigation may lean on the corpus.

    Donors whose :meth:`TaskFingerprint.similarity` to the task scores
    below ``min_similarity`` are ignored.  ``decay`` shapes the donor sample
    weights (``similarity ** decay`` — higher decay trusts only near-twins).
    ``max_shrink`` caps how much of the Step-2 profiling budget corpus
    coverage may replace, and ``min_budget`` is the floor the target task
    always measures itself (the estimator minimum).
    """

    enabled: bool = True
    min_similarity: float = 0.35
    max_donors: int = 4
    max_donor_records: int = 64
    decay: float = 2.0
    min_budget: int = 8
    max_shrink: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_similarity <= 1.0:
            raise ValueError("min_similarity must lie in [0, 1]")
        if self.max_donors < 1:
            raise ValueError("max_donors must be at least 1")
        if self.max_donor_records < 8:
            raise ValueError("max_donor_records must cover the estimator minimum (8)")
        if self.decay <= 0.0:
            raise ValueError("decay must be positive")
        if self.min_budget < 8:
            raise ValueError("min_budget must be at least 8 (estimator minimum)")
        if not 0.0 <= self.max_shrink < 1.0:
            raise ValueError("max_shrink must lie in [0, 1)")

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """JSON-friendly encoding (the request spec's ``transfer_policy``)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TransferPolicy":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown transfer policy keys: {sorted(unknown)}")
        return cls(**data)
