"""Engine configuration and offline classifier profiles (Section 7.1).

The paper proposes shipping classifiers with precomputed traits so a
network element can pick the best implementation under its own constraints:
(1) maximal order-independent part, (2) minimal field subset preserving
order-independence, (3) minimal number of <=2-field groups, (4) group
assignments for a predefined group budget.  :func:`profile_classifier`
computes exactly these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..analysis.fsm import FSMResult, fsm
from ..analysis.mgr import MGRResult, l_mgr
from ..analysis.mrc import MRCResult, greedy_independent_set
from ..core.classifier import Classifier

__all__ = ["EngineConfig", "ClassifierProfile", "profile_classifier"]


@dataclass(frozen=True)
class EngineConfig:
    """Build-time knobs of :class:`~repro.saxpac.engine.SaxPacEngine`.

    Attributes
    ----------
    max_group_fields:
        l — lookup fields per group; 2 keeps the logarithmic worst case.
    max_groups:
        β — parallel lookup budget; None = unlimited (pure MGR).
    min_group_size:
        Groups smaller than this are folded into the TCAM part D — the
        paper's observation that many tiny groups come from general rules
        at the bottom of the list (Example 5).
    enforce_cache:
        Apply (β,l)-MRCC so an I-match preempts the D lookup (Section 4.3).
    d_capacity:
        Row capacity of the TCAM holding D; None = unbounded.
    use_cascading:
        Use the fractionally-cascaded two-field index (O(log N) probes)
        instead of the plain segment-tree variant (O(log^2 N)).
    """

    max_group_fields: int = 2
    max_groups: Optional[int] = None
    min_group_size: int = 1
    enforce_cache: bool = False
    d_capacity: Optional[int] = None
    use_cascading: bool = False

    def __post_init__(self) -> None:
        if self.max_group_fields < 1:
            raise ValueError("max_group_fields must be >= 1")
        if self.max_groups is not None and self.max_groups < 1:
            raise ValueError("max_groups must be >= 1")
        if self.min_group_size < 1:
            raise ValueError("min_group_size must be >= 1")


@dataclass(frozen=True)
class ClassifierProfile:
    """The Section 7.1 configuration traits, computed offline."""

    num_rules: int
    max_order_independent: MRCResult
    fsm_on_independent: Optional[FSMResult]
    min_groups_two_fields: int
    group_assignments: Dict[int, MGRResult] = field(default_factory=dict)

    @property
    def independent_fraction(self) -> float:
        """Share of body rules in the maximal order-independent part."""
        if self.num_rules == 0:
            return 1.0
        return self.max_order_independent.size / self.num_rules


def profile_classifier(
    classifier: Classifier,
    betas: Sequence[int] = (),
) -> ClassifierProfile:
    """Compute the standard traits: max OI subset, its FSM field subset,
    the 2-field MGR group count, and (optionally) assignments for each
    requested group budget β."""
    independent = greedy_independent_set(classifier)
    fsm_result: Optional[FSMResult] = None
    if independent.size:
        sub = classifier.subset(independent.rule_indices)
        fsm_result = fsm(sub)
    two_field = l_mgr(classifier, l=min(2, classifier.num_fields))
    assignments = {
        beta: l_mgr(
            classifier, l=min(2, classifier.num_fields), beta=beta
        )
        for beta in betas
    }
    return ClassifierProfile(
        num_rules=len(classifier.body),
        max_order_independent=independent,
        fsm_on_independent=fsm_result,
        min_groups_two_fields=two_field.num_groups,
        group_assignments=assignments,
    )
