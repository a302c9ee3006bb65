"""The fault-injection hook the runtime consults at named sites.

Two implementations share one duck-typed interface, mirroring the
``NULL_RECORDER`` pattern of :mod:`repro.runtime.telemetry`:

* :data:`NULL_INJECTOR` — the production default; ``enabled`` is False
  and every method is a no-op, so instrumented code pays one attribute
  load per site;
* :class:`FaultInjector` — armed with a :class:`~repro.chaos.plan
  .FaultPlan`, it sleeps or raises at matching sites and tallies every
  injection in :attr:`~FaultInjector.injected` so tests can assert on
  exactly what fired.

Shard workers are separate processes and cannot share an injector, so
their sites are split in two: the dispatcher takes each chunk's
decisions against the one injector (:meth:`FaultInjector.decide`, which
keeps budgets, ``after`` and tallies fleet-wide), and the worker enacts
them with :func:`inject`.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, List, Optional, Tuple

from .plan import FaultPlan, FaultSpec

__all__ = [
    "FaultInjector",
    "InjectedCrash",
    "InjectedFault",
    "NULL_INJECTOR",
    "NullInjector",
    "inject",
]


class InjectedFault(RuntimeError):
    """An exception raised on purpose by a chaos plan (kind ``error``)."""


class InjectedCrash(InjectedFault):
    """An injected worker/build crash (kind ``crash``)."""


def inject(spec: FaultSpec, site: str, **ctx) -> None:
    """Enact ``spec`` at ``site``: sleep for slow/hang kinds, raise for
    crash/error kinds.  ``ctx`` is appended to the raised message for
    debuggability."""
    if spec.kind in ("hang", "slow"):
        time.sleep(spec.delay)
        return
    detail = spec.message or f"injected {spec.kind}"
    if ctx:
        tags = " ".join(f"{k}={v}" for k, v in sorted(ctx.items()))
        detail = f"{detail} [{site} {tags}]"
    else:
        detail = f"{detail} [{site}]"
    if spec.kind == "crash":
        raise InjectedCrash(detail)
    raise InjectedFault(detail)


class NullInjector:
    """No-op injector: the production default at every site."""

    enabled = False

    def fire(self, site: str, **ctx) -> None:
        """Do nothing."""

    def corrupted(self, site: str) -> bool:
        """Never corrupt."""
        return False


#: Shared no-op injector; the default for every chaos-aware component.
NULL_INJECTOR = NullInjector()


class FaultInjector:
    """Consults a :class:`FaultPlan` at each site visit and acts on it.

    :meth:`fire` handles the exception/sleep kinds (``crash``, ``error``,
    ``hang``, ``slow``); :meth:`corrupted` answers the data-corruption
    query for ``corrupt`` specs.  Both take the same first-match-wins
    decision over the plan's specs.
    """

    enabled = True

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._visits: Dict[str, int] = {}
        self._fired: Dict[int, int] = {}
        self._rngs: Dict[int, random.Random] = {
            i: random.Random(plan.seed * 1_000_003 + i)
            for i in range(len(plan.specs))
        }
        #: ``(site, kind)`` -> number of injections so far.
        self.injected: Dict[Tuple[str, str], int] = {}
        #: Optional repro.obs Tracer; when set, each injection stamps a
        #: ``chaos.injected`` event onto the active span.  Shard-worker
        #: faults are decided in this process, so they stamp it too.
        self.tracer = None

    # -- decision ------------------------------------------------------
    def _decide(
        self, site: str, exclude_corrupt: bool
    ) -> Optional[Tuple[int, FaultSpec]]:
        """Pick the spec (if any) that fires on this visit to ``site``,
        with its index in the plan."""
        with self._lock:
            visit = self._visits.get(site, 0)
            self._visits[site] = visit + 1
            for i, spec in enumerate(self.plan.specs):
                if spec.site != site:
                    continue
                if exclude_corrupt != (spec.kind != "corrupt"):
                    continue
                if visit < spec.after:
                    continue
                fired = self._fired.get(i, 0)
                if spec.times is not None and fired >= spec.times:
                    continue
                if spec.probability < 1.0:
                    if self._rngs[i].random() >= spec.probability:
                        continue
                self._fired[i] = fired + 1
                key = (site, spec.kind)
                self.injected[key] = self.injected.get(key, 0) + 1
                found = i, spec
                break
            else:
                return None
        if self.tracer is not None:
            self.tracer.event("chaos.injected", site=site, kind=spec.kind)
        return found

    # -- the hooks the runtime calls -----------------------------------
    def fire(self, site: str, **ctx) -> None:
        """Visit ``site``: sleep for slow/hang specs, raise for
        crash/error specs, return silently otherwise (see
        :func:`inject`)."""
        found = self._decide(site, exclude_corrupt=True)
        if found is not None:
            inject(found[1], site, **ctx)

    def decide(self, site: str) -> Optional[Tuple[int, FaultSpec]]:
        """:meth:`fire` without the action: the ``(plan index, spec)``
        firing on this visit to ``site`` (counted and traced as an
        injection), or None.  For sites another process enacts with
        :func:`inject` — shard workers."""
        return self._decide(site, exclude_corrupt=True)

    def corrupted(self, site: str) -> bool:
        """True when a ``corrupt`` spec fires on this visit to
        ``site``."""
        return self._decide(site, exclude_corrupt=False) is not None

    # -- test/observability helpers ------------------------------------
    def arm(self, spec: FaultSpec) -> None:
        """Append a spec to the live plan (stateful tests inject faults
        mid-run)."""
        with self._lock:
            specs = self.plan.specs + (spec,)
            self.plan = FaultPlan(specs, self.plan.seed)
            self._rngs[len(specs) - 1] = random.Random(
                self.plan.seed * 1_000_003 + len(specs) - 1
            )

    def total_injected(self) -> int:
        """Total number of injections across all sites."""
        with self._lock:
            return sum(self.injected.values())

    def summary(self) -> List[str]:
        """Human-readable ``site kind xN`` lines, sorted."""
        with self._lock:
            return [
                f"{site} {kind} x{count}"
                for (site, kind), count in sorted(self.injected.items())
            ]
