"""Deterministic, seedable fault plans.

A :class:`FaultPlan` is a declarative list of :class:`FaultSpec` entries,
each naming an **injection site** (a dotted string the runtime consults
at a specific code location), a **fault kind**, and a firing schedule
(``after`` / ``times`` / ``probability``).  Plans are plain data: JSON in,
JSON out, no callables — so the same plan can drive an in-process test,
a shard worker process (the plan pickles; the worker looks up the specs
the dispatcher decided to fire), and the ``--chaos PLAN.json`` CLI flag.

Determinism: every spec draws from its own ``random.Random`` seeded from
``(plan.seed, spec position)``, and firing decisions depend only on the
per-site visit count — so a single-threaded replay of the same workload
injects exactly the same faults every run.  (Shard-worker sites are
decided in the dispatching process, so their visits, too, are counted
by the one injector.)

Fault kinds
-----------

``crash``
    raise :class:`~repro.chaos.injector.InjectedCrash` — models a dying
    worker or a build machine falling over.
``error``
    raise :class:`~repro.chaos.injector.InjectedFault` — a generic
    exception at the site.
``hang``
    sleep ``delay_s`` (default 5s) — models a wedged worker; pair with a
    runtime deadline so the batch times out instead of blocking forever.
``slow``
    sleep ``delay_s`` (default 50ms) — models a degraded lookup that
    still completes.
``corrupt``
    no exception; the site's ``corrupted()`` query returns True — models
    bad data (e.g. a nonsensical engine report) that the caller must
    detect and reject.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["FaultKind", "FaultSpec", "FaultPlan", "KINDS", "SITES"]

#: Recognised fault kinds (see module docstring).
KINDS = ("crash", "error", "hang", "slow", "corrupt")

#: The injection sites the runtime consults, for documentation and plan
#: validation.  Sites not listed here are accepted (tests name ad-hoc
#: sites), but the CLI warns about them.
SITES = (
    "shard.worker",    # inside a shard worker, before classifying a chunk
    "swap.build",      # inside HotSwapRuntime's rebuild, before building
    "engine.lookup",   # inside SaxPacEngine.match_batch, before lookup
    "engine.report",   # corrupt-only: SaxPacEngine.report() output
    "service.batch",   # RuntimeService.match_batch, before dispatch
    "net.conn",        # NetServer, per received frame: crash/error tear
                       # the connection down, slow stalls it, corrupt
                       # garbles the outgoing response frame
)

FaultKind = str


@dataclass(frozen=True)
class FaultSpec:
    """One fault: where, what, and when.

    ``after`` skips the first N visits to the site; ``times`` caps how
    often this spec fires (None = unlimited); ``probability`` gates each
    eligible visit through a per-spec deterministic RNG.
    """

    site: str
    kind: FaultKind
    probability: float = 1.0
    times: Optional[int] = None
    after: int = 0
    delay_s: Optional[float] = None
    message: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (expected one of {KINDS})"
            )
        if not self.site:
            raise ValueError("fault site must be a non-empty string")
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError("probability must be within [0, 1]")
        if self.times is not None and self.times < 0:
            raise ValueError("times must be >= 0")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.delay_s is not None and self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")

    @property
    def delay(self) -> float:
        """Sleep duration for hang/slow kinds (kind-specific default)."""
        if self.delay_s is not None:
            return self.delay_s
        return 5.0 if self.kind == "hang" else 0.05

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"site": self.site, "kind": self.kind}
        if self.probability != 1.0:
            out["probability"] = self.probability
        if self.times is not None:
            out["times"] = self.times
        if self.after:
            out["after"] = self.after
        if self.delay_s is not None:
            out["delay_s"] = self.delay_s
        if self.message:
            out["message"] = self.message
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        known = {
            "site", "kind", "probability", "times", "after", "delay_s",
            "message",
        }
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown FaultSpec keys: {sorted(extra)}")
        return cls(
            site=data["site"],
            kind=data["kind"],
            probability=float(data.get("probability", 1.0)),
            times=data.get("times"),
            after=int(data.get("after", 0)),
            delay_s=data.get("delay_s"),
            message=data.get("message", ""),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of fault specs plus the RNG seed.

    The first spec matching a site wins on each visit, so put more
    specific schedules first.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __len__(self) -> int:
        return len(self.specs)

    def sites(self) -> List[str]:
        """Distinct sites this plan can fire at, in spec order."""
        seen: List[str] = []
        for spec in self.specs:
            if spec.site not in seen:
                seen.append(spec.site)
        return seen

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        known = {"seed", "faults"}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown FaultPlan keys: {sorted(extra)}")
        return cls(
            specs=tuple(
                FaultSpec.from_dict(item) for item in data.get("faults", ())
            ),
            seed=int(data.get("seed", 0)),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Read a plan from a JSON file (the ``--chaos`` CLI format)."""
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")
