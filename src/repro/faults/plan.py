"""Deterministic fault plans: *what* fails, *where*, and *when*.

A :class:`FaultPlan` is a declarative, picklable description of the
failures a run should suffer.  Each :class:`FaultSpec` names a fault
**site** (an instrumented point in the engine, shared-memory transport
or serve scheduler), a fault **kind** (what happens when it fires) and
the **occurrences** it fires on — the 0-based count of times that site
has been reached.  Occurrence counting is owned by the *parent*
process (see :class:`~repro.faults.injector.FaultInjector`), so a plan
is exactly reproducible: the same plan against the same workload fires
the same faults at the same points, every run, regardless of worker
scheduling.  A retried shard draws a *new* occurrence number, which is
what lets ``hits=(0,)`` model a transient fault the recovery machinery
must absorb, while ``hits=None`` (every occurrence) models a hard
fault that must exhaust retries into graceful degradation.

Plans parse from two interchangeable surfaces:

* the compact inline form the CLI takes
  (``repro serve --inject "worker.start:kill:0"``)::

      site:kind[:hits[:seconds]]

  with ``hits`` one of ``*`` (every occurrence), ``N``, ``N-M``
  (inclusive range) or ``N,M,...``, and multiple specs joined by
  ``;``;
* a JSON document (``{"faults": [{"site": ..., "kind": ...,
  "hits": [...], "seconds": ...}]}``) for checked-in chaos scenarios.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from ..errors import ConfigurationError

#: Instrumented fault sites.  ``worker.*`` sites execute inside pool
#: worker processes (their occurrence numbers are issued parent-side,
#: one per shard submission); the rest execute in the parent.
#:
#: Under the serve scheduler, ``serve.batch`` always fires in a worker
#: thread, so its ``hang``/``slow`` faults stall one batch and never
#: the event loop.  ``engine.batch`` fires inside the engine call: on
#: the sample route that call runs in a worker thread too, but on the
#: spectra route (``Engine.spectra_statistics``, scored inline on the
#: event loop) a ``hang``/``slow`` there stalls the loop for its
#: ``seconds``, like any inline work, and ``health`` waits with it.
#: Hold a spectra batch with ``serve.batch`` instead.
SITES = (
    "engine.batch",  # parent: top of Engine.statistics and
    # Engine.spectra_statistics, every batch
    "shm.publish",  # parent: after a trial block is published
    "worker.attach",  # worker: before attaching the shared segment
    "worker.start",  # worker: before computing its shard
    "serve.batch",  # parent: scheduler, before each engine batch
)

#: Fault kinds.  ``error`` raises InjectedFaultError; ``kill`` hard-
#: exits the worker process (BrokenProcessPool in the parent); ``hang``
#: and ``slow`` sleep for ``seconds`` (a hang is just a sleep long
#: enough to trip the engine watchdog); ``vanish`` unlinks the shared
#: segment's kernel name; ``corrupt`` replaces it with a truncated
#: decoy so attach-side integrity validation trips.
KINDS = ("error", "kill", "hang", "slow", "vanish", "corrupt")

#: Sites that execute inside worker processes.
WORKER_SITES = ("worker.attach", "worker.start")

#: Kind -> sites it is meaningful at (None = any site).
_KIND_SITES = {
    "kill": WORKER_SITES,
    "vanish": ("shm.publish",),
    "corrupt": ("shm.publish",),
}

_DEFAULT_SECONDS = {"hang": 30.0, "slow": 0.05}


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: fire *kind* at *site* on the given *hits*.

    ``hits`` is a tuple of 0-based occurrence numbers, or ``None`` for
    every occurrence.  ``seconds`` parameterises the ``hang``/``slow``
    kinds (how long the site sleeps).
    """

    site: str
    kind: str
    hits: tuple[int, ...] | None = (0,)
    seconds: float | None = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; expected one of {SITES}"
            )
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}"
            )
        allowed = _KIND_SITES.get(self.kind)
        if allowed is not None and self.site not in allowed:
            raise ConfigurationError(
                f"fault kind {self.kind!r} only applies at sites "
                f"{allowed}, not {self.site!r}"
            )
        if self.hits is not None:
            hits = tuple(int(hit) for hit in self.hits)
            if any(hit < 0 for hit in hits):
                raise ConfigurationError(
                    f"fault hits must be non-negative, got {hits}"
                )
            object.__setattr__(self, "hits", hits)
        if self.seconds is None and self.kind in _DEFAULT_SECONDS:
            object.__setattr__(
                self, "seconds", _DEFAULT_SECONDS[self.kind]
            )
        if self.seconds is not None and float(self.seconds) < 0:
            raise ConfigurationError(
                f"fault seconds must be non-negative, got {self.seconds}"
            )

    def matches(self, occurrence: int) -> bool:
        """Whether this spec fires on the given 0-based occurrence."""
        return self.hits is None or occurrence in self.hits

    def to_json(self) -> dict:
        """Plain-data form (the JSON plan file entry)."""
        entry: dict = {"site": self.site, "kind": self.kind}
        entry["hits"] = None if self.hits is None else list(self.hits)
        if self.seconds is not None:
            entry["seconds"] = self.seconds
        return entry


def _parse_hits(text: str) -> tuple[int, ...] | None:
    text = text.strip()
    if text in ("*", "all"):
        return None
    if "-" in text:
        start_text, stop_text = text.split("-", 1)
        start, stop = int(start_text), int(stop_text)
        if stop < start:
            raise ConfigurationError(
                f"fault hit range {text!r} is empty (stop < start)"
            )
        return tuple(range(start, stop + 1))
    return tuple(int(part) for part in text.split(",") if part.strip())


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable collection of :class:`FaultSpec`."""

    specs: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __bool__(self) -> bool:
        return bool(self.specs)

    def match(self, site: str, occurrence: int) -> FaultSpec | None:
        """The first spec firing at (*site*, *occurrence*), or None."""
        for spec in self.specs:
            if spec.site == site and spec.matches(occurrence):
                return spec
        return None

    def sites(self) -> tuple[str, ...]:
        """The distinct sites this plan targets, in spec order."""
        seen: dict[str, None] = {}
        for spec in self.specs:
            seen.setdefault(spec.site)
        return tuple(seen)

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the compact inline form (see module docstring)."""
        specs = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(":")
            if len(parts) < 2 or len(parts) > 4:
                raise ConfigurationError(
                    f"bad fault spec {chunk!r}; expected "
                    f"site:kind[:hits[:seconds]]"
                )
            site, kind = parts[0].strip(), parts[1].strip()
            hits: tuple[int, ...] | None = (0,)
            seconds = None
            try:
                if len(parts) >= 3:
                    hits = _parse_hits(parts[2])
                if len(parts) == 4:
                    seconds = float(parts[3])
            except ValueError as error:
                raise ConfigurationError(
                    f"bad fault spec {chunk!r}: {error}"
                ) from None
            specs.append(
                FaultSpec(site=site, kind=kind, hits=hits, seconds=seconds)
            )
        if not specs:
            raise ConfigurationError(
                f"fault plan {text!r} contains no specs"
            )
        return cls(specs=tuple(specs))

    @classmethod
    def from_json(cls, payload: dict) -> "FaultPlan":
        """Build a plan from its JSON document form."""
        try:
            entries = payload["faults"]
        except (TypeError, KeyError):
            raise ConfigurationError(
                "a fault plan document must be an object with a "
                "'faults' list"
            ) from None
        specs = []
        for entry in entries:
            if not isinstance(entry, dict):
                raise ConfigurationError(
                    f"fault entries must be objects, got {entry!r}"
                )
            hits = entry.get("hits", [0])
            specs.append(
                FaultSpec(
                    site=entry.get("site", ""),
                    kind=entry.get("kind", ""),
                    hits=None if hits is None else tuple(hits),
                    seconds=entry.get("seconds"),
                )
            )
        if not specs:
            raise ConfigurationError("fault plan document lists no faults")
        return cls(specs=tuple(specs))

    @classmethod
    def load(cls, source: str) -> "FaultPlan":
        """Parse *source* as a JSON plan file path or an inline spec."""
        if os.path.exists(source):
            with open(source) as handle:
                return cls.from_json(json.load(handle))
        return cls.parse(source)

    def to_json(self) -> dict:
        """The JSON document form (round-trips through from_json)."""
        return {"faults": [spec.to_json() for spec in self.specs]}


#: The empty plan: never fires.  Useful as an explicit "no faults"
#: placeholder where an injector is structurally required.
NO_FAULTS = FaultPlan()
