"""Declarative simulation specs: one picklable value per network run.

A :class:`SimulationSpec` fully describes a cycle simulation -- topology,
traffic process, interconnect configuration, routing algorithm and the
warmup/measure/drain windows -- as a frozen, hashable, picklable value
object.  It replaces the keyword soup previously threaded through
``run_simulation``, the benchmark harness and ``NoCSprintingSystem``, and
is the unit the sweep engine (:mod:`repro.exec`) fans out over worker
processes and keys its result cache on.

Because a spec carries its own traffic *seed* rather than a live
:class:`~repro.noc.traffic.TrafficGenerator`, rebuilding the generator in
any process reproduces the exact packet sequence: serial and parallel
sweeps over the same specs are bit-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from repro.config import NoCConfig
from repro.core.topological import SprintTopology
from repro.noc.power_gating import TimeoutGatingPolicy
from repro.noc.traffic import TrafficGenerator


def _field_default(f: dataclasses.Field):
    if f.default is not dataclasses.MISSING:
        return f.default
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return dataclasses.MISSING


#: exact types that are their own canonical form
_SCALARS = frozenset({type(None), bool, int, float, str})

#: class -> its field plan (see :func:`_field_plan`); None for a class
#: that is not a dataclass.  Filled on first use; two threads that race on
#: a class both store the same plan.
_PLANS: dict[type, tuple | None] = {}


def _field_plan(cls) -> tuple | None:
    """``(name, omit_when_default, default)`` per field of dataclass ``cls``.

    Fields marked ``omit_when_default`` vanish from the canonical form
    while they hold their default value, so adding such a field to a spec
    class never invalidates existing cache keys.
    """
    try:
        return _PLANS[cls]
    except KeyError:
        pass
    plan = None
    if dataclasses.is_dataclass(cls):
        plan = tuple(
            (f.name, True, _field_default(f))
            if f.metadata.get("omit_when_default") else (f.name, False, None)
            for f in dataclasses.fields(cls)
        )
    _PLANS[cls] = plan
    return plan


def _canonical(obj):
    """A JSON-serializable canonical form of nested dataclasses/values.

    Scalars (most of a spec: its node lists) return at once, and each
    dataclass's fields come from its cached plan.
    """
    cls = type(obj)
    if cls in _SCALARS:
        return obj
    plan = _field_plan(cls)
    if plan is not None:
        payload = {}
        for name, omit, default in plan:
            value = getattr(obj, name)
            if omit and value == default:
                continue
            payload[name] = value if type(value) in _SCALARS else _canonical(value)
        payload["__class__"] = cls.__name__
        return payload
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [item if type(item) in _SCALARS else _canonical(item)
                for item in obj]
    if isinstance(obj, frozenset):
        return sorted(_canonical(item) for item in obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for a cache key")


#: compact, key-sorted JSON (one encoder, shared: encoding keeps no state)
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _digest(form) -> str:
    """SHA-256 of a canonical form's compact, key-sorted JSON."""
    return hashlib.sha256(_encode(form).encode("utf-8")).hexdigest()


def stable_key(obj) -> str:
    """Content-addressed key: SHA-256 of the canonical JSON form.

    Stable across processes and Python versions (no reliance on ``hash``),
    so on-disk cache entries written by one interpreter are valid in any
    other.
    """
    return _digest(_canonical(obj))


# ----------------------------------------------------------------------
# the versioned wire format (the repro.service / `repro serve` contract)
# ----------------------------------------------------------------------
#: Wire-format schema version.  The v1 body is *pinned bit-for-bit* to the
#: omit-when-default canonical form that cache keys and ledger records are
#: hashed from, so a spec that round-trips through the wire keeps the
#: exact cache key it had in-process.  Any change to the canonicalization
#: is therefore a wire-format break and must bump this number.
WIRE_VERSION = 1


class WireFormatError(ValueError):
    """A wire payload could not be decoded into a spec.

    The service answers it in the one structured error body
    (:func:`repro.service.http.error_payload`), so HTTP clients can branch
    on one error schema.  ``code`` distinguishes the failure classes:
    ``"version"`` (unknown/unsupported ``v``), ``"schema"`` (malformed or
    drifted payload shape) and ``"value"`` (well-formed payload whose
    values fail spec validation).
    """

    def __init__(self, message: str, code: str = "schema"):
        self.code = code
        super().__init__(message)


def _wire_classes() -> dict:
    # late import: NoCConfig/SprintTopology are already module-level
    # imports; the map just names every dataclass legal on the wire
    return {
        "SimulationSpec": SimulationSpec,
        "TrafficSpec": TrafficSpec,
        "TimeoutGating": TimeoutGating,
        "FaultSchedule": FaultSchedule,
        "FaultEvent": FaultEvent,
        "SprintTopology": SprintTopology,
        "NoCConfig": NoCConfig,
    }


def _revive(payload, classes: dict):
    """Rebuild the canonical-form value tree into live dataclasses.

    Strict by design: an unknown ``__class__`` or an unrecognized field
    name is a :class:`WireFormatError`, not a silent drop -- schema drift
    must fail loudly, never decode into a subtly different run.  JSON
    lists become tuples (every sequence field in the spec tree is a
    tuple), so a decoded spec compares equal to the original.
    """
    if isinstance(payload, dict):
        cls_name = payload.get("__class__")
        if cls_name is None:
            return {key: _revive(value, classes) for key, value in payload.items()}
        cls = classes.get(cls_name)
        if cls is None:
            raise WireFormatError(f"unknown wire class {cls_name!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in payload.items():
            if key == "__class__":
                continue
            if key not in known:
                raise WireFormatError(
                    f"unknown field {key!r} on wire class {cls_name!r}"
                )
            kwargs[key] = _revive(value, classes)
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as err:
            raise WireFormatError(
                f"invalid {cls_name} on the wire: {err}", code="value"
            ) from err
    if isinstance(payload, list):
        return tuple(_revive(item, classes) for item in payload)
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return payload
    raise WireFormatError(f"unserializable wire value {type(payload).__name__}")


def spec_to_wire(spec: "SimulationSpec") -> dict:
    """Encode a spec as a version-tagged, JSON-ready wire document.

    The ``"spec"`` body is exactly the canonical form :func:`stable_key`
    hashes (omit-when-default fields vanish at their defaults), so
    ``spec_from_wire(spec_to_wire(s)).cache_key() == s.cache_key()`` by
    construction -- a spec submitted over HTTP hits the same cache and
    ledger entries as the in-process original.
    """
    return {"v": WIRE_VERSION, "kind": "simulation_spec",
            "spec": _canonical(spec)}


def spec_from_wire(payload) -> "SimulationSpec":
    """Decode a :func:`spec_to_wire` document (strictly validated).

    Raises :class:`WireFormatError` on any malformation: missing or
    unsupported ``"v"``, a body that is not the canonical form of a
    :class:`SimulationSpec`, unknown classes or fields (schema drift), or
    field values the spec constructors reject.
    """
    if not isinstance(payload, dict):
        raise WireFormatError("wire payload must be a JSON object")
    version = payload.get("v")
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire version {version!r} (this build speaks "
            f"v{WIRE_VERSION})", code="version",
        )
    kind = payload.get("kind", "simulation_spec")
    if kind != "simulation_spec":
        raise WireFormatError(f"expected a simulation_spec document, got "
                              f"kind {kind!r}")
    body = payload.get("spec")
    if not isinstance(body, dict):
        raise WireFormatError('wire payload needs a "spec" object body')
    if body.get("__class__") != "SimulationSpec":
        raise WireFormatError('the "spec" body must canonicalize a '
                              "SimulationSpec")
    spec = _revive(body, _wire_classes())
    assert isinstance(spec, SimulationSpec)
    return spec


@dataclass(frozen=True)
class TrafficSpec:
    """Declarative description of a synthetic traffic process.

    Mirrors the :class:`~repro.noc.traffic.TrafficGenerator` constructor;
    :meth:`build` instantiates a fresh generator whose packet sequence is
    fully determined by these fields (the generator keeps the mutable RNG
    state, the spec stays a value).
    """

    endpoints: tuple[int, ...]
    injection_rate: float
    packet_length: int
    pattern: str = "uniform"
    seed: int = 0
    hotspot_fraction: float = 0.5
    hotspot_endpoint: int | None = None

    def build(self) -> TrafficGenerator:
        """A fresh generator reproducing this spec's packet sequence."""
        return TrafficGenerator(
            list(self.endpoints),
            self.injection_rate,
            self.packet_length,
            self.pattern,
            seed=self.seed,
            hotspot_fraction=self.hotspot_fraction,
            hotspot_endpoint=self.hotspot_endpoint,
        )


@dataclass(frozen=True)
class TimeoutGating:
    """Declarative conventional timeout gating (the paper's baseline).

    Mirrors the :class:`~repro.noc.power_gating.TimeoutGatingPolicy`
    constructor: every router outside ``protected_nodes`` that stays idle
    for ``idle_timeout`` cycles is gated and woken on demand.
    :meth:`build` instantiates the live policy the reference engine steps
    each cycle; the C kernel reads the two fields directly.
    """

    idle_timeout: int = 64
    protected_nodes: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if type(self.idle_timeout) is not int or self.idle_timeout < 0:
            raise ValueError(
                f"idle_timeout must be a non-negative int, got {self.idle_timeout!r}"
            )
        object.__setattr__(self, "protected_nodes", frozenset(self.protected_nodes))

    def build(self) -> TimeoutGatingPolicy:
        """A fresh policy (with zeroed ``stats``) running these rules."""
        return TimeoutGatingPolicy(self.idle_timeout, self.protected_nodes)


@dataclass(frozen=True)
class FaultEvent:
    """One injected failure in the simulated silicon.

    ``kind`` is ``"router"`` (a whole node fails) or ``"link"`` (one mesh
    link fails; the region reconfigures to exclude the endpoint farther
    from the master so CDOR never sees a broken internal link).
    ``duration`` is ``None`` for a permanent (hard) fault, or the number of
    cycles a transient fault lasts before the component recovers.
    """

    cycle: int
    kind: str = "router"
    node: int | None = None
    link: tuple[int, int] | None = None
    duration: int | None = None

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError("fault cycle must be non-negative")
        if self.kind not in ("router", "link"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == "router" and (self.node is None or self.link is not None):
            raise ValueError("a router fault names exactly one node")
        if self.kind == "link":
            if self.link is None or self.node is not None:
                raise ValueError("a link fault names exactly one (a, b) link")
            if len(self.link) != 2 or self.link[0] == self.link[1]:
                raise ValueError(f"malformed link {self.link!r}")
        if self.duration is not None and self.duration < 1:
            raise ValueError("transient fault duration must be >= 1 cycle")

    @property
    def recovery_cycle(self) -> int | None:
        """Cycle the component comes back, or None for a permanent fault."""
        return None if self.duration is None else self.cycle + self.duration

    def active_at(self, cycle: int) -> bool:
        if cycle < self.cycle:
            return False
        return self.duration is None or cycle < self.cycle + self.duration


@dataclass(frozen=True)
class FaultSchedule:
    """A declarative, content-hashable set of fault injections.

    The empty schedule is the default everywhere and canonicalizes to
    nothing at all, so fault-free specs keep the cache keys they had
    before faults existed.
    """

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def boundaries(self) -> list[int]:
        """Sorted cycles at which the fault set changes (onset + recovery)."""
        cycles = set()
        for event in self.events:
            cycles.add(event.cycle)
            if event.recovery_cycle is not None:
                cycles.add(event.recovery_cycle)
        return sorted(cycles)

    def faulty_routers_at(self, cycle: int) -> frozenset[int]:
        return frozenset(
            e.node for e in self.events if e.kind == "router" and e.active_at(cycle)
        )

    def faulty_links_at(self, cycle: int) -> frozenset[tuple[int, int]]:
        return frozenset(
            (min(e.link), max(e.link))
            for e in self.events
            if e.kind == "link" and e.active_at(cycle)
        )


#: the engine a spec runs on when it names none
_DEFAULT_BACKEND = "reference"

#: the engine ``backend="auto"`` runs: the C kernel, which hands the runs
#: it does not cover to the reference engine
AUTO_BACKEND = "vectorized"


@dataclass(frozen=True)
class SimulationSpec:
    """Everything needed to run (and cache) one network simulation.

    Frozen and hashable, so specs work as dict keys; picklable, so the
    sweep engine can ship them to worker processes; and content-addressed
    via :meth:`cache_key`, so identical runs are never simulated twice.
    """

    topology: SprintTopology
    traffic: TrafficSpec
    config: NoCConfig = field(default_factory=NoCConfig)
    routing: str = "cdor"
    warmup_cycles: int = 500
    measure_cycles: int = 2000
    drain_cycles: int = 30000
    faults: FaultSchedule = field(
        default_factory=FaultSchedule, metadata={"omit_when_default": True}
    )
    # which registered simulation engine executes the run (see
    # repro.noc.backends).  Omitted from the canonical form at its default,
    # so every pre-existing cache key is preserved; a non-default backend
    # keys separately.  The sentinel "auto" runs AUTO_BACKEND and
    # canonicalizes to that name in cache keys.
    backend: str = field(default=_DEFAULT_BACKEND,
                         metadata={"omit_when_default": True})
    # run-time timeout gating of every router (None: the static gating the
    # topology implies); omitted from the canonical form when None, so
    # ungated specs keep their cache keys and wire bodies
    gating: TimeoutGating | None = field(
        default=None, metadata={"omit_when_default": True}
    )

    def __post_init__(self) -> None:
        if self.faults is None:
            # no schedule is the empty schedule: same run, same cache key
            object.__setattr__(self, "faults", FaultSchedule())
        if self.warmup_cycles < 0 or self.measure_cycles < 1 or self.drain_cycles < 0:
            raise ValueError("simulation windows must be non-negative (measure >= 1)")
        if not isinstance(self.backend, str) or not self.backend:
            raise ValueError("backend must be a non-empty backend name")
        for node in self.traffic.endpoints:
            if not self.topology.is_active(node):
                raise ValueError(f"traffic endpoint {node} is dark in this topology")
        if self.faults:
            self._validate_faults()

    def _validate_faults(self) -> None:
        if self.routing not in ("cdor", "xy"):
            raise ValueError(
                "fault injection needs deterministic reconfiguration; "
                f"routing {self.routing!r} is not supported with faults"
            )
        n = self.topology.width * self.topology.height
        for event in self.faults.events:
            if event.kind == "router":
                if not 0 <= event.node < n:
                    raise ValueError(f"fault node {event.node} outside the mesh")
                if event.node == self.topology.master:
                    raise ValueError(
                        "the master node cannot be faulted: it anchors every "
                        "reconfigured sprint region"
                    )
            else:
                a, b = event.link
                if not (0 <= a < n and 0 <= b < n):
                    raise ValueError(f"fault link {event.link} outside the mesh")
                ca = self.topology.coord(a)
                cb = self.topology.coord(b)
                if abs(ca.x - cb.x) + abs(ca.y - cb.y) != 1:
                    raise ValueError(f"fault link {event.link} is not a mesh link")

    def resolved_backend(self) -> str:
        """The concrete engine name this spec will execute on.

        Explicit backends resolve to themselves; ``"auto"`` to
        :data:`AUTO_BACKEND`, whatever else is registered.
        """
        return AUTO_BACKEND if self.backend == "auto" else self.backend

    def cache_key(self) -> str:
        """Canonical content hash of the full run description.

        ``backend="auto"`` hashes as :data:`AUTO_BACKEND`, so an auto spec
        shares its key with the same spec naming that engine, and cache
        entries and ledger records are unambiguous about which engine
        produced them.
        """
        body = _canonical(self)
        if self.backend == "auto":
            body["backend"] = AUTO_BACKEND
        return _digest(["simulate", body])

    def with_seed(self, seed: int) -> "SimulationSpec":
        """The same run under a different traffic seed."""
        return dataclasses.replace(
            self, traffic=dataclasses.replace(self.traffic, seed=seed)
        )

    def with_backend(self, backend: str) -> "SimulationSpec":
        """The same run executed by a different simulation engine."""
        return dataclasses.replace(self, backend=backend)

    def to_wire(self) -> dict:
        """Version-tagged JSON-ready document; see :func:`spec_to_wire`."""
        return spec_to_wire(self)

    @classmethod
    def from_wire(cls, payload) -> "SimulationSpec":
        """Decode a wire document; see :func:`spec_from_wire`."""
        return spec_from_wire(payload)


__all__ = [
    "AUTO_BACKEND",
    "FaultEvent",
    "FaultSchedule",
    "SimulationSpec",
    "TimeoutGating",
    "TrafficSpec",
    "WIRE_VERSION",
    "WireFormatError",
    "spec_from_wire",
    "spec_to_wire",
    "stable_key",
]
