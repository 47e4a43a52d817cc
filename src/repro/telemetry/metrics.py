"""Metrics registry: counters, gauges and histograms.

One :class:`MetricsRegistry` per process (or per experiment) hands out
instrument handles.  Callers hold the handle and update it on the hot
path; code running without telemetry holds no registry at all.

Registries are mergeable: :meth:`MetricsRegistry.snapshot` produces a
plain picklable structure and :meth:`MetricsRegistry.merge` folds such a
snapshot back in (counters and histograms add, gauges last-write-win).
That is what carries metrics from sweep worker processes back to the
parent.  :meth:`MetricsRegistry.render_prometheus` emits the standard
Prometheus text exposition format.
"""

from __future__ import annotations

import bisect

#: Default histogram buckets (seconds-flavoured, but unit-agnostic).
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        self.value += amount


class Gauge:
    """A value that can go up and down (last write wins on merge)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self):
        self.value = 0.0

    def set(self, value):
        self.value = value

    def inc(self, amount=1):
        self.value += amount


class Histogram:
    """A distribution, bucketed Prometheus-style (cumulative ``le``)."""

    __slots__ = ("buckets", "counts", "count", "sum")
    kind = "histogram"

    def __init__(self, buckets=DEFAULT_BUCKETS):
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +inf overflow bucket
        self.count = 0
        self.sum = 0.0

    def observe(self, value):
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_text(label_key: tuple) -> str:
    if not label_key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in label_key)
    return "{" + inner + "}"


class MetricsRegistry:
    """A named collection of counters/gauges/histograms.

    Instrument handles are idempotent: asking twice for the same
    ``(name, labels)`` returns the same object, so hot loops can either
    cache the handle or re-request it.
    """

    def __init__(self):
        # (name, label_key) -> instrument
        self._instruments: dict[tuple, object] = {}
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}

    # ------------------------------------------------------------------
    def _get(self, cls, name: str, help: str, labels: dict, **kwargs):
        known = self._kinds.get(name)
        if known is not None and known != cls.kind:
            raise ValueError(
                f"metric {name!r} already registered as a {known}, "
                f"not a {cls.kind}"
            )
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(**kwargs)
            self._instruments[key] = instrument
            self._kinds[name] = cls.kind
            if help:
                self._help[name] = help
        return instrument

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self, name: str, help: str = "", buckets=DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    def preregister(self, counters: dict[str, str] | None = None, *,
                    gauges: dict[str, str] | None = None,
                    histograms: dict[str, str] | None = None) -> None:
        """Eagerly register ``name -> help`` batches of instruments.

        Subsystems call this at the start of an instrumented run so every
        declared series renders (as zero) in the Prometheus dump even
        when the run never touched it -- an absent metric is
        indistinguishable from a broken one, a zero is an answer.  This
        is also what keeps snapshot/merge consistent across runs: a
        churn-free sweep and a churny one export the same series set.
        """
        for name, help_text in (counters or {}).items():
            self.counter(name, help_text)
        for name, help_text in (gauges or {}).items():
            self.gauge(name, help_text)
        for name, help_text in (histograms or {}).items():
            self.histogram(name, help_text)

    def __len__(self) -> int:
        return len(self._instruments)

    def value(self, name: str, **labels):
        """The current value of a counter/gauge (None when absent)."""
        instrument = self._instruments.get((name, _label_key(labels)))
        return None if instrument is None else instrument.value

    def series(self, name: str) -> dict:
        """Every labelled value of one counter/gauge: label-key -> value.

        Label keys are the sorted ``(label, value)`` tuples the registry
        stores internally -- ``()`` for the unlabelled series.  Lets
        per-client accounting (e.g. the service budget meter) enumerate
        who has been charged without knowing the client set up front.
        """
        return {
            label_key: instrument.value
            for (metric, label_key), instrument in self._instruments.items()
            if metric == name and instrument.kind != "histogram"
        }

    # ------------------------------------------------------------------
    # snapshot / merge: the cross-process aggregation contract
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A plain, picklable rendering of every instrument."""
        metrics = []
        for (name, label_key), instrument in self._instruments.items():
            if instrument.kind == "histogram":
                state = (
                    instrument.buckets,
                    tuple(instrument.counts),
                    instrument.count,
                    instrument.sum,
                )
            else:
                state = instrument.value
            metrics.append((name, label_key, instrument.kind, state))
        return {"metrics": metrics, "help": dict(self._help)}

    def merge(self, snapshot: dict | None) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) into self.

        Counters and histograms accumulate; gauges take the incoming
        value (last write wins).
        """
        if not snapshot:
            return
        for name, help_text in snapshot.get("help", {}).items():
            self._help.setdefault(name, help_text)
        for name, label_key, kind, state in snapshot.get("metrics", ()):
            labels = dict(label_key)
            if kind == "counter":
                self.counter(name, **labels).inc(state)
            elif kind == "gauge":
                self.gauge(name, **labels).set(state)
            elif kind == "histogram":
                buckets, counts, count, total = state
                histogram = self.histogram(name, buckets=tuple(buckets), **labels)
                if histogram.buckets != tuple(buckets):
                    raise ValueError(
                        f"histogram {name!r} bucket mismatch on merge"
                    )
                for index, bucket_count in enumerate(counts):
                    histogram.counts[index] += bucket_count
                histogram.count += count
                histogram.sum += total
            else:
                raise ValueError(f"unknown metric kind {kind!r} in snapshot")

    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        by_name: dict[str, list[tuple[tuple, object]]] = {}
        for (name, label_key), instrument in sorted(
            self._instruments.items(), key=lambda item: item[0]
        ):
            by_name.setdefault(name, []).append((label_key, instrument))
        lines: list[str] = []
        for name, series in by_name.items():
            kind = self._kinds[name]
            help_text = self._help.get(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for label_key, instrument in series:
                if kind == "histogram":
                    cumulative = 0
                    for bucket, bucket_count in zip(
                        instrument.buckets, instrument.counts
                    ):
                        cumulative += bucket_count
                        le_labels = label_key + (("le", repr(float(bucket))),)
                        lines.append(
                            f"{name}_bucket{_label_text(le_labels)} {cumulative}"
                        )
                    inf_labels = label_key + (("le", "+Inf"),)
                    lines.append(
                        f"{name}_bucket{_label_text(inf_labels)} {instrument.count}"
                    )
                    lines.append(
                        f"{name}_sum{_label_text(label_key)} {instrument.sum}"
                    )
                    lines.append(
                        f"{name}_count{_label_text(label_key)} {instrument.count}"
                    )
                else:
                    lines.append(
                        f"{name}{_label_text(label_key)} {instrument.value}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]
