"""Labelled metrics registry for the simulator stack.

Prometheus-shaped vocabulary (counters, gauges, histograms, each with
optional key=value labels) scaled down to a single-process simulator:
no wire format, no scrape loop, just in-memory instruments that
:meth:`repro.core.network.SiriusNetwork.run`, :mod:`repro.core.node`,
:mod:`repro.core.congestion`, :mod:`repro.core.failures` and
:mod:`repro.sim.fluid` publish into.

Two registries exist:

* :class:`MetricsRegistry` — records everything; ``snapshot()`` /
  ``collect()`` feed the exporters in :mod:`repro.obs.trace_io`.
* :class:`NullMetricsRegistry` — the near-zero-overhead default.  Its
  ``enabled`` flag is False, so instrumented hot paths skip metric
  construction entirely; the null instruments it hands out ignore
  every update, so un-gated call sites stay correct, just slower.

Gauges may be created with ``track=True``: every ``set(value, at=...)``
is then also appended to a per-labelset series, which is how
:meth:`repro.obs.Observation.sample_network` stores the per-epoch
``net_*`` occupancy series.

For live streaming (:mod:`repro.serve`) the registry also supports
*delta* snapshots: every instrument counts its mutations, and
``snapshot(since=cursor)`` returns only the instruments touched since
the cursor was taken — tracked gauges further trim their ``points`` to
the ones appended since — so a periodic sampler does not re-copy every
histogram each tick.  Cursors are plain JSON-able dicts; ``{}`` means
"everything changed" (the first call of a subscription).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
]

#: Label sets are stored as sorted (key, value) tuples so that
#: ``inc(node=1, dst=2)`` and ``inc(dst=2, node=1)`` hit the same child.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_str(key: LabelKey) -> str:
    """Stable string form of a labelset (cursor dictionary key)."""
    return ",".join(f"{k}={v}" for k, v in key)


def _stable_sorted(mapping: Dict) -> List:
    """Sorted keys, tolerant of a writer thread inserting concurrently.

    A live registry is written by the simulation (executor) thread while
    the service sampler reads it from the event loop; a key insert during
    ``sorted(dict)`` raises ``RuntimeError: dictionary changed size``.
    Keys are only ever added, never removed, so retrying yields a valid
    (slightly newer) key snapshot.
    """
    for _ in range(4):
        try:
            return sorted(mapping)
        except RuntimeError:
            continue
    return sorted(list(mapping))


class _Instrument:
    """Shared machinery: name, help text and per-labelset storage."""

    kind = "instrument"

    def __init__(self, name: str, help: str = "") -> None:
        if not name:
            raise ValueError("metric name cannot be empty")
        self.name = name
        self.help = help
        #: Count of updates ever applied; the delta-snapshot change clock.
        self._mutations = 0

    @property
    def mutations(self) -> int:
        return self._mutations

    def label_sets(self) -> List[LabelKey]:
        raise NotImplementedError

    def collect(self) -> List[Dict[str, object]]:
        """Flat sample dicts for export (one per labelset)."""
        raise NotImplementedError


class Counter(_Instrument):
    """A monotonically-increasing count (cells sent, grants issued)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name} cannot decrease (amount={amount})"
            )
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount
        self._mutations += 1

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0)

    def label_sets(self) -> List[LabelKey]:
        return _stable_sorted(self._values)

    def collect(self) -> List[Dict[str, object]]:
        return [
            {"name": self.name, "type": self.kind,
             "labels": dict(key), "value": self._values[key]}
            for key in _stable_sorted(self._values)
        ]


class Gauge(_Instrument):
    """A value that can go up and down (queue occupancy, active flows).

    With ``track=True`` every ``set`` also appends to a per-labelset
    series of ``(at, value)`` points, turning the gauge into a sampled
    time series (the substrate of the per-epoch ``net_*`` series).
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "", *, track: bool = False) -> None:
        super().__init__(name, help)
        self.track = track
        self._values: Dict[LabelKey, float] = {}
        self._series: Dict[LabelKey, List[Tuple[float, float]]] = {}

    def set(self, value: float, at: Optional[float] = None, **labels) -> None:
        key = _label_key(labels)
        self._values[key] = value
        if self.track:
            self._series.setdefault(key, []).append(
                (at if at is not None else len(self._series.get(key, ())),
                 value)
            )
        self._mutations += 1

    def add(self, amount: float, **labels) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount
        self._mutations += 1

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0)

    def series(self, **labels) -> List[Tuple[float, float]]:
        """The tracked ``(at, value)`` points of one labelset."""
        return list(self._series.get(_label_key(labels), ()))

    def label_sets(self) -> List[LabelKey]:
        return _stable_sorted(self._values)

    def collect(self) -> List[Dict[str, object]]:
        samples, _counts = self.collect_window({})
        return samples

    def point_counts(self) -> Dict[str, int]:
        """Current per-labelset tracked-point counts (cursor state)."""
        if not self.track:
            return {}
        return {
            _label_str(key): len(self._series.get(key, ()))
            for key in _stable_sorted(self._values)
        }

    def collect_window(self, since_points: Dict[str, int],
                       ) -> Tuple[List[Dict[str, object]], Dict[str, int]]:
        """Samples plus per-labelset point counts, for delta snapshots.

        For a tracked gauge, ``since_points`` maps labelset strings to
        the number of points a previous snapshot already shipped; each
        returned sample then carries only the points appended since
        (with a ``points_offset`` so consumers can detect gaps).  The
        returned count map is the cursor state for the next window.
        Untracked gauges ignore ``since_points`` and return ``{}``.
        """
        out: List[Dict[str, object]] = []
        counts: Dict[str, int] = {}
        for key in _stable_sorted(self._values):
            sample: Dict[str, object] = {
                "name": self.name, "type": self.kind,
                "labels": dict(key), "value": self._values[key],
            }
            if self.track:
                series = self._series.get(key, [])
                # Capture the length once: the writer thread may append
                # while this runs, and the cursor must record exactly
                # what was shipped.
                n_points = len(series)
                label = _label_str(key)
                counts[label] = n_points
                start = min(int(since_points.get(label, 0)), n_points)
                sample["points"] = [list(p) for p in series[start:n_points]]
                if since_points:
                    sample["points_offset"] = start
            out.append(sample)
        return out, counts


#: Default histogram buckets: powers of two, apt for cell/queue counts.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
)


class Histogram(_Instrument):
    """Bucketed distribution (per-epoch queue depth, grant latency)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help)
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = list(buckets)
        if ordered != sorted(ordered):
            raise ValueError(f"bucket bounds must be sorted, got {buckets}")
        self.buckets: Tuple[float, ...] = tuple(ordered)
        # per labelset: [bucket counts..., +Inf count], total, sum
        self._counts: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        counts = self._counts.get(key)
        if counts is None:
            counts = [0] * (len(self.buckets) + 1)
            self._counts[key] = counts
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                counts[index] += 1
                break
        else:
            counts[-1] += 1
        self._sums[key] = self._sums.get(key, 0.0) + value
        self._mutations += 1

    def count(self, **labels) -> int:
        return sum(self._counts.get(_label_key(labels), ()))

    def sum(self, **labels) -> float:
        return self._sums.get(_label_key(labels), 0.0)

    def quantile(self, q: float, **labels) -> Optional[float]:
        """Bucket-resolution quantile estimate (upper bound of the
        bucket holding the q-th observation); None when empty."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        counts = self._counts.get(_label_key(labels))
        if not counts or not sum(counts):
            return None
        target = q * sum(counts)
        running = 0
        for index, count in enumerate(counts):
            running += count
            if running >= target and count:
                if index < len(self.buckets):
                    return self.buckets[index]
                return float("inf")
        return float("inf")

    def label_sets(self) -> List[LabelKey]:
        return _stable_sorted(self._counts)

    def collect(self) -> List[Dict[str, object]]:
        return [
            {"name": self.name, "type": self.kind,
             "labels": dict(key),
             "buckets": list(self.buckets),
             "counts": list(self._counts[key]),
             "sum": self._sums.get(key, 0.0),
             "count": sum(self._counts[key])}
            for key in _stable_sorted(self._counts)
        ]


class MetricsRegistry:
    """Get-or-create home of every instrument in a run."""

    enabled = True

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}

    # -- instrument factories (get-or-create, kind-checked) ----------------
    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "", *, track: bool = False) -> Gauge:
        gauge = self._get_or_create(Gauge, name, help, track=track)
        if track and not gauge.track:
            raise ValueError(
                f"gauge {name!r} already registered without track=True"
            )
        return gauge

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, cannot re-register as "
                    f"{cls.kind}"
                )
            return existing
        instrument = cls(name, help, **kwargs)
        self._instruments[name] = instrument
        return instrument

    # -- introspection / export --------------------------------------------
    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def names(self) -> List[str]:
        return _stable_sorted(self._instruments)

    def __iter__(self) -> Iterator[_Instrument]:
        for name in _stable_sorted(self._instruments):
            yield self._instruments[name]

    def __len__(self) -> int:
        return len(self._instruments)

    def collect(self) -> List[Dict[str, object]]:
        """Every sample of every instrument, sorted by metric name."""
        samples: List[Dict[str, object]] = []
        for instrument in self:
            samples.extend(instrument.collect())
        return samples

    def cursor(self) -> Dict[str, Dict[str, object]]:
        """The current change-clock position, as a JSON-able dict.

        Pass it back to :meth:`snapshot` (or :meth:`collect_delta`) to
        receive only what changed after this call.  ``{}`` is the
        "beginning of time" cursor: everything is considered changed.
        """
        _samples, state = self.collect_delta(None, samples_too=False)
        return state

    def collect_delta(self, since: Optional[Dict[str, Dict[str, object]]],
                      *, samples_too: bool = True,
                      ) -> Tuple[List[Dict[str, object]],
                                 Dict[str, Dict[str, object]]]:
        """Samples of instruments changed since ``since``, plus the new cursor.

        ``since=None`` (or ``{}``) ships everything.  Tracked gauges trim
        their ``points`` to those appended inside the window.  The
        mutation count is captured *before* collecting each instrument,
        so a concurrent writer can only cause an update to be shipped
        twice (at-least-once delivery), never skipped.
        """
        samples: List[Dict[str, object]] = []
        state: Dict[str, Dict[str, object]] = {}
        since = since or {}
        for name in _stable_sorted(self._instruments):
            instrument = self._instruments[name]
            mutations = instrument.mutations
            previous = since.get(name)
            entry: Dict[str, object] = {"m": mutations}
            if previous is not None and previous.get("m") == mutations:
                # Unchanged: carry the old point counts forward.
                if "p" in previous:
                    entry["p"] = dict(previous["p"])  # type: ignore[arg-type]
                state[name] = entry
                continue
            if isinstance(instrument, Gauge):
                if samples_too:
                    prev_points = (dict(previous.get("p", {}))
                                   if previous else {})
                    gauge_samples, counts = instrument.collect_window(
                        prev_points
                    )
                    samples.extend(gauge_samples)
                else:
                    counts = instrument.point_counts()
                if counts:
                    entry["p"] = counts
            elif samples_too:
                samples.extend(instrument.collect())
            state[name] = entry
        return samples, state

    def snapshot(self, since: Optional[Dict[str, Dict[str, object]]] = None,
                 ) -> Dict[str, object]:
        """JSON-ready view of the registry.

        Without ``since`` this is the legacy full snapshot
        (``{"metrics": [...]}``).  With a cursor (from a previous
        delta snapshot, or ``{}`` to start) it returns only changed
        instruments plus the next cursor:
        ``{"metrics": [...], "cursor": {...}}``.
        """
        if since is None:
            return {"metrics": self.collect()}
        samples, state = self.collect_delta(since)
        return {"metrics": samples, "cursor": state}


class _NullInstrument:
    """Accepts every update and records nothing."""

    def inc(self, amount: float = 1, **labels) -> None:
        pass

    def set(self, value: float, at: Optional[float] = None, **labels) -> None:
        pass

    def add(self, amount: float, **labels) -> None:
        pass

    def observe(self, value: float, **labels) -> None:
        pass

    def value(self, **labels) -> float:
        return 0

    def series(self, **labels) -> List[Tuple[float, float]]:
        return []


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """The no-op default: hands out inert instruments, records nothing.

    Instrumented code gates on :attr:`enabled` before building labels,
    so the disabled cost is one attribute load and branch; call sites
    that skip the gate still work — the null instrument swallows the
    update.
    """

    enabled = False

    def counter(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "",
              *, track: bool = False) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def get(self, name: str) -> None:
        return None

    def names(self) -> List[str]:
        return []

    def __iter__(self) -> Iterator[_Instrument]:
        return iter(())

    def __len__(self) -> int:
        return 0

    def collect(self) -> List[Dict[str, object]]:
        return []

    def cursor(self) -> Dict[str, Dict[str, object]]:
        return {}

    def collect_delta(self, since=None, *, samples_too: bool = True):
        return [], {}

    def snapshot(self, since=None) -> Dict[str, object]:
        if since is None:
            return {"metrics": []}
        return {"metrics": [], "cursor": {}}


NULL_REGISTRY = NullMetricsRegistry()
