"""Trace ingestion and synthetic traffic/channel generation.

Arrival and channel traces are plain CSV files (one row per TTI with data);
synthetic sources are small parametric models drawn through seeded numpy
Generators so every run is reproducible.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

log = logging.getLogger(__name__)

ARRIVAL_HEADER = ("tti", "service_id", "bits")
ARRIVAL_HEADER_PKT = ("tti", "service_id", "bits", "packet_sizes")
CHANNEL_HEADER = ("tti", "service_id", "bits_per_rb")

SYNTHETIC_KINDS = ("constant", "two-point", "uniform-integer", "empirical-table")

_PROB_TOL = 1e-12


class TraceParseError(ValueError):
    """Malformed trace file; carries the 1-based line number."""

    def __init__(self, line: int, msg: str):
        super().__init__(f"line {line}: {msg}")
        self.line = line


class TraceValidationError(ValueError):
    """Structurally valid row with semantically invalid content."""


@dataclass(frozen=True)
class ArrivalTrace:
    """Per-service downlink arrivals, indexed by TTI (bits)."""

    service_id: int
    bits_per_tti: np.ndarray
    packet_sizes_per_tti: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self):
        bits = np.asarray(self.bits_per_tti, dtype=np.int64)
        object.__setattr__(self, "bits_per_tti", bits)
        if bits.ndim != 1 or len(bits) == 0:
            raise TraceValidationError("trace must contain at least one TTI")
        if np.any(bits < 0):
            raise TraceValidationError("negative bits in arrival trace")
        if self.packet_sizes_per_tti is not None:
            if len(self.packet_sizes_per_tti) != len(bits):
                raise TraceValidationError("packet size list length mismatch")
            for i, sizes in enumerate(self.packet_sizes_per_tti):
                if sizes and min(sizes) <= 0:
                    raise TraceValidationError(f"non-positive packet size at tti {i}")
                if sum(sizes) != bits[i]:
                    raise TraceValidationError(
                        f"packet sizes at tti {i} sum to {sum(sizes)}, expected {bits[i]}"
                    )

    def __len__(self) -> int:
        return len(self.bits_per_tti)


@dataclass(frozen=True)
class ChannelTrace:
    """Per-service channel quality abstracted to bits carried per RB, per TTI."""

    service_id: int
    bits_per_rb: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.bits_per_rb, dtype=np.int64)
        object.__setattr__(self, "bits_per_rb", vals)
        if vals.ndim != 1 or len(vals) == 0:
            raise TraceValidationError("channel trace must contain at least one TTI")
        if np.any(vals <= 0):
            raise TraceValidationError("bits_per_rb must be strictly positive")

    def __len__(self) -> int:
        return len(self.bits_per_rb)


@dataclass(frozen=True)
class SyntheticModel:
    """Parametric per-TTI source: constant, two-point, uniform-integer or table."""

    kind: str
    values: tuple[int, ...]
    probs: Optional[tuple[float, ...]] = None
    stream_id: int = 0

    def __post_init__(self):
        if self.kind not in SYNTHETIC_KINDS:
            raise ValueError(f"unknown synthetic model kind {self.kind!r}")
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if any(v < 0 for v in self.values):
            raise ValueError("synthetic support values must be non-negative")
        if self.kind == "constant":
            if len(self.values) != 1:
                raise ValueError("constant model takes exactly one value")
        elif self.kind == "uniform-integer":
            if len(self.values) != 2 or self.values[0] > self.values[1]:
                raise ValueError("uniform-integer model takes lo <= hi")
        else:
            n = len(self.values)
            if self.kind == "two-point" and n != 2:
                raise ValueError("two-point model takes exactly two values")
            if n == 0:
                raise ValueError("empirical-table model needs at least one entry")
            if self.probs is None or len(self.probs) != n:
                raise ValueError("probabilities required, one per support value")
            probs = tuple(float(p) for p in self.probs)
            if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > _PROB_TOL:
                raise ValueError("probabilities must be non-negative and sum to 1")
            object.__setattr__(self, "probs", probs)

    @property
    def min_value(self) -> int:
        return min(self.values)

    def mean(self) -> float:
        if self.kind == "constant":
            return float(self.values[0])
        if self.kind == "uniform-integer":
            return (self.values[0] + self.values[1]) / 2.0
        return float(np.dot(self.values, self.probs))


def sample_many(model: SyntheticModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw `size` values from the model; deterministic for a given stream state."""
    if size < 0:
        raise ValueError("size must be non-negative")
    if model.kind == "constant":
        return np.full(size, model.values[0], dtype=np.int64)
    if model.kind == "uniform-integer":
        lo, hi = model.values
        return rng.integers(lo, hi + 1, size=size, dtype=np.int64)
    vals = np.asarray(model.values, dtype=np.int64)
    idx = rng.choice(len(vals), size=size, p=model.probs)
    return vals[idx]


def _read_rows(source, expected_headers: Sequence[tuple[str, ...]]):
    if isinstance(source, (bytes, bytearray)):
        source = io.StringIO(source.decode("utf-8"))
    elif isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise TraceParseError(1, "empty file, header row required") from None
    header = tuple(h.strip() for h in header)
    if header not in expected_headers:
        raise TraceParseError(1, f"unexpected header {header!r}")
    return reader, header


def _parse_int(raw: str, name: str, line: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise TraceParseError(line, f"{name} is not an integer: {raw!r}") from None


def load_arrival_trace(source, service_id: int) -> ArrivalTrace:
    """Parse an arrivals CSV, keeping rows for `service_id` and gap-filling zeros.

    Accepts a path-like/str content/bytes/file object.  Missing TTIs become
    0-bit slots; the optional `packet_sizes` column is a `;`-separated list
    whose sum must equal the row's bits.
    """
    close = False
    if hasattr(source, "read") or isinstance(source, (str, bytes, bytearray)):
        if isinstance(source, str) and "\n" not in source and source.endswith(".csv"):
            source = open(source, "r", newline="")
            close = True
    try:
        reader, header = _read_rows(source, (ARRIVAL_HEADER, ARRIVAL_HEADER_PKT))
        has_pkts = header == ARRIVAL_HEADER_PKT
        bits: dict[int, int] = {}
        pkts: dict[int, tuple[int, ...]] = {}
        last_tti = -1
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise TraceParseError(lineno, f"expected {len(header)} fields, got {len(row)}")
            tti = _parse_int(row[0], "tti", lineno)
            sid = _parse_int(row[1], "service_id", lineno)
            if sid != service_id:
                continue
            if tti < 0:
                raise TraceParseError(lineno, "tti must be non-negative")
            if tti <= last_tti:
                raise TraceParseError(lineno, "tti values must be strictly increasing per service")
            last_tti = tti
            b = _parse_int(row[2], "bits", lineno)
            if b < 0:
                raise TraceValidationError(f"line {lineno}: negative bits")
            bits[tti] = b
            if has_pkts:
                raw = row[3].strip()
                if raw:
                    try:
                        sizes = tuple(int(tok) for tok in raw.split(";"))
                    except ValueError:
                        raise TraceParseError(lineno, f"bad packet_sizes: {raw!r}") from None
                    if any(s <= 0 for s in sizes):
                        raise TraceValidationError(f"line {lineno}: non-positive packet size")
                    if sum(sizes) != b:
                        raise TraceValidationError(
                            f"line {lineno}: packet sizes sum to {sum(sizes)}, bits say {b}"
                        )
                    pkts[tti] = sizes
                else:
                    pkts[tti] = (b,) if b > 0 else ()
        if not bits:
            raise TraceValidationError(f"no rows for service {service_id}")
        horizon = last_tti + 1
        arr = np.zeros(horizon, dtype=np.int64)
        for t, b in bits.items():
            arr[t] = b
        packet_sizes = None
        if has_pkts:
            packet_sizes = tuple(
                pkts.get(t, ((int(arr[t]),) if arr[t] > 0 else ())) for t in range(horizon)
            )
        return ArrivalTrace(service_id, arr, packet_sizes)
    finally:
        if close:
            source.close()


def load_channel_trace(source, service_id: int) -> ChannelTrace:
    """Parse a channel CSV (`tti,service_id,bits_per_rb`) for one service."""
    close = False
    if isinstance(source, str) and "\n" not in source and source.endswith(".csv"):
        source = open(source, "r", newline="")
        close = True
    try:
        reader, _ = _read_rows(source, (CHANNEL_HEADER,))
        vals: dict[int, int] = {}
        last_tti = -1
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise TraceParseError(lineno, f"expected 3 fields, got {len(row)}")
            tti = _parse_int(row[0], "tti", lineno)
            sid = _parse_int(row[1], "service_id", lineno)
            if sid != service_id:
                continue
            if tti < 0:
                raise TraceParseError(lineno, "tti must be non-negative")
            if tti <= last_tti:
                raise TraceParseError(lineno, "tti values must be strictly increasing per service")
            last_tti = tti
            c = _parse_int(row[2], "bits_per_rb", lineno)
            if c <= 0:
                raise TraceValidationError(f"line {lineno}: bits_per_rb must be positive")
            vals[tti] = c
        if not vals:
            raise TraceValidationError(f"no rows for service {service_id}")
        if len(vals) != last_tti + 1:
            raise TraceValidationError("channel trace has TTI gaps; capacity must be defined per TTI")
        return ChannelTrace(service_id, np.array([vals[t] for t in range(last_tti + 1)], dtype=np.int64))
    finally:
        if close:
            source.close()


def write_arrival_trace(trace: ArrivalTrace, stream) -> None:
    """Emit CSV such that load_arrival_trace round-trips to an identical trace."""
    w = csv.writer(stream, lineterminator="\n")
    has_pkts = trace.packet_sizes_per_tti is not None
    w.writerow(ARRIVAL_HEADER_PKT if has_pkts else ARRIVAL_HEADER)
    for t, b in enumerate(trace.bits_per_tti):
        if has_pkts:
            sizes = ";".join(str(s) for s in trace.packet_sizes_per_tti[t])
            w.writerow([t, trace.service_id, int(b), sizes])
        else:
            w.writerow([t, trace.service_id, int(b)])


def write_channel_trace(trace: ChannelTrace, stream) -> None:
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(CHANNEL_HEADER)
    for t, c in enumerate(trace.bits_per_rb):
        w.writerow([t, trace.service_id, int(c)])


def extend_cyclically(values: np.ndarray, horizon: int, what: str = "trace") -> np.ndarray:
    """Wrap a shorter trace around to cover `horizon` TTIs (logged once)."""
    n = len(values)
    if n >= horizon:
        return values[:horizon]
    log.info("%s shorter than horizon (%d < %d); extending cyclically", what, n, horizon)
    reps = -(-horizon // n)
    return np.tile(values, reps)[:horizon]
