"""Trace ingestion and synthetic traffic/channel generation.

Arrival and channel traces are CSV files with one row per TTI with data,
read through one row reader (`_service_rows`) from a path of any name or an
open text stream; each loader then parses only its own value columns.
Synthetic sources are small parametric models drawn through seeded numpy
Generators so every run is reproducible.
"""

from __future__ import annotations

import csv
import logging
import os
from dataclasses import dataclass
from typing import Optional

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


def _parse_int(raw: str, name: str, line: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise TraceParseError(line, f"{name} is not an integer: {raw!r}") from None


def _read_rows(source, headers: tuple[tuple[str, ...], ...]):
    """(header, {service_id: [(line, tti, row), ...]}, error) for a whole trace CSV.

    `source` is a path (str or os.PathLike) or an open text stream; a path is
    read whole and closed before any value column is parsed.  Checks the
    header, then each row's field count and integer tti/service_id columns;
    reading stops at the first row that fails them, and that row's error is
    returned for each service to raise after checking its own earlier rows.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, newline="") as fh:
            return _read_rows(fh, headers)
    reader = csv.reader(source)
    try:
        header = tuple(h.strip() for h in next(reader))
    except StopIteration:
        raise TraceParseError(1, "empty file, header row required") from None
    if header not in headers:
        raise TraceParseError(1, f"unexpected header {header!r}")
    by_service: dict[int, list] = {}
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            if len(row) != len(header):
                raise TraceParseError(line, f"expected {len(header)} fields, got {len(row)}")
            tti = _parse_int(row[0], "tti", line)
            service_id = _parse_int(row[1], "service_id", line)
        except TraceParseError as exc:
            return header, by_service, exc
        by_service.setdefault(service_id, []).append((line, tti, row))
    return header, by_service, None


def _service_rows(source, service_id: int, headers: tuple[tuple[str, ...], ...], tables: Optional[dict]):
    """(header, [(line, tti, row), ...]) for one service of a trace CSV.

    With a `tables` dict, a path's rows are read on its first use and kept
    there for later calls.  Checks that tti is non-negative and strictly
    increasing within the service; errors come in file order, as if the file
    were read for this service alone.
    """
    if tables is not None and isinstance(source, (str, os.PathLike)):
        key = (os.fspath(source), headers)
        if key not in tables:
            tables[key] = _read_rows(source, headers)
        header, by_service, error = tables[key]
    else:
        header, by_service, error = _read_rows(source, headers)
    rows = by_service.get(service_id, [])
    last_tti = -1
    for line, tti, _ in rows:
        if tti < 0:
            raise TraceParseError(line, "tti must be non-negative")
        if tti <= last_tti:
            raise TraceParseError(line, "tti values must be strictly increasing per service")
        last_tti = tti
    if error is not None:
        raise error
    if not rows:
        raise TraceValidationError(f"no rows for service {service_id}")
    return header, rows


def load_arrival_trace(source, service_id: int, tables: Optional[dict] = None) -> ArrivalTrace:
    """Parse an arrivals CSV, keeping rows for `service_id` and gap-filling zeros.

    `source` is a path or an open text stream; calls that share a `tables`
    dict read each path once (see `_service_rows`).  Missing TTIs become 0-bit
    slots; the optional `packet_sizes` column is a `;`-separated list whose
    sum must equal the row's bits (empty: the bits form one packet).
    """
    header, rows = _service_rows(source, service_id, (ARRIVAL_HEADER, ARRIVAL_HEADER_PKT), tables)
    horizon = rows[-1][1] + 1
    bits = np.zeros(horizon, dtype=np.int64)
    sizes = [()] * horizon if header == ARRIVAL_HEADER_PKT else None
    for line, tti, row in rows:
        b = _parse_int(row[2], "bits", line)
        if b < 0:
            raise TraceValidationError(f"line {line}: negative bits")
        bits[tti] = b
        if sizes is None:
            continue
        raw = row[3].strip()
        if not raw:
            sizes[tti] = (b,) if b > 0 else ()
            continue
        try:
            pkts = tuple(int(tok) for tok in raw.split(";"))
        except ValueError:
            raise TraceParseError(line, f"bad packet_sizes: {raw!r}") from None
        if any(s <= 0 for s in pkts):
            raise TraceValidationError(f"line {line}: non-positive packet size")
        if sum(pkts) != b:
            raise TraceValidationError(f"line {line}: packet sizes sum to {sum(pkts)}, bits say {b}")
        sizes[tti] = pkts
    return ArrivalTrace(service_id, bits, None if sizes is None else tuple(sizes))


def load_channel_trace(source, service_id: int, tables: Optional[dict] = None) -> ChannelTrace:
    """Parse a channel CSV (`tti,service_id,bits_per_rb`) for one service.

    `source` is a path or an open text stream (`tables` as for
    `load_arrival_trace`); the service's rows must cover every TTI from 0
    with a positive rate.
    """
    _, rows = _service_rows(source, service_id, (CHANNEL_HEADER,), tables)
    vals = []
    for line, _, row in rows:
        c = _parse_int(row[2], "bits_per_rb", line)
        if c <= 0:
            raise TraceValidationError(f"line {line}: bits_per_rb must be positive")
        vals.append(c)
    if rows[-1][1] + 1 != len(rows):
        raise TraceValidationError("channel trace has TTI gaps; capacity must be defined per TTI")
    return ChannelTrace(service_id, np.array(vals, dtype=np.int64))


def extend_cyclically(values: np.ndarray, horizon: int, what: str = "trace") -> np.ndarray:
    """Wrap a shorter trace around to cover `horizon` TTIs (logged once)."""
    n = len(values)
    if n >= horizon:
        return values[:horizon]
    log.info("%s shorter than horizon (%d < %d); extending cyclically", what, n, horizon)
    reps = -(-horizon // n)
    return np.tile(values, reps)[:horizon]
