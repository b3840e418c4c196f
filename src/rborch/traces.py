"""Trace ingestion and synthetic traffic/channel generation.

Arrival and channel traces are CSV files with one row per TTI with data,
read through one row reader (`_service_rows`) from a path of any name or an
open text stream; each loader then parses only its own value columns.  An
arrival trace is held as a packet table, a channel trace as a per-TTI column.
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

from .rt import whole_numbers

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
    """Per-service downlink arrivals as a packet table over `length` TTIs.

    Each packet's arrival TTI and size (bits) are int64 columns in FIFO
    order, as in `rt.PacketQueue`; a TTI with no packet has no row.
    """

    service_id: int
    arrival: np.ndarray
    size: np.ndarray
    length: int

    def __post_init__(self):
        arrival = whole_numbers(self.arrival, "packet arrival TTIs", TraceValidationError)
        size = whole_numbers(self.size, "packet sizes", TraceValidationError)
        object.__setattr__(self, "arrival", arrival)
        object.__setattr__(self, "size", size)
        if self.length < 1 or arrival.ndim != 1 or arrival.shape != size.shape:
            raise TraceValidationError("a trace needs a length of at least 1 and 1-d columns of equal length")
        if len(arrival) and (arrival[0] < 0 or arrival[-1] >= self.length or np.any(np.diff(arrival) < 0)):
            raise TraceValidationError("packet arrivals must be in order and within [0, length)")
        if np.any(size < 1):
            raise TraceValidationError("packet sizes must be at least 1 bit")

    @property
    def bits_per_tti(self) -> np.ndarray:
        """Bits arriving in each of the `length` TTIs."""
        bits = np.zeros(self.length, dtype=np.int64)
        np.add.at(bits, self.arrival, self.size)
        return bits


@dataclass(frozen=True)
class ChannelTrace:
    """Per-service channel quality abstracted to bits carried per RB, per TTI."""

    service_id: int
    bits_per_rb: np.ndarray

    def __post_init__(self):
        vals = whole_numbers(self.bits_per_rb, "bits_per_rb", TraceValidationError)
        object.__setattr__(self, "bits_per_rb", vals)
        if vals.ndim != 1 or len(vals) == 0:
            raise TraceValidationError("channel trace must contain at least one TTI")
        if np.any(vals <= 0):
            raise TraceValidationError("bits_per_rb must be strictly positive")


@dataclass(frozen=True)
class SyntheticModel:
    """Parametric per-TTI source: constant, two-point, uniform-integer or table."""

    kind: str
    values: tuple[int, ...]
    probs: Optional[tuple[float, ...]] = None

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


def _int64(raw: str) -> int:
    """`raw` as an integer, refused with ValueError outside int64."""
    value = int(raw)
    if not -(1 << 63) <= value < 1 << 63:
        raise ValueError(f"{raw!r} is outside int64")
    return value


def _parse_int(raw: str, name: str, line: int) -> int:
    try:
        return _int64(raw)
    except ValueError:
        raise TraceParseError(line, f"{name} is not an int64 integer: {raw!r}") from None


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


def _ints(tokens: list[str], locate) -> np.ndarray:
    """`tokens` as int64 in one conversion; if one is not an int64 integer, `locate()` raises its row's error."""
    try:
        return np.array(list(map(int, tokens)), dtype=np.int64)
    except (ValueError, OverflowError):
        locate()
        raise


def _packet_sizes(line: int, raw: str) -> list[int]:
    try:
        return [_int64(tok) for tok in raw.split(";")]
    except ValueError:
        raise TraceParseError(line, f"bad packet_sizes: {raw!r}") from None


def load_arrival_trace(source, service_id: int, tables: Optional[dict] = None) -> ArrivalTrace:
    """Parse an arrivals CSV into the packet table of `service_id`.

    `source` is a path or an open text stream; calls that share a `tables`
    dict read each path once (see `_service_rows`).  A `packet_sizes` cell
    lists positive sizes (`;`-separated) summing to the row's bits; a bare row
    or an empty cell is one packet of its bits, and a 0-bit row none.  The
    trace spans TTIs 0 to the last row's.  Each column is parsed in one
    conversion and checked in turn, raising for its first bad row.
    """
    header, rows = _service_rows(source, service_id, (ARRIVAL_HEADER, ARRIVAL_HEADER_PKT), tables)
    tti = np.fromiter((t for _, t, _ in rows), np.int64, len(rows))
    bits = _ints([row[2] for _, _, row in rows], lambda: [_parse_int(row[2], "bits", line) for line, _, row in rows])
    if np.any(bits < 0):
        raise TraceValidationError(f"line {rows[np.argmax(bits < 0)][0]}: negative bits")
    pkt = header == ARRIVAL_HEADER_PKT
    # a bare row or an empty cell lists one packet of the row's bits, a 0-bit row none
    cells = [(pkt and row[3].strip()) or (row[2] if b else "") for (_, _, row), b in zip(rows, (bits > 0).tolist())]
    listed = np.flatnonzero([bool(c) for c in cells])
    per_row = np.array([cells[i].count(";") + 1 for i in listed], dtype=np.int64)
    tokens = ";".join(cells[i] for i in listed).split(";") if len(listed) else []
    sizes = _ints(tokens, lambda: [_packet_sizes(rows[i][0], cells[i]) for i in listed])
    if np.any(sizes < 1):
        row = np.repeat(listed, per_row)[np.argmax(sizes < 1)]
        raise TraceValidationError(f"line {rows[row][0]}: non-positive packet size")
    sums = np.add.reduceat(sizes, np.cumsum(per_row) - per_row) if len(listed) else sizes
    if np.any(sums != bits[listed]):
        k = np.argmax(sums != bits[listed])
        i = listed[k]
        raise TraceValidationError(f"line {rows[i][0]}: packet sizes sum to {sums[k]}, bits say {bits[i]}")
    return ArrivalTrace(service_id, np.repeat(tti[listed], per_row), sizes, int(tti[-1]) + 1)


def load_channel_trace(source, service_id: int, tables: Optional[dict] = None) -> ChannelTrace:
    """Parse a channel CSV (`tti,service_id,bits_per_rb`) for one service.

    `source` is a path or an open text stream (`tables` as for
    `load_arrival_trace`); the service's rows must cover every TTI from 0
    with a positive rate, parsed in one conversion.
    """
    _, rows = _service_rows(source, service_id, (CHANNEL_HEADER,), tables)
    cells = [row[2] for _, _, row in rows]
    vals = _ints(cells, lambda: [_parse_int(c, "bits_per_rb", line) for (line, _, _), c in zip(rows, cells)])
    if np.any(vals <= 0):
        raise TraceValidationError(f"line {rows[np.argmax(vals <= 0)][0]}: bits_per_rb must be positive")
    if rows[-1][1] + 1 != len(rows):
        raise TraceValidationError("channel trace has TTI gaps; capacity must be defined per TTI")
    return ChannelTrace(service_id, vals)


def extend_cyclically(values: np.ndarray, horizon: int, what: str = "trace") -> np.ndarray:
    """Wrap a shorter trace around to cover `horizon` TTIs (logged once)."""
    n = len(values)
    if n >= horizon:
        return values[:horizon]
    log.info("%s shorter than horizon (%d < %d); extending cyclically", what, n, horizon)
    reps = -(-horizon // n)
    return np.tile(values, reps)[:horizon]
