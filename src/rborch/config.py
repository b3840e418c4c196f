"""Scenario configuration files: INI documents with one section per service.

Example::

    [scenario]
    n_cell = 30
    horizon = 20000
    controller = marea
    seed = 7

    [service.0]
    w_th_ms = 5
    epsilon = 1e-3
    arrival = two-point 0:0.5 200:0.5
    channel = constant 25

Sources are single-line descriptors: ``constant V``, ``two-point V:P V:P``,
``uniform-integer LO HI``, ``empirical-table V:P [V:P ...]`` or
``trace PATH`` (a CSV file of any name, resolved relative to the config
file); each takes exactly its values.  An unknown section or option and
every invalid value raise ConfigError from `load_config` (CLI exit 1).
"""

from __future__ import annotations

import configparser
import dataclasses
import os

from .near_rt import ServiceSpec
from .rt import ConfigError
from .sim import AnomalyConfig, ScenarioConfig
from .traces import SyntheticModel, load_arrival_trace, load_channel_trace


# the descriptor kinds of a fixed value count; SyntheticModel counts the V:P pairs
_ARITY = {"trace": (1, "one path"), "constant": (1, "one value"), "uniform-integer": (2, "two values")}


def parse_source(text: str, base_dir: str = ".", channel: bool = False, service_id: int = 0, tables=None):
    """Turn a one-line source descriptor into a model or a loaded trace.

    Calls that share a `tables` dict parse each trace file once.
    """
    toks = text.split()
    if not toks:
        raise ConfigError("empty source descriptor")
    kind, args = toks[0], toks[1:]
    if kind in _ARITY and len(args) != _ARITY[kind][0]:
        raise ConfigError(f"{kind} source takes exactly {_ARITY[kind][1]}")
    try:
        if kind == "trace":
            path = os.path.join(base_dir, args[0])
            loader = load_channel_trace if channel else load_arrival_trace
            return loader(path, service_id, tables)
        if kind in ("constant", "uniform-integer"):
            return SyntheticModel(kind, tuple(int(a) for a in args))
        if kind in ("two-point", "empirical-table"):
            values, probs = [], []
            for pair in args:
                v, p = pair.split(":")
                values.append(int(v))
                probs.append(float(p))
            return SyntheticModel(kind, tuple(values), tuple(probs))
    except Exception as exc:
        raise ConfigError(f"bad source descriptor {text!r}: {exc}") from exc
    raise ConfigError(f"unknown source kind {kind!r}")


_SCALAR_TYPES = {t.__name__: t for t in (int, float, str, bool)}
# the [scenario] options: every scalar ScenarioConfig field (f.type is a name: sim.py postpones annotations)
_SCALAR_FIELDS = {
    f.name: _SCALAR_TYPES[f.type] for f in dataclasses.fields(ScenarioConfig) if f.type in _SCALAR_TYPES
}
_ANOMALY_FIELDS = (
    ("anomaly_service", int), ("anomaly_start", int), ("anomaly_end", int), ("anomaly_factor", float),
)
_SCENARIO_OPTIONS = {*_SCALAR_FIELDS, *(name for name, _ in _ANOMALY_FIELDS)}
_SERVICE_OPTIONS = ("w_th_ms", "epsilon", "arrival", "channel")


def _convert(name: str, raw: str, typ):
    try:
        if typ is bool:
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError:
        raise ConfigError(f"option {name!r}: cannot parse {raw!r} as {typ.__name__}") from None


def load_config(path, **overrides) -> ScenarioConfig:
    """Read and validate a scenario file (str or os.PathLike).

    `overrides` are typed [scenario] values that replace the file's before
    the config is made (None keeps the file's value), so they are checked
    as file values are.  Every value that cannot be parsed or fails a check
    of the scenario, its services, anomaly, models or traces raises
    ConfigError naming the file.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    base_dir = os.path.dirname(os.path.abspath(path))
    try:
        if "scenario" not in parser:
            raise ConfigError("missing [scenario] section")
        if parser.defaults():  # configparser copies [DEFAULT] into every section
            raise ConfigError("unknown section [DEFAULT]")
        for section in parser.sections():
            if section == "scenario":
                known = _SCENARIO_OPTIONS
            elif section.startswith("service."):
                known = _SERVICE_OPTIONS
            else:
                raise ConfigError(f"unknown section [{section}]")
            for option in parser[section]:
                if option not in known:
                    raise ConfigError(f"[{section}] has unknown option {option!r}")
        sc = parser["scenario"]
        kwargs = {name: _convert(name, sc[name], typ) for name, typ in _SCALAR_FIELDS.items() if name in sc}
        kwargs.update((name, value) for name, value in overrides.items() if value is not None)
        for required in ("n_cell", "horizon"):
            if required not in kwargs:
                raise ConfigError(f"[scenario] must set {required}")

        anomaly = None
        if any(name in sc for name, _ in _ANOMALY_FIELDS):
            try:
                anomaly = AnomalyConfig(*(_convert(name, sc[name], typ) for name, typ in _ANOMALY_FIELDS))
            except KeyError as exc:
                raise ConfigError(f"incomplete anomaly block ({exc} missing)") from None

        services = []
        tables: dict = {}  # each trace file is parsed once, for every service that reads it
        for section in parser.sections():
            if not section.startswith("service."):
                continue
            try:
                sid = int(section.split(".", 1)[1])
            except ValueError:
                raise ConfigError(f"bad service section name [{section}]") from None
            svc = parser[section]
            for required in _SERVICE_OPTIONS:
                if required not in svc:
                    raise ConfigError(f"[{section}] must set {required}")
            services.append(
                ServiceSpec(
                    sid,
                    _convert("w_th_ms", svc["w_th_ms"], float),
                    _convert("epsilon", svc["epsilon"], float),
                    parse_source(svc["arrival"], base_dir, False, sid, tables),
                    parse_source(svc["channel"], base_dir, True, sid, tables),
                )
            )
        if not services:
            raise ConfigError("no [service.N] sections")
        services.sort(key=lambda s: s.id)

        return ScenarioConfig(services=services, anomaly=anomaly, **kwargs)
    except ValueError as exc:  # ConfigError included: each message gains the file name once
        raise ConfigError(f"{path}: {exc}") from exc

