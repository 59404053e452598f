"""Flat key-value experiment configuration.

Format: one ``key = value`` per line, optional ``[field]``, ``[datum]``, and
``[map]`` section headers, ``#`` comments.  Every knob is one documented
line; ``--set section.key=value`` overrides compose textually on top of the
parsed file.  ``parse_config(render_config(c)) == c`` for every valid config.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .diagnostics import MIN_PROBES
from .errors import ConfigError
from .fields import VelocityFieldSpec
from .scalar import DATUM_PARAMETER, MIN_RESOLUTION, InitialDatum, make_initial

EXPERIMENTS = ("lyapunov", "ruelle", "mixing", "regularity")
_NO_DATUM = InitialDatum(kind="")  # a config without a [datum] kind


def _int_range(lo, hi=None):
    def check(key, value):
        if hi is None:
            if value < lo:
                raise ConfigError(f"{key} must be an integer >= {lo}, got {value}")
        elif not (lo <= value <= hi):
            raise ConfigError(f"{key} must be an integer in [{lo}, {hi}], got {value}")

    return check


def _float_open(lo, hi):
    def check(key, value):
        if not (lo < value < hi):
            raise ConfigError(f"{key} must lie in ({lo}, {hi}), got {value}")

    return check


def _float_closed(lo, hi):
    def check(key, value):
        if not (lo <= value <= hi):
            raise ConfigError(f"{key} must lie in [{lo}, {hi}], got {value}")

    return check


@dataclass(frozen=True)
class MapBlock:
    kind: str = ""


@dataclass(frozen=True)
class Config:
    experiment: str
    seed: int
    output_dir: str = "runs"
    n: int = 8
    level: int = 4
    samples: int = 100_000
    lyapunov_samples: int = 400
    lyapunov_n: int = 100
    probes_per_cell: int = 64
    horizon: int = 20
    resolution: int = 512
    kappa: float = 1.0 / 3.0
    burn_in_fraction: float = 0.2
    field: VelocityFieldSpec = dataclass_field(default_factory=VelocityFieldSpec)
    datum: InitialDatum = _NO_DATUM
    map: MapBlock = dataclass_field(default_factory=MapBlock)


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}")


def _parse_float(key, raw):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}")
    if not np.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return value


def _parse_floats(key, raw):
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(_parse_float(key, part) for part in raw.split(","))


def _parse_ints(key, raw):
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(_parse_int(key, part) for part in raw.split(","))


# key -> (parser, range check or None)
_ROOT_KEYS = {
    "experiment": (str, None),
    "seed": (_parse_int, _int_range(0)),
    "output_dir": (str, None),
    "n": (_parse_int, _int_range(1)),
    "level": (_parse_int, _int_range(1, 12)),
    "samples": (_parse_int, _int_range(1)),
    "lyapunov_samples": (_parse_int, _int_range(1)),
    "lyapunov_n": (_parse_int, _int_range(1)),
    "probes_per_cell": (_parse_int, _int_range(MIN_PROBES)),
    "horizon": (_parse_int, _int_range(1)),
    "resolution": (_parse_int, _int_range(MIN_RESOLUTION)),
    "kappa": (_parse_float, _float_open(0.0, 1.0)),
    "burn_in_fraction": (_parse_float, _float_closed(0.0, 0.9)),
}

# VelocityFieldSpec checks its own ranges
_FIELD_KEYS = {
    "kind": (str, None),
    "amplitude": (_parse_float, None),
    "phases": (_parse_floats, None),
    "wavenumber": (_parse_int, None),
}

_DATUM_KEYS = {
    "kind": (str, None),
    "wavevector": (_parse_ints, None),
    "level": (_parse_int, _int_range(0, 12)),
}

_MAP_KEYS = {
    "kind": (str, None),
}

_SECTIONS = {"field": _FIELD_KEYS, "datum": _DATUM_KEYS, "map": _MAP_KEYS}


def _raw_pairs(text):
    """Yield ((section or None, key), raw value) preserving later-wins order."""
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(
                    f"unknown section [{section}] on line {lineno}; valid sections: "
                    + ", ".join(sorted(_SECTIONS))
                )
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno} is not a 'key = value' assignment: {raw_line!r}")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        yield (section, key), raw_value


def parse_config(text, overrides=()) -> Config:
    """Parse config text, apply textual overrides, validate, fill defaults."""
    pairs = dict(_raw_pairs(text))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        path, raw_value = (part.strip() for part in item.split("=", 1))
        if "." in path:
            section, key = path.split(".", 1)
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section {section!r} in override {item!r}")
            pairs[(section, key)] = raw_value
        else:
            pairs[(None, path)] = raw_value

    root = {}
    blocks = {"field": {}, "datum": {}, "map": {}}
    for (section, key), raw_value in pairs.items():
        registry = _ROOT_KEYS if section is None else _SECTIONS[section]
        label = key if section is None else f"{section}.{key}"
        if key not in registry:
            raise ConfigError(f"unknown key {label!r}; valid keys: {', '.join(sorted(registry))}")
        parser, check = registry[key]
        value = parser(label, raw_value) if parser is not str else raw_value
        if check is not None:
            check(label, value)
        if section is None:
            root[key] = value
        else:
            blocks[section][key] = value

    for required in ("experiment", "seed"):
        if required not in root:
            raise ConfigError(f"missing required key {required!r}")
    if root["experiment"] not in EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {', '.join(EXPERIMENTS)}, got {root['experiment']!r}"
        )

    datum = blocks["datum"]
    if not datum.get("kind") and set(datum) - {"kind"}:
        raise ConfigError(f"datum.{min(set(datum) - {'kind'})} is given without datum.kind")
    if DATUM_PARAMETER.get(datum.get("kind")) == "level":
        datum = {"level": 2, **datum}
    config = Config(
        **root,
        field=VelocityFieldSpec(**blocks["field"]),
        datum=make_initial(**datum) if datum.get("kind") else _NO_DATUM,
        map=MapBlock(**blocks["map"]),
    )
    _validate_blocks(config)
    return config


def _validate_blocks(config: Config):
    experiment = config.experiment
    if experiment in ("mixing", "regularity"):
        if not config.field.kind:
            raise ConfigError(f"experiment {experiment} requires field.kind")
        if not config.datum.kind:
            raise ConfigError(f"experiment {experiment} requires datum.kind")
    if experiment in ("ruelle", "lyapunov"):
        if not config.map.kind:
            raise ConfigError(f"experiment {experiment} requires map.kind")
        if config.map.kind == "time_one_flow" and not config.field.kind:
            raise ConfigError("map.kind = time_one_flow requires a [field] block")


def _format_value(value):
    if isinstance(value, tuple):
        return ", ".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_config(config: Config) -> str:
    """Canonical text form; parse_config(render_config(c)) == c."""
    lines = []
    for key in _ROOT_KEYS:
        value = getattr(config, key)
        lines.append(f"{key} = {_format_value(value)}")
    for section, keys in _SECTIONS.items():
        block = getattr(config, section)
        if section == "datum":  # only the keys the datum kind reads
            keys = ("kind", DATUM_PARAMETER[block.kind]) if block.kind else ("kind",)
        lines.append("")
        lines.append(f"[{section}]")
        for key in keys:
            lines.append(f"{key} = {_format_value(getattr(block, key))}")
    return "\n".join(lines) + "\n"
