"""Flat key-value experiment configuration, with each key declared once.

Format: one ``key = value`` per line, optional ``[field]``, ``[datum]`` and
``[map]`` section headers, ``#`` comments.  A root key is one ``Config``
field: its type (int, float or str) gives its parser, ``_RANGES`` its range,
and ``Config`` checks itself when built, from a file or from Python.  A
section is its owner's frozen type, ``VelocityFieldSpec``, ``InitialDatum`` or
``MapBlock``, which checks itself the same way: the section's keys and their
types are that type's init fields, where ``X | None`` parses as X and
``tuple[X, ...]`` as a comma-separated list.  A section without a ``kind`` is
absent (``None``, no block in the echo, any other key at its field's default).
``--set section.key=value`` overrides compose textually on top of the parsed
file, and ``parse_config(render_config(c)) == c`` for every valid config.
"""

import math
from dataclasses import MISSING, dataclass, fields
from typing import get_args, get_origin

from .diagnostics import MIN_PROBES, check_kappa
from .errors import ConfigError
from .fields import VelocityFieldSpec
from .maps import MAP_KINDS
from .scalar import DATUM_PARAMETER, MIN_RESOLUTION, InitialDatum

# experiment -> the sections whose kind it requires
EXPERIMENTS = {
    "lyapunov": ("map",),
    "ruelle": ("map",),
    "mixing": ("field", "datum"),
    "regularity": ("field", "datum"),
}

# root key -> (lowest, highest), both allowed; diagnostics.check_kappa owns kappa's open range
_RANGES = {
    "seed": (0, math.inf),
    "n": (1, math.inf),
    "level": (1, 12),
    "samples": (1, math.inf),
    "lyapunov_samples": (1, math.inf),
    "lyapunov_n": (1, math.inf),
    "probes_per_cell": (MIN_PROBES, math.inf),
    "horizon": (1, math.inf),
    "resolution": (MIN_RESOLUTION, math.inf),
    "burn_in_fraction": (0.0, 0.9),
}


@dataclass(frozen=True)
class MapBlock:
    kind: str

    def __post_init__(self):
        if self.kind not in MAP_KINDS:
            raise ConfigError(f"unknown map kind {self.kind!r}; valid kinds: {', '.join(MAP_KINDS)}")


@dataclass(frozen=True)
class Config:
    """One experiment's settings, checked when built.

    Every field has its declared type: a number is never a bool, and a section
    is its owner's type or None.  The resolution is at least the datum's
    ``coarsest_resolution()``, the grid that resolves it.
    """

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
    field: VelocityFieldSpec | None = None
    datum: InitialDatum | None = None
    map: MapBlock | None = None

    def __post_init__(self):
        for key, kind in _TYPES.items():
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
                raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {', '.join(EXPERIMENTS)}, got {self.experiment!r}")
        check_kappa(self.kappa)
        for key, (lowest, highest) in _RANGES.items():
            value = getattr(self, key)
            if not lowest <= value <= highest:
                bounds = f"be >= {lowest}" if highest == math.inf else f"lie in [{lowest}, {highest}]"
                raise ConfigError(f"{key} must {bounds}, got {value}")
        for section in EXPERIMENTS[self.experiment]:
            if getattr(self, section) is None:
                raise ConfigError(f"experiment {self.experiment} requires {section}.kind")
        if self.map is not None and self.map.kind == "time_one_flow" and self.field is None:
            raise ConfigError("map.kind = time_one_flow requires a [field] block")
        coarsest = 0 if self.datum is None else self.datum.coarsest_resolution()
        if self.resolution < coarsest:
            parameter = DATUM_PARAMETER[self.datum.kind]
            raise ConfigError(
                f"datum {self.datum.kind} {parameter} {_format_value(getattr(self.datum, parameter))} "
                f"needs resolution >= {coarsest} (4 nodes per half period), got {self.resolution}"
            )


# field -> type, in field order; the root keys are the scalar fields, the sections the others
_TYPES = {f.name: f.type for f in fields(Config)}
_ROOT_KEYS = {key: kind for key, kind in _TYPES.items() if kind in (int, float, str)}
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"} | {
    kind: f"{get_args(kind)[0].__name__} or None" for key, kind in _TYPES.items() if key not in _ROOT_KEYS
}
_REQUIRED = [f.name for f in fields(Config) if f.default is MISSING]

# section -> its owner type, whose init fields are the section's keys, in order, with their defaults
_SECTIONS = {"field": VelocityFieldSpec, "datum": InitialDatum, "map": MapBlock}
_SECTION_KEYS = {name: {f.name: f.type for f in fields(owner) if f.init} for name, owner in _SECTIONS.items()}


def _parse(key, raw, kind):
    """raw as its field's type: a str, int or finite float, X for X | None, a list between commas for tuple."""
    if get_origin(kind) is tuple:
        raw = raw.strip()
        return tuple(_parse(key, part, get_args(kind)[0]) for part in raw.split(",")) if raw else ()
    if get_origin(kind) is not None:  # X | None
        return _parse(key, raw, get_args(kind)[0])
    if kind is str:
        return raw
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {raw!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return value


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
    blocks = {section: {} for section in _SECTIONS}
    for (section, key), raw_value in pairs.items():
        registry = _ROOT_KEYS if section is None else _SECTION_KEYS[section]
        label = key if section is None else f"{section}.{key}"
        if key not in registry:
            raise ConfigError(f"unknown key {label!r}; valid keys: {', '.join(sorted(registry))}")
        (root if section is None else blocks[section])[key] = _parse(label, raw_value, registry[key])

    for required in _REQUIRED:
        if required not in root:
            raise ConfigError(f"missing required key {required!r}")
    sections = {}
    for name, owner in _SECTIONS.items():
        block = blocks[name]
        if block.get("kind"):
            sections[name] = owner(**block)
        elif set(block) - {"kind"}:
            # a key at its default needs no kind: the older echo wrote an absent [field] with its defaults
            defaults = {f.name: f.default for f in fields(owner)}
            given = sorted(k for k, value in block.items() if k != "kind" and value != defaults[k])
            if given:
                raise ConfigError(f"{name}.{given[0]} is given without {name}.kind")
    return Config(**root, **sections)


def _format_value(value):
    if isinstance(value, tuple):
        return ", ".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_config(config: Config) -> str:
    """Canonical text form; parse_config(render_config(c)) == c."""
    lines = [f"{key} = {_format_value(getattr(config, key))}" for key in _ROOT_KEYS]
    for section, keys in _SECTION_KEYS.items():
        block = getattr(config, section)
        if block is None:
            continue
        if section == "datum":  # only the keys the datum kind reads
            keys = ("kind", DATUM_PARAMETER[block.kind])
        lines += ["", f"[{section}]"] + [f"{key} = {_format_value(getattr(block, key))}" for key in keys]
    return "\n".join(lines) + "\n"
