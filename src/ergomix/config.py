"""Flat key-value experiment configuration, with each key declared once.

Format: one ``key = value`` per line, optional ``[field]``, ``[datum]`` and
``[map]`` section headers, ``#`` comments.  A root key is one ``Config``
field: its type (int, float or str) gives its parser, ``_RANGES`` its range,
and ``Config`` checks itself when built, from a file or from Python.  A
section without a ``kind`` is absent (``None``, and no block in the echo); one
with a kind parses into its owner's type, which rejects a kind outside its
catalog: ``VelocityFieldSpec``, ``scalar.make_initial`` or ``MapBlock``.
``--set section.key=value`` overrides compose textually on top of the parsed
file, and ``parse_config(render_config(c)) == c`` for every valid config.
"""

import math
from dataclasses import MISSING, dataclass, fields

from .diagnostics import MIN_PROBES, check_kappa
from .errors import ConfigError
from .fields import VelocityFieldSpec
from .maps import MAP_KINDS
from .scalar import DATUM_PARAMETER, MIN_RESOLUTION, InitialDatum, make_initial

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

    A datum must be resolved by the grid: at least 4 nodes per half period
    along each axis.  A checkerboard of level m flips sign every 2^-m, so it
    needs N >= 2^(m+2); a stripe flips every 2^-(m+1), so N >= 2^(m+3); a
    sinusoid needs max(|kx|, |ky|) <= N / 8.  A coarser grid aliases the
    datum (a level-6 checkerboard on 32^2 samples to the constant +1, with
    H^-1 exactly 0), so the run could only report a meaningless gate.
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
        for key, kind in _ROOT_KEYS.items():
            value = getattr(self, key)
            if not isinstance(value, (int, float) if kind is float else kind):
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
        coarsest = 0 if self.datum is None else _coarsest_resolution(self.datum)
        if self.resolution < coarsest:
            parameter = DATUM_PARAMETER[self.datum.kind]
            raise ConfigError(
                f"datum {self.datum.kind} {parameter} {_format_value(getattr(self.datum, parameter))} "
                f"needs resolution >= {coarsest} (4 nodes per half period), got {self.resolution}"
            )


def _coarsest_resolution(datum):
    """The coarsest grid with 4 nodes per half period of the datum along each axis."""
    if datum.kind == "sinusoid":
        return 8 * max(abs(k) for k in datum.wavevector)
    return 2 ** (datum.level + (2 if datum.kind == "checkerboard" else 3))


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}

# root key -> type, in field order; the sections are the non-scalar fields
_ROOT_KEYS = {f.name: f.type for f in fields(Config) if f.type in (int, float, str)}
_REQUIRED = [f.name for f in fields(Config) if f.default is MISSING]

# section key -> type, where (int,) or (float,) is a comma-separated list; the
# section's own type checks the values
_SECTIONS = {
    "field": {"kind": str, "amplitude": float, "phases": (float,), "wavenumber": int},
    "datum": {"kind": str, "wavevector": (int,), "level": int},
    "map": {"kind": str},
}
# section -> the builder of its type, from the section's keys
_BUILDERS = {"field": VelocityFieldSpec, "datum": make_initial, "map": MapBlock}


def _parse(key, raw, kind):
    """raw as a str, an int, a finite float, or a tuple of the numbers listed between commas."""
    if kind is str:
        return raw
    if isinstance(kind, tuple):
        raw = raw.strip()
        return tuple(_parse(key, part, kind[0]) for part in raw.split(",")) if raw else ()
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
        registry = _ROOT_KEYS if section is None else _SECTIONS[section]
        label = key if section is None else f"{section}.{key}"
        if key not in registry:
            raise ConfigError(f"unknown key {label!r}; valid keys: {', '.join(sorted(registry))}")
        (root if section is None else blocks[section])[key] = _parse(label, raw_value, registry[key])

    for required in _REQUIRED:
        if required not in root:
            raise ConfigError(f"missing required key {required!r}")
    datum = blocks["datum"]
    if not datum.get("kind") and set(datum) - {"kind"}:
        raise ConfigError(f"datum.{min(set(datum) - {'kind'})} is given without datum.kind")
    sections = {name: build(**blocks[name]) for name, build in _BUILDERS.items() if blocks[name].get("kind")}
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
    for section, keys in _SECTIONS.items():
        block = getattr(config, section)
        if block is None:
            continue
        if section == "datum":  # only the keys the datum kind reads
            keys = ("kind", DATUM_PARAMETER[block.kind])
        lines += ["", f"[{section}]"] + [f"{key} = {_format_value(getattr(block, key))}" for key in keys]
    return "\n".join(lines) + "\n"
