"""Run configuration: line-oriented key=value with [section] headers.

Each section class is the one definition of its knobs' defaults and
ranges: the evolution takes its section object itself (EvolutionConfig
for the cap ladder), the [family] section is the library's WeightFamily
and the [grid] section its RadialGrid, so a config file pins a run
completely (there is no randomness anywhere in the toolkit; the profile
ladder, the refinement ladder, the phi_n ladder, the sweep width and the
evolve's step and initial datum are constants).  No rule is restated here:
WeightFamily, RadialGrid and spectral.rung_grids (every [grid] ladder rung)
check their own values, and their InvalidParams is a config error of the section.
Configs round-trip: parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Tuple

from .errors import ConfigError, InvalidParams
from .spectral import rung_grids
from .weights import Kind, RadialGrid, WeightFamily

__all__ = ["RunConfig", "parse_config", "serialize_config", "load_config", "apply_overrides"]

# the evolve's initial datum is the bump on this support, which the
# [evolution] grid must meet (see the evolution module)
U0_SUPPORT = (0.25, 1.0)


def _check(section: str, rules) -> None:
    """Raise a ConfigError for the first (ok, message) rule that fails."""
    for ok, message in rules:
        if not ok:
            raise ConfigError(f"[{section}] {message}")


@dataclass(frozen=True)
class SpectralConfig:
    c: float = 0.2
    sweep_c_lo: float = 0.05
    sweep_c_hi: float = 0.6

    def __post_init__(self):
        _check("spectral", (
            (self.sweep_c_lo < self.sweep_c_hi,
             f"sweep_c_lo = {self.sweep_c_lo}, sweep_c_hi = {self.sweep_c_hi} "
             f"need sweep_c_lo < sweep_c_hi"),
        ))


@dataclass(frozen=True)
class EvolutionConfig:
    c: float = 0.2
    caps: Tuple[float, ...] = (1e2, 1e3, 1e4)
    T: float = 8.0
    records: int = 64
    r_min: float = 1e-4
    r_max: float = 8.0
    n_points: int = 512

    def __post_init__(self):
        _in_section("evolution", RadialGrid, self.r_min, self.r_max, self.n_points)
        caps = self.caps
        _check("evolution", (
            (len(caps) >= 3 and min(caps) > 0.0 and max(caps) >= 100.0 * min(caps),
             f"caps = {caps} needs >= 3 entries, all > 0, spanning >= 2 decades"),
            (0.0 < self.T < math.inf, f"T = {self.T} must be finite and > 0"),
            # the top, 64 times the default, bounds the evolve's time and memory
            (8 <= self.records <= 4096, f"records = {self.records} must lie in [8, 4096]"),
            # the record spacing; below the normal range the steps lose their
            # precision, and at T = 5e-324 the spacing is 0
            (self.records < 8 or self.T / self.records >= sys.float_info.min,
             f"T / records = {self.T} / {self.records} must be a normal double, "
             f">= {sys.float_info.min:.3g}"),
            # else the datum is 0 on the grid, and so is every record
            (U0_SUPPORT[0] < self.r_max and U0_SUPPORT[1] > self.r_min,
             f"r_min = {self.r_min}, r_max = {self.r_max} miss the support "
             f"({U0_SUPPORT[0]:g}, {U0_SUPPORT[1]:g}) of the initial bump"),
        ))


@dataclass(frozen=True)
class RunConfig:
    outdir: str = "out"
    family: WeightFamily = field(default_factory=WeightFamily)
    grid: RadialGrid = field(default_factory=RadialGrid)
    spectral: SpectralConfig = field(default_factory=SpectralConfig)
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)

    def __post_init__(self):
        _in_section("grid", rung_grids, self.grid)


_SECTIONS = ("family", "grid", "spectral", "evolution")


def _coerce(raw: str, default, key: str):
    """Parse `raw` as the type of the key's default in its section class.

    Dataclass field types are strings under future annotations, so the
    default carries the type: a value set in code (RadialGrid(r_max=20))
    does not change it.  Tuples are comma-separated floats.
    """
    raw = raw.strip()
    try:
        if isinstance(default, tuple):
            return tuple(float(x) for x in raw.split(",")) if raw else ()
        return type(default)(raw)
    except InvalidParams:  # an unknown Kind names the kinds; _merge names the section
        raise
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key} = {raw!r}: {exc}") from exc


def _serialize_value(v) -> str:
    if isinstance(v, tuple):
        return ",".join(_serialize_value(x) for x in v)
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, Kind):
        return v.value
    return str(v)


def _in_section(section: str, build, /, *args, **kwargs):
    """build(*args, **kwargs), with an InvalidParams reported as a config
    error of `section`."""
    try:
        return build(*args, **kwargs)
    except InvalidParams as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _merge(cfg: RunConfig, raw: dict) -> RunConfig:
    """`cfg` with `raw` (section -> key -> text) applied.  Each section is
    rebuilt once, so a check on two keys (sweep_c_lo < sweep_c_hi) sees
    both new values."""
    defaults = {s: {f.name: f.default for f in fields(getattr(cfg, s))} for s in _SECTIONS}
    defaults["run"] = {"outdir": cfg.outdir}
    for section, block in raw.items():
        for key in block:
            if key not in defaults.get(section, ()):
                raise ConfigError(f"unknown key [{section}] {key}")
        if section not in defaults:  # an empty header
            raise ConfigError(f"unknown section [{section}]")
    changes, parsed = {}, []
    if "outdir" in raw.get("run", {}):
        changes["outdir"] = raw["run"]["outdir"].strip()
    for section in _SECTIONS:
        resolved = {}
        for key, text in raw.get(section, {}).items():
            resolved[key] = _in_section(section, _coerce, text, defaults[section][key],
                                        f"[{section}] {key}")
        if resolved:
            changes[section] = _in_section(section, replace, getattr(cfg, section), **resolved)
            parsed += [(section, key, value) for key, value in resolved.items()]
    cfg = replace(cfg, **changes)
    # after every range rule, so their messages come first: a nan or inf in
    # a key with no range rule would otherwise flip a verdict downstream
    for section, key, value in parsed:
        values = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(v) for v in values if isinstance(v, float)):
            raise ConfigError(f"[{section}] {key} = {_serialize_value(value)} must be finite")
    return cfg


def _parse(text: str):
    """(config, its sections as section -> key -> text) from one parse of `text`."""
    import configparser  # here, not at the top: only a run with a config file reads one

    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc
    raw = {section: dict(cp.items(section)) for section in cp.sections()}
    return _merge(RunConfig(), raw), raw


def parse_config(text: str) -> RunConfig:
    return _parse(text)[0]


def serialize_config(cfg: RunConfig) -> str:
    out = io.StringIO()
    out.write("[run]\n")
    out.write(f"outdir = {cfg.outdir}\n")
    for section in _SECTIONS:
        block = getattr(cfg, section)
        out.write(f"\n[{section}]\n")
        for f in fields(block):
            out.write(f"{f.name} = {_serialize_value(getattr(block, f.name))}\n")
    return out.getvalue()


def load_config(path) -> RunConfig:
    """Parse a config file.  Files must pin the weight family explicitly
    (an empty or missing family block is a config error); built-in defaults
    apply only to override-driven runs without a file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cfg, raw = _parse(text)
    if "kind" not in raw.get("family", {}):
        raise ConfigError(f"{path}: the family block must name a kind")
    return cfg


def apply_overrides(cfg: RunConfig, overrides) -> RunConfig:
    """Apply `section.key=value` strings on top of a parsed config.

    Every override is read before any section is rebuilt, so the result does
    not depend on their order (a later override of the same key wins)."""
    raw = {}
    for item in overrides:
        lhs, _, value = item.partition("=")
        if "=" not in item or "." not in lhs:
            raise ConfigError(f"override must be section.key=value, got {item!r}")
        section, key = lhs.split(".", 1)
        section, key = section.strip(), key.strip()
        raw.setdefault(section, {})[key] = value.strip()
    return _merge(cfg, raw) if raw else cfg
