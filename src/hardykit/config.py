"""Run configuration: line-oriented key=value with [section] headers.

Every tunable documented in the numeric modules appears here with its
default, so a config file pins a run completely (there is no randomness
anywhere in the toolkit).  Configs round-trip: parse -> serialize -> parse
is the identity.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields
from typing import Tuple

from .errors import ConfigError, InvalidParams
from .weights import WeightFamily, family_from_mapping

__all__ = ["RunConfig", "parse_config", "serialize_config", "load_config", "apply_overrides"]

TASKS = ("analyze", "spectrum", "sweep", "sharpness", "evolve", "report-all")


@dataclass(frozen=True)
class FamilyConfig:
    kind: str = "exp_power"
    dimension: int = 3
    b: float = 1.0
    m: float = 2.0
    beta: float = 0.0
    alpha: float = 0.0

    def build(self) -> WeightFamily:
        try:
            return family_from_mapping(vars(self) | {"dimension": self.dimension})
        except InvalidParams as exc:
            raise ConfigError(f"[family] {exc}") from exc


@dataclass(frozen=True)
class GridConfig:
    r_min: float = 1e-5
    r_max: float = 20.0
    n_points: int = 256


@dataclass(frozen=True)
class HardyConfig:
    k_min: int = 10
    k_max: int = 40
    tail_window: int = 10
    n0_agree_tol: float = 0.05
    h2iv_k_max: int = 40
    h2iii_radii: Tuple[float, ...] = (0.1, 1.0, 10.0)
    h2iii_r_hi: float = 1e3
    h2iii_per_decade: int = 40
    h3p_j_max: int = 20
    h3p_threshold: float = 1e3
    cond1_p: Tuple[float, ...] = (1.0, 2.0, 3.0)
    cond1_k_min: int = 2
    cond1_k_max: int = 12
    cond1_tol: float = 0.02


@dataclass(frozen=True)
class SpectralConfig:
    c: float = 0.2
    rungs: int = 4
    rmin_shrink: float = 4.0
    n_grow: float = 2.0
    diverge_factor: float = 4.0
    lambda_floor: float = 1e-6
    residual_tol: float = 1e-8
    sweep_c_lo: float = 0.05
    sweep_c_hi: float = 0.6
    sweep_tol: float = 0.02


@dataclass(frozen=True)
class SharpnessConfig:
    c_offset: float = 0.25   # phi_n runs at c = c0(N0) + c_offset
    gamma: float = 0.0       # 0 (never admissible) means: choose automatically
    n_ladder: Tuple[int, ...] = (4, 16, 64, 256)
    gamma_j_max: int = 12


@dataclass(frozen=True)
class EvolutionConfig:
    c: float = 0.2
    caps: Tuple[float, ...] = (1e2, 1e3, 1e4)
    T: float = 8.0
    dt: float = 0.01
    records: int = 64
    r_min: float = 1e-4
    r_max: float = 8.0
    n_points: int = 512
    u0_lo: float = 0.25
    u0_hi: float = 1.0
    t_star_frac: float = 0.5
    blowup_ratio: float = 2.0
    omega_rtol: float = 0.1
    cap_dt_safety: float = 0.5

    def __post_init__(self):
        caps = self.caps
        rules = (
            (len(caps) >= 3 and min(caps) > 0.0 and max(caps) >= 100.0 * min(caps),
             f"caps = {caps} needs >= 3 entries, all > 0, spanning >= 2 decades"),
            (0.0 < self.T < math.inf, f"T = {self.T} must be finite and > 0"),
            (self.dt > 0.0, f"dt = {self.dt} must be > 0"),
            (0.0 < self.cap_dt_safety < 1.0,
             f"cap_dt_safety = {self.cap_dt_safety} must lie in (0, 1)"),
            (self.records >= 8, f"records = {self.records} must be >= 8"),
            (self.n_points >= 16, f"n_points = {self.n_points} must be >= 16"),
            (0.0 < self.r_min < self.r_max,
             f"r_min = {self.r_min}, r_max = {self.r_max} need 0 < r_min < r_max"),
            (0.0 < self.t_star_frac <= 1.0,
             f"t_star_frac = {self.t_star_frac} must lie in (0, 1]"),
            (0.0 <= self.u0_lo < self.u0_hi,
             f"u0_lo = {self.u0_lo}, u0_hi = {self.u0_hi} need 0 <= u0_lo < u0_hi"),
        )
        for ok, message in rules:
            if not ok:
                raise ConfigError(f"[evolution] {message}")


@dataclass(frozen=True)
class RunConfig:
    task: str = "report-all"
    outdir: str = "out"
    family: FamilyConfig = field(default_factory=FamilyConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    hardy: HardyConfig = field(default_factory=HardyConfig)
    spectral: SpectralConfig = field(default_factory=SpectralConfig)
    sharpness: SharpnessConfig = field(default_factory=SharpnessConfig)
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)


_SECTIONS = {
    "family": FamilyConfig,
    "grid": GridConfig,
    "hardy": HardyConfig,
    "spectral": SpectralConfig,
    "sharpness": SharpnessConfig,
    "evolution": EvolutionConfig,
}


def _coerce(raw: str, target_type, key: str):
    raw = raw.strip()
    try:
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        if target_type is str:
            return raw
        # tuples serialize as comma-separated scalars
        origin = getattr(target_type, "__origin__", None)
        if origin is tuple:
            inner = target_type.__args__[0]
            if raw == "":
                return ()
            return tuple(
                int(x) if inner is int else float(x) for x in raw.split(",")
            )
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key} = {raw!r}: {exc}") from exc
    raise ConfigError(f"unsupported config field type for {key}")


def _serialize_value(v) -> str:
    if isinstance(v, tuple):
        return ",".join(_serialize_value(x) for x in v)
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    kwargs = {}
    if cp.has_section("run"):
        for key, raw in cp.items("run"):
            if key == "task":
                task = raw.strip()
                if task not in TASKS:
                    raise ConfigError(f"unknown task {task!r}; expected one of {TASKS}")
                kwargs["task"] = task
            elif key == "outdir":
                kwargs["outdir"] = raw.strip()
            else:
                raise ConfigError(f"unknown key [run] {key}")
    for section, cls in _SECTIONS.items():
        if not cp.has_section(section):
            continue
        known = {f.name: f.type for f in fields(cls)}
        resolved = {}
        for key, raw in cp.items(section):
            if key not in known:
                raise ConfigError(f"unknown key [{section}] {key}")
            ftype = cls.__dataclass_fields__[key].type
            # dataclass field types are strings under future annotations;
            # recover the real type from a default instance
            default = getattr(cls(), key)
            if isinstance(default, tuple):
                inner = int if (default and isinstance(default[0], int)) else float
                typ = Tuple[inner, ...]
            else:
                typ = type(default)
            resolved[key] = _coerce(raw, typ, f"[{section}] {key}")
        try:
            kwargs[section] = cls(**resolved)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
    for name in ("family", "grid", "hardy", "spectral", "sharpness", "evolution"):
        kwargs.setdefault(name, _SECTIONS[name]())
    extra = set(cp.sections()) - set(_SECTIONS) - {"run"}
    if extra:
        raise ConfigError(f"unknown section(s): {sorted(extra)}")
    cfg = RunConfig(**kwargs)
    cfg.family.build()  # validate family parameters eagerly
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    out = io.StringIO()
    out.write("[run]\n")
    out.write(f"task = {cfg.task}\n")
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
    cfg = parse_config(text)
    probe = configparser.ConfigParser(interpolation=None)
    probe.optionxform = str
    probe.read_string(text)
    if not probe.has_section("family") or not probe.has_option("family", "kind"):
        raise ConfigError(f"{path}: the family block must name a kind")
    return cfg


def apply_overrides(cfg: RunConfig, overrides) -> RunConfig:
    """Apply `section.key=value` strings on top of a parsed config."""
    if not overrides:
        return cfg
    text = serialize_config(cfg)
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read_string(text)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be section.key=value, got {item!r}")
        lhs, value = item.split("=", 1)
        if "." in lhs:
            section, key = lhs.split(".", 1)
        elif lhs.strip() in ("task", "outdir"):
            section, key = "run", lhs
        else:
            raise ConfigError(f"override must be section.key=value, got {item!r}")
        section, key = section.strip(), key.strip()
        if not cp.has_section(section):
            raise ConfigError(f"unknown section in override: {section!r}")
        cp.set(section, key, value.strip())
    rendered = io.StringIO()
    cp.write(rendered)
    return parse_config(rendered.getvalue())
