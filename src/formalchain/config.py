"""Flat key = value run configuration files.

Grammar: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines ignored.  Dotted keys address per-dimension arrays (``Lambda.2 = 0.1``).
Unknown keys are rejected so typos cannot silently change a run.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple

from .action import ActionParams
from .chains import SamplerConfig
from .errors import ConfigError
from .growth import GrowthConfig

ACTION_KEYS = {
    "G", "singular_penalty",
    "Lambda.0", "Lambda.1", "Lambda.2",
    "c.0", "c.1", "c.2",
    "f.0", "f.1", "f.2",
    "g.0", "g.1", "g.2",
    "h.0", "h.1", "h.2",
}

GROWTH_KEYS = {
    "a", "alpha.0", "alpha.1", "alpha.2",
    "layer", "p_circle", "topology_change",
}

SAMPLER_KEYS = {
    "chains", "sweeps", "max_dimension", "mock_stage", "initial_points",
    "x1_candidates", "weight.extend", "weight.fluctuate", "weight.reweight",
    "temperature",
}

SAMPLE_COMMAND_KEYS = ACTION_KEYS | GROWTH_KEYS | SAMPLER_KEYS


def parse_config_text(text: str, allowed: Iterable[str]) -> Dict[str, str]:
    allowed = set(allowed)
    out: Dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in allowed:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {ln}: empty value for {key!r}")
        out[key] = value
    return out


def _as_fraction(settings: Mapping[str, str], key: str, default):
    if key not in settings:
        return default
    try:
        return Fraction(settings[key])
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"key {key!r}: bad number {settings[key]!r}")


def _as_float(settings: Mapping[str, str], key: str, default: float) -> float:
    return float(_as_fraction(settings, key, default))


def _as_penalty(settings: Mapping[str, str], key: str, default: float) -> float:
    """A number, or ``inf`` for hard rejection of singular sites."""
    if settings.get(key, "").lower() == "inf":
        return math.inf
    return _as_float(settings, key, default)


def _as_int(settings: Mapping[str, str], key: str, default: int) -> int:
    if key not in settings:
        return default
    try:
        return int(settings[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: bad integer {settings[key]!r}")


def _as_bool(settings: Mapping[str, str], key: str, default: bool) -> bool:
    if key not in settings:
        return default
    v = settings[key].lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"key {key!r}: bad flag {settings[key]!r}")


def _triple(settings: Mapping[str, str], stem: str, default: Tuple[float, float, float]):
    return tuple(
        _as_float(settings, f"{stem}.{d}", default[d]) for d in range(3)
    )


def action_params_from(settings: Mapping[str, str]) -> ActionParams:
    base = ActionParams()
    try:
        return ActionParams(
            G=_as_float(settings, "G", base.G),
            Lambda=_triple(settings, "Lambda", base.Lambda),
            c=_triple(settings, "c", base.c),
            f=_triple(settings, "f", base.f),
            g=_triple(settings, "g", base.g),
            h=_triple(settings, "h", base.h),
            singular_penalty=_as_penalty(settings, "singular_penalty", base.singular_penalty),
        )
    except Exception as exc:
        raise ConfigError(str(exc))


def growth_config_from(settings: Mapping[str, str]) -> GrowthConfig:
    base = GrowthConfig()
    try:
        return GrowthConfig(
            alpha=tuple(_as_fraction(settings, f"alpha.{d}", base.alpha[d]) for d in range(3)),
            a=_as_fraction(settings, "a", base.a),
            layer=settings.get("layer", base.layer),
            topology_change=_as_bool(settings, "topology_change", base.topology_change),
            p_circle=_as_float(settings, "p_circle", base.p_circle),
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(str(exc))


def sampler_config_from(settings: Mapping[str, str], seed: int) -> SamplerConfig:
    base = SamplerConfig()
    try:
        return SamplerConfig(
            seed=seed,
            chains=_as_int(settings, "chains", base.chains),
            sweeps=_as_int(settings, "sweeps", base.sweeps),
            max_dimension=_as_int(settings, "max_dimension", base.max_dimension),
            mock_stage=_as_bool(settings, "mock_stage", base.mock_stage),
            initial_points=_as_int(settings, "initial_points", base.initial_points),
            x1_candidates=_as_int(settings, "x1_candidates", base.x1_candidates),
            weight_extend=_as_float(settings, "weight.extend", base.weight_extend),
            weight_fluctuate=_as_float(settings, "weight.fluctuate", base.weight_fluctuate),
            weight_reweight=_as_float(settings, "weight.reweight", base.weight_reweight),
            temperature=_as_float(settings, "temperature", base.temperature),
            growth=growth_config_from(settings),
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(str(exc))


def resolved_echo(settings: Mapping[str, str], seed: int) -> Dict[str, str]:
    """What actually went into the run, for embedding in outputs."""
    out = dict(sorted(settings.items()))
    out["seed"] = str(seed)
    return out
