"""Flat key = value run configuration files.

Grammar: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines ignored.  Dotted keys address per-dimension arrays (``Lambda.2 = 0.1``).
Unknown keys are rejected so typos cannot silently change a run.  The keys
are the fields of ``ActionParams``, ``GrowthConfig`` and ``SamplerConfig``.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .action import ActionParams
from .chains import SamplerConfig
from .errors import ConfigError
from .growth import GrowthConfig

_FLAGS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _keys(cls) -> Dict[str, Tuple[str, Optional[int], object]]:
    """Each config key of ``cls`` -> (field name, tuple index or None, default).

    A tuple field ``x`` gives keys ``x.0``, ``x.1``, ...; ``weight_<kind>`` is
    spelled ``weight.<kind>``.  ``seed`` comes from the command line, and a
    field holding a config class (``SamplerConfig.growth``) has its own keys.
    """
    keys: Dict[str, Tuple[str, Optional[int], object]] = {}
    for f in fields(cls):
        if f.name == "seed" or is_dataclass(f.default_factory):
            continue
        stem = f.name.replace("weight_", "weight.")
        if isinstance(f.default, tuple):
            keys.update((f"{stem}.{i}", (f.name, i, d)) for i, d in enumerate(f.default))
        else:
            keys[stem] = (f.name, None, f.default)
    return keys


ACTION_KEYS = _keys(ActionParams)
GROWTH_KEYS = _keys(GrowthConfig)
SAMPLER_KEYS = _keys(SamplerConfig)
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


def _parsed(key: str, text: str, default):
    """``text`` as the type of ``default``; a float goes through ``Fraction``."""
    if isinstance(default, bool):
        if text.lower() not in _FLAGS:
            raise ConfigError(f"key {key!r}: bad flag {text!r}")
        return _FLAGS[text.lower()]
    if isinstance(default, int):
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"key {key!r}: bad integer {text!r}")
    if isinstance(default, str):
        return text
    if key == "singular_penalty" and text.lower() == "inf":
        return math.inf  # hard rejection of singular sites
    try:
        number = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"key {key!r}: bad number {text!r}")
    try:
        real = float(number)  # GrowthConfig converts its Fraction fields too
    except OverflowError:
        raise ConfigError(f"key {key!r}: number {text!r} is out of float range")
    return number if isinstance(default, Fraction) else real


def _built(cls, settings: Mapping[str, str], **given):
    """A ``cls`` from ``given``, its keys in ``settings`` and its defaults.

    A field holding a config class is built from the same ``settings``, after
    the keys of ``cls`` are parsed and before ``cls`` checks its values.
    """
    args = dict(given)
    for key, (name, i, default) in _keys(cls).items():
        value = _parsed(key, settings[key], default) if key in settings else default
        args[name] = value if i is None else args.get(name, ()) + (value,)
    for f in fields(cls):
        if is_dataclass(f.default_factory):
            args[f.name] = _built(f.default_factory, settings)
    return cls(**args)


def action_params_from(settings: Mapping[str, str]) -> ActionParams:
    return _built(ActionParams, settings)


def growth_config_from(settings: Mapping[str, str]) -> GrowthConfig:
    return _built(GrowthConfig, settings)


def sampler_config_from(settings: Mapping[str, str], seed: int) -> SamplerConfig:
    return _built(SamplerConfig, settings, seed=seed)


def resolved_echo(settings: Mapping[str, str], seed: int) -> Dict[str, str]:
    """What actually went into the run, for embedding in outputs."""
    out = dict(sorted(settings.items()))
    out["seed"] = str(seed)
    return out
