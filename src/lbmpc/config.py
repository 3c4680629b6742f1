"""Scenario files: parsing, validation, environment overrides, echoing.

A scenario is an INI file with sections [plant], [controller], [oracle],
[schedule] and [run].  Every knob has a default; unknown sections or keys are
hard errors so typos cannot silently fall back to defaults.  The effective
configuration can be echoed back to INI text, and re-loading the echo gives
an identical scenario.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import Optional


ENV_PREFIX = "LBMPC_"


class ConfigError(Exception):
    """Malformed scenario: bad key, bad value, or missing section."""


@dataclass(frozen=True)
class PlantSection:
    beta: float = 1.0
    zeta: float = 1.0 / math.sqrt(2.0)
    omega_n: float = 10.0 * math.sqrt(10.0)
    T: float = 0.05
    substeps: int = 10
    w_samples: int = 4096
    w_inflation: float = 1.1
    w_region: tuple = (0.7, 0.8, 0.5, 0.25, 0.5)


@dataclass(frozen=True)
class ControllerSection:
    N: int = 10
    q_diag: tuple = (1.0, 1.0, 0.1, 0.1)
    r: float = 1.0
    tube_margin_target: float = 0.95


@dataclass(frozen=True)
class OracleSection:
    kind: str = "dnn"
    hidden: tuple = (32, 16)
    gamma: float = 0.3
    w_bar_factor: float = 2.0
    buffer_capacity: int = 2000
    buffer_policy: str = "fifo"
    train_batch: int = 256
    train_epochs: int = 20
    train_lr: float = 0.001
    l2nw_bandwidth_factor: float = 0.05
    l2nw_lambda: float = 1e-6


@dataclass(frozen=True)
class ScheduleSection:
    """Trainer timing: when weights are copied out and swapped back in.

    ``copy_period`` is the number of control steps between trainer events
    (the T_k sequence); training only fires once the buffer holds at least
    ``train_fill`` of its capacity and ``min_new_samples`` new labels have
    arrived since the previous event.  A trainer event retrains inline and
    installs the result at its own step.  ``deterministic`` writes both
    timing columns of ``trace.csv``, ``solver_time`` and ``prepare_time``,
    as zero, so repeated runs give byte-identical files.
    """

    copy_period: int = 50
    train_fill: float = 0.05
    min_new_samples: int = 32
    deterministic: bool = True
    seed: int = 0


@dataclass(frozen=True)
class RunSection:
    steps: int = 500
    x0: tuple = (-0.12, 0.06, 0.0, 0.0)
    band: float = 0.02


@dataclass(frozen=True)
class Scenario:
    plant: PlantSection = field(default_factory=PlantSection)
    controller: ControllerSection = field(default_factory=ControllerSection)
    oracle: OracleSection = field(default_factory=OracleSection)
    schedule: ScheduleSection = field(default_factory=ScheduleSection)
    run: RunSection = field(default_factory=RunSection)
    name: str = "scenario"


_SECTIONS = {
    "plant": PlantSection,
    "controller": ControllerSection,
    "oracle": OracleSection,
    "schedule": ScheduleSection,
    "run": RunSection,
}


def _parse_value(raw: str, default, path: str):
    """Parse ``raw`` to the type of ``default``, with a keyed error."""
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError("not a boolean")
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            parts = raw.replace(",", " ").split()
            if default and isinstance(default[0], int):
                return tuple(int(p) for p in parts)
            return tuple(float(p) for p in parts)
        return raw
    except ValueError as exc:
        raise ConfigError("%s: cannot parse %r (%s)" % (path, raw, exc))


def _apply(section_obj, items, section_name):
    # configparser lowercases option names, so match them case-insensitively
    known = {f.name.lower(): f.name for f in fields(section_obj)}
    updates = {}
    for key, raw in items:
        name = known.get(key.lower())
        if name is None:
            raise ConfigError("unknown key %s.%s" % (section_name, key))
        updates[name] = _parse_value(raw, getattr(section_obj, name),
                                     "%s.%s" % (section_name, name))
    return replace(section_obj, **updates)


def _validate(s: Scenario) -> Scenario:
    if s.oracle.kind not in ("zero", "dnn", "l2nw"):
        raise ConfigError("oracle.kind must be zero, dnn or l2nw")
    if s.oracle.buffer_policy not in ("fifo", "diversity"):
        raise ConfigError("oracle.buffer_policy must be fifo or diversity")
    if not (0.0 < s.oracle.gamma < 1.0):
        raise ConfigError("oracle.gamma must be in (0, 1)")
    for name in ("w_bar_factor", "l2nw_bandwidth_factor", "l2nw_lambda",
                 "train_lr"):
        if not 0.0 < getattr(s.oracle, name) < math.inf:
            raise ConfigError("oracle.%s must be finite and positive" % name)
    if not s.oracle.hidden or not all(w >= 1 for w in s.oracle.hidden):
        raise ConfigError("oracle.hidden needs one or more widths >= 1")
    for name in ("buffer_capacity", "train_batch", "train_epochs"):
        if getattr(s.oracle, name) < 1:
            raise ConfigError("oracle.%s must be >= 1" % name)
    for name in ("beta", "zeta", "omega_n", "T"):
        if not 0.0 < getattr(s.plant, name) < math.inf:
            raise ConfigError("plant.%s must be finite and positive" % name)
    if s.plant.substeps < 1:
        raise ConfigError("plant.substeps must be >= 1")
    if s.plant.w_samples < 1000:
        raise ConfigError("plant.w_samples must be >= 1000")
    if s.run.steps < 1:
        raise ConfigError("run.steps must be >= 1")
    if len(s.run.x0) != 4 or not all(map(math.isfinite, s.run.x0)):
        raise ConfigError("run.x0 needs 4 finite components")
    if not 1.0 <= s.plant.w_inflation < math.inf:
        raise ConfigError("plant.w_inflation must be finite and >= 1")
    if len(s.controller.q_diag) != 4:
        raise ConfigError("controller.q_diag needs 4 entries")
    if not all(0.0 <= q < math.inf for q in s.controller.q_diag):
        raise ConfigError("controller.q_diag entries must be finite and >= 0")
    if not 0.0 < s.controller.r < math.inf:
        raise ConfigError("controller.r must be finite and positive")
    if not 0.0 < s.controller.tube_margin_target <= 1.0:
        raise ConfigError("controller.tube_margin_target must be in (0, 1]")
    if s.controller.N < 1:
        raise ConfigError("controller.N must be >= 1")
    if s.schedule.copy_period < 1:
        raise ConfigError("schedule.copy_period must be >= 1")
    if not (0.0 < s.schedule.train_fill <= 1.0):
        raise ConfigError("schedule.train_fill must be in (0, 1]")
    if s.schedule.min_new_samples < 1:
        raise ConfigError("schedule.min_new_samples must be >= 1")
    if s.schedule.seed < 0:
        raise ConfigError("schedule.seed must be >= 0")
    if not (0.0 < s.run.band < 1.0):
        raise ConfigError("run.band must be in (0, 1)")
    wr = s.plant.w_region
    if len(wr) not in (1, 5) or not all(0.0 < v <= 1.0 for v in wr):
        raise ConfigError("plant.w_region needs 1 or 5 entries in (0, 1]")
    return s


def _env_items(environ):
    """(section, key, value) triples from LBMPC_SECTION_KEY variables."""
    out = []
    for name, value in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        rest = name[len(ENV_PREFIX):]
        section, _, key = rest.partition("_")
        section = section.lower()
        if section not in _SECTIONS:
            raise ConfigError("environment override %s: unknown section" % name)
        out.append((section, key.lower(), value))
    return sorted(out)


def parse_scenario(text: str, name: str = "scenario",
                   environ: Optional[dict] = None) -> Scenario:
    """Scenario from INI text, applying LBMPC_* environment overrides last."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("scenario does not parse: %s" % exc)
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError("unknown section [%s]" % section)
    parts = {}
    for sec_name, cls in _SECTIONS.items():
        obj = cls()
        if cp.has_section(sec_name):
            obj = _apply(obj, cp.items(sec_name), sec_name)
        parts[sec_name] = obj
    scenario = Scenario(name=name, **parts)
    if environ is None:
        environ = os.environ
    env = _env_items(environ)
    if env:
        by_section = {}
        for section, key, value in env:
            by_section.setdefault(section, []).append((key, value))
        updates = {}
        for section, items in by_section.items():
            updates[section] = _apply(getattr(scenario, section),
                                      items, section)
        scenario = replace(scenario, **updates)
    return _validate(scenario)


def load_scenario(path: str, environ: Optional[dict] = None) -> Scenario:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read scenario %s: %s" % (path, exc))
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_scenario(text, name=name, environ=environ)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, tuple):
        return " ".join(_fmt(v) for v in value)
    return str(value)


def echo_scenario(s: Scenario) -> str:
    """Effective configuration as INI text; reloads to an equal scenario."""
    lines = []
    for sec_name in _SECTIONS:
        obj = getattr(s, sec_name)
        lines.append("[%s]" % sec_name)
        for f in fields(obj):
            lines.append("%s = %s" % (f.name, _fmt(getattr(obj, f.name))))
        lines.append("")
    return "\n".join(lines)
