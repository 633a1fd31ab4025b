"""Scenario files: JSON schema, loading, and validation.

Files use SI units, snake_case keys, and degrees for array axes; the
in-memory Scenario uses unit axis vectors and a linear Rice factor.
Validation collects every violation instead of stopping at the first.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from .geometry import (Correlation, Region, RrhConfig, Scenario, SearchConfig,
                       TransmitterConfig)


class ScenarioError(ValueError):
    """A scenario file or object violates the schema; lists all problems."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _axis_from_degrees(deg: float) -> tuple[float, float]:
    rad = math.radians(deg)
    return (math.cos(rad), math.sin(rad))


def _transmitter(raw: dict, who: str, problems: list[str]) -> TransmitterConfig:
    pos = raw.get("position_m")
    if not (isinstance(pos, (list, tuple)) and len(pos) == 2):
        problems.append(f"{who}.position_m must be [x, y]")
        pos = (0.0, 0.0)
    power = raw.get("tx_power", 1.0)
    return TransmitterConfig(position=(float(pos[0]), float(pos[1])),
                             tx_power=float(power))


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from parsed JSON, raising ScenarioError on problems."""
    problems: list[str] = []

    def need(key):
        if key not in data:
            problems.append(f"missing key {key!r}")
            return None
        return data[key]

    rice_db = data.get("rice_factor_db")
    rice_lin = data.get("rice_factor")
    if (rice_db is None) == (rice_lin is None):
        problems.append("exactly one of rice_factor_db / rice_factor is required")
        rice = 1.0
    else:
        rice = 10.0 ** (float(rice_db) / 10.0) if rice_db is not None else float(rice_lin)

    corr_raw = data.get("correlation", {"model": "identity"})
    model = corr_raw.get("model", "identity")
    rho = float(corr_raw.get("rho", 0.0))
    if model not in ("identity", "exponential"):
        problems.append(f"correlation.model must be identity or exponential, got {model!r}")
        model = "identity"
    correlation = Correlation(kind=model, rho=rho)

    reg_raw = need("region_m") or {}
    try:
        region = Region(float(reg_raw["x_min"]), float(reg_raw["x_max"]),
                        float(reg_raw["y_min"]), float(reg_raw["y_max"]))
    except (KeyError, TypeError, ValueError):
        problems.append("region_m must provide numeric x_min/x_max/y_min/y_max")
        region = Region(0.0, 1.0, 0.0, 1.0)

    excl = data.get("exclusion_m", {})

    rrhs = []
    for i, raw in enumerate(need("rrhs") or []):
        pos = raw.get("position_m", (0.0, 0.0))
        rrhs.append(RrhConfig(
            id=str(raw.get("id", f"rrh{i}")),
            position=(float(pos[0]), float(pos[1])),
            num_antennas=int(raw.get("num_antennas", 1)),
            array_axis=_axis_from_degrees(float(raw.get("array_axis_deg", 0.0)))))

    alice = _transmitter(need("alice") or {}, "alice", problems)
    eve = _transmitter(need("eve") or {}, "eve", problems)

    search_raw = data.get("search", {})

    def number(key, default):
        """search[key] if a JSON number, ``default`` if absent (or null where the
        default is null); anything else notes a problem."""
        value = search_raw.get(key, default)
        if value is not default and (isinstance(value, bool)
                                     or not isinstance(value, (int, float))):
            problems.append(f"search.{key} must be a number, got {value!r}")
            return default
        return value

    sidelobes = search_raw.get("include_first_sidelobes", True)
    if not isinstance(sidelobes, bool):
        problems.append(f"search.include_first_sidelobes must be true or false, got {sidelobes!r}")
    search = SearchConfig(
        grid_resolution=number("grid_resolution_m", None),
        g0=float(number("g0", math.sqrt(2.0))),
        small_scale_radius=number("small_scale_radius_m", None),
        include_first_sidelobes=sidelobes,
        max_candidates=int(number("max_candidates", 20_000)))

    if problems:
        raise ScenarioError(problems)

    scenario = Scenario(
        rrhs=tuple(rrhs), alice=alice, eve=eve, region=region,
        carrier_frequency=float(data.get("carrier_frequency_hz", 2.4e9)),
        antenna_spacing=float(data.get("antenna_spacing_wavelengths", 0.5)),
        path_loss_exponent=float(data.get("path_loss_exponent", 2.0)),
        rice_factor=rice, correlation=correlation,
        false_alarm_target=float(data.get("false_alarm_target", 1e-2)),
        exclusion_alice=float(excl.get("alice", 6.0)),
        exclusion_rrh=float(excl.get("rrh", 3.0)),
        search=search)
    issues = validate_scenario(scenario)
    if issues:
        raise ScenarioError(issues)
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario JSON file."""
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except FileNotFoundError:
        raise ScenarioError([f"scenario file not found: {p}"]) from None
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"invalid JSON in {p}: {exc}"]) from None
    if not isinstance(data, dict):
        raise ScenarioError([f"scenario file {p} must hold a JSON object"])
    return scenario_from_dict(data)


def validate_scenario(scenario: Scenario) -> list[str]:
    """Every constraint violation in the scenario; empty means valid."""
    issues: list[str] = []
    if not 0.0 < scenario.false_alarm_target < 1.0:
        issues.append("false_alarm_target must lie in (0, 1)")
    if scenario.carrier_frequency <= 0.0:
        issues.append("carrier_frequency_hz must be positive")
    if scenario.antenna_spacing <= 0.0:
        issues.append("antenna_spacing_wavelengths must be positive")
    if scenario.path_loss_exponent <= 0.0:
        issues.append("path_loss_exponent must be positive")
    if scenario.rice_factor <= 0.0:
        issues.append("rice factor must be positive")
    if scenario.correlation.kind == "exponential" and not 0.0 <= scenario.correlation.rho < 1.0:
        issues.append("correlation.rho must lie in [0, 1)")
    if scenario.region.x_max <= scenario.region.x_min or scenario.region.y_max <= scenario.region.y_min:
        issues.append("region must have positive extent")
    if scenario.exclusion_alice < 0.0 or scenario.exclusion_rrh < 0.0:
        issues.append("exclusion radii must be nonnegative")
    if not scenario.rrhs:
        issues.append("at least one RRH is required")
    seen = set()
    for rrh in scenario.rrhs:
        if rrh.id in seen:
            issues.append(f"duplicate RRH id {rrh.id!r}")
        seen.add(rrh.id)
        if rrh.num_antennas < 1:
            issues.append(f"RRH {rrh.id!r} needs at least one antenna")
        norm = math.hypot(*rrh.array_axis)
        if abs(norm - 1.0) > 1e-9:
            issues.append(f"RRH {rrh.id!r} array axis must be a unit vector")
        if math.dist(rrh.position, scenario.alice.position) <= 1e-9:
            issues.append(f"RRH {rrh.id!r} coincides with the legitimate transmitter")
    for who, cfg in (("alice", scenario.alice), ("eve", scenario.eve)):
        if cfg.tx_power <= 0.0:
            issues.append(f"{who}.tx_power must be positive")
    if not scenario.search.g0 > 1.0:
        issues.append("search.g0 must exceed 1")
    if scenario.search.grid_resolution is not None and scenario.search.grid_resolution <= 0.0:
        issues.append("search.grid_resolution_m must be positive")
    if scenario.search.small_scale_radius is not None and scenario.search.small_scale_radius < 0.0:
        issues.append("search.small_scale_radius_m must be nonnegative")
    if scenario.search.max_candidates < 1:
        issues.append("search.max_candidates must be at least 1")
    return issues

