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


def _is_number(value) -> bool:
    """A JSON number: an int or float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value) -> bool:
    """math.isfinite of a JSON number; False for an integer beyond the float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from parsed JSON, raising ScenarioError on problems."""
    problems: list[str] = []

    def typed(value, who, kind=dict):
        """``value`` if it is a JSON object (array for kind=list), else an empty one."""
        if isinstance(value, kind):
            return value
        problems.append(f"{who} must be a JSON {'array' if kind is list else 'object'}, got {value!r}")
        return kind()

    def need(key, kind=dict):
        if key not in data:
            problems.append(f"missing key {key!r}")
            return kind()
        return typed(data[key], key, kind)

    def number(raw, key, default, where="", whole=False):
        """float(raw[key]) for a finite JSON number (int(raw[key]) for a ``whole`` one),
        ``default`` if absent (or null where the default is null); anything
        else notes a problem named by ``where`` + key."""
        value = raw.get(key, default)
        if value is default:
            return default
        wanted = ("a number" if not _is_number(value)
                  else "a whole number" if whole and not (isinstance(value, int)
                                                          or value.is_integer())
                  else "finite" if not _finite(value) else None)
        if wanted:
            problems.append(f"{where}{key} must be {wanted}, got {value!r}")
            return default
        return int(value) if whole else float(value)

    def position(raw, who, default=None):
        pos = raw.get("position_m", default)
        if not (isinstance(pos, (list, tuple)) and len(pos) == 2
                and all(_is_number(v) and _finite(v) for v in pos)):
            problems.append(f"{who}.position_m must be [x, y], got {pos!r}")
            return (0.0, 0.0)
        return (float(pos[0]), float(pos[1]))

    def transmitter(who):
        raw = need(who)
        return TransmitterConfig(position=position(raw, who),
                                 tx_power=number(raw, "tx_power", 1.0, f"{who}."))

    excl = typed(data.get("exclusion_m", {}), "exclusion_m")
    fields = dict(carrier_frequency=number(data, "carrier_frequency_hz", 2.4e9),
                  antenna_spacing=number(data, "antenna_spacing_wavelengths", 0.5),
                  path_loss_exponent=number(data, "path_loss_exponent", 2.0),
                  false_alarm_target=number(data, "false_alarm_target", 1e-2),
                  exclusion_alice=number(excl, "alice", 6.0, "exclusion_m."),
                  exclusion_rrh=number(excl, "rrh", 3.0, "exclusion_m."))

    if (data.get("rice_factor_db") is None) == (data.get("rice_factor") is None):
        problems.append("exactly one of rice_factor_db / rice_factor is required")
    rice_db = number(data, "rice_factor_db", None)
    try:
        rice = 10.0 ** (rice_db / 10.0) if rice_db is not None else number(data, "rice_factor", 1.0)
    except OverflowError:
        problems.append(f"rice_factor_db must give a finite linear factor, got {rice_db!r}")

    corr_raw = typed(data.get("correlation", {}), "correlation")
    model = corr_raw.get("model", "identity")
    rho = number(corr_raw, "rho", 0.0, "correlation.")
    if model not in ("identity", "exponential"):
        problems.append(f"correlation.model must be identity or exponential, got {model!r}")
        model = "identity"
    correlation = Correlation(kind=model, rho=rho)

    reg_raw = need("region_m")
    corners = ("x_min", "x_max", "y_min", "y_max")
    if not all(key in reg_raw for key in corners):
        problems.append("region_m must provide numeric x_min/x_max/y_min/y_max")
    region = Region(*(number(reg_raw, key, 0.0, "region_m.") for key in corners))

    rrhs = []
    for i, raw in enumerate(need("rrhs", list)):
        who = f"rrhs[{i}]"
        raw = typed(raw, who)
        rrhs.append(RrhConfig(
            id=str(raw.get("id", f"rrh{i}")),
            position=position(raw, who, (0.0, 0.0)),
            num_antennas=number(raw, "num_antennas", 1, who + ".", whole=True),
            array_axis=_axis_from_degrees(number(raw, "array_axis_deg", 0.0, who + "."))))

    alice = transmitter("alice")
    eve = transmitter("eve")

    search_raw = typed(data.get("search", {}), "search")
    if search_raw.get("include_first_sidelobes", True) is not True:
        problems.append("search.include_first_sidelobes: first-sidelobe pairs are always searched, "
                        f"so it may only be true, got {search_raw['include_first_sidelobes']!r}")
    search = SearchConfig(
        grid_resolution=number(search_raw, "grid_resolution_m", None, "search."),
        g0=number(search_raw, "g0", math.sqrt(2.0), "search."),
        small_scale_radius=number(search_raw, "small_scale_radius_m", None, "search."),
        max_candidates=number(search_raw, "max_candidates", 20_000, "search.", whole=True))

    if problems:
        raise ScenarioError(problems)

    scenario = Scenario(rrhs=tuple(rrhs), alice=alice, eve=eve, region=region, rice_factor=rice,
                        correlation=correlation, search=search, **fields)
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

