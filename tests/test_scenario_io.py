import json
import math
from pathlib import Path

import numpy as np
import pytest

from distpla import (ScenarioError, load_scenario, scenario_from_dict,
                     validate_scenario)
from distpla.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

BASE = {
    "carrier_frequency_hz": 2.4e9,
    "rice_factor_db": 6.0,
    "false_alarm_target": 1e-2,
    "region_m": {"x_min": 0, "x_max": 80, "y_min": 0, "y_max": 60},
    "alice": {"position_m": [65.0, 30.0]},
    "eve": {"position_m": [26.0, 49.0]},
    "rrhs": [
        {"id": "a", "position_m": [10.0, 55.0], "num_antennas": 2},
        {"id": "b", "position_m": [75.0, 30.0], "num_antennas": 3, "array_axis_deg": 90.0},
    ],
}


def test_reference_files_load():
    for name, n_rrh in (("reference_3rrh.json", 3), ("reference_1rrh16.json", 1),
                        ("reference_2rrh8.json", 2), ("desk_2rrh.json", 2)):
        sc = load_scenario(SCENARIOS / name)
        assert len(sc.rrhs) == n_rrh
        assert validate_scenario(sc) == []


def test_basic_fields_and_defaults():
    sc = scenario_from_dict(dict(BASE))
    assert sc.carrier_frequency == 2.4e9
    assert sc.rice_factor == pytest.approx(10 ** 0.6, rel=1e-12)
    assert sc.false_alarm_target == 1e-2
    assert sc.path_loss_exponent == 2.0          # default
    assert sc.antenna_spacing == 0.5             # default, in wavelengths
    assert sc.exclusion_alice == 6.0
    assert sc.exclusion_rrh == 3.0
    assert sc.rho == 0.0                         # no correlation block: identity
    assert sc.search.g0 == pytest.approx(math.sqrt(2.0))
    assert sc.eve.tx_power == 1.0


def test_axis_degrees_become_unit_vectors():
    sc = scenario_from_dict(dict(BASE))
    assert sc.rrhs[0].array_axis == pytest.approx((1.0, 0.0), abs=1e-12)
    assert sc.rrhs[1].array_axis == pytest.approx((0.0, 1.0), abs=1e-12)
    tilted = dict(BASE)
    tilted["rrhs"] = [{"id": "t", "position_m": [1.0, 1.0], "num_antennas": 2,
                       "array_axis_deg": 45.0}]
    sc2 = scenario_from_dict(tilted)
    assert sc2.rrhs[0].array_axis == pytest.approx(
        (math.sqrt(0.5), math.sqrt(0.5)), abs=1e-12)


def test_linear_rice_factor_accepted():
    data = dict(BASE)
    del data["rice_factor_db"]
    data["rice_factor"] = 7.5
    assert scenario_from_dict(data).rice_factor == 7.5


def test_rice_factor_must_be_given_exactly_once():
    both = dict(BASE)
    both["rice_factor"] = 5.0
    with pytest.raises(ScenarioError, match="exactly one"):
        scenario_from_dict(both)
    neither = dict(BASE)
    del neither["rice_factor_db"]
    with pytest.raises(ScenarioError, match="exactly one"):
        scenario_from_dict(neither)


def test_all_problems_reported_together():
    bad = dict(BASE)
    bad["false_alarm_target"] = 2.0
    bad["rrhs"] = [
        {"id": "x", "position_m": [1.0, 1.0], "num_antennas": 0},
        {"id": "x", "position_m": [2.0, 2.0], "num_antennas": 2},
    ]
    bad["eve"] = {"position_m": [5.0, 5.0], "tx_power": -1.0}
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(bad)
    text = " ".join(exc.value.problems)
    assert len(exc.value.problems) >= 3
    assert "false_alarm_target" in text
    assert "duplicate" in text
    assert "antenna" in text
    assert "tx_power" in text


def test_correlation_model_checked():
    bad = dict(BASE)
    bad["correlation"] = {"model": "gaussian", "rho": 0.5}
    with pytest.raises(ScenarioError, match="identity or exponential"):
        scenario_from_dict(bad)
    good = dict(BASE)
    good["correlation"] = {"model": "exponential", "rho": 0.4}
    assert scenario_from_dict(good).rho == 0.4
    out_of_range = dict(BASE)
    out_of_range["correlation"] = {"model": "exponential", "rho": 1.0}
    with pytest.raises(ScenarioError, match="rho"):
        scenario_from_dict(out_of_range)


def test_rho_needs_the_exponential_model(tmp_path, capsys):
    """A rho beside the identity model, named or by default, is refused rather
    than run uncorrelated; the identity model and rho = 0 are one scenario."""
    identity = scenario_from_dict(dict(BASE, correlation={"model": "identity"}))
    assert identity == scenario_from_dict(dict(BASE)) and identity.rho == 0.0
    assert scenario_from_dict(dict(BASE, correlation={"model": "exponential", "rho": 0})) == identity
    problem = "correlation.rho is allowed only with model exponential"
    for correlation in ({"rho": 0.5}, {"model": "identity", "rho": 0.7},
                        {"model": "identity", "rho": 0.0}):
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(dict(BASE, correlation=correlation))
        assert info.value.problems == [problem]
    scenario = tmp_path / "identity_rho.json"
    scenario.write_text(json.dumps(dict(BASE, correlation={"model": "identity", "rho": 0.7})))
    assert main(["threshold", "--scenario", str(scenario)]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "ScenarioError", "message": problem}


def test_region_shape_checked():
    bad = dict(BASE)
    bad["region_m"] = {"x_min": 0, "x_max": 80}
    with pytest.raises(ScenarioError, match="region_m"):
        scenario_from_dict(bad)
    inverted = dict(BASE)
    inverted["region_m"] = {"x_min": 10, "x_max": 0, "y_min": 0, "y_max": 60}
    with pytest.raises(ScenarioError, match="extent"):
        scenario_from_dict(inverted)


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario(tmp_path / "nope.json")
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario(p)
    arr = tmp_path / "array.json"
    arr.write_text("[1, 2, 3]")
    with pytest.raises(ScenarioError, match="JSON object"):
        load_scenario(arr)


def test_search_block_types_checked():
    bad = dict(BASE)
    bad["search"] = {"grid_resolution_m": "abc", "g0": None, "small_scale_radius_m": "abc",
                     "include_first_sidelobes": "false", "max_candidates": True}
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(bad)
    assert info.value.problems == [
        "unknown key search.include_first_sidelobes",
        "search.grid_resolution_m must be a number, got 'abc'",
        "search.g0 must be a number, got None",
        "search.small_scale_radius_m must be a number, got 'abc'",
        "search.max_candidates must be a number, got True",
    ]


def test_search_block_values():
    ok = dict(BASE)
    ok["search"] = {"grid_resolution_m": 0.25, "g0": 2, "small_scale_radius_m": 0,
                    "max_candidates": 7}
    search = scenario_from_dict(ok).search
    assert (search.grid_resolution, search.g0, search.small_scale_radius,
            search.max_candidates) == (0.25, 2.0, 0, 7)
    # first-sidelobe pairs are always searched: the retired key that named
    # them is unknown, whatever its value
    for value in (True, False, None, 0):
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(dict(ok, search=dict(ok["search"], include_first_sidelobes=value)))
        assert info.value.problems == ["unknown key search.include_first_sidelobes"]
    assert scenario_from_dict(dict(BASE)).search.small_scale_radius is None
    bad = dict(BASE)
    bad["search"] = {"small_scale_radius_m": -1, "grid_resolution_m": 0}
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(bad)
    assert info.value.problems == ["search.grid_resolution_m must be positive",
                                   "search.small_scale_radius_m must be nonnegative"]


def test_rrh_on_alice_rejected():
    bad = dict(BASE)
    bad["rrhs"] = [{"id": "r", "position_m": [65.0, 30.0], "num_antennas": 2}]
    with pytest.raises(ScenarioError, match="coincides"):
        scenario_from_dict(bad)


DESK = SCENARIOS / "desk_2rrh.json"


def _desk_with(*edits):
    """desk_2rrh's JSON with each (path, value) edit applied; a path is a key tuple."""
    data = json.loads(Path(DESK).read_text())
    for path, value in edits:
        node = data
        for key in path[:-1]:
            node = node.setdefault(key, {}) if isinstance(key, str) else node[key]
        node[path[-1]] = value
    return data


@pytest.mark.parametrize("path, name", [
    (("carrier_frequency_hz",), "carrier_frequency_hz"),
    (("false_alarm_target",), "false_alarm_target"),
    (("exclusion_m", "alice"), "exclusion_m.alice"),
    (("exclusion_m", "rrh"), "exclusion_m.rrh"),
    (("correlation", "rho"), "correlation.rho"),
    (("rice_factor_db",), "rice_factor_db"),
    (("region_m", "y_max"), "region_m.y_max"),
    (("alice", "tx_power"), "alice.tx_power"),
    (("eve", "tx_power"), "eve.tx_power"),
    (("rrhs", 0, "num_antennas"), "rrhs[0].num_antennas"),
    (("rrhs", 1, "array_axis_deg"), "rrhs[1].array_axis_deg"),
])
def test_numeric_keys_name_themselves(path, name):
    # a null Rice factor counts as absent, so exactly one of the two is missing;
    # a rho is read only with the exponential model
    model = ((("correlation", "model"), "exponential"),) if name == "correlation.rho" else ()
    for bad in ("x", True, [1.0]) + ((None,) if name != "rice_factor_db" else ()):
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(_desk_with(*model, (path, bad)))
        assert info.value.problems == [f"{name} must be a number, got {bad!r}"]


def test_positions_must_be_number_pairs():
    for who, path in (("alice", ("alice", "position_m")),
                      ("rrhs[1]", ("rrhs", 1, "position_m"))):
        for bad in ([1.0, "y"], [1.0], "here", [True, 2.0]):
            with pytest.raises(ScenarioError) as info:
                scenario_from_dict(_desk_with((path, bad)))
            assert info.value.problems == [f"{who}.position_m must be [x, y], got {bad!r}"]


@pytest.mark.parametrize("key, problem", [
    ("position_m", "rrhs[1].position_m must be [x, y], got None"),
    ("num_antennas", "missing key rrhs[1].num_antennas"),
])
def test_rrh_position_and_size_are_required(tmp_path, capsys, key, problem):
    """An array without a position or an antenna count is refused by the key's
    path instead of sitting at the origin or getting one antenna."""
    data = _desk_with()
    del data["rrhs"][1][key]
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(data)
    assert info.value.problems == [problem]
    scenario = tmp_path / "missing.json"
    scenario.write_text(json.dumps(data))
    assert main(["threshold", "--scenario", str(scenario)]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "ScenarioError", "message": problem}
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(_desk_with((("rrhs",), [{}, {}])))
    assert info.value.problems == ["rrhs[0].position_m must be [x, y], got None",
                                   "missing key rrhs[0].num_antennas",
                                   "rrhs[1].position_m must be [x, y], got None",
                                   "missing key rrhs[1].num_antennas"]


def test_every_bad_key_is_reported_at_once():
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(_desk_with((("carrier_frequency_hz",), "abc"),
                                      (("rrhs", 0, "num_antennas"), "x")))
    assert info.value.problems == ["carrier_frequency_hz must be a number, got 'abc'",
                                   "rrhs[0].num_antennas must be a number, got 'x'"]


def test_integer_valued_numbers_load_as_floats():
    sc = scenario_from_dict(_desk_with((("carrier_frequency_hz",), 1500000000),
                                       (("exclusion_m", "alice"), 6),
                                       (("region_m", "x_max"), 40)))
    assert sc == load_scenario(DESK)
    assert type(sc.carrier_frequency) is type(sc.exclusion_alice) is type(sc.region.x_max) is float


def test_sections_must_be_objects():
    """A section that is not a JSON object is a collected problem, not a crash."""
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(_desk_with((("exclusion_m",), 5), (("search",), [1])))
    assert info.value.problems == ["exclusion_m must be a JSON object, got 5",
                                   "search must be a JSON object, got [1]"]
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(_desk_with((("correlation",), "exponential"), (("rrhs", 1), 7)))
    assert info.value.problems == ["correlation must be a JSON object, got 'exponential'",
                                   "rrhs[1] must be a JSON object, got 7"]
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(_desk_with((("rrhs",), {"id": "a"}), (("alice",), None)))
    assert info.value.problems == ["rrhs must be a JSON array, got {'id': 'a'}",
                                   "alice must be a JSON object, got None",
                                   "alice.position_m must be [x, y], got None"]


@pytest.mark.parametrize("path, name", [
    (("false_alarm",), "false_alarm"),
    (("correlation", "Rho"), "correlation.Rho"),
    (("region_m", "xmax"), "region_m.xmax"),
    (("exclusion_m", "rrhs"), "exclusion_m.rrhs"),
    (("alice", "position"), "alice.position"),
    (("eve", "tx_power_w"), "eve.tx_power_w"),
    (("rrhs", 1, "array_axis"), "rrhs[1].array_axis"),
    (("search", "grid_resolution"), "search.grid_resolution"),
])
def test_unknown_keys_name_themselves(tmp_path, capsys, path, name):
    """A key the loader does not read, a typo most often, is refused by its
    path in every scenario object instead of leaving its default in force."""
    problem = f"unknown key {name}"
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(_desk_with((path, 0.5)))
    assert info.value.problems == [problem]
    scenario = tmp_path / "typo.json"
    scenario.write_text(json.dumps(_desk_with((path, 0.5))))
    assert main(["threshold", "--scenario", str(scenario)]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "ScenarioError", "message": problem}


def test_counts_must_be_whole_numbers():
    for path, name in ((("rrhs", 0, "num_antennas"), "rrhs[0].num_antennas"),
                       (("search", "max_candidates"), "search.max_candidates")):
        for bad in (2.5, float("inf"), float("nan")):
            with pytest.raises(ScenarioError) as info:
                scenario_from_dict(_desk_with((path, bad)))
            assert info.value.problems == [f"{name} must be a whole number, got {bad!r}"]
    sc = scenario_from_dict(_desk_with((("rrhs", 0, "num_antennas"), 4.0),
                                       (("search", "max_candidates"), 300)))
    assert sc.rrhs[0].num_antennas == 4 and sc.search.max_candidates == 300
    assert type(sc.rrhs[0].num_antennas) is type(sc.search.max_candidates) is int


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("name, bad", [
    ("carrier_frequency_hz", NAN), ("rice_factor_db", INF), ("eve.tx_power", INF),
    ("exclusion_m.alice", NAN), ("search.small_scale_radius_m", INF),
    ("search.small_scale_radius_m", NAN), ("region_m.x_min", -INF),
    ("alice.position_m", [NAN, 12.0]),
])
def test_non_finite_numbers_are_refused(tmp_path, capsys, name, bad):
    """Python's json reads NaN and Infinity; the loader refuses them with the
    key's name, and every command exits 2 on such a file."""
    problem = (f"{name} must be [x, y], got {bad!r}" if name.endswith("position_m")
               else f"{name} must be finite, got {bad!r}")
    scenario = tmp_path / "non_finite.json"
    scenario.write_text(json.dumps(_desk_with((tuple(name.split(".")), bad))))
    with pytest.raises(ScenarioError) as info:
        load_scenario(scenario)
    assert info.value.problems == [problem]
    for command in ("mdp", "optimize"):
        assert main([command, "--scenario", str(scenario)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "ScenarioError", "message": problem}


@pytest.mark.parametrize("path, name, bad", [
    (("eve", "tx_power"), "eve.tx_power", 10 ** 400),
    (("rrhs", 0, "num_antennas"), "rrhs[0].num_antennas", 10 ** 400),
    (("region_m", "x_max"), "region_m.x_max", -10 ** 400),
    (("alice", "position_m"), "alice.position_m", [10 ** 400, 12.0]),
    (("rice_factor_db",), "rice_factor_db", 4000),
], ids=["tx_power", "num_antennas", "region", "position", "rice_factor_db"])
def test_numbers_beyond_the_float_range_are_refused(tmp_path, capsys, path, name, bad):
    """A JSON integer too large for a float, or a Rice factor in dB whose
    linear value overflows, is a problem named by its key, and every command
    exits 2 on such a file, not on an unnamed OverflowError."""
    problem = (f"{name} must be [x, y], got {bad!r}" if name.endswith("position_m")
               else f"{name} must give a finite linear factor, got {float(bad)!r}"
               if name == "rice_factor_db" else f"{name} must be finite, got {bad!r}")
    scenario = tmp_path / "overflow.json"
    scenario.write_text(json.dumps(_desk_with((path, bad))))
    with pytest.raises(ScenarioError) as info:
        load_scenario(scenario)
    assert info.value.problems == [problem]
    for command in ("threshold", "optimize"):
        assert main([command, "--scenario", str(scenario)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "ScenarioError", "message": problem}
