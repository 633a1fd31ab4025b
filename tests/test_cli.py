"""End-to-end command tests: in-process main(argv), real files, real math."""
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import distpla
from distpla import power_attack
from distpla.cli import main

DESK = str(Path(__file__).resolve().parent.parent / "scenarios" / "desk_2rrh.json")
REF_1RRH16 = str(Path(DESK).with_name("reference_1rrh16.json"))

SMALL = {
    "carrier_frequency_hz": 2.4e9,
    "rice_factor_db": 6.0,
    "false_alarm_target": 1e-2,
    "region_m": {"x_min": 0, "x_max": 24, "y_min": 0, "y_max": 16},
    "alice": {"position_m": [12.0, 8.0]},
    "eve": {"position_m": [5.0, 12.0]},
    "rrhs": [
        {"id": "n", "position_m": [10.0, 16.0], "num_antennas": 3},
        {"id": "e", "position_m": [24.0, 8.0], "num_antennas": 2, "array_axis_deg": 90.0},
    ],
    "search": {"grid_resolution_m": 1.0},
}


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cli") / "small.json"
    p.write_text(json.dumps(SMALL))
    return str(p)


@pytest.fixture(scope="module")
def solo_file(tmp_path_factory):
    data = dict(SMALL)
    data["rrhs"] = [{"id": "solo", "position_m": [10.0, 16.0], "num_antennas": 4}]
    p = tmp_path_factory.mktemp("cli_solo") / "solo.json"
    p.write_text(json.dumps(data))
    return str(p)


def package_env():
    """os.environ with this checkout's package first on PYTHONPATH, for subprocesses."""
    env = dict(os.environ)
    src = str(Path(distpla.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestThreshold:
    def test_json_payload(self, capsys, scenario_file):
        code, out, err = run(capsys, "threshold", "--scenario", scenario_file)
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["dof"] == 2 * 5
        assert data["false_alarm_target"] == 1e-2
        assert data["false_alarm_check"] == pytest.approx(1e-2, rel=1e-9)
        assert data["threshold"] > 0
        assert data["mahalanobis_energy"] > 0

    def test_pfa_override(self, capsys, scenario_file):
        code, out, _ = run(capsys, "threshold", "--scenario", scenario_file,
                           "--pfa", "1e-3")
        assert code == 0
        data = json.loads(out)
        assert data["false_alarm_target"] == 1e-3
        assert data["false_alarm_check"] == pytest.approx(1e-3, rel=1e-9)

    def test_pfa_below_the_float_spacing_near_one(self, capsys, scenario_file):
        code, out, _ = run(capsys, "threshold", "--scenario", scenario_file,
                           "--pfa", "1e-17")
        assert code == 0
        assert json.loads(out)["false_alarm_check"] == pytest.approx(1e-17, rel=1e-12)


class TestMdp:
    def test_saddlepoint_default(self, capsys, scenario_file):
        code, out, _ = run(capsys, "mdp", "--scenario", scenario_file)
        assert code == 0
        data = json.loads(out)
        assert data["method"] == "saddlepoint"
        assert 0.0 <= data["p_md"] <= 1.0

    def test_auto_single_array(self, capsys, solo_file):
        code, out, _ = run(capsys, "mdp", "--scenario", solo_file, "--method", "auto")
        assert code == 0
        closed = json.loads(out)["p_md"]
        code, out, _ = run(capsys, "mdp", "--scenario", solo_file)
        saddle = json.loads(out)["p_md"]
        assert closed == pytest.approx(saddle, rel=0.25)

    def test_auto_on_multi_array_equals_the_library(self, capsys):
        from distpla import eve_statistics, load_scenario, make_authenticator, mdp_optimal_pma
        code, out, _ = run(capsys, "mdp", "--scenario", DESK, "--method", "auto")
        assert code == 0
        sc = load_scenario(DESK)
        assert json.loads(out)["method"] == "auto"
        assert json.loads(out)["p_md"] == mdp_optimal_pma(make_authenticator(sc),
                                                          eve_statistics(sc))

    def test_retired_closedform_method_is_refused(self, capsys, scenario_file):
        """closedform was an alias of auto; the name is unknown now."""
        code, out, err = run(capsys, "mdp", "--scenario", scenario_file, "--method", "closedform")
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "ValueError",
                                   "message": "unknown mdp --method 'closedform'"}

    def test_montecarlo_fields(self, capsys, scenario_file):
        code, out, _ = run(capsys, "mdp", "--scenario", scenario_file,
                           "--method", "montecarlo", "--samples", "20000")
        assert code == 0
        data = json.loads(out)
        assert data["samples"] == 20000
        assert data["std_error"] >= 0.0
        assert 0.0 <= data["p_md"] <= 1.0

    def test_fixed_and_named_strategies(self, capsys, scenario_file):
        code, out, _ = run(capsys, "mdp", "--scenario", scenario_file,
                           "--method", "fixed:2.0,0.25")
        assert code == 0
        data = json.loads(out)
        assert data["strategy"] == {"eta": 2.0, "psi": 0.25}

        code, out, _ = run(capsys, "mdp", "--scenario", scenario_file,
                           "--method", "none")
        assert code == 0
        none = json.loads(out)
        assert none["strategy"] == {"eta": 1.0, "psi": 0.0}

        code, out, _ = run(capsys, "mdp", "--scenario", scenario_file,
                           "--method", "statistical")
        assert code == 0
        stat = json.loads(out)
        # power manipulation can only help the attacker
        assert stat["p_md"] >= none["p_md"] * 0.75

    def test_bad_method_is_config_error(self, capsys, scenario_file):
        for method in ("bogus", ""):    # an empty method is not the default
            code, _, err = run(capsys, "mdp", "--scenario", scenario_file,
                               "--method", method)
            assert code == 2
            assert json.loads(err) == {"error": "ValueError",
                                       "message": f"unknown mdp --method {method!r}"}
        code, _, err = run(capsys, "mdp", "--scenario", scenario_file,
                           "--method", "fixed:nonsense")
        assert code == 2

    def test_fixed_strategy_must_be_finite(self, capsys, scenario_file):
        """A NaN or infinite ETA or PSI is refused, not printed as a NaN that
        no JSON reader takes."""
        for method in ("fixed:nan,0.3", "fixed:inf,0.3", "fixed:1.5,-inf", "fixed:1.5,nan"):
            code, out, err = run(capsys, "mdp", "--scenario", scenario_file, "--method", method)
            assert code == 2 and out == ""
            assert json.loads(err) == {
                "error": "ValueError",
                "message": f"--method fixed:ETA,PSI needs finite ETA and PSI, got {method!r}"}

    def test_fixed_strategy_refuses_a_negative_amplitude(self, capsys, scenario_file):
        """ETA is an amplitude: fixed:-1.5,0.3 is the attack fixed:1.5,0.3+pi,
        not the documented form, so it is refused (a zero ETA too, by the same
        message: TestFailureModes)."""
        for method in ("fixed:-1.5,0.3", "fixed:-1e-300,0"):
            code, out, err = run(capsys, "mdp", "--scenario", scenario_file, "--method", method)
            assert code == 2 and out == ""
            assert json.loads(err) == {
                "error": "ValueError",
                "message": f"--method fixed:ETA,PSI needs an amplitude ETA > 0, got {method!r}"}


class TestSweeps:
    def test_roc_csv(self, capsys, scenario_file):
        code, out, _ = run(capsys, "roc", "--scenario", scenario_file,
                           "--points", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "p_fa,p_md_opt,p_md_none"
        assert len(lines) == 5
        rows = [list(map(float, l.split(","))) for l in lines[1:]]
        assert rows[0][0] == pytest.approx(1e-4)
        assert rows[-1][0] == pytest.approx(1e-1)
        for p_fa, p_opt, p_none in rows:
            assert p_opt >= p_none - 1e-12

    def test_validate_csv(self, capsys, scenario_file):
        code, out, _ = run(capsys, "validate", "--scenario", scenario_file,
                           "--points", "2", "--samples", "20000",
                           "--pfa-min", "1e-2", "--pfa-max", "1e-1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "param,saddlepoint,montecarlo,std_error"
        assert len(lines) == 3
        for line in lines[1:]:
            pfa, sp, mc, se = map(float, line.split(","))
            assert abs(sp - mc) <= max(5 * se, 0.25 * max(sp, mc), 1e-3)


def _sweep_reference(path, points, samples=None, threads=1):
    """roc and validate rows from a loop of scalar evaluations, one point at a time."""
    from distpla import (NO_ATTACK, best_case_acceptance_event, estimate_probability,
                         eve_statistics, load_scenario, make_authenticator,
                         mdp_fixed_strategy, mdp_optimal_pma)
    sc = load_scenario(path)
    eve = eve_statistics(sc)
    roc, validate = [], []
    for pfa in np.logspace(-4, -1, points):
        auth = make_authenticator(replace(sc, false_alarm_target=float(pfa)))
        roc.append(f"{float(pfa)!r},{mdp_optimal_pma(auth, eve)!r},"
                   f"{mdp_fixed_strategy(auth, eve, NO_ATTACK)!r}")
        if samples is not None:
            est = estimate_probability(best_case_acceptance_event(auth), eve, samples,
                                       seed=0, threads=threads)
            validate.append(f"{float(pfa)!r},"
                            f"{mdp_optimal_pma(auth, eve, method='saddlepoint')!r},"
                            f"{float(est.value[0])!r},{float(est.std_error[0])!r}")
    return roc, validate


class TestSweepBatching:
    @pytest.mark.parametrize("which", ["small", "desk"])
    def test_sweeps_equal_pointwise_loop(self, capsys, scenario_file, which):
        path = scenario_file if which == "small" else DESK
        roc, validate = _sweep_reference(path, 6, samples=20_000, threads=2)
        code, out, _ = run(capsys, "roc", "--scenario", path, "--points", "6")
        assert code == 0
        assert out.splitlines() == ["p_fa,p_md_opt,p_md_none"] + roc
        code, out, _ = run(capsys, "validate", "--scenario", path, "--points", "6",
                           "--samples", "20000", "--threads", "2")
        assert code == 0
        assert out.splitlines() == ["param,saddlepoint,montecarlo,std_error"] + validate
        assert any(float(line.split(",")[2]) > 0.0 for line in validate)

    def test_single_array_roc_takes_the_closed_form(self, capsys, solo_file):
        roc, _ = _sweep_reference(solo_file, 4)
        code, out, _ = run(capsys, "roc", "--scenario", solo_file, "--points", "4")
        assert code == 0
        assert out.splitlines() == ["p_fa,p_md_opt,p_md_none"] + roc

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_empty_sweep_is_a_config_error(self, capsys, scenario_file, points):
        for cmd in ("roc", "validate"):
            code, out, err = run(capsys, cmd, "--scenario", scenario_file, "--points", points)
            assert code == 2 and out == "", cmd
            assert json.loads(err) == {"error": "ValueError",
                                       "message": f"--points must be at least 1, got {points}"}

    def test_validate_without_a_saddle_exits_3(self, capsys, scenario_file, monkeypatch):
        import distpla.power_attack as pa
        monkeypatch.setattr(pa, "_saddle_tail", lambda d, c2, m, const: np.full(len(d), np.nan))
        code, _, err = run(capsys, "validate", "--scenario", scenario_file,
                           "--points", "3", "--samples", "1000")
        assert code == 3
        assert json.loads(err) == {"error": "SaddlepointError",
                                   "message": "no interior saddle point on either side"}


def _modules_after(prefixes, *commands, without_scipy=False) -> str:
    """The modules under any of ``prefixes`` that a fresh interpreter has
    loaded after importing distpla.cli and running ``commands``; with
    ``without_scipy`` every import of scipy in it fails."""
    probe = ("import sys\n" + ("sys.modules['scipy'] = None\n" if without_scipy else "")
             + "import distpla.cli\n"
             f"for argv in {list(commands)!r}:\n"
             "    assert distpla.cli.main(argv) == 0, argv\n"
             f"print(' '.join(m for m in sys.modules if m.startswith({tuple(prefixes)!r})))")
    done = subprocess.run([sys.executable, "-c", probe], env=package_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split("\n")[-2]     # the last line; commands print summaries first


def test_cli_import_skips_the_process_pool(tmp_path):
    """Start-up and the seven commands of the analysis-2rrh8 benchmark
    workload (reference_2rrh8 at --threads 2) load neither multiprocessing
    nor concurrent.futures.process, and neither does a one-worker search;
    a search on two workers does."""
    pool = ("multiprocessing", "concurrent.futures.process")
    assert _modules_after(pool) == ""
    scenario = ["--scenario", str(Path(DESK).with_name("reference_2rrh8.json"))]
    analysis = [["threshold", *scenario], ["mdp", *scenario],
                ["mdp", *scenario, "--method", "montecarlo", "--samples", "1000000"],
                ["roc", *scenario], ["validate", *scenario],
                ["heatmap", *scenario, "--grid", "1.0", "--out", str(tmp_path / "map.csv")],
                ["delay", *scenario, "--arrival", "8", "--rate", "2", "--resources", "8",
                 "--noise", "1e-9"]]
    assert _modules_after(pool, *(argv + ["--threads", "2"] for argv in analysis)) == ""
    optimize = ["optimize", "--scenario", DESK, "--out", str(tmp_path / "best.json")]
    assert _modules_after(pool, optimize + ["--threads", "1"]) == ""
    assert "concurrent.futures.process" in _modules_after(pool, optimize + ["--threads", "2"])


def test_cli_import_skips_unused_scipy(tmp_path, solo_file):
    """Start-up loads no scipy module, and neither does any command on the
    multi-array desk_2rrh: threshold, mdp (saddle point and Monte-Carlo), roc,
    validate, heatmap, delay (bounded minimization), optimize and compare
    (lobe bands, disc filter); nor, on a single array, the closed-form
    commands optimize, mdp, roc, heatmap and compare."""
    def loaded(*commands):
        return _modules_after(("scipy",), *commands)

    assert loaded() == ""
    scenario = ["--scenario", DESK]
    assert loaded(["threshold", *scenario], ["mdp", *scenario],
                  ["mdp", *scenario, "--method", "montecarlo", "--samples", "20000"],
                  ["roc", *scenario, "--points", "4"],
                  ["validate", *scenario, "--points", "3", "--samples", "20000"],
                  ["heatmap", *scenario, "--grid", "4.0", "--out", str(tmp_path / "map.csv")],
                  ["delay", *scenario, "--arrival", "8", "--rate", "2", "--resources", "8",
                   "--noise", "1e-9", "--out", str(tmp_path / "delay.csv")],
                  ["optimize", *scenario, "--grid", "0.025",
                   "--out", str(tmp_path / "best.json")],
                  ["compare", *scenario, "--grid", "4.0",
                   "--out", str(tmp_path / "compare.csv")]) == ""
    solo = ["--scenario", solo_file]
    assert loaded(["optimize", *solo, "--out", str(tmp_path / "solo_best.json")],
                  ["mdp", *solo, "--method", "auto"],
                  ["roc", *solo, "--points", "4"],
                  ["heatmap", *solo, "--grid", "4.0", "--out", str(tmp_path / "solo_map.csv")],
                  ["compare", *solo, "--grid", "4.0",
                   "--out", str(tmp_path / "solo_compare.csv")]) == ""


@pytest.mark.parametrize("name", ["desk_2rrh", "reference_2rrh8"])
def test_saddle_root_solves_stay_off_the_bulk_routes(name, monkeypatch, capsys):
    """The saddle point solves s' = 0 row by row with bracketed_root_find, which is
    cheap only while no bulk route reaches it: the search, heatmap, roc and delay
    take the exact series.  mdp's saddle point solves once a side, validate's
    column at most twice a threshold.  position_attack binds its own name for the
    lobe edges, so only the saddle's solves are counted."""
    calls, solve = [], power_attack.bracketed_root_find
    monkeypatch.setattr(power_attack, "bracketed_root_find",
                        lambda *args, **kwargs: (calls.append(1), solve(*args, **kwargs))[1])
    common = ["--scenario", str(Path(DESK).with_name(name + ".json")), "--threads", "1",
              "--samples", "2000"]
    counts = {}
    for argv in (["optimize"], ["heatmap", "--grid", "2.0"], ["roc"],
                 ["delay", "--arrival", "8", "--rate", "4", "--resources", "4", "--noise", "1e-9"],
                 ["mdp"], ["validate", "--points", "13"]):
        calls.clear()
        assert main(argv[:1] + common + argv[1:]) == 0
        capsys.readouterr()
        counts[argv[0]] = len(calls)
    assert counts == {"optimize": 0, "heatmap": 0, "roc": 0, "delay": 0, "mdp": 2,
                      "validate": counts["validate"]}
    assert counts["validate"] <= 26


def test_every_command_runs_without_scipy(tmp_path):
    """scipy is a test dependency only: with every import of it failing, each
    command runs on each committed scenario, mdp by every method (auto on the
    multi-array layouts too) and delay in all three outage modes."""
    commands = []
    for path in sorted(Path(DESK).parent.glob("*.json")):
        scenario, out = ["--scenario", str(path)], str(tmp_path / path.stem)
        commands += [["threshold", *scenario]]
        commands += [["mdp", *scenario, "--method", method, "--samples", "20000"]
                     for method in ("saddlepoint", "auto", "montecarlo", "statistical",
                                    "none", "fixed:2.0,0.5")]
        commands += [["roc", *scenario, "--points", "4"],
                     ["validate", *scenario, "--points", "3", "--samples", "20000"],
                     ["heatmap", *scenario, "--grid", "4.0", "--out", out + "_map.csv"],
                     ["optimize", *scenario, "--out", out + "_best.json"],
                     ["compare", *scenario, "--grid", "4.0", "--out", out + "_compare.csv"]]
        commands += [["delay", *scenario, "--arrival", "8", "--rate", "2", "--resources", "8",
                      "--noise", "1e-9", "--outage-mode", mode, "--out", out + "_delay.csv"]
                     for mode in ("centralized_bound", "centralized_exact_if_valid",
                                  "local_bound")]
    assert len(commands) == 4 * 15
    assert _modules_after(("scipy",), *commands, without_scipy=True) == "scipy"


class TestOneAntenna:
    """A single one-antenna array: its form has no negative term, so "auto" and the
    saddle point both give the certain miss 1.0."""

    @pytest.mark.parametrize("rice_db, swallowed", [(6.0, True), (12.0, False)])
    def test_roc_and_heatmap_equal_the_saddle_point(self, capsys, tmp_path, rice_db,
                                                    swallowed):
        from distpla import (channel_statistics, eve_statistics, load_scenario,
                             make_authenticator, mdp_optimal_pma)
        data = json.loads(Path(REF_1RRH16).read_text())
        data["rice_factor_db"] = rice_db
        data["rrhs"][0]["num_antennas"] = 1
        path = tmp_path / "one.json"
        path.write_text(json.dumps(data))
        sc = load_scenario(path)
        auth = make_authenticator(sc)
        # T >= 2M makes every row a certain miss; below it the saddle solve runs
        assert (auth.threshold >= 2.0 * auth.mahalanobis_energy) == swallowed
        eve = eve_statistics(sc)
        code, out, _ = run(capsys, "roc", "--scenario", str(path), "--points", "2")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 2
        for pfa, p_opt, _ in rows:
            at = make_authenticator(replace(sc, false_alarm_target=float(pfa)))
            assert float(p_opt) == mdp_optimal_pma(at, eve, "saddlepoint")
        code, out, _ = run(capsys, "heatmap", "--scenario", str(path), "--grid", "5")
        assert code == 0
        cells = [tuple(map(float, line.split(","))) for line in out.splitlines()[1:]]
        assert len(cells) == 16 * 12
        for x, y, log_p in cells:
            stats = channel_statistics(sc, replace(sc.eve, position=(x, y)))
            assert log_p == math.log10(mdp_optimal_pma(auth, stats, "saddlepoint"))


class TestHeatmap:
    def test_grid_rows_and_clamp(self, capsys, scenario_file):
        code, out, _ = run(capsys, "heatmap", "--scenario", scenario_file,
                           "--grid", "4.0")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x_m,y_m,log10_pmd"
        assert len(lines) == 1 + 6 * 4
        xs, ys, vals = zip(*(map(float, l.split(",")) for l in lines[1:]))
        assert min(vals) >= -15.0 and max(vals) <= 0.0
        # y is the outer loop, x the inner one
        assert xs[:6] == tuple(np.arange(6) * 4.0 + 2.0)
        assert ys[0] == ys[5] == 2.0 and ys[6] == 6.0


class TestBatchedCells:
    def test_pmd_cells_match_scalar_evaluation(self, scenario_file):
        from distpla import (channel_statistics, load_scenario, make_authenticator,
                             mdp_optimal_pma)
        from distpla.cli import _pmd_cells
        sc = load_scenario(scenario_file)
        auth = make_authenticator(sc)
        xs, ys, vals = _pmd_cells(sc, 2.0)
        assert vals.shape == (xs.size * ys.size,)
        cells = [(float(x), float(y)) for y in ys for x in xs]
        for (x, y), v in zip(cells, vals):
            stats = channel_statistics(sc, replace(sc.eve, position=(x, y)))
            assert v == pytest.approx(mdp_optimal_pma(auth, stats), rel=1e-9, abs=1e-300)

    def test_chunk_size_does_not_change_bytes(self, capsys, scenario_file, monkeypatch):
        import distpla.power_attack as pa
        commands = (("heatmap", "--scenario", scenario_file, "--grid", "1.0"),
                    ("optimize", "--scenario", scenario_file))
        before = [run(capsys, *argv)[1] for argv in commands]
        monkeypatch.setattr(pa, "_CHUNK", 7)
        after = [run(capsys, *argv)[1] for argv in commands]
        assert before == after
        assert len(before[0].splitlines()) == 1 + 24 * 16

    def test_cell_on_an_rrh_is_nan(self, capsys, tmp_path):
        """A cell whose centre is an RRH's position has no channel: heatmap
        writes nan for it alone, and compare counts it as not covered over
        all cells (every other cell's p_md is below the level 1.01)."""
        data = dict(SMALL)
        data["rrhs"] = [dict(SMALL["rrhs"][0], position_m=[10.0, 14.0]), SMALL["rrhs"][1]]
        p = tmp_path / "on_rrh.json"
        p.write_text(json.dumps(data))
        code, out, _ = run(capsys, "heatmap", "--scenario", str(p), "--grid", "4.0")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 6 * 4
        assert [row for row in rows if row[2] == "nan"] == [["10.0", "14.0", "nan"]]
        code, out, _ = run(capsys, "compare", "--scenario", str(p), "--grid", "4.0",
                           "--coverage-pmd", "1.01")
        assert code == 0 and out.splitlines()[1].split(",")[5] == repr(100.0 * 23 / 24)


class TestOptimize:
    def test_payload_and_summary(self, capsys, scenario_file, tmp_path):
        out_file = tmp_path / "opt.json"
        code, out, err = run(capsys, "optimize", "--scenario", scenario_file,
                             "--out", str(out_file))
        assert code == 0 and err == ""
        data = json.loads(out_file.read_text())
        assert 0.0 <= data["p_md_opt"] <= 1.0
        assert data["n_evaluated"] <= data["n_lobe_points"] <= data["n_allowed"]
        assert data["candidates"][0]["p_md"] == data["p_md_opt"]
        value = data["p_md_opt"]
        assert out.strip() == f"p_MD^(Opt. Position) = {value!r}"
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("grid, reported, evaluated", [("2.0", 50, 89), ("3.0", 36, 36)])
    def test_prints_the_fifty_candidates_of_highest_p_md(self, capsys, tmp_path, grid,
                                                         reported, evaluated):
        """optimize prints the search's 50 candidates of highest p_md, or every
        evaluated one where fewer are; n_evaluated counts them all."""
        code, out, _ = run(capsys, "optimize", "--scenario", DESK, "--grid", grid,
                           "--out", str(tmp_path / "opt.json"))
        data = json.loads((tmp_path / "opt.json").read_text())
        assert code == 0 and (len(data["candidates"]), data["n_evaluated"]) == (reported, evaluated)
        pmds = [c["p_md"] for c in data["candidates"]]
        assert pmds == sorted(pmds, reverse=True) and pmds[0] == data["p_md_opt"]

    def test_an_array_on_a_cell_centre_leaves_stderr_empty(self, tmp_path):
        """An array at a cell centre makes its own cell's angular sine 0/0 in
        the lobe columns and band masks, in the walk's band tasks; that cell
        is excluded, and the run prints nothing on stderr."""
        data = json.loads(Path(DESK).read_text())
        data["search"] = {"grid_resolution_m": 0.25}
        data["rrhs"][0]["position_m"] = [4.125, 4.125]
        path = tmp_path / "desk_pole.json"
        path.write_text(json.dumps(data))
        done = subprocess.run([sys.executable, "-m", "distpla.cli", "optimize", "--scenario",
                               str(path), "--out", str(tmp_path / "opt.json")],
                              env=package_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0 and done.stderr == ""


class TestCompare:
    def test_table(self, capsys, scenario_file, solo_file):
        code, out, _ = run(capsys, "compare",
                           "--scenario", scenario_file, "--scenario", solo_file,
                           "--grid", "4.0")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ("scenario,n_rrh,n_rx,total_antennas,pmd_opt_position,"
                            "coverage_pct,search_points,total_small_scale_optima")
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "small" and first[1] == "2" and first[3] == "5"
        second = lines[2].split(",")
        assert second[0] == "solo" and second[1] == "1" and second[3] == "4"
        # a single array cannot localize: every allowed cell is an optimum,
        # so its count dwarfs the dual deployment's and its miss floor is higher
        assert int(second[7]) > int(first[7])
        assert float(second[4]) >= float(first[4])

    def test_coverage_pmd_refuses_nan(self, capsys, scenario_file):
        """No cell lies below a NaN level, so it would print a coverage of 0.0."""
        code, out, err = run(capsys, "compare", "--scenario", scenario_file,
                             "--coverage-pmd", "nan")
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "ValueError",
                                   "message": "--coverage-pmd must be a number, got nan"}

    def test_one_grid_walk_per_scenario(self, capsys, tmp_path, monkeypatch):
        """The search's own walk counts the small-scale optima: compare walks
        each grid once, and its optima column is count_small_scale_optima's,
        here on 0.5 m grids with a 3-cell disc.  Each grid is one band, so a
        walk asks for the allowed cells once."""
        import distpla.position_attack as pa
        paths = []
        for name, rrhs in (("small", SMALL["rrhs"]), ("solo", SMALL["rrhs"][:1])):
            paths.append(str(tmp_path / f"{name}.json"))
            Path(paths[-1]).write_text(json.dumps(dict(SMALL, rrhs=rrhs, search={
                "grid_resolution_m": 0.5, "small_scale_radius_m": 1.5})))
        paths.append(paths[0])
        walks, allowed_mask = [], pa._allowed_mask

        def counted(scenario, *args):
            walks.append(len(scenario.rrhs))
            return allowed_mask(scenario, *args)

        monkeypatch.setattr(pa, "_allowed_mask", counted)
        code, out, _ = run(capsys, "compare", *(x for p in paths for x in ("--scenario", p)),
                           "--grid", "4.0")
        assert code == 0 and walks == [2, 1, 2]
        monkeypatch.setattr(pa, "_allowed_mask", allowed_mask)
        assert [int(line.split(",")[7]) for line in out.splitlines()[1:]] == [
            pa.count_small_scale_optima(distpla.load_scenario(p)) for p in paths]


class TestDelay:
    def test_bound_table(self, capsys, scenario_file):
        code, out, _ = run(capsys, "delay", "--scenario", scenario_file,
                           "--arrival", "8", "--rate", "4", "--resources", "4",
                           "--noise", "1e-9", "--w-max", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "w,bound,s_opt"
        assert len(lines) == 6
        bounds = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(bounds, bounds[1:]))

    def test_outage_modes_accepted(self, capsys, scenario_file):
        for mode in ("centralized_bound", "centralized_exact_if_valid", "local_bound"):
            code, out, _ = run(capsys, "delay", "--scenario", scenario_file,
                               "--arrival", "4", "--rate", "4", "--resources", "4",
                               "--noise", "1e-9", "--w-max", "2",
                               "--outage-mode", mode, "--samples", "20000")
            assert code == 0, mode

    def test_seed_and_samples_do_not_change_bytes(self, capsys, scenario_file):
        """The outage is evaluated, not sampled: at a noise level where it is
        about 1e-2, every mode prints the same bytes for any --seed and --samples."""
        auth = distpla.make_authenticator(distpla.load_scenario(scenario_file))
        assert distpla.service_outage(auth, 1.0, 5e-7).p_snr > 1e-3
        for mode in ("centralized_bound", "centralized_exact_if_valid", "local_bound"):
            outs = {run(capsys, "delay", "--scenario", scenario_file, "--arrival", "4",
                        "--rate", "1", "--resources", "8", "--noise", "5e-7", "--w-max", "4",
                        "--outage-mode", mode, *extra)[1]
                    for extra in ((), ("--seed", "7"), ("--samples", "1000"),
                                  ("--seed", "3", "--samples", "30000", "--threads", "2"))}
            assert len(outs) == 1 and next(iter(outs)).startswith("w,bound,s_opt\n"), mode

    @pytest.mark.parametrize("flag, bad, kind", [
        ("--noise", "-1", "non-negative"), ("--noise", "nan", "non-negative"),
        ("--noise", "inf", "non-negative"), ("--arrival", "-1", "non-negative"),
        ("--arrival", "inf", "non-negative"), ("--rate", "0", "positive"),
        ("--rate", "-4", "positive"), ("--rate", "inf", "positive"),
        ("--resources", "0", "positive"), ("--resources", "nan", "positive")])
    def test_out_of_range_inputs_are_config_errors(self, capsys, scenario_file, flag, bad, kind):
        args = {"--arrival": "8", "--rate": "4", "--resources": "4", "--noise": "1e-9"}
        args[flag] = bad
        code, out, err = run(capsys, "delay", "--scenario", scenario_file, "--w-max", "2",
                             *(x for item in args.items() for x in item))
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "ValueError", "message":
                                   f"{flag} must be {kind} and finite, got {float(bad)}"}

    @pytest.mark.parametrize("w_max", ["0", "-1"])
    def test_empty_delay_table_is_a_config_error(self, capsys, scenario_file, w_max):
        code, out, err = run(capsys, "delay", "--scenario", scenario_file, "--arrival", "8",
                             "--rate", "4", "--resources", "4", "--w-max", w_max)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "ValueError",
                                   "message": f"--w-max must be at least 1, got {w_max}"}

    def test_zero_noise_and_arrival_are_accepted(self, capsys, scenario_file):
        code, out, _ = run(capsys, "delay", "--scenario", scenario_file, "--arrival", "0",
                           "--rate", "4", "--resources", "4", "--noise", "0", "--w-max", "2")
        assert code == 0 and out.startswith("w,bound,s_opt\n")

    def test_unstable_queue_exits_4(self, capsys, scenario_file):
        code, _, err = run(capsys, "delay", "--scenario", scenario_file,
                           "--arrival", "1000", "--rate", "4", "--resources", "4",
                           "--noise", "1e-9", "--w-max", "3")
        assert code == 4
        assert json.loads(err)["error"] == "UnstableQueueError"


    @pytest.mark.parametrize("mode", ["centralized_bound", "centralized_exact_if_valid",
                                      "local_bound"])
    @pytest.mark.parametrize("rate", ["1024", "1e6"])
    def test_rate_past_the_float_range_is_unstable(self, capsys, rate, mode):
        """From --rate 1024 on 2^rate - 1 is past the float range: every mode
        takes the outage as 1 and exits 4 on the unstable queue, as at 1023."""
        code, out, err = run(capsys, "delay", "--scenario", DESK, "--arrival", "8",
                             "--rate", rate, "--resources", "8", "--outage-mode", mode)
        assert code == 4 and out == ""
        assert json.loads(err) == {"error": "UnstableQueueError", "message": (
            "no transform parameter stabilizes the queue (arrival 8.0 bits/frame vs "
            f"service {float(rate) * 8.0} bits at outage 1.0)")}

    def test_arrival_past_the_float_range_warns_nothing(self, capsys):
        """--arrival 1e308 overflows the Mellin product at every transform
        parameter: the run exits 4 on the unstable queue, with no overflow
        warning (which the suite turns into an error)."""
        code, out, err = run(capsys, "delay", "--scenario", DESK, "--arrival", "1e308",
                             "--rate", "2", "--resources", "8")
        assert code == 4 and out == ""
        assert json.loads(err) == {"error": "UnstableQueueError", "message": (
            "no transform parameter stabilizes the queue (arrival 1e+308 bits/frame vs "
            "service 16.0 bits at outage 1.0)")}

    def test_noise_past_the_float_range_is_an_outage(self, capsys):
        """--noise 1e300 puts the outage form's constant over its smallest
        eigenvalue past the float range: the outage is 1, with no overflow
        warning (which the suite turns into an error)."""
        code, out, err = run(capsys, "delay", "--scenario", DESK, "--arrival", "8",
                             "--rate", "2", "--resources", "8", "--noise", "1e300")
        assert code == 4 and out == ""
        assert json.loads(err)["message"].endswith("at outage 1.0)")

class TestFailureModes:
    def test_all_excluded_region_exits_4_on_worker_processes(self, capsys, tmp_path,
                                                             monkeypatch):
        """With every cell excluded and the grid cut into one-row bands, the
        search on two worker processes exits 4 and leaves no worker behind."""
        import multiprocessing
        import distpla.position_attack as pa
        p = tmp_path / "excluded.json"
        p.write_text(json.dumps(dict(SMALL, region_m={"x_min": 10, "x_max": 14, "y_min": 6,
                                                      "y_max": 10})))
        monkeypatch.setattr(pa, "_BAND_CELLS", 1)
        code, out, err = run(capsys, "optimize", "--scenario", str(p), "--threads", "2")
        assert code == 4 and out == ""
        assert json.loads(err) == {"error": "EmptyRegionError",
                                   "message": "exclusion zones cover the whole region"}
        assert not multiprocessing.active_children()

    def test_retired_search_key_is_unknown(self, capsys, tmp_path):
        """include_first_sidelobes was accepted only as true and did nothing;
        the key is unknown now."""
        p = tmp_path / "sidelobes.json"
        p.write_text(json.dumps(dict(SMALL, search={"include_first_sidelobes": True})))
        code, out, err = run(capsys, "threshold", "--scenario", str(p))
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "ScenarioError",
                                   "message": "unknown key search.include_first_sidelobes"}

    def test_missing_scenario_file(self, capsys):
        code, _, err = run(capsys, "threshold", "--scenario", "does/not/exist.json")
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "ScenarioError"
        assert "not found" in payload["message"]

    def test_invalid_scenario_json(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{oops")
        code, _, err = run(capsys, "mdp", "--scenario", str(p))
        assert code == 2

    def test_numeric_failure_exits_3(self, capsys, scenario_file, monkeypatch):
        import distpla.cli as cli
        from distpla import SaddlepointError

        def boom(*args, **kwargs):
            raise SaddlepointError("tilt bracket collapsed")

        monkeypatch.setattr(cli, "mdp_optimal_pma", boom)
        code, _, err = run(capsys, "mdp", "--scenario", scenario_file)
        assert code == 3
        assert json.loads(err)["error"] == "SaddlepointError"

    @staticmethod
    def _every_command(scenario_file):
        scenario = ("--scenario", scenario_file)
        return (("threshold", *scenario), ("mdp", *scenario, "--method", "montecarlo"),
                ("roc", *scenario), ("validate", *scenario), ("heatmap", *scenario),
                ("optimize", *scenario), ("compare", *scenario),
                ("delay", *scenario, "--arrival", "8", "--rate", "4", "--resources", "4"))

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_a_config_error(self, capsys, scenario_file, threads):
        for argv in self._every_command(scenario_file):
            code, out, err = run(capsys, *argv, "--threads", threads)
            assert code == 2 and out == "", argv[0]
            assert json.loads(err) == {"error": "ValueError",
                                       "message": f"--threads must be at least 1, got {threads}"}

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "--seed must lie in [0, 2**128), got -1"),
        ("--seed", str(2 ** 128), f"--seed must lie in [0, 2**128), got {2 ** 128}"),
        ("--samples", "0", "--samples must be at least 1, got 0"),
        ("--samples", "-3", "--samples must be at least 1, got -3"),
    ])
    def test_seed_and_samples_out_of_range_are_config_errors(self, capsys, scenario_file,
                                                             flag, value, message):
        """Every command refuses them by flag name, not by numpy's key message."""
        for argv in self._every_command(scenario_file):
            code, out, err = run(capsys, *argv, flag, value)
            assert code == 2 and out == "", argv[0]
            assert json.loads(err) == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize("seed", ["0", str(2 ** 128 - 1)])
    def test_seed_range_ends_are_valid(self, capsys, scenario_file, seed):
        code, out, _ = run(capsys, "mdp", "--scenario", scenario_file, "--method", "montecarlo",
                           "--samples", "1000", "--seed", seed)
        assert code == 0 and json.loads(out)["samples"] == 1000

    @pytest.mark.parametrize("grid", ["-1", "0"])
    def test_grid_must_be_positive(self, capsys, scenario_file, grid):
        for command in ("heatmap", "optimize", "compare"):
            code, out, err = run(capsys, command, "--scenario", scenario_file, "--grid", grid)
            assert code == 2 and out == "", command
            payload = json.loads(err)
            assert payload["error"] == "ValueError"
            assert payload["message"].startswith("--grid must be positive"), command

    @pytest.mark.parametrize("grid", ["100", "17"])
    def test_grid_must_fit_a_whole_cell(self, capsys, scenario_file, grid):
        """A cell wider or taller than the 24 m x 16 m region fits none: refused,
        not placed with its centre outside the region."""
        for command in ("heatmap", "optimize", "compare"):
            code, out, err = run(capsys, command, "--scenario", scenario_file, "--grid", grid)
            assert code == 2 and out == "", command
            assert json.loads(err) == {"error": "ValueError", "message": (
                f"grid resolution {float(grid)} m fits no whole cell in the "
                "24.0 m x 16.0 m region")}, command

    @pytest.mark.parametrize("flag, value", [("--pfa-min", "0"), ("--pfa-min", "2"),
                                             ("--pfa-max", "1"), ("--pfa-max", "-0.5"),
                                             ("--pfa-min", "nan")])
    def test_pfa_bounds_must_lie_in_the_unit_interval(self, capsys, scenario_file, flag, value):
        for command in ("roc", "validate"):
            code, out, err = run(capsys, command, "--scenario", scenario_file, flag, value)
            assert code == 2 and out == "", command
            assert json.loads(err) == {"error": "ValueError", "message": (
                f"{flag} must lie in (0, 1), got {float(value)}")}, command

    def test_fixed_amplitude_past_the_float_range_exits_3(self, capsys):
        """On desk_2rrh 2M = 63.70 exceeds T = 32, so a fixed strategy's miss
        probability goes to 0 at very small and very large amplitudes.  Where
        some |eta|^2 alpha_j leaves the normal floats or an offset overflows,
        mdp exits 3 on a NumericsError naming the amplitude; from 1e-153 to
        1e153 it prints p_md 0.0.  No amplitude emits a RuntimeWarning, which
        the suite turns into an error."""
        off = ["1e-300", "1e-200", "1e-160", "1e-156", "1e-155", "1e-154", "1e154", "1e155",
               "1e200", "1.7e308"]
        for eta in off:
            code, out, err = run(capsys, "mdp", "--scenario", DESK, "--method", f"fixed:{eta},0.5")
            assert code == 3 and out == "", eta
            assert json.loads(err) == {"error": "NumericsError", "message": (
                f"strategy amplitude {float(eta)!r} takes |eta|^2 alpha_j or an offset past "
                "the float range")}
        for eta in ("1e-153", "1e-152", "1e-100", "1e100", "1e153"):
            code, out, _ = run(capsys, "mdp", "--scenario", DESK, "--method", f"fixed:{eta},0.5")
            assert code == 0 and json.loads(out)["p_md"] == 0.0, eta

    def test_tiny_fixed_amplitudes_end_on_zero_or_a_named_refusal(self, capsys):
        """Just above the smallest amplitude the form accepts, the case-(ii)
        series row has mu and offset energies near 1e308.  Each of 20
        log-spaced amplitudes in [5e-154, 5e-153] on desk_2rrh, and 1e-153 on
        reference_2rrh8, prints p_md 0.0 (2M > T) or exits 3 on a
        NumericsError naming the amplitude, without a RuntimeWarning."""
        cases = [(DESK, repr(float(eta))) for eta in np.logspace(math.log10(5e-154),
                                                                   math.log10(5e-153), 20)]
        outcomes = []
        for path, eta in cases + [(str(Path(DESK).with_name("reference_2rrh8.json")), "1e-153")]:
            code, out, err = run(capsys, "mdp", "--scenario", path, "--method", f"fixed:{eta},0.5")
            if code == 3:
                assert json.loads(err) == {"error": "NumericsError", "message": (
                    f"strategy amplitude {eta} takes |eta|^2 alpha_j or an offset past "
                    "the float range")}, eta
            else:
                assert code == 0 and json.loads(out)["p_md"] == 0.0, (path, eta)
            outcomes.append(code)
        assert outcomes == [3] * 3 + [0] * 18       # the form refuses below 6.5e-154

    @pytest.mark.parametrize("method", ["fixed:0,0", "fixed:-0.0,0", "fixed:0,0.3", "fixed:-0,0.3"])
    def test_zero_strategy_amplitude_is_refused_by_flag(self, capsys, scenario_file, method):
        """A zero amplitude has no fixed-strategy form; the refusal names the flag."""
        code, out, err = run(capsys, "mdp", "--scenario", scenario_file, "--method", method)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "ValueError", "message": (
            f"--method fixed:ETA,PSI needs an amplitude ETA > 0, got {method!r}")}

    def test_usage_errors(self, capsys):
        assert run(capsys, )[0] == 2
        assert run(capsys, "threshold")[0] == 2        # missing --scenario
        assert run(capsys, "--help")[0] == 0


class TestDeterminism:
    def test_thread_count_does_not_change_bytes(self, capsys, scenario_file, tmp_path):
        outs = []
        for threads in ("1", "2", "8"):
            p = tmp_path / f"mc_{threads}.json"
            code, _, _ = run(capsys, "mdp", "--scenario", scenario_file,
                             "--method", "montecarlo", "--samples", "50000",
                             "--threads", threads, "--out", str(p))
            assert code == 0
            outs.append(p.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_validate_bytes_do_not_depend_on_the_thread_count(self, capsys, scenario_file,
                                                             tmp_path):
        """validate's Monte-Carlo column counts every threshold over one pass;
        stdout and --out are the same bytes for any worker count."""
        argv = ("validate", "--scenario", scenario_file, "--samples", "50000", "--points", "4")
        outs, files = [], []
        for threads in ("1", "2", "3"):
            code, out, _ = run(capsys, *argv, "--threads", threads)
            assert code == 0
            outs.append(out)
            p = tmp_path / f"validate_{threads}.csv"
            assert run(capsys, *argv, "--threads", threads, "--out", str(p))[0] == 0
            files.append(p.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        assert files[0] == files[1] == files[2] == outs[0].encode()
        assert 0.0 < float(outs[0].splitlines()[2].split(",")[2]) < 1.0

    def test_optimize_bytes_and_candidates(self, capsys, tmp_path):
        """optimize on desk_2rrh writes the same bytes at --threads 1, 2 and 3, and
        each of its 50 candidates' p_md is mdp_optimal_pma there, bit for bit."""
        from distpla import channel_statistics, load_scenario, make_authenticator, mdp_optimal_pma
        outs = []
        for threads in ("1", "2", "3"):
            p = tmp_path / f"best_{threads}.json"
            assert run(capsys, "optimize", "--scenario", DESK, "--threads", threads,
                       "--out", str(p))[0] == 0
            outs.append(p.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        sc = load_scenario(DESK)
        auth = make_authenticator(sc)
        candidates = json.loads(outs[0])["candidates"]
        assert len(candidates) == 50
        for c in candidates:
            ev = channel_statistics(sc, replace(sc.eve, position=tuple(c["position"])))
            assert mdp_optimal_pma(auth, ev) == c["p_md"]

    def test_optimize_bytes_under_exponential_correlation(self, capsys, tmp_path):
        """optimize on desk_2rrh with exponential correlation at rho = 0.5, where
        the search takes the sign of g from the correlated kernel on 2-D tiles
        of cells, writes the same bytes at --threads 1, 2 and 3 (two bands)."""
        data = json.loads(Path(DESK).read_text())
        data["correlation"] = {"model": "exponential", "rho": 0.5}
        scenario = tmp_path / "desk_rho.json"
        scenario.write_text(json.dumps(data))
        outs = []
        for threads in ("1", "2", "3"):
            p = tmp_path / f"best_{threads}.json"
            assert run(capsys, "optimize", "--scenario", str(scenario), "--threads", threads,
                       "--out", str(p))[0] == 0
            outs.append(p.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        assert json.loads(outs[0])["candidates"]

    def test_montecarlo_hits_pinned(self, capsys):
        """A literal hit count pins the Philox block layout, whatever evaluates a block."""
        code, out, _ = run(capsys, "mdp", "--scenario", DESK, "--method", "montecarlo",
                           "--samples", "50000", "--seed", "3", "--pfa", "1e-6")
        data = json.loads(out)
        assert code == 0 and data["samples"] == 50_000
        assert data["p_md"] == 9593 / 50_000

    def test_compare_bytes_do_not_depend_on_the_thread_count(self, capsys, tmp_path,
                                                            monkeypatch):
        """A 0.5 m search grid with a 3-cell disc, cut into one-row bands so
        that three walk workers share it, gives the bytes of one worker."""
        import distpla.position_attack as pa
        paths = []
        for name, rrhs in (("small", SMALL["rrhs"]), ("solo", SMALL["rrhs"][:1])):
            data = dict(SMALL, rrhs=rrhs,
                        search={"grid_resolution_m": 0.5, "small_scale_radius_m": 1.5})
            paths += ["--scenario", str(tmp_path / f"{name}.json")]
            (tmp_path / f"{name}.json").write_text(json.dumps(data))
        argv = ("compare", *paths, "--grid", "4.0")
        code, whole, _ = run(capsys, *argv)
        assert code == 0 and len(whole.splitlines()) == 3
        monkeypatch.setattr(pa, "_BAND_CELLS", 48)
        for threads in ("1", "3"):
            code, out, _ = run(capsys, *argv, "--threads", threads)
            assert code == 0 and out == whole, threads

    def test_seed_changes_the_draw(self, capsys, scenario_file):
        _, out_a, _ = run(capsys, "mdp", "--scenario", scenario_file,
                          "--method", "montecarlo", "--samples", "30000")
        _, out_b, _ = run(capsys, "mdp", "--scenario", scenario_file,
                          "--method", "montecarlo", "--samples", "30000",
                          "--seed", "7")
        assert json.loads(out_a)["p_md"] != json.loads(out_b)["p_md"]
