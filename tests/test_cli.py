import csv
import gc
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from gdskit import cli
from gdskit.cli import main, sweep
from gdskit.transforms import DominationVerdict


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def two_point_files(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert main(["gen", "two_point:1", "--out", str(p1)]) == 0
    assert main(["gen", "two_point:2", "--out", str(p2)]) == 0
    return str(p1), str(p2)


class TestBasicCommands:
    def test_gen_validate(self, two_point_files, capsys):
        code, out, _ = run(["validate", two_point_files[0]], capsys)
        assert code == 0
        assert "2 points" in out

    def test_dispatch_runs_rebound_command(self, two_point_files, capsys, monkeypatch):
        # the parser is cached, so a command function rebound after the
        # first call must still be the one that runs
        assert run(["validate", two_point_files[0]], capsys)[0] == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_validate", lambda args: seen.append(args.file) or 0)
        assert run(["validate", two_point_files[0]], capsys)[:2] == (0, "")
        assert seen == [two_point_files[0]]

    def test_validate_bad_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"points": [0, 1], "family": "TB"}')
        code, _, err = run(["validate", str(bad)], capsys)
        assert code == 2
        assert "/weights" in err

    @pytest.mark.parametrize("kind", ["directory", "not_utf8", "missing"])
    def test_unreadable_file_exit_2(self, tmp_path, capsys, kind):
        # a directory ended in an IsADirectoryError traceback and a file
        # that is not UTF-8 in a UnicodeDecodeError one, both exit 1
        path = tmp_path / "in.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b'{"points": ["\xff"]}')
        code, out, err = run(["validate", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.count(str(path)) == 1

    @pytest.mark.parametrize(
        "kind, start", [("directory", "error: cannot read"), ("not_json", "error: invalid JSON")], ids=["directory", "not_json"]
    )
    def test_file_error_has_no_empty_pointer(self, tmp_path, capsys, kind, start):
        # a file-level schema error has no JSON pointer, and printed
        # "error: : cannot read ..."
        path = tmp_path / "in.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_text("{not json")
        code, _, err = run(["validate", str(path)], capsys)
        assert code == 2
        assert err.startswith(start)

    def test_non_finite_file_exit_2(self, tmp_path, capsys):
        # a NaN weight with an Infinity feature printed od = -inf, and a NaN
        # feature printed nan
        docs = {
            "nan_weight": '{"points": [0, 1], "weights": [NaN, 1.0], "family": "TB",'
            ' "features": {"generators": [[0.0, Infinity]]}}',
            "nan_feature": '{"points": [0, 1], "weights": [0.5, 0.5], "family": "TB",'
            ' "features": {"generators": [[0.0, NaN]]}}',
        }
        for name, text in docs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            for argv in (["validate", str(path)], ["odiam", str(path), "--kappa", "0.25"]):
                code, out, err = run(argv, capsys)
                assert (code, out) == (2, ""), (name, argv, out)
                assert "expected a finite number" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["covnum", "A", "--eps", "0.1", "--eps", "nan"],
            ["domination", "A", "B", "--tol", "nan"],
            ["domination", "A", "B", "--tol", "-0.5"],
            ["domination", "A", "B", "--tol", "inf"],
            ["domination", "A", "B", "--tol", "-inf"],
            ["odiam", "A", "--kappa", "nan"],
            ["pdiam", "A", "--alpha", "nan"],
            ["measure", "A", "--features", "0", "--out", "OUT", "--R", "nan"],
            ["sweep", "--recipe", "two_point:1", "--kappa", "nan"],
            ["odiam", "A", "--kappa-grid", "bad"],
            ["odiam", "A", "--kappa-grid", "1:2:0.5"],
            ["sweep", "--recipe", "two_point:1", "--kappa-grid", "1:2:0.5"],
            ["odiam", "A", "--kappa-grid", "0.00005:0.99995:0.00005"],
            ["sweep", "--recipe", "two_point:1", "--kappa-grid", "0.00005:0.99995:0.00005"],
        ],
    )
    def test_bad_float_option_exit_2(self, two_point_files, tmp_path, capsys, argv):
        # the bad option comes last; --eps nan printed {"value": 2,
        # "exact": true} and exited 0, a bad --kappa-grid escaped as a
        # traceback with status 1, one with no value in (0, 1) printed od
        # at --kappa and exited 0, and one of 19 999 kappas (above
        # MAX_KAPPAS) printed 19 999 rows and exited 0
        paths = {"A": two_point_files[0], "B": two_point_files[1], "OUT": str(tmp_path / "m.json")}
        argv = [paths.get(a, a) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert f"argument {argv[-2]}" in err

    @pytest.mark.parametrize("index", ["2", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["pdiam", "A", "--feature", "I", "--alpha", "0.6"],
            ["kyfan", "A", "--f", "0", "--g", "I"],
            ["prohorov", "A", "--f", "I", "--g", "0"],
            ["quotient", "A", "--features", "0,I", "--out", "OUT"],
        ],
    )
    def test_generator_index_out_of_range_exit_2(self, two_point_files, tmp_path, capsys, argv, index):
        # the file has two generators: index 2 escaped as an IndexError
        # traceback, and -1 silently took the last generator
        paths = {"A": two_point_files[0], "I": index, "0,I": f"0,{index}", "OUT": str(tmp_path / "q.json")}
        code, out, err = run([paths.get(a, a) for a in argv], capsys)
        assert (code, out) == (2, "")
        assert f"generator index {index} out of range for 2 generators" in err

    @pytest.mark.parametrize("grid", ["0.5:0.5:0.1", "0.6:0.2:0.1"])
    @pytest.mark.parametrize("command", ["odiam", "sweep"])
    def test_kappa_grid_needs_a_below_b(self, two_point_files, capsys, command, grid):
        argv = ["odiam", two_point_files[0]] if command == "odiam" else ["sweep", "--recipe", "two_point:1"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--kappa-grid", grid])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "kappa grid needs a < b and positive step" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "random_cloud:5:2:linf:-1"],
            ["sweep", "--recipe", "random_cloud:5:2:linf:-1", "--kappa", "0.1"],
            # numpy refused the 2 x 2^62 coordinate draw with a traceback
            ["gen", "random_cloud:2:4611686018427387904:linf:1"],
            ["gen", "path:4:inf"],
        ],
        ids=["gen-negative-seed", "sweep-negative-seed", "gen-oversized-cloud", "gen-infinite-step"],
    )
    def test_bad_recipe_exit_2(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_cloud_at_the_coordinate_cap_runs(self):
        # 64 x 262144 coordinates are the MAX_POINTS^2 entries of the
        # largest matrix; in a fresh process, as it peaks near 420 MB
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
        argv = [sys.executable, "-m", "gdskit.cli", "gen", "random_cloud:64:262144:linf:1"]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, '{"points": 64, "generators": 64}\n')

    def test_gen_without_out_prints_sizes(self, capsys):
        code, out, _ = run(["gen", "hamming_cube:3"], capsys)
        assert code == 0
        assert json.loads(out) == {"points": 8, "generators": 8}

    def test_round_values_merges_points(self, tmp_path, capsys):
        # the first two points differ only in the third decimal: rounded
        # to one decimal they are one point carrying both masses
        path = tmp_path / "near.json"
        path.write_text(
            '{"points": [0, 1, 2], "weights": [0.25, 0.25, 0.5], "family": "TB",'
            ' "features": {"generators": [[0.0, 0.004, 1.0]]}}'
        )
        assert run(["validate", str(path)], capsys)[:2] == (0, "ok: 3 points, 1 generators, family TB\n")
        code, out, _ = run(["validate", str(path), "--round-values", "1"], capsys)
        assert (code, out) == (0, "ok: 2 points, 1 generators, family TB\n")
        assert run(["pdiam", str(path), "--alpha", "0.75"], capsys)[:2] == (0, "0.996\n")
        assert run(["pdiam", str(path), "--alpha", "0.75", "--round-values", "1"], capsys)[:2] == (0, "1.0\n")

    @pytest.mark.parametrize("decimals", ["400", "99999999999999999999"])
    def test_round_values_past_every_power_of_ten(self, tmp_path, capsys, decimals):
        # np.round overflowed at 400 decimals: RuntimeWarnings, then
        # "generator values must be finite" for a valid file; 10^20 did
        # not fit a C long and ended in an OverflowError traceback
        path = str(tmp_path / "cube.json")
        assert main(["gen", "hamming_cube:3", "--out", path]) == 0
        code, out, err = run(["validate", path, "--round-values", decimals], capsys)
        assert (code, out, err) == (0, "ok: 8 points, 8 generators, family TB\n", "")

    def test_infinite_float_options_allowed(self, two_point_files, tmp_path, capsys):
        code, out, _ = run(["covnum", two_point_files[0], "--eps", "inf"], capsys)
        assert code == 0 and json.loads(out)["value"] == 1
        out_file = str(tmp_path / "m.json")
        code, _, _ = run(["measure", two_point_files[0], "--features", "0", "--R", "inf", "--out", out_file], capsys)
        assert code == 0

    def test_bad_metric_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad_metric.json"
        bad.write_text(
            json.dumps(
                {
                    "points": [0, 1, 2],
                    "weights": [0.25, 0.25, 0.5],
                    "family": "TB",
                    "distance_matrix": [[0, 1, 3], [1, 0, 1], [3, 1, 0]],
                }
            )
        )
        code, _, err = run(["validate", str(bad)], capsys)
        assert code == 3
        assert "triangle" in err

    def test_odiam_csv(self, two_point_files, capsys):
        code, out, _ = run(["odiam", two_point_files[0], "--kappa", "0.25"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["kappa", "od"]
        assert float(rows[1][1]) == 1.0

    def test_pdiam(self, two_point_files, capsys):
        code, out, _ = run(
            ["pdiam", two_point_files[0], "--feature", "0", "--alpha", "0.6"], capsys
        )
        assert code == 0
        assert float(out) == 1.0

    def test_kyfan(self, two_point_files, capsys):
        code, out, _ = run(["kyfan", two_point_files[0], "--f", "0", "--g", "1"], capsys)
        assert code == 0
        assert 0.0 <= float(out) <= 1.0

    def test_prohorov(self, two_point_files, capsys):
        code, out, _ = run(["prohorov", two_point_files[0], "--f", "0", "--g", "0"], capsys)
        assert code == 0
        assert float(out) == 0.0

    def test_repeated_calls_leave_no_cyclic_garbage(self, two_point_files, capsys):
        # the parser is built once per process, not once per call
        argv = ["prohorov", two_point_files[0], "--f", "0", "--g", "1"]
        assert main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            for _ in range(5):
                assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()
        capsys.readouterr()


class TestTransformCommands:
    def test_measure_then_validate(self, two_point_files, tmp_path, capsys):
        out_path = tmp_path / "m.json"
        code, out, _ = run(
            ["measure", two_point_files[1], "--features", "0", "--R", "1", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        code, out, _ = run(["validate", str(out_path)], capsys)
        assert code == 0

    def test_quotient(self, two_point_files, tmp_path, capsys):
        out_path = tmp_path / "q.json"
        code, out, _ = run(
            ["quotient", two_point_files[0], "--features", "0", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert "2 -> 2" in out

    def test_covnum(self, two_point_files, capsys):
        code, out, _ = run(["covnum", two_point_files[0], "--eps", "0.1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] >= 1 and payload["exact"]



class TestDistanceCommands:
    def test_dconc_json(self, two_point_files, capsys):
        code, out, _ = run(["dconc", two_point_files[0], two_point_files[1]], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] == pytest.approx(0.5, abs=1e-12)
        assert payload["upper"] == pytest.approx(0.5, abs=1e-12)
        assert payload["lower_witness"] == "od transfer at kappa -> 0+: delta=0.5"

    @pytest.mark.parametrize("command", ["dconc", "box", "staircase"])
    def test_no_kappa_grid(self, two_point_files, capsys, command):
        # the lower bound is exact over kappa, so there is no grid to pick
        with pytest.raises(SystemExit) as exc:
            main([command, *two_point_files, "--kappa-grid", "0.01:0.45:0.04"])
        assert exc.value.code == 2
        assert "--kappa-grid" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["dconc", "box", "staircase"])
    def test_negative_seed_exit_2(self, two_point_files, capsys, command):
        # numpy's default_rng raised ValueError on the seed: a traceback
        # with status 1
        code, out, err = run([command, *two_point_files, "--seed", "-1"], capsys)
        assert (code, out) == (2, "")
        assert "seed must be nonnegative" in err

    def test_box_json(self, two_point_files, capsys):
        code, out, _ = run(["box", two_point_files[0], two_point_files[1]], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] <= payload["upper"] + 1e-9

    def test_staircase_json(self, two_point_files, capsys):
        code, out, _ = run(
            ["staircase", two_point_files[0], two_point_files[1], "--levels", "2", "--budget", "6"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["levels"] == 2
        assert payload["interval"][0] <= payload["interval"][1]

    def test_rho_json(self, two_point_files, capsys):
        # the pyramid metric rho is the staircase series, so its self interval starts at 0
        code, out, _ = run(["staircase", two_point_files[0], two_point_files[0], "--levels", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["interval"][0] == 0.0

    def test_domination_passes_tol_zero(self, two_point_files, capsys, monkeypatch):
        seen = []

        def fake_check_domination(X, Y, tol=None, budget=None):
            seen.append(tol)
            return DominationVerdict("Dominates", witness_map=(0, 1))

        monkeypatch.setattr("gdskit.cli.check_domination", fake_check_domination)
        code, _, _ = run(["domination", *two_point_files, "--tol", "0"], capsys)
        assert code == 0
        assert seen == [0.0]

    def test_domination_budget_passed_only_when_given(self, two_point_files, capsys, monkeypatch):
        # with no --budget, check_domination runs at its own default
        seen = []

        def fake_check_domination(X, Y, tol, **kwargs):
            seen.append(kwargs)
            return DominationVerdict("Dominates", witness_map=(0, 1))

        monkeypatch.setattr("gdskit.cli.check_domination", fake_check_domination)
        assert run(["domination", *two_point_files], capsys)[0] == 0
        assert run(["domination", *two_point_files, "--budget", "7"], capsys)[0] == 0
        assert seen == [{}, {"budget": 7}]

    def test_budget_only_on_series_and_domination(self, two_point_files):
        # no bracket search reads a level budget
        for command in ("dconc", "box"):
            with pytest.raises(SystemExit) as exc:
                main([command, *two_point_files, "--budget", "3"])
            assert exc.value.code == 2

    def test_tol_only_on_domination(self, two_point_files):
        # no other command compares against a tolerance
        for argv in (["covnum", two_point_files[0], "--eps", "0.1"], ["dconc", *two_point_files]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--tol", "0"])
            assert exc.value.code == 2

    def test_domination_exit_codes(self, two_point_files, capsys):
        # the wider space dominates the narrower one (clip to radius 1) ...
        code, out, _ = run(["domination", two_point_files[1], two_point_files[0]], capsys)
        assert code == 0
        assert json.loads(out)["status"] == "Dominates"
        # ... but a spread-1 feature has no 1-Lipschitz image of spread 2
        code, out, _ = run(["domination", two_point_files[0], two_point_files[1]], capsys)
        assert code == 0
        assert json.loads(out)["status"] == "NotDominated"
        # budget 0 maps evaluated -> Unknown -> exit 4
        code, out, _ = run(
            ["domination", two_point_files[0], two_point_files[1], "--budget", "0"], capsys
        )
        assert code == 4
        # a negative budget searched without a limit, printed Dominates
        # and exited 0
        code, out, err = run(["domination", two_point_files[1], two_point_files[0], "--budget", "-3"], capsys)
        assert (code, out) == (2, "")
        assert "search budget must be >= 0, got -3" in err


class TestSweep:
    def test_reproducible_modulo_runtime(self, tmp_path):
        recipes = ["two_point:1", "hamming_cube:4:by_k"]
        a = sweep(recipes, [0.1, 0.25])
        b = sweep(recipes, [0.1, 0.25])

        def strip_runtime(text):
            rows = list(csv.reader(io.StringIO(text)))
            return [row[:-1] for row in rows]

        assert strip_runtime(a) == strip_runtime(b)

    def test_validates_each_recipe_once(self, monkeypatch):
        import gdskit
        from gdskit import core

        calls = []
        real = core.check_metric

        def counting_check(D):
            calls.append(D.shape)
            return real(D)

        # every check a sweep makes is the embedding's
        monkeypatch.setattr(core, "check_metric", counting_check)
        recipes = ["two_point:1", "hamming_cube:4:by_k"]
        kappas = [0.1, 0.2, 0.25, 0.4]
        rows = list(csv.reader(io.StringIO(sweep(recipes, kappas))))[1:]
        assert calls == [(2, 2), (16, 16)]
        # every kappa still gives the observable_diameter_hss value
        for label, _, kappa, od, _ in rows:
            X = gdskit.generate_space(gdskit.SpaceRecipe.parse(label))
            assert float(od) == gdskit.observable_diameter_hss(X.metric, X.mu, float(kappa))

    def test_equals_od_profile_bit_for_bit(self):
        # the rows of an embedded space's metric are its generators, so a
        # sweep and gds odiam agree to the last bit on non-dyadic distances
        from gdskit import SpaceRecipe, generate_space, od_profile

        kappas = [0.1, 0.2, 0.3, 0.4]
        rows = list(csv.reader(io.StringIO(sweep(["hamming_cube:5:by_k"], kappas))))[1:]
        X = generate_space(SpaceRecipe.parse("hamming_cube:5:by_k"))
        assert [float(row[3]) for row in rows] == od_profile(X, kappas).values

    def test_feature_file_sweeps_its_own_od(self, tmp_path):
        # generators that are not distance rows: the od of the data set
        # is 5.0, the od of the rows of its induced metric only 4.0
        from gdskit import od_profile
        from gdskit.serialize import parse_gds

        path = tmp_path / "features.json"
        path.write_text(
            json.dumps(
                {
                    "points": [0, 1, 2, 3],
                    "weights": [0.25] * 4,
                    "family": "TB",
                    "features": {"generators": [[0, 1, 2, 3], [0, 0, 5, 5]]},
                }
            )
        )
        rows = list(csv.reader(io.StringIO(sweep([f"file:{path}"], [0.3]))))[1:]
        assert [float(row[3]) for row in rows] == od_profile(parse_gds(str(path)), [0.3]).values
        assert float(rows[0][3]) == 5.0

    def test_sorted_and_complete(self):
        text = sweep(["two_point:2", "two_point:1"], [0.25])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["recipe", "param", "kappa", "od", "runtime_ms"]
        labels = [r[0] for r in rows[1:]]
        assert labels == sorted(labels)
        ods = {r[0]: float(r[3]) for r in rows[1:]}
        assert ods["two_point:1"] == 1.0
        assert ods["two_point:2"] == 2.0

    def test_empty_recipes_rejected(self):
        with pytest.raises(Exception):
            sweep([], [0.1])

    def test_cli_sweep_to_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--recipe", "two_point:1", "--kappa-grid", "0.1:0.3:0.1", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.reader(out.open()))
        assert rows[0][0] == "recipe"
        assert len(rows) == 4
