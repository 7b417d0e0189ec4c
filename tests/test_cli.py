import csv
import io
import json

import pytest

from gdskit.cli import main, sweep
from gdskit.families import CoveringResult


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

    def test_validate_bad_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"points": [0, 1], "family": "TB"}')
        code, _, err = run(["validate", str(bad)], capsys)
        assert code == 2
        assert "/weights" in err

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
            ["covnum", "A", "--eps", "0.1", "--tol", "nan"],
            ["covnum", "A", "--eps", "0.1", "--tol", "-0.5"],
            ["covnum", "A", "--eps", "0.1", "--tol", "inf"],
            ["dconc", "A", "B", "--tol", "nan"],
            ["odiam", "A", "--kappa", "nan"],
            ["pdiam", "A", "--alpha", "nan"],
            ["measure", "A", "--features", "0", "--out", "OUT", "--R", "nan"],
            ["sweep", "--recipe", "two_point:1", "--kappa", "nan"],
            ["odiam", "A", "--kappa-grid", "bad"],
        ],
    )
    def test_bad_float_option_exit_2(self, two_point_files, tmp_path, capsys, argv):
        # the bad option comes last; --eps nan printed {"value": 2,
        # "exact": true} and exited 0, and a bad --kappa-grid escaped as a
        # traceback with status 1
        paths = {"A": two_point_files[0], "B": two_point_files[1], "OUT": str(tmp_path / "m.json")}
        argv = [paths.get(a, a) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert f"argument {argv[-2]}" in err

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

    def test_covnum_passes_tol_zero(self, two_point_files, capsys, monkeypatch):
        seen = []

        def fake_covering_number(X, eps, family=None, tol=None):
            seen.append(tol)
            return CoveringResult(1, True)

        monkeypatch.setattr("gdskit.families.covering_number", fake_covering_number)
        code, _, _ = run(["covnum", two_point_files[0], "--eps", "0.1", "--tol", "0"], capsys)
        assert code == 0
        assert seen == [0.0]


class TestDistanceCommands:
    def test_dconc_json(self, two_point_files, capsys):
        code, out, _ = run(
            ["dconc", two_point_files[0], two_point_files[1], "--kappa-grid", "0.01:0.45:0.04"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] == pytest.approx(0.49, abs=1e-12)
        assert payload["upper"] == pytest.approx(0.5, abs=1e-12)

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
        code, out, _ = run(["rho", two_point_files[0], two_point_files[0], "--levels", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["interval"][0] == 0.0

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
        from gdskit import obsdiam

        calls = []
        real = obsdiam.check_metric

        def counting_check(D, tol):
            calls.append(D.shape)
            return real(D, tol)

        monkeypatch.setattr(obsdiam, "check_metric", counting_check)
        recipes = ["two_point:1", "hamming_cube:4:by_k"]
        kappas = [0.1, 0.2, 0.25, 0.4]
        rows = list(csv.reader(io.StringIO(sweep(recipes, kappas))))[1:]
        assert calls == [(2, 2), (16, 16)]
        # every kappa still gives the observable_diameter_hss value
        for label, _, kappa, od, _ in rows:
            X = gdskit.generate_space(gdskit.SpaceRecipe.parse(label))
            assert float(od) == gdskit.observable_diameter_hss(X.metric, X.mu, float(kappa))

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
