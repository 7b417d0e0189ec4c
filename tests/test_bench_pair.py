"""tools/bench_pair.py: the summary of paired runs, and one paired run in a
throwaway git repository."""
import importlib.util
import json
import pathlib
import shlex
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_driver():
    spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "tools" / "bench_pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pair = _load_driver()


class TestSummary:
    def test_medians_spread_and_wins_with_ties(self):
        m = bench_pair.verdict([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 2.5, 4.0, 4.5], False, None)
        assert (m["parent_median"], m["change_median"]) == (3.0, 2.5)
        # quartiles 2 and 4 of the parent's runs
        assert m["parent_spread"] == 2.0
        # pairs 2 and 4 are ties and count for neither side
        assert m["change_wins"] == 3
        assert m["verdict"] == "no gain"

    def test_higher_is_better_counts_the_other_way(self):
        m = bench_pair.verdict([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 2.5, 4.0, 4.5], True, None)
        assert m["change_wins"] == 0
        assert m["better"] == "higher"

    def test_verdicts(self):
        parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
        # nine wins in ten, by more than the parent's spread
        faster = [0.8] * 9 + [1.5]
        assert bench_pair.verdict(parent, faster, False, 0.25)["verdict"] == "gain"
        # eight wins in ten are not a gain
        assert bench_pair.verdict(parent, [0.8] * 8 + [1.5] * 2, False, 0.25)["verdict"] == "within bound"
        assert bench_pair.verdict(parent, [1.3] * 10, False, 0.25)["verdict"] == "worse"
        assert bench_pair.verdict(parent, [1.1] * 10, False, 0.25)["verdict"] == "within bound"
        noisy = [1.0, 1.6, 0.7, 1.0, 1.5, 0.6, 1.0, 1.4, 0.8, 1.0]
        assert bench_pair.verdict(noisy, [1.0] * 10, False, 0.25)["verdict"] == "unresolved"
        # every change run better than every parent run resolves a wide spread
        assert bench_pair.verdict(noisy, [0.59] * 10, False, 0.25)["verdict"] == "within bound"
        assert bench_pair.verdict(noisy, [0.59] * 5 + [2.0] * 5, False, 0.25)["verdict"] == "worse"

    def test_without_a_bound_worse_mirrors_gain(self):
        parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
        # nine losses in ten, by more than the parent's spread
        assert bench_pair.verdict(parent, [1.2] * 9 + [0.5], False, None)["verdict"] == "worse"
        assert bench_pair.verdict(parent, [1.2] * 8 + [0.5] * 2, False, None)["verdict"] == "no gain"
        # a loss within the parent's spread is no verdict either way
        assert bench_pair.verdict(parent, [1.011] * 10, False, None)["verdict"] == "no gain"
        assert bench_pair.verdict(parent, [0.8] * 10, True, None)["verdict"] == "worse"

    def test_direction_and_bound_from_benchmark_json(self):
        names = bench_pair.declared(ROOT)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        higher = next(m for m in spec["per_layer"] if m["better"] == "higher")

        def runs(value):
            return [{"metrics": {"setup_s.value": value, f"{higher['name']}.value": value, "wall_s": value},
                     "digest": None}] * 10

        report = bench_pair.summarize({"parent": runs(1.0), "change": runs(2.0)}, names)["metrics"]
        assert (report["setup_s.value"]["better"], report["setup_s.value"]["bound"]) == ("lower", setup["bound"])
        assert report["setup_s.value"]["verdict"] == "worse"
        assert (report[f"{higher['name']}.value"]["better"], report[f"{higher['name']}.value"]["change_wins"]) \
            == ("higher", 10)
        assert (report["wall_s"]["better"], report["wall_s"]["bound"], report["wall_s"]["verdict"]) \
            == ("lower", None, "worse")

    def test_digests(self):
        def runs(*digests):
            return [{"metrics": {"x": 1.0}, "digest": d} for d in digests]

        same = bench_pair.summarize({"parent": runs("a", "a"), "change": runs("a", "a")}, {})
        assert same["digests"] == {"parent": ["a"], "change": ["a"], "equal": True}
        moved = bench_pair.summarize({"parent": runs("a", "a"), "change": runs("b", "b")}, {})
        assert moved["digests"]["equal"] is False
        none = bench_pair.summarize({"parent": runs(None), "change": runs(None)}, {})
        assert none["digests"]["equal"] is None
        assert list(none["metrics"]) == ["x"]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
class TestSmoke:
    @pytest.fixture
    def repo(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench_pair, "PAIRS", 2)
        repo = tmp_path / "repo"
        (repo / "src").mkdir(parents=True)
        (repo / "src" / "marker.txt").write_text("parent\n")
        git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
        subprocess.run(["git", "init", "-q", str(repo)], check=True)
        subprocess.run([*git, "add", "-A"], check=True)
        subprocess.run([*git, "commit", "-q", "-m", "parent"], check=True)
        (repo / "src" / "marker.txt").write_text("change\n")
        monkeypatch.chdir(repo)
        return repo

    def child(self, log, tail):
        # each run logs which side it ran on; its working directory and its
        # PYTHONPATH must both be that side's
        return [
            sys.executable, "-c",
            "import json, os, pathlib; "
            "side = pathlib.Path('src/marker.txt').read_text().strip(); "
            "assert (pathlib.Path(os.environ['PYTHONPATH']) / 'marker.txt').read_text().strip() == side; "
            f"open({str(log)!r}, 'a').write(side + '\\n'); "
            "print('digest sha256:' + '0' * 64); " + tail,
        ]

    def test_pairs_alternate_and_report(self, repo, tmp_path, capsys):
        log, out = tmp_path / "order.log", tmp_path / "BENCH_t.json"
        # `attempted` counts tasks run in a fixed time, so higher is better,
        # but BENCHMARK.json does not declare it: only the `metrics` object
        # is read, so a change that runs fewer tasks cannot win on it
        cmd = self.child(log, "print(json.dumps({'correct': True, 'attempted': 1656 if side == 'parent' else 1608, "
                              "'metrics': {'n': {'value': 3, 'unit': '1'}}}))")
        assert bench_pair.main(["--parent", "HEAD", "--out", str(out), "--", *cmd]) == 0
        assert log.read_text().split() == ["parent", "change", "change", "parent"]
        (report,) = json.loads(out.read_text()).values()
        assert report["command"] == cmd
        assert report["working_tree_dirty"] is True
        assert report["pairs"] == 2
        assert report["digests"]["equal"] is True
        assert set(report["metrics"]) == {"n.value", "wall_s", "cpu_s", "maxrss_mb"}
        n = report["metrics"]["n.value"]
        assert (n["parent"], n["change"], n["change_wins"]) == ([3.0, 3.0], [3.0, 3.0], 0)
        assert "n.value" in capsys.readouterr().out

    def test_repeated_command_keeps_every_report(self, repo, tmp_path):
        # reports were keyed by command line alone, so a second paired run
        # of a command replaced the first one in the --out file
        log, out = tmp_path / "order.log", tmp_path / "BENCH_t.json"
        out.write_text(json.dumps({"python3 other.py": {"command": ["python3", "other.py"]}}) + "\n")
        cmd = self.child(log, "print(json.dumps({'correct': True, 'metrics': {'n': {'value': 3, 'unit': '1'}}}))")
        for _ in range(3):
            assert bench_pair.main(["--parent", "HEAD", "--out", str(out), "--", *cmd]) == 0
        reports = json.loads(out.read_text())
        line = shlex.join(cmd)
        assert list(reports) == ["python3 other.py", line, f"{line} #2", f"{line} #3"]
        assert all(reports[key]["command"] == cmd for key in list(reports)[1:])

    @pytest.mark.parametrize("tail, shown", [
        ("import sys; print('boom', file=sys.stderr); sys.exit(3)", "exit 3\nboom"),
        ("print(json.dumps({'correct': False}))", '"correct": false'),
    ])
    def test_failing_child_exits_1(self, repo, tmp_path, capsys, tail, shown):
        log, out = tmp_path / "order.log", tmp_path / "BENCH_t.json"
        cmd = self.child(log, tail)
        assert bench_pair.main(["--parent", "HEAD", "--out", str(out), "--", *cmd]) == 1
        assert log.read_text().split() == ["parent"]
        assert not out.exists()
        assert shown in capsys.readouterr().err
