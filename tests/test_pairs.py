"""``tools/pairs.py``: interleaved parent/change perfbench pairs.

A stub stands in for perfbench; only the end-to-end test starts
processes: a few git commands and four stub runs.
"""

import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))
try:
    import pairs
finally:
    sys.path.pop(0)

GATED = [{"name": "step_ms", "better": "lower"},
         {"name": "dice", "better": "higher"}]


def _result(step_ms, dice):
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {"step_ms": {"value": step_ms, "unit": "ms"},
                        "dice": {"value": dice, "unit": "1"}}}


def _record(parent, change, order=("parent", "change")):
    return {"order": list(order), "parent": _result(*parent),
            "change": _result(*change)}


@pytest.mark.parametrize("wins, n, p", [(10, 10, 2 / 1024),
                                        (0, 10, 2 / 1024),
                                        (9, 10, 22 / 1024),
                                        (8, 10, 112 / 1024),
                                        (5, 10, 1.0), (0, 0, 1.0),
                                        (3, 3, 0.25)])
def test_sign_test_p_equals_binomial_tails(wins, n, p):
    assert pairs.sign_test_p(wins, n) == pytest.approx(p, rel=1e-12)


def test_summary_of_fixed_pairs_equals_hand_count():
    records = [_record((10.0, 0.5), (9.0, 0.5)),     # step won, dice tied
               _record((10.0, 0.5), (11.0, 0.6)),    # step lost, dice won
               _record((12.0, 0.4), (8.0, 0.7)),     # both won
               _record((11.0, 0.6), (10.0, 0.5))]    # step won, dice lost
    step, dice = pairs.summarize(records, GATED)
    # parent step 10, 10, 12, 11: sorted 10, 10, 11, 12
    assert step["parent"] == {"median": 10.5, "q1": 10.0, "q3": 11.25}
    # change step 9, 11, 8, 10: sorted 8, 9, 10, 11
    assert step["change"] == {"median": 9.5, "q1": 8.75, "q3": 10.25}
    assert (step["wins"], step["untied"]) == (3, 4)
    assert step["p"] == pytest.approx(10 / 16)
    assert (dice["wins"], dice["untied"]) == (2, 3)
    assert dice["p"] == pytest.approx(1.0)


def test_summary_skips_a_metric_one_side_lacks():
    record = _record((10.0, 0.5), (9.0, 0.5))
    del record["change"]["metrics"]["dice"]
    assert [row["metric"] for row in pairs.summarize([record], GATED)] == [
        "step_ms"]


def test_run_pairs_records_the_order_it_ran():
    ran = []

    def run(tree, workload, seed, seconds, trace):
        ran.append((tree, seed))
        report = {"env": {"python": "3", "seed": seed},
                  "metrics": {"step_ms": {"value": 1.0, "unit": "ms"},
                              "job_s": {"value": 2.0, "unit": "s"}}}
        return report, {"correct": True, "attempted": 1, "failed": 0,
                        "metrics": {"step_ms": {"value": 1.0, "unit": "ms"}}}

    trees = {"parent": "P", "change": "C"}
    records, env = pairs.run_pairs(trees, workload="w", pairs=8, seconds=1,
                                   coin=3, run=run)
    assert env == {"python": "3"}
    assert ran == [(trees[side], 7 + i)
                   for i, r in enumerate(records) for side in r["order"]]
    orders = [tuple(r["order"]) for r in records]
    assert set(orders) == {("parent", "change"), ("change", "parent")}
    again, _ = pairs.run_pairs(trees, workload="w", pairs=8, seconds=1,
                               coin=3, run=run)
    assert [tuple(r["order"]) for r in again] == orders
    assert records[0]["reported"]["change"] == {
        "job_s": {"value": 2.0, "unit": "s"}}


STUB = textwrap.dedent("""\
    import json, os, sys
    side = open("SIDE").read().strip()
    seed = int(sys.argv[sys.argv.index("--seed") + 1])
    with open(os.environ["PAIRS_STUB_LOG"], "a") as fh:
        fh.write(f"{side} {seed}\\n")
    step = {"parent": 10.0, "change": 9.0}[side] + seed / 100
    metrics = {"step_ms": {"value": step, "unit": "ms"},
               "dice": {"value": 0.5, "unit": "1"}}
    print("warming up")
    print(json.dumps({"report": {
        "env": {"python": "3", "seed": seed},
        "metrics": {**metrics, "job_s": {"value": 1.0, "unit": "s"}}}}))
    print(json.dumps({"correct": True, "attempted": 2, "failed": 0,
                      "metrics": metrics}))
    """)


def test_end_to_end_with_a_stub_perfbench(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(STUB)
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": GATED}))
    (repo / "SIDE").write_text("parent\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t",
           "-c", "commit.gpgsign=false"]
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run([*git, "-C", str(repo), "add", "-A"], check=True)
    subprocess.run([*git, "-C", str(repo), "commit", "-qm", "parent"],
                   check=True)
    (repo / "SIDE").write_text("change\n")       # the working tree is the change
    log = tmp_path / "ran.txt"
    monkeypatch.setenv("PAIRS_STUB_LOG", str(log))
    monkeypatch.chdir(repo)
    out = tmp_path / "BENCH.json"
    assert pairs.main(["HEAD", ".", "--workload", "w", "--pairs", "2",
                       "--seconds", "1", "--out", str(out)]) == 0

    bench = json.loads(out.read_text())
    committed = json.loads((REPO / "BENCH_25.json").read_text())
    assert list(bench) == list(committed)
    assert set(bench["pairs"][0]) == set(committed["pairs"][0])
    assert bench["change"].startswith("working tree ")
    assert bench["env"] == {"python": "3"}
    ran = [line.split() for line in log.read_text().splitlines()]
    assert ran == [[side, str(r["seed"])] for r in bench["pairs"]
                   for side in r["order"]]
    assert [r["change"]["metrics"]["step_ms"]["value"]
            for r in bench["pairs"]] == [9.07, 9.08]
    assert "step_ms" in capsys.readouterr().out
    # pairs of another command are not appended to the file
    with pytest.raises(SystemExit):
        pairs.main(["HEAD", ".", "--workload", "w", "--pairs", "1",
                    "--seconds", "2", "--out", str(out)])
    assert "holds command" in capsys.readouterr().err
    assert json.loads(out.read_text()) == bench
    assert len(log.read_text().splitlines()) == 4
    assert (repo / "SIDE").read_text() == "change\n"
    assert subprocess.run(["git", "status", "--porcelain"], check=True,
                          capture_output=True, text=True).stdout == (
        " M SIDE\n")
