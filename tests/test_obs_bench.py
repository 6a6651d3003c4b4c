"""BENCH recorder tests: document schema, comparison verdicts, CLI gate.

The one subprocess integration test records a real (tiny) benchmark
subset through ``supernpu bench run``; everything else drives the
comparator and loader on synthetic documents.
"""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.obs import bench


def make_document(sha="aaaa111", benchmarks=None, created=1000.0):
    return {
        "schema": bench.BENCH_SCHEMA_VERSION,
        "kind": bench.BENCH_KIND,
        "git_sha": sha,
        "subset": "smoke",
        "created_unix": created,
        "settings": {"min_rounds": 1, "max_time_s": 0.1},
        "host": {},
        "manifest": {},
        "benchmarks": benchmarks if benchmarks is not None else {
            "bench_x.py::test_a": {"min_s": 0.010, "mean_s": 0.012,
                                   "rounds": 5, "iterations": 1},
            "bench_x.py::test_b": {"min_s": 0.020, "mean_s": 0.022,
                                   "rounds": 5, "iterations": 1},
        },
        "counters": {"sim.cycles": 1000},
        "histograms": {},
    }


# -- subset resolution -----------------------------------------------------

def test_named_subsets_resolve():
    everything = bench.bench_files("all")
    smoke = bench.bench_files("smoke")
    assert smoke and len(smoke) < len(everything)
    assert all(path.is_file() for path in smoke)
    named = {path.stem for sub in ("figures", "ablation", "extensions")
             for path in bench.bench_files(sub)}
    assert named <= {path.stem for path in everything}


def test_fragment_subset_resolves():
    files = bench.bench_files("fig07,fig13")
    assert {path.stem for path in files} == {"bench_fig07_feedback",
                                             "bench_fig13_validation"}


def test_unknown_subset_raises():
    with pytest.raises(ConfigError) as excinfo:
        bench.bench_files("definitely_not_a_benchmark")
    assert excinfo.value.code == "bench.unknown_benchmark"


# -- document IO -----------------------------------------------------------

def test_write_and_load_round_trip(tmp_path):
    document = make_document()
    path = bench.write_document(document, path=tmp_path / "BENCH_test.json")
    assert bench.load_document(path) == document


def test_load_rejects_missing_and_corrupt(tmp_path):
    with pytest.raises(ConfigError) as excinfo:
        bench.load_document(tmp_path / "BENCH_nope.json")
    assert excinfo.value.code == "bench.missing_file"
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text("{torn")
    with pytest.raises(ConfigError) as excinfo:
        bench.load_document(bad)
    assert excinfo.value.code == "bench.corrupt_file"
    foreign = tmp_path / "BENCH_foreign.json"
    foreign.write_text(json.dumps({"schema": 999, "kind": "other"}))
    with pytest.raises(ConfigError) as excinfo:
        bench.load_document(foreign)
    assert excinfo.value.code == "bench.wrong_schema"


def test_find_baseline_prefers_newest(tmp_path):
    bench.write_document(make_document(sha="old1111", created=100.0),
                         path=tmp_path / "BENCH_old1111.json")
    bench.write_document(make_document(sha="new2222", created=200.0),
                         path=tmp_path / "BENCH_new2222.json")
    (tmp_path / "BENCH_junk.json").write_text("not json")  # skipped
    found = bench.find_baseline(tmp_path)
    assert found is not None and found.name == "BENCH_new2222.json"
    # Excluding the newest falls back to the older recording.
    older = bench.find_baseline(tmp_path, exclude=[found])
    assert older is not None and older.name == "BENCH_old1111.json"
    assert bench.find_baseline(tmp_path, exclude=[found, older]) is None


def test_default_bench_path_uses_sha(tmp_path):
    path = bench.default_bench_path(tmp_path, sha="cafe123")
    assert path == tmp_path / "BENCH_cafe123.json"


# -- comparison ------------------------------------------------------------

def test_compare_identical_is_ok():
    comparison = bench.compare_documents(make_document(), make_document())
    assert comparison.ok
    assert all(delta.verdict == "ok" for delta in comparison.deltas)


def test_compare_flags_regression_and_improvement():
    base = make_document()
    new = make_document(sha="bbbb222")
    new["benchmarks"]["bench_x.py::test_a"]["min_s"] = 0.030  # 3.0x slower
    new["benchmarks"]["bench_x.py::test_b"]["min_s"] = 0.005  # 4.0x faster
    comparison = bench.compare_documents(base, new, threshold=1.5)
    assert not comparison.ok
    verdicts = {d.name: d.verdict for d in comparison.deltas}
    assert verdicts["bench_x.py::test_a"] == "regression"
    assert verdicts["bench_x.py::test_b"] == "improvement"
    regression = comparison.regressions[0]
    assert regression.ratio == pytest.approx(3.0)


def test_compare_threshold_is_respected():
    base = make_document()
    new = make_document()
    new["benchmarks"]["bench_x.py::test_a"]["min_s"] = 0.018  # 1.8x
    assert not bench.compare_documents(base, new, threshold=1.5).ok
    assert bench.compare_documents(base, new, threshold=2.0).ok


def test_compare_added_and_missing_never_gate():
    base = make_document()
    new = make_document()
    del new["benchmarks"]["bench_x.py::test_b"]
    new["benchmarks"]["bench_x.py::test_c"] = {"min_s": 0.5, "mean_s": 0.5,
                                               "rounds": 1, "iterations": 1}
    comparison = bench.compare_documents(base, new)
    verdicts = {d.name: d.verdict for d in comparison.deltas}
    assert verdicts["bench_x.py::test_b"] == "missing"
    assert verdicts["bench_x.py::test_c"] == "added"
    assert comparison.ok


def test_compare_invalid_threshold():
    with pytest.raises(ConfigError):
        bench.compare_documents(make_document(), make_document(), threshold=1.0)


def test_comparison_dict_export():
    base = make_document()
    new = make_document(sha="bbbb222")
    new["benchmarks"]["bench_x.py::test_a"]["min_s"] = 0.030
    data = bench.compare_documents(base, new).to_dict()
    assert data["ok"] is False and data["regressions"] == 1
    assert data["base_sha"] == "aaaa111" and data["new_sha"] == "bbbb222"
    assert len(data["deltas"]) == 2


# -- CLI: compare gate -----------------------------------------------------

def test_cli_bench_compare_exit_codes(tmp_path, capsys):
    base_path = tmp_path / "BENCH_base.json"
    bench.write_document(make_document(), path=base_path)
    slow = make_document(sha="slow222")
    slow["benchmarks"]["bench_x.py::test_a"]["min_s"] = 0.100
    slow_path = tmp_path / "BENCH_slow.json"
    bench.write_document(slow, path=slow_path)

    assert main(["bench", "compare", str(base_path),
                 "--baseline", str(base_path)]) == 0
    capsys.readouterr()
    assert main(["bench", "compare", str(slow_path),
                 "--baseline", str(base_path)]) == 1
    out = capsys.readouterr().out
    assert "regression" in out and "1 regressions" in out


def test_cli_bench_compare_json(tmp_path, capsys):
    path = tmp_path / "BENCH_one.json"
    bench.write_document(make_document(), path=path)
    assert main(["bench", "compare", str(path), "--baseline", str(path),
                 "--json"]) == 0
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["command"] == "bench"
    document = envelope["data"]
    assert document["ok"] is True and document["regressions"] == 0


def test_cli_bench_compare_requires_candidate(capsys):
    assert main(["bench", "compare"]) == 2
    assert "candidate" in capsys.readouterr().err


def test_cli_bench_compare_missing_baseline(tmp_path, capsys, monkeypatch):
    path = tmp_path / "BENCH_one.json"
    bench.write_document(make_document(), path=path)
    monkeypatch.setattr(bench, "repo_root", lambda explicit=None: tmp_path)
    assert main(["bench", "compare", str(path)]) == 2
    assert "no baseline" in capsys.readouterr().err


# -- the real thing (one small subprocess run) -----------------------------

@pytest.mark.slow
def test_cli_bench_run_records_real_subset(tmp_path, capsys):
    out = tmp_path / "BENCH_real.json"
    assert main(["bench", "run", "--subset", "fig07", "--min-rounds", "1",
                 "--max-time", "0.05", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "benchmarks (fig07)" in stdout
    document = bench.load_document(out)
    assert document["schema"] == bench.BENCH_SCHEMA_VERSION
    assert document["subset"] == "fig07"
    assert document["benchmarks"], "must record at least one benchmark"
    for stats in document["benchmarks"].values():
        assert stats["min_s"] > 0 and stats["rounds"] >= 1
    # The obs session inside the subprocess feeds the counters block.
    assert document["counters"].get("bench.tests", 0) > 0
    assert "bench.test_seconds" in document["histograms"]
    assert document["manifest"]["command"] == "bench"
    # A recording compares clean against itself through the CLI gate.
    assert main(["bench", "compare", str(out), "--baseline", str(out)]) == 0


@pytest.mark.slow
def test_cli_bench_run_hotspot_folds_in_the_benchmarked_calls(tmp_path, capsys):
    out = tmp_path / "BENCH_hot.json"
    collapsed = tmp_path / "bench.collapsed"
    assert main(["hotspot", "--hotspot-out", str(collapsed), "bench", "run",
                 "--subset", "table1", "--min-rounds", "1",
                 "--max-time", "0.05", "--out", str(out)]) == 0
    assert "hotspot: " in capsys.readouterr().err
    summary = bench.load_document(out)["hotspot"]
    assert summary["functions"] > 0 and summary["top"]
    # The subprocess's cProfile dumps reached the parent's profile.
    assert "estimate_npu (repro/estimator/arch_level.py" in collapsed.read_text()
