"""Run-registry tests: round-trips, damage tolerance, CLI queries."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.obs import registry as regmod
from repro.obs.registry import (
    REGISTRY_SCHEMA_VERSION,
    RunEntry,
    RunRegistry,
    record_invocation,
    registry_disabled,
)


@pytest.fixture
def registry(tmp_path):
    return RunRegistry(tmp_path / "runs")


def test_append_list_round_trip(registry):
    written = registry.append(
        "simulate", argv=["simulate", "supernpu", "alexnet"],
        exit_code=0, wall_time_s=1.25,
        manifest={"design": "SuperNPU", "workload": "AlexNet", "batch": 30},
        metrics={"counters": {"sim.cycles": 1000}},
    )
    entries, corrupt = registry.entries()
    assert corrupt == 0
    assert [e.run_id for e in entries] == [written.run_id]
    entry = entries[0]
    assert entry.command == "simulate"
    assert entry.argv == ["simulate", "supernpu", "alexnet"]
    assert entry.exit_code == 0
    assert entry.wall_time_s == 1.25
    assert entry.manifest["design"] == "SuperNPU"
    assert entry.counters == {"sim.cycles": 1000}


def test_entries_newest_first_and_limit(registry):
    ids = [registry.append("estimate", exit_code=0).run_id for _ in range(3)]
    entries, _ = registry.entries()
    assert [e.run_id for e in entries] == list(reversed(ids))
    limited, _ = registry.entries(limit=2)
    assert len(limited) == 2
    assert limited[0].run_id == entries[0].run_id


def test_get_by_exact_id_and_prefix(registry):
    written = registry.append("evaluate", exit_code=0)
    assert registry.get(written.run_id).run_id == written.run_id
    assert registry.get(written.run_id[:-2]).run_id == written.run_id


def test_get_unknown_and_ambiguous(registry):
    registry.append("evaluate", exit_code=0)
    registry.append("evaluate", exit_code=0)
    with pytest.raises(ConfigError) as excinfo:
        registry.get("nope-nothing")
    assert excinfo.value.code == "registry.unknown_run"
    with pytest.raises(ConfigError) as excinfo:
        registry.get("")  # prefix of everything
    assert excinfo.value.code == "registry.ambiguous_run"


def test_corrupt_entries_are_skipped_not_fatal(registry):
    good = registry.append("simulate", exit_code=0)
    (registry.root / "torn.json").write_text('{"schema": 1, "run_id"')
    (registry.root / "foreign.json").write_text(
        json.dumps({"schema": 999, "run_id": "x", "command": "y"}))
    (registry.root / "notdict.json").write_text("[1, 2, 3]")
    entries, corrupt = registry.entries()
    assert [e.run_id for e in entries] == [good.run_id]
    assert corrupt == 3


def test_corrupt_entry_by_id_raises_config_error(registry):
    (registry.root / "bad.json").write_text("{not json")
    with pytest.raises(ConfigError) as excinfo:
        registry.get("bad")
    assert excinfo.value.code == "registry.corrupt_entry"


def test_entry_schema_round_trip():
    entry = RunEntry(run_id="r1", command="sweep", argv=["sweep", "buffers"],
                     exit_code=0, wall_time_s=2.0, created_unix=123.0,
                     manifest={"plan": "fig20"}, metrics={"counters": {"a": 1}},
                     plans=[{"name": "fig20", "hash": "ab" * 32}])
    data = entry.to_dict()
    assert data["schema"] == REGISTRY_SCHEMA_VERSION
    restored = RunEntry.from_dict(json.loads(json.dumps(data)))
    assert restored == entry
    with pytest.raises(ValueError):
        RunEntry.from_dict({**data, "schema": REGISTRY_SCHEMA_VERSION + 1})


def test_diff_reports_fields_counters_wall(registry):
    a = registry.append("simulate", exit_code=0, wall_time_s=1.0,
                        manifest={"batch": 8, "design": "SuperNPU"},
                        metrics={"counters": {"sim.cycles": 100, "only.a": 1}})
    b = registry.append("simulate", exit_code=1, wall_time_s=3.0,
                        manifest={"batch": 30, "design": "SuperNPU"},
                        metrics={"counters": {"sim.cycles": 250}})
    difference = registry.diff(a.run_id, b.run_id)
    assert difference["fields"]["exit_code"] == {"a": 0, "b": 1}
    assert difference["fields"]["batch"] == {"a": 8, "b": 30}
    assert "design" not in difference["fields"]  # unchanged
    assert difference["counters"]["sim.cycles"] == {"a": 100, "b": 250,
                                                    "delta": 150}
    assert difference["counters"]["only.a"]["delta"] == -1
    assert difference["wall_time_delta_s"] == pytest.approx(2.0)


def test_describe_mentions_command_and_counters(registry):
    entry = registry.append("plan", argv=["plan", "run", "fig23"], exit_code=0,
                            metrics={"counters": {"sim.macs": 12345}},
                            plans=[{"name": "fig23", "hash": "cd" * 32}])
    text = registry.get(entry.run_id).describe()
    assert "plan run fig23" in text
    assert "sim.macs" in text and "12,345" in text
    assert "fig23 (cdcdcdcdcdcd)" in text


def test_registry_disabled_env(monkeypatch):
    monkeypatch.delenv(regmod.NO_REGISTRY_ENV, raising=False)
    assert not registry_disabled()
    for off in ("0", "false", "no", ""):
        monkeypatch.setenv(regmod.NO_REGISTRY_ENV, off)
        assert not registry_disabled()
    monkeypatch.setenv(regmod.NO_REGISTRY_ENV, "1")
    assert registry_disabled()


def test_record_invocation_never_raises(tmp_path, monkeypatch):
    # Unwritable runs dir: swallowed, returns None.
    blocked = tmp_path / "blocked"
    blocked.write_text("a file, not a directory")
    assert record_invocation("estimate", ["estimate"], 0, 0.1,
                             runs_dir=blocked) is None
    # Disabled via env: nothing written.
    monkeypatch.setenv(regmod.NO_REGISTRY_ENV, "1")
    assert record_invocation("estimate", ["estimate"], 0, 0.1,
                             runs_dir=tmp_path / "runs",
                             manifest={"design": "X"}) is None
    assert not (tmp_path / "runs").exists()


def test_record_invocation_files_the_session_fields(tmp_path):
    plans = [{"name": "fig20_buffers", "hash": "ab" * 32}]
    entry = record_invocation("simulate", ["simulate", "supernpu"], 0, 0.5,
                              runs_dir=tmp_path / "runs",
                              manifest={"design": "SuperNPU", "plans": plans},
                              metrics={"counters": {"sim.runs": 1}})
    assert entry is not None
    assert entry.manifest == {"design": "SuperNPU", "plans": plans}
    assert entry.counters == {"sim.runs": 1}
    assert entry.plans == plans  # read from the manifest


def test_append_retries_past_reserved_names(registry, monkeypatch):
    """A name collision is survived, not overwritten: the reservation
    (O_CREAT|O_EXCL on the final path) forces a sequence-suffixed id."""
    first = registry.append("estimate", exit_code=0)
    # Freeze the id generator's entropy so the next append collides with
    # the entry already on disk until the sequence suffix kicks in.
    base = first.run_id
    monkeypatch.setattr(
        regmod, "_new_run_id",
        lambda sequence=0: base if sequence == 0 else f"{base}-{sequence}")
    second = registry.append("estimate", exit_code=0)
    assert second.run_id == f"{base}-1"
    entries, corrupt = registry.entries()
    assert corrupt == 0
    assert {e.run_id for e in entries} == {base, f"{base}-1"}


def test_concurrent_writers_never_lose_or_tear_entries(tmp_path):
    """Two processes racing record_invocation: 2N entries, zero corrupt."""
    import subprocess
    import sys

    runs = tmp_path / "runs"
    writes_per_process = 12
    script = (
        "import sys\n"
        "from repro.obs.registry import record_invocation\n"
        "for i in range(%d):\n"
        "    entry = record_invocation('simulate', ['simulate', sys.argv[1],"
        " str(i)], 0, 0.01, runs_dir=%r)\n"
        "    assert entry is not None\n" % (writes_per_process, str(runs))
    )
    processes = [
        subprocess.Popen([sys.executable, "-c", script, name],
                         env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
                         cwd="/root/repo", stderr=subprocess.PIPE)
        for name in ("alpha", "beta")
    ]
    for process in processes:
        _, stderr = process.communicate(timeout=60)
        assert process.returncode == 0, stderr.decode()

    entries, corrupt = RunRegistry(runs).entries()
    assert corrupt == 0
    assert len(entries) == 2 * writes_per_process
    assert len({e.run_id for e in entries}) == 2 * writes_per_process
    by_writer = {name: sum(1 for e in entries if e.argv[1] == name)
                 for name in ("alpha", "beta")}
    assert by_writer == {"alpha": writes_per_process,
                         "beta": writes_per_process}
    assert not list(runs.glob("*.tmp.*"))  # no stragglers either


# -- CLI integration -------------------------------------------------------

def test_cli_invocations_are_recorded(tmp_path, capsys):
    runs = tmp_path / "runs"
    assert main(["--runs-dir", str(runs), "estimate", "supernpu"]) == 0
    assert main(["--runs-dir", str(runs), "simulate", "supernpu", "alexnet",
                 "--batch", "1"]) == 0
    capsys.readouterr()
    assert main(["--runs-dir", str(runs), "runs", "list"]) == 0
    out = capsys.readouterr().out
    assert "2 shown" in out
    assert "estimate supernpu" in out
    assert "simulate supernpu alexnet --batch 1" in out


def test_cli_runs_show_and_diff(tmp_path, capsys):
    runs = tmp_path / "runs"
    base = ["--runs-dir", str(runs)]
    for batch in ("1", "2"):
        assert main(base + ["simulate", "supernpu", "alexnet", "--batch", batch,
                            "--metrics-out", str(tmp_path / f"m{batch}.json")]) == 0
    capsys.readouterr()
    registry = RunRegistry(runs)
    entries, _ = registry.entries()
    ids = [e.run_id for e in entries]
    assert len(ids) == 2

    assert main(base + ["runs", "show", ids[0]]) == 0
    out = capsys.readouterr().out
    assert "sim.cycles" in out and "batch" in out

    assert main(base + ["runs", "diff", ids[1], ids[0]]) == 0
    out = capsys.readouterr().out
    assert "batch" in out and "1 -> 2" in out
    assert "sim.cycles" in out


def test_cli_plain_invocation_records_manifest(tmp_path, capsys):
    """Provenance lands in the registry even with instrumentation off."""
    runs = tmp_path / "runs"
    assert main(["--runs-dir", str(runs), "simulate", "supernpu", "alexnet",
                 "--batch", "4"]) == 0
    entries, _ = RunRegistry(runs).entries()
    assert len(entries) == 1
    entry = entries[0]
    assert entry.manifest["design"] == "SuperNPU"
    assert entry.manifest["workload"] == "AlexNet"
    assert entry.manifest["batch"] == 4
    assert entry.counters == {}  # obs runtime stayed off


def test_cli_runs_json_envelopes(tmp_path, capsys):
    runs = tmp_path / "runs"
    assert main(["--runs-dir", str(runs), "estimate", "supernpu"]) == 0
    capsys.readouterr()
    assert main(["--runs-dir", str(runs), "runs", "list", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["command"] == "runs"
    assert len(document["data"]["runs"]) == 1
    assert document["data"]["runs"][0]["command"] == "estimate"


def test_cli_no_registry_flag(tmp_path, capsys):
    runs = tmp_path / "runs"
    assert main(["--runs-dir", str(runs), "--no-registry",
                 "estimate", "supernpu"]) == 0
    capsys.readouterr()
    assert main(["--runs-dir", str(runs), "runs", "list"]) == 0
    assert "0 shown" in capsys.readouterr().out


def test_cli_failed_command_records_exit_code(tmp_path, capsys):
    runs = tmp_path / "runs"
    assert main(["--runs-dir", str(runs), "estimate", "meganpu"]) == 2
    capsys.readouterr()
    entries, _ = RunRegistry(runs).entries()
    assert len(entries) == 1
    assert entries[0].exit_code == 2


def test_cli_runs_query_not_recorded(tmp_path, capsys):
    runs = tmp_path / "runs"
    assert main(["--runs-dir", str(runs), "runs", "list"]) == 0
    assert main(["--runs-dir", str(runs), "runs", "list"]) == 0
    capsys.readouterr()
    entries, _ = RunRegistry(runs).entries()
    assert entries == []


def test_cli_runs_bad_queries(tmp_path, capsys):
    base = ["--runs-dir", str(tmp_path / "runs")]
    assert main(base + ["runs", "show"]) == 2
    assert "exactly one run id" in capsys.readouterr().err
    assert main(base + ["runs", "diff", "onlyone"]) == 2
    assert "two run ids" in capsys.readouterr().err
    assert main(base + ["runs", "show", "missing"]) == 2
    assert "no recorded run" in capsys.readouterr().err
