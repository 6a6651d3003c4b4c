"""Golden CLI transcript: deterministic stdouts pinned byte for byte.

Each command below runs in-process through ``repro.cli.main`` and its
stdout is compared with ``tests/golden/cli_transcript.json``.  ``--json``
envelopes drop their ``manifest`` key (it carries timestamps, hosts and
wall times); everything else must match exactly, so a refactor of the
CLI, ``repro.api`` or the observability layer cannot shift a number, a
column or a key without failing here.

The second half pins the profiler's stdout contract: a command wrapped
in ``supernpu hotspot --hotspot-out FILE`` prints exactly what the
unprofiled command prints.

After a deliberate output change, regenerate the golden file with::

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_transcript.json"

COMMANDS = (
    "estimate supernpu --json",
    "simulate supernpu mobilenet --json",
    "evaluate --json",
    "compare baseline supernpu --json",
    "bottleneck supernpu mobilenet --json",
    "plan show fig23_evaluate --json",
    "table 1",
    "table 2",
    "table 3",
    "workloads",
    "validate",
    "report supernpu mobilenet",
    "trace baseline vgg16 conv3_1",
)

PROFILED = (
    "simulate supernpu mobilenet",
    "evaluate",
)


def _stdout(command: str) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        exit_code = main([*command.split()])
    assert exit_code == 0, command
    return buffer.getvalue()


def _canonical(command: str, out: str) -> str:
    """The stdout with a ``--json`` envelope's ``manifest`` key removed."""
    if "--json" not in command.split():
        return out
    document = json.loads(out)
    # The envelope is printed as sorted, 2-space-indented JSON; pin that
    # layout before re-rendering it without the manifest.
    assert json.dumps(document, indent=2, sort_keys=True) + "\n" == out
    document.pop("manifest", None)
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_matches_golden(command, golden):
    assert _canonical(command, _stdout(command)) == golden[command]


#: sha256 of the ``evaluate --json`` transcript before the envelope's
#: ``data`` became the shared evaluation record (serve's ``/v1/evaluate``).
EVALUATE_BEFORE_SHARED_RECORD = (
    "902fe3bfd0727fc970dbc38d7571068cbf8943a89c6f0915039571ed5663caef")


def test_evaluate_record_only_added_keys(golden):
    """Sharing the record with serve added ``designs`` and
    ``mean_mac_per_s``; every other key and value kept its bytes."""
    document = json.loads(golden["evaluate --json"])
    added = {key: document["data"].pop(key)
             for key in ("designs", "mean_mac_per_s")}
    assert added["designs"] == list(added["mean_mac_per_s"])
    before = json.dumps(document, indent=2, sort_keys=True) + "\n"
    assert (hashlib.sha256(before.encode("utf-8")).hexdigest()
            == EVALUATE_BEFORE_SHARED_RECORD)


#: sha256 of the ``bottleneck --json`` transcript when it printed its
#: own document, before the envelope carried it as ``data``.
BOTTLENECK_BEFORE_ENVELOPE = (
    "fc0afd8f654b7382afba3a70b18a6dbed1263f4a47b87ee6765f06ad35dca76a")


def test_bottleneck_record_is_the_old_document(golden):
    """Moving ``bottleneck --json`` into the envelope kept its document:
    the envelope's ``data``, rendered alone, has the old bytes."""
    document = json.loads(golden["bottleneck supernpu mobilenet --json"])
    assert (document["command"], document["design"], document["workload"]) == (
        "bottleneck", "SuperNPU", "MobileNet")
    before = json.dumps(document["data"], indent=2, sort_keys=True) + "\n"
    assert (hashlib.sha256(before.encode("utf-8")).hexdigest()
            == BOTTLENECK_BEFORE_ENVELOPE)


@pytest.mark.parametrize("command", PROFILED)
def test_hotspot_wrapper_leaves_stdout_unchanged(command, tmp_path):
    plain = _stdout(command)
    collapsed = tmp_path / "hotspot.collapsed"
    assert _stdout(f"hotspot --hotspot-out {collapsed} {command}") == plain
    assert collapsed.read_text(encoding="utf-8")


def _regenerate() -> None:
    transcript = {command: _canonical(command, _stdout(command))
                  for command in COMMANDS}
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(transcript, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(transcript)} transcripts to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
