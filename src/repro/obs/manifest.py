"""Run manifests: what exactly produced this trace / metrics file.

A :class:`RunManifest` pins down one top-level run — which design (by
name *and* content hash, so edited config files are distinguishable),
which workload and batch, which cell-library technology, which package
version — plus the measured wall time.  Manifests are embedded in every
exported metrics/trace JSON so results stay attributable across PRs.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional


def environment_provenance() -> Dict[str, Any]:
    """Host/interpreter facts that make cross-machine comparisons readable.

    Two runs' exported files compare meaningfully only when you know
    whether the runs shared a python version, numpy version, and machine —
    this captures exactly that, nothing more (no env vars, no paths).
    """
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except Exception:
        numpy_version = None
    env: Dict[str, Any] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }
    try:
        env["hostname"] = socket.gethostname()
    except Exception:
        env["hostname"] = None
    return env


def config_content_hash(config: Any) -> str:
    """Stable short hash of an :class:`NPUConfig`'s full content.

    Hashes the canonical (sorted-key) JSON serialization, so two configs
    with identical fields hash identically regardless of provenance
    (named design vs ``--config-file``).
    """
    from repro.core.config_io import dumps

    digest = hashlib.sha256(dumps(config).encode("utf-8")).hexdigest()
    return digest[:16]


@dataclass
class RunManifest:
    """Provenance record for one top-level run."""

    command: str
    design: Optional[str] = None
    config_hash: Optional[str] = None
    workload: Optional[str] = None
    batch: Optional[int] = None
    technology: Optional[str] = None
    package_version: str = ""
    wall_time_s: Optional[float] = None
    created_unix: float = field(default_factory=time.time)
    environment: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def capture(
        cls,
        command: str,
        config: Any = None,
        workload: Any = None,
        batch: Optional[int] = None,
        technology: Optional[str] = None,
        wall_time_s: Optional[float] = None,
        **extra: Any,
    ) -> "RunManifest":
        """Build a manifest from live objects (config / network) or names."""
        import repro

        design = None
        config_hash = None
        if config is not None:
            design = getattr(config, "name", str(config))
            try:
                config_hash = config_content_hash(config)
            except Exception:
                config_hash = None
        workload_name = None
        if workload is not None:
            workload_name = getattr(workload, "name", str(workload))
        return cls(
            command=command,
            design=design,
            config_hash=config_hash,
            workload=workload_name,
            batch=batch,
            technology=technology,
            package_version=getattr(repro, "__version__", "unknown"),
            wall_time_s=wall_time_s,
            environment=environment_provenance(),
            extra=dict(extra),
        )

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        extra = data.pop("extra")
        data.update(extra)
        return data

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
