"""The machine and build a result was measured on."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def fingerprint(root: Path, blas_threads: int, load_threads: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "load_threads": load_threads,
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` directly; "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"
