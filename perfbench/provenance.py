"""What produced a result: code, inputs, interpreter, libraries and machine."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path


def _git_commit(root: Path) -> str:
    """HEAD of the repository rooted at ``root``; not of one that merely contains it."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return "unavailable"
    return lines[1]


def _source_digest(root: Path) -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    """Cache sizes of cpu0 as the kernel reports them, keyed like 'L1d'."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    out = {}
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def collect(root: Path, seed: int, blas_threads: int, cpu: int) -> dict:
    import numpy

    return {
        "pinned_cpu": cpu,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "executable": os.path.basename(sys.executable),
    }
