"""What a result was measured on: machine, library versions, and which copy of thermolight."""

from __future__ import annotations

import glob
import hashlib
import os
import platform
import subprocess
from importlib import metadata


class BenchmarkError(RuntimeError):
    """The benchmark cannot measure this checkout; no result is printed."""


def checkout_init(root: str) -> str:
    return os.path.realpath(os.path.join(root, "src", "thermolight", "__init__.py"))


def check_copy(root: str, path: str) -> None:
    """Refuse to measure a thermolight imported from anywhere but the checkout's src/."""
    if os.path.realpath(path) != checkout_init(root):
        raise BenchmarkError(f"thermolight imported from {path}, not from this checkout's src/")


def child_env(root: str) -> dict:
    """Environment for child interpreters: the checkout's src/ first on the import path."""
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _caches() -> dict[str, str]:
    """Per-core cache sizes of cpu0 as the kernel reports them, e.g. {'L2': '2048K'}."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(os.path.join(index, f)) for f in ("level", "type", "size"))
        if level and size and kind != "Instruction":
            out[f"L{level}" + ("d" if kind == "Data" else "")] = size
    return out


def steal_ticks() -> tuple[int, int] | None:
    """(steal, total) clock ticks over all CPUs since boot, or None where /proc/stat is missing.

    Steal is time the host ran something else while this machine's CPUs
    wanted to run; a run with a high share of it was measured on a busy host.
    """
    line = (_read("/proc/stat") or "").split("\n", 1)[0].split()
    if len(line) < 9 or line[0] != "cpu":
        return None
    ticks = [int(x) for x in line[1:]]
    return ticks[7], sum(ticks)


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_commit(root: str) -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def tree_digest(directory: str) -> str:
    """sha256 over the relative paths and bytes of every source file under directory."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(directory):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, directory).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(root: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(root),
        "src_digest": tree_digest(os.path.join(root, "src")),
    }
