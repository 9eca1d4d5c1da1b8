"""Shared helpers for the benchmark suite.

Each catalogue entry's run prints its paper-vs-measured text table and
archives it under ``benchmarks/results/``, the files EXPERIMENTS.md
embeds.
"""

import os
import tempfile

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
os.makedirs(RESULTS_DIR, exist_ok=True)


def scrub_path(path: str) -> str:
    """Reduce a local filesystem path to its basename for committed output.

    Benchmark JSON that lands in the repo must not leak machine-local
    absolute paths (scratch directories, usernames); the basename is enough
    to identify which tree a baseline measurement came from.
    """
    return os.path.basename(os.path.normpath(path))


def emit(name: str, text: str) -> None:
    """Print a result table and archive it (atomically).

    The write goes through a temp file + ``os.replace`` so a concurrent
    reader (or a benchmark killed mid-write) never observes a truncated
    result file.
    """
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    fd, tmp_path = tempfile.mkstemp(dir=RESULTS_DIR, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text + "\n")
        os.replace(tmp_path, os.path.join(RESULTS_DIR, f"{name}.txt"))
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
