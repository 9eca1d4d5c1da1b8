"""Content-hash fingerprint of a small sweep's result cache.

The sweep cache's determinism contract says a given (function, params,
calibration) triple produces byte-identical canonical-JSON payloads —
across serial/parallel execution *and across Python versions*. This tool
makes the cross-version half checkable in CI: run the same small sweep
under two interpreters into separate cache directories, fingerprint each,
and diff the JSON outputs. Any pickle/dict-ordering/float-repr drift
between 3.9 and 3.12 shows up as a digest mismatch.

The sweep covers the point families CI exercises elsewhere: a
closed-loop echo, a telemetry-enabled open-loop point, a Fig 14
multi-tenant cell (whose payload round-trips the tenant dimension), and a
closed-loop echo over a modeled baseline stack (whose cache key covers
the baseline calibration rows).

Output JSON: ``{"python": "3.12.3", "entries": {<cache key>: <sha256 of
payload>}, "combined": <sha256 over all entries>}`` — ``python`` is
informational; ``entries``/``combined`` must match across versions.

Usage::

    PYTHONPATH=src python benchmarks/perf/sweep_fingerprint.py
        --cache-dir /tmp/sweep39 --out fp39.json
"""

import argparse
import hashlib
import json
import os
import platform
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                         "..", ".."))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.harness.sweep import SweepPoint, run_sweep  # noqa: E402


def fingerprint_points():
    """A small sweep touching each CI-exercised point family."""
    return [
        SweepPoint("repro.harness.runner:run_closed_loop",
                   dict(batch_size=4, nreq=2000)),
        SweepPoint("repro.harness.runner:run_open_loop",
                   dict(load_mrps=2.0, nreq=1500, telemetry=True)),
        SweepPoint("repro.harness.experiments:_fig14_point",
                   dict(noisy_mrps=4.0, steady_mrps=0.5, tenants=3,
                        nreq_total=1500)),
        SweepPoint("repro.harness.runner:run_closed_loop",
                   dict(stack_name="linux-tcp", nreq=2000)),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True,
                        help="cache directory to sweep into (should start "
                             "empty for a clean fingerprint)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the fingerprint JSON here (default: "
                             "stdout only)")
    args = parser.parse_args(argv)

    run_sweep(fingerprint_points(), cache=True, cache_dir=args.cache_dir)
    entries = {}
    for name in sorted(os.listdir(args.cache_dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(args.cache_dir, name), "rb") as handle:
            entries[name] = hashlib.sha256(handle.read()).hexdigest()
    if not entries:
        print(f"FAIL: no cache entries in {args.cache_dir}", file=sys.stderr)
        return 1
    combined = hashlib.sha256(
        json.dumps(entries, sort_keys=True).encode()
    ).hexdigest()
    document = {
        "python": platform.python_version(),
        "entries": entries,
        "combined": combined,
    }
    text = json.dumps(document, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
