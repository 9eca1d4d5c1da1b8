"""Parallel sweep executor with a content-addressed result cache.

Every paper figure is a *sweep*: the same measurement function evaluated at
a grid of configurations (stacks, batch sizes, offered loads, thread
counts). Each grid cell is an independent simulation, so the cells can run
in worker processes; and each cell is a pure function of its configuration
plus the calibration constants, so its result can be cached by content
hash and reused across runs and figures.

A :class:`SweepPoint` names the measurement function by dotted path
(``"repro.harness.runner:run_closed_loop"``) plus a JSON-able kwargs dict;
:func:`run_sweep` evaluates a list of points — serially, or fanned across a
``ProcessPoolExecutor`` with ``jobs > 1`` — and returns the results in
input order.

Determinism contract: the three evaluation paths (serial, parallel, cache
hit) return bit-identical results. Two mechanisms enforce this:

- every result is normalized through the same canonical-JSON encoding
  (``decode(encode(result))``) whether it was just computed or read back
  from the cache, so float identity is the JSON round-trip in all paths
  (exact in Python 3: ``float(repr(x)) == x``);
- each point is a pure function of its parameters — simulations seed their
  own RNGs — so a worker process computes the same bytes as the parent
  would. ``tests/harness/test_sweep.py`` asserts all of this.

Cache entries live under ``benchmarks/results/cache/`` as
``<sha256>.json``; the key covers :data:`CACHE_VERSION`, the function
path, the canonical parameters, and a fingerprint of
``DEFAULT_CALIBRATION`` and the baseline stacks' ``BASELINES`` rows, so
editing the timing model invalidates every cached result automatically.
Writes are atomic (``tmp + os.replace``) so parallel sweeps sharing a
cache directory never tear an entry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import tempfile
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.harness.runner import BenchResult

#: Bump when the result encoding or the meaning of cached entries changes.
#: 2: zero-yield try_* fast paths re-baselined equal-timestamp grant order.
#: 3: canonical injection keys made per-host event order window-independent;
#:    sharded results grew window-accounting fields (window_mode etc.).
#: 4: the reliable transport NACKs wire gaps on arrival (chaos results).
CACHE_VERSION = 4

#: Repo-level default cache directory (benchmarks/results/cache/).
DEFAULT_CACHE_DIR = os.path.join(
    os.path.abspath(os.path.join(os.path.dirname(__file__),
                                 "..", "..", "..")),
    "benchmarks", "results", "cache",
)


def _canonical(params: Dict[str, Any]) -> str:
    """Canonical JSON for hashing and worker hand-off (sorted, compact)."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def calibration_fingerprint() -> str:
    """Short digest of the default timing-model constants.

    Covers ``DEFAULT_CALIBRATION`` and every baseline stack's row of
    ``BASELINES``. Part of every cache key: changing any calibrated
    latency silently changes every simulated result, so it must
    invalidate the cache.
    """
    from repro.hw.calibration import DEFAULT_CALIBRATION
    from repro.stacks.registry import BASELINES

    values = {
        field.name: getattr(DEFAULT_CALIBRATION, field.name)
        for field in dataclasses.fields(DEFAULT_CALIBRATION)
    }
    values["baselines"] = {
        name: dataclasses.asdict(row) for name, row in BASELINES.items()
    }
    blob = json.dumps(values, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One grid cell: a measurement function plus its kwargs.

    ``fn`` is a ``"package.module:function"`` path so the point is
    picklable and resolvable inside worker processes; ``params`` must be
    JSON-serializable (they are part of the cache key).
    """

    fn: str
    params: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        module, sep, attr = self.fn.partition(":")
        if not (module and sep and attr):
            raise ValueError(
                f"fn must look like 'package.module:function', got {self.fn!r}"
            )
        try:
            _canonical(self.params)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"params for {self.fn} are not JSON-serializable: {exc}"
            ) from exc

    def resolve(self) -> Callable:
        module_name, _, attr = self.fn.partition(":")
        module = importlib.import_module(module_name)
        try:
            return getattr(module, attr)
        except AttributeError:
            raise AttributeError(
                f"{module_name} has no attribute {attr!r}"
            ) from None

    def cache_key(self, fingerprint: Optional[str] = None) -> str:
        if fingerprint is None:
            fingerprint = calibration_fingerprint()
        blob = _canonical({
            "version": CACHE_VERSION,
            "fn": self.fn,
            "params": self.params,
            "calibration": fingerprint,
        })
        return hashlib.sha256(blob.encode()).hexdigest()


# -- result encoding -----------------------------------------------------------

_BENCH_RESULT_KIND = "BenchResult"


def encode_result(value: Any) -> Any:
    """Encode a measurement result into JSON-able data (recursive)."""
    if isinstance(value, BenchResult):
        return {"__kind__": _BENCH_RESULT_KIND, "value": value.to_dict()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # Generic dataclass results (e.g. KvsWorkloadResult) flatten to
        # plain dicts; they decode as dicts, identically in every path.
        return encode_result(dataclasses.asdict(value))
    if isinstance(value, dict):
        if "__kind__" in value:
            raise ValueError("result dicts must not use the '__kind__' key")
        return {key: encode_result(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_result(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"sweep results must be JSON-able data or BenchResult, "
        f"got {type(value).__name__}"
    )


def decode_result(value: Any) -> Any:
    """Inverse of :func:`encode_result` (tuples come back as lists)."""
    if isinstance(value, dict):
        if value.get("__kind__") == _BENCH_RESULT_KIND:
            return BenchResult.from_dict(value["value"])
        return {key: decode_result(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_result(item) for item in value]
    return value


def execute_point(fn_path: str, params_json: str) -> str:
    """Worker entry point: run one sweep point, return canonical JSON.

    Module-level (picklable) and string-typed at both ends so the parent
    can cache the returned payload byte-for-byte.
    """
    point = SweepPoint(fn_path, json.loads(params_json))
    result = point.resolve()(**point.params)
    return json.dumps(encode_result(result), sort_keys=True,
                      separators=(",", ":"))


# -- cache ---------------------------------------------------------------------


def _cache_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, f"{key}.json")


def _cache_read(cache_dir: str, key: str) -> Optional[str]:
    try:
        with open(_cache_path(cache_dir, key), "r") as handle:
            return handle.read()
    except (OSError, ValueError):
        return None


def _cache_write(cache_dir: str, key: str, payload: str) -> None:
    """Atomic write: a reader never sees a partially written entry."""
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp_path, _cache_path(cache_dir, key))
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def clear_cache(cache_dir: Optional[str] = None) -> int:
    """Delete all cache entries; returns how many were removed."""
    cache_dir = cache_dir or DEFAULT_CACHE_DIR
    removed = 0
    try:
        entries = os.listdir(cache_dir)
    except OSError:
        return 0
    for entry in entries:
        if entry.endswith(".json") or entry.endswith(".tmp"):
            try:
                os.unlink(os.path.join(cache_dir, entry))
                removed += 1
            except OSError:
                pass
    return removed


def cache_info(cache_dir: Optional[str] = None) -> Dict[str, Any]:
    """Entry count + total bytes of the cache directory."""
    cache_dir = cache_dir or DEFAULT_CACHE_DIR
    entries = 0
    total_bytes = 0
    try:
        names = os.listdir(cache_dir)
    except OSError:
        names = []
    for name in names:
        if name.endswith(".json"):
            entries += 1
            try:
                total_bytes += os.path.getsize(os.path.join(cache_dir, name))
            except OSError:
                pass
    return {"dir": cache_dir, "entries": entries, "bytes": total_bytes}


# -- executor ------------------------------------------------------------------


def _accepts_param(point: SweepPoint, name: str) -> bool:
    """True when the point's function takes an explicit ``name`` kwarg."""
    import inspect

    try:
        signature = inspect.signature(point.resolve())
    except (TypeError, ValueError):
        return False
    return name in signature.parameters


def _inject_param(points: List[SweepPoint], name: str,
                  value: Any) -> List[SweepPoint]:
    """Inject ``name=value`` into every point that can take it.

    Points whose params already pin the key, and functions without the
    parameter, are left untouched — the same opt-in contract ``shards``
    injection has always had.
    """
    return [
        SweepPoint(point.fn, {**point.params, name: value})
        if name not in point.params and _accepts_param(point, name)
        else point
        for point in points
    ]


def run_sweep(
    points: Iterable[SweepPoint],
    jobs: int = 1,
    cache: bool = True,
    cache_dir: Optional[str] = None,
    stats: Optional[Dict[str, int]] = None,
    shards: Optional[int] = None,
    mode: Optional[str] = None,
    window_mode: Optional[str] = None,
) -> List[Any]:
    """Evaluate sweep points; results come back in input order.

    ``jobs > 1`` fans cache misses across a process pool. ``stats``, when
    given, is filled with ``{"hits": n, "misses": n}``.

    ``shards`` injects a shard count into every point whose measurement
    function takes an explicit ``shards`` parameter and whose params do not
    already pin one (points that set their own, and shard-unaware
    functions, are left untouched). This is orthogonal to ``jobs``: jobs
    parallelize *across* grid cells, shards parallelize the event loops
    *inside* one cell (see :mod:`repro.sim.sharded`). Because sharded runs
    are bit-identical to serial ones, the injected value changes the cache
    key but never the measured payload beyond its recorded ``shards``
    field.

    ``mode`` injects a latency-recording mode (``"exact"`` or
    ``"sketch"``, see :mod:`repro.obs.sketch`) under the same opt-in
    contract. Unlike ``shards``, sketch mode *does* change the measured
    percentiles (within the sketch's relative-accuracy bound), which is
    why it participates in the cache key and is never injected by
    default — signature-gated sweeps keep exact results untouched.

    ``window_mode`` (``"fixed"`` or ``"adaptive"``, see
    :mod:`repro.sim.sharded`) follows the ``shards`` contract exactly:
    adaptive horizons are bit-identical to fixed windows, so the injected
    value changes only engine accounting, never the measured payload.
    """
    points = list(points)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if shards is not None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        points = _inject_param(points, "shards", shards)
    if mode is not None:
        from repro.sim.stats import _check_mode

        points = _inject_param(points, "mode", _check_mode(mode))
    if window_mode is not None:
        if window_mode not in ("fixed", "adaptive"):
            raise ValueError(
                f"window_mode must be 'fixed' or 'adaptive', "
                f"got {window_mode!r}"
            )
        points = _inject_param(points, "window_mode", window_mode)
    cache_dir = cache_dir or DEFAULT_CACHE_DIR
    fingerprint = calibration_fingerprint()
    keys = [point.cache_key(fingerprint) for point in points]

    payloads: List[Optional[str]] = [None] * len(points)
    pending: List[int] = []
    hits = 0
    for index, key in enumerate(keys):
        text = _cache_read(cache_dir, key) if cache else None
        if text is None:
            pending.append(index)
        else:
            payloads[index] = text
            hits += 1

    if pending:
        if jobs > 1 and len(pending) > 1:
            # Only a parallel sweep needs the pool (and multiprocessing).
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = [
                    pool.submit(execute_point, points[index].fn,
                                _canonical(points[index].params))
                    for index in pending
                ]
                for index, future in zip(pending, futures):
                    payloads[index] = future.result()
        else:
            for index in pending:
                payloads[index] = execute_point(
                    points[index].fn, _canonical(points[index].params)
                )
        if cache:
            for index in pending:
                _cache_write(cache_dir, keys[index], payloads[index])

    if stats is not None:
        stats["hits"] = hits
        stats["misses"] = len(pending)
    return [decode_result(json.loads(text)) for text in payloads]
