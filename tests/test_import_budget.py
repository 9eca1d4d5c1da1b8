"""A run imports only what it uses.

Every package ``__init__`` exports its public names lazily
(:func:`repro.lazy_exports`), and heavy standard-library imports live in
the function that needs them. An echo run therefore never loads the
experiment catalogue, the sweep's process pool, the cluster harness, the
sharded engine, the applications, a baseline stack or the Perfetto export.
The import checks run in a fresh interpreter, because this one has
imported everything the other tests use.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro
import repro.stacks

#: Modules (and everything under them) an echo run must not load.
UNUSED_BY_ECHO = (
    "multiprocessing",
    "concurrent.futures",
    "repro.harness.experiments",
    "repro.harness.sweep",
    "repro.harness.cluster",
    "repro.sim.sharded",
    "repro.apps",
    "repro.obs.chrome_trace",
) + tuple(
    f"repro.stacks.{module.name}"
    for module in pkgutil.iter_modules(repro.stacks.__path__)
    if module.name not in ("base", "dagger", "registry")
)

PACKAGES = ["repro"] + [
    module.name
    for module in pkgutil.walk_packages(repro.__path__, "repro.")
    if module.ispkg
]


def run_fresh(code: str):
    """Run ``code`` in a new interpreter; returns the JSON it prints."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_echo_run_loads_no_unused_module():
    loaded = run_fresh(
        "import json, sys\n"
        "import repro.harness, repro.chaos.rig\n"
        "rig = repro.harness.EchoRig(batch_size=4)\n"
        "result = rig.closed_loop(window=64, nreq=100, warmup_ns=0)\n"
        "print(json.dumps([result.count, sorted(sys.modules)]))\n"
    )
    count, modules = loaded
    assert count == 100
    unused = sorted(
        module for module in modules
        if any(module == name or module.startswith(name + ".")
               for name in UNUSED_BY_ECHO)
    )
    assert unused == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in getattr(module, "__all__", ()):
        assert getattr(module, name) is not None, name
        assert name in listed, name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'Nope'"):
        repro.Nope
    with pytest.raises(ImportError):
        from repro.sim import Nope  # noqa: F401


def test_breakdown_export_survives_its_submodule_import():
    # repro.obs.breakdown is both a submodule and the function repro.obs
    # exports under that name; importing the submodule must not rebind it.
    kind = run_fresh(
        "import json\n"
        "import repro.obs.breakdown\n"
        "from repro.obs import breakdown\n"
        "print(json.dumps(type(breakdown).__name__))\n"
    )
    assert kind == "function"
