"""The benchmark tracer's contract with the package.

``perfbench/tracer.py`` wraps package functions at the names their callers
look up, and its notes read ``pattern.domain_boundaries``. A renamed or
reshaped name breaks the traced benchmark run, so this test installs the
tracer on the CLI's grating and design paths and checks its counts.
"""

import importlib.util
import inspect
import json
from pathlib import Path

from qpmdesign import cli, config, dispersion, modesolver, pipeline, qpm, spdc

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    """The package modules and the classes they define."""
    for module in (cli, config, dispersion, modesolver, pipeline, qpm, spdc):
        yield module
        yield from (obj for _, obj in inspect.getmembers(module, inspect.isclass)
                    if obj.__module__ == module.__name__)


def test_tracer_counts_grating_and_restores_package(capsys):
    tracing = load_tracer()
    before = [(owner, dict(vars(owner))) for owner in namespaces()]
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        tracer.begin_request("grating")
        assert cli.main(["grating"]) == cli.EXIT_OK
        tracer.end_request()
        check = json.loads(capsys.readouterr().out)
        tracer.begin_request("design")
        assert cli.main(["design"]) == cli.EXIT_OK
        tracer.end_request()
    finally:
        uninstall()

    n = check["n_domain_boundaries"]
    counts = tracer.signatures(["grating", "design"])
    assert counts["grating"]["qpm.synthesize_pattern.boundaries"] == n
    assert counts["grating"]["qpm.fourier_component.edge_evals"] == 2 * (n + 2)
    assert counts["grating"]["qpm.fourier_component"] == 2
    for request in ("grating", "design"):
        assert counts[request]["cli.main"] == 1
        assert counts[request]["pipeline.design_point"] == 1
        assert counts[request]["modesolver.solve_mode"] > 0
    for owner, attrs in before:
        after = vars(owner)
        assert after.keys() == attrs.keys(), owner
        assert all(after[name] is value for name, value in attrs.items()), owner
