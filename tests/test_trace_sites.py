"""The benchmark's trace sites stay resolvable.

`perfbench/runner.py` replaces engine attributes by name and stops only at
run time when one is missing, so a deletion in the engine could break a
traced benchmark run while every other test passes. This test loads the
runner by path and looks every name it replaces up in the engine.
"""

import importlib
import importlib.util
from pathlib import Path

RUNNER = Path(__file__).resolve().parents[1] / "perfbench" / "runner.py"


def test_every_name_the_benchmark_runner_replaces_is_an_engine_callable():
    spec = importlib.util.spec_from_file_location("perfbench_runner", RUNNER)
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    sites = (
        [(mod, None, attr) for mod, attr, _ in runner.FUNCTION_SITES]
        + [(mod, cls, attr) for mod, cls, attr, _ in runner.METHOD_SITES]
        + [("evalmgr", cls, "evaluate") for cls in runner.EVALUATOR_CLASSES]
        + [("cli", None, "concurrent_search"), ("cli", None, "full_search"),
           ("evalmgr", "ExternalEvaluator", "start"), ("evalmgr", "ResultStore", "load")]
    )
    missing = []
    for mod, cls, attr in sites:
        owner = importlib.import_module(f"subnetsearch.{mod}")
        if cls is not None:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(".".join(filter(None, (mod, cls, attr))))
    assert not missing, f"perfbench/runner.py replaces names the engine lacks: {missing}"
