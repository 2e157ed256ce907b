"""The names `bench/tracing.py` reads from `gspurify` must exist.

The tracer skips a name that is gone and reports each metric built on it as
absent, so a rename in `src` would silently blank a per-layer metric. This
test reads the tracer as it is and fails instead.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

from gspurify.analysis import ThresholdReport

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names(tracing) -> set[str]:
    """Every "layer.name" string in the tracer's source that is not one of
    its own metric names, plus the private names it wraps per layer."""
    pattern = re.compile(rf"({'|'.join(tracing.LAYERS)})\.[A-Za-z_]\w*")
    literals = {node.value for node in ast.walk(ast.parse(TRACING.read_text()))
                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    names = {s for s in literals if pattern.fullmatch(s)} - set(tracing.UNITS)
    names |= {f"{layer}.{attr}" for layer, attrs in tracing.PRIVATE.items() for attr in attrs}
    return names


def test_every_name_the_tracer_reads_exists(tracing):
    names = _traced_names(tracing)
    listed = (tracing.MULTIPLIERS + tracing.TRAJECTORIES + tracing.STEPS + tracing.CHANNELS
              + tracing.INPUT_BUILDERS + tuple(tracing.HOOKS))
    assert set(listed) <= names
    assert {"oracle.dense_protocol_step", "oracle.graph_basis_twirl",
            "selfcheck.run_equivalence_suite"} <= names
    missing = []
    for name in sorted(names):
        layer, attr = name.split(".")
        if not callable(getattr(importlib.import_module(f"gspurify.{layer}"), attr, None)):
            missing.append(name)
    assert not missing, f"bench/tracing.py reads names gspurify no longer has: {missing}"


def test_what_the_tracer_hooks_read_exists(tracing):
    from gspurify.transforms import wht_bits

    assert {"n", "mask"} <= set(inspect.signature(wht_bits).parameters)
    for name in tracing.MULTIPLIERS:
        layer, attr = name.split(".")
        assert hasattr(getattr(importlib.import_module(f"gspurify.{layer}"), attr), "cache_info"), name
    assert "rounds_used" in {f.name for f in dataclasses.fields(ThresholdReport)}
