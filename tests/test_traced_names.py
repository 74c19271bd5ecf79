"""The benchmark's traced names against the package.

`bench/harness.py` lists in TRACED the functions a traced benchmark run
rebinds, by module and name.  A name that no longer resolves breaks only
the traced run, so each is checked here, with the harness imported from
its file and nothing written beside it.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parent.parent / "bench" / "harness.py"


def traced_names() -> tuple:
    spec = importlib.util.spec_from_file_location("bench_harness", HARNESS)
    harness = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no bytecode cache under bench/
    sys.modules[spec.name] = harness  # its dataclasses look it up there
    try:
        spec.loader.exec_module(harness)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return harness.TRACED


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_is_a_function(name):
    module_name, attr = name.split(".")
    module = importlib.import_module(f"locc_audit.{module_name}")
    assert inspect.isfunction(getattr(module, attr, None))
