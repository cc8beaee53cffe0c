"""The names the benchmark's span tracer wraps exist in the package.

``perfbench/tracer.py`` skips a target the package no longer has, and the
benchmark then refuses the trace.  This resolves every target the way
``Tracer.install`` does, without installing it: installing rewraps package
functions for the rest of the test process.
"""

import importlib
import importlib.util
import os

from causaltext import cli

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_every_tracer_target_resolves():
    missing = []
    for modname, path in tracer.TARGETS:
        owner_name, _, attr = path.rpartition(".")
        owner = importlib.import_module(modname)
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if owner is None or vars(owner).get(attr) is None:
            missing.append(f"{modname}.{path}")
    assert not missing


def test_every_traced_cli_command_has_a_callback():
    assert all(getattr(getattr(cli, cmd, None), "callback", None) is not None for cmd in tracer.CLI_COMMANDS)
