"""Package namespaces: lazy re-exports keep the eager API.

Every package ``__init__`` resolves its public names on first access
(PEP 562, :func:`repro._lazy.lazy_exports`).  A name must still be the
defining module's own object, ``dir()`` must list it before and after
it resolves, and the backend registry must list every built-in
substrate without importing one.  The checks run in a fresh
interpreter, so each name resolves from a cold namespace.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

PACKAGES = (
    "repro",
    "repro.core",
    "repro.signals",
    "repro.pipeline",
    "repro.estimators",
    "repro.scanner",
    "repro.engine",
)

#: Exported values with no ``__module__`` of their own, by defining
#: module.
CONSTANTS = {
    "MODULATION_CLASSES": "repro.signals.wideband",
    "SCENARIO_PRESETS": "repro.signals.wideband",
    "PLAN_KEY_FIELDS": "repro.engine.cache",
    "MAX_TESTED_JOBS": "repro.engine.plans",
}


def _run(code: str, *args: str) -> str:
    """Run *code* in a fresh interpreter; it must exit cleanly."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_is_its_defining_modules_object(package):
    _run(
        f"""
        import importlib

        package = importlib.import_module({package!r})
        constants = {CONSTANTS!r}
        unresolved = set(dir(package))
        for name in package.__all__:
            if name == "__version__":
                continue
            assert name in unresolved, f"dir() misses {{name}} before use"
            value = getattr(package, name)
            owner = constants.get(name) or value.__module__
            defined = getattr(importlib.import_module(owner), name)
            assert value is defined, (name, owner)
            assert name in dir(package), f"dir() misses {{name}} after use"
            assert getattr(package, name) is value, name
        """
    )


def test_star_import_binds_every_export():
    _run(
        f"""
        import importlib

        for package in {PACKAGES!r}:
            namespace = {{}}
            exec(f"from {{package}} import *", namespace)
            exported = set(importlib.import_module(package).__all__)
            assert exported <= namespace.keys(), exported - namespace.keys()
        """
    )


def test_unknown_names_and_subpackages():
    _run(
        """
        import sys

        import repro

        import repro.core.cyclic_autocorrelation
        from repro.core import cyclic_autocorrelation

        caf_module = sys.modules["repro.core.cyclic_autocorrelation"]

        # The function, not the submodule of the same name.
        assert cyclic_autocorrelation is caf_module.cyclic_autocorrelation
        assert not hasattr(repro, "StreamingDSCF")
        assert not hasattr(repro.core, "StreamingDSCF")
        assert "repro.mapping" not in sys.modules
        assert repro.mapping is sys.modules["repro.mapping"]
        from repro import __version__

        assert __version__ == repro.__version__
        """
    )


def test_available_backends_imports_no_backend():
    _run(
        """
        import sys

        from repro.pipeline import available_backends, get_backend

        names = ("fam", "reference", "soc", "ssca", "vectorized")
        assert available_backends() == names
        assert "repro.estimators.backends" not in sys.modules
        assert get_backend("fam") is get_backend("fam")
        assert get_backend("ssca").name == "ssca"
        assert "repro.estimators.backends" in sys.modules
        assert available_backends() == names
        """
    )


def test_registration_before_first_lookup_overrides_a_builtin():
    _run(
        """
        import sys

        from repro.pipeline import get_backend, register_backend

        reference = get_backend("reference")

        class Override:
            name = "fam"
            capabilities = reference.capabilities

            def compute(self, signal, config):
                raise NotImplementedError

        override = register_backend(Override())
        assert get_backend("fam") is override
        assert "repro.estimators.backends" not in sys.modules
        """
    )
