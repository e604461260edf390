"""Package-level tests: public API surface and example integrity."""

import glob
import importlib
import json
import os
import py_compile
import subprocess
import sys

import pytest

import repro
import repro.utils.ckernel as ckernel


PACKAGES = [
    "repro",
    "repro.core",
    "repro.floorplan",
    "repro.powergrid",
    "repro.workload",
    "repro.voltage",
    "repro.baselines",
    "repro.experiments",
    "repro.monitor",
    "repro.obs",
    "repro.serve",
    "repro.surrogate",
    "repro.utils",
]


class TestPublicAPI:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_imports_cleanly(self, name):
        module = importlib.import_module(name)
        assert module is not None

    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_entries_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.{symbol} missing"

    def test_version(self):
        assert repro.__version__

    def test_key_entry_points(self):
        from repro.core import fit_placement, select_sensors, sweep_lambda
        from repro.experiments import generate_dataset
        from repro.baselines import EagleEyeModel, get_placer

        for fn in (fit_placement, select_sensors, sweep_lambda,
                   generate_dataset, get_placer, EagleEyeModel):
            assert callable(fn)
            assert fn.__doc__  # every public entry point is documented


#: scipy subpackages no module under ``repro`` may import.  Loading
#: ``scipy.signal`` alone pulls in the other four and more than doubled
#: every process's start-up time and added about 42 MB to its RSS.
HEAVY_SCIPY = (
    "scipy.signal",
    "scipy.stats",
    "scipy.optimize",
    "scipy.interpolate",
    "scipy.spatial",
)

#: Run in a fresh interpreter: import every module under ``repro``,
#: generate a tiny dataset, print what was loaded.
COLD_START_SCRIPT = """
import importlib, json, pkgutil, sys
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
from repro.experiments.config import ChipConfig, DataConfig, ExperimentSetup
from repro.experiments.data_generation import generate_dataset
from repro.utils.ckernel import get_lib
data = DataConfig(benchmarks=("x264",), steps_per_benchmark=20,
                  warmup_steps=5, record_every=1, n_samples=20, seed=3)
generate_dataset(ExperimentSetup(
    chip=ChipConfig(core_cols=1, core_rows=1, template="small"),
    train=data, eval=data, name="cold-start"))
print(json.dumps({"modules": sorted(sys.modules),
                  "kernel": get_lib() is not None}))
"""


class TestColdStart:
    @pytest.mark.parametrize("path", ["kernel", "numpy"])
    def test_no_heavy_scipy_subpackage(self, path):
        env = dict(os.environ)
        env.pop("REPRO_DATASET_CACHE", None)
        env.pop(ckernel.DISABLE_ENV_VAR, None)
        if path == "numpy":
            env[ckernel.DISABLE_ENV_VAR] = "1"
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert loaded["kernel"] == (path == "kernel")
        heavy = [
            name for name in loaded["modules"]
            if any(name == sub or name.startswith(sub + ".") for sub in HEAVY_SCIPY)
        ]
        assert heavy == []


class TestExamples:
    def _example_files(self):
        root = os.path.join(os.path.dirname(__file__), "..", "examples")
        return sorted(glob.glob(os.path.join(root, "*.py")))

    def test_at_least_three_examples(self):
        assert len(self._example_files()) >= 3

    @pytest.mark.parametrize(
        "path",
        sorted(
            glob.glob(
                os.path.join(
                    os.path.dirname(__file__), "..", "examples", "*.py"
                )
            )
        ),
        ids=os.path.basename,
    )
    def test_examples_compile(self, path):
        py_compile.compile(path, doraise=True)

    def test_examples_have_docstrings_and_main(self):
        for path in self._example_files():
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            assert '"""' in source.split("\n", 2)[-1] or source.startswith(
                ('"""', "#!")
            ), f"{path} lacks a docstring"
            assert "__main__" in source, f"{path} is not runnable"


class TestDocumentation:
    def test_repo_docs_exist(self):
        root = os.path.join(os.path.dirname(__file__), "..")
        for doc in ("README.md", "DESIGN.md"):
            assert os.path.exists(os.path.join(root, doc))

    def test_public_functions_documented(self):
        # Spot-check: every public callable in the core package carries
        # a docstring with a Parameters section where it has arguments.
        import inspect

        import repro.core as core

        for symbol in core.__all__:
            obj = getattr(core, symbol)
            if inspect.isfunction(obj):
                assert obj.__doc__, f"repro.core.{symbol} undocumented"
