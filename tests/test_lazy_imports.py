"""Lazy loading: the package's names load their modules on first use, and each subcommand loads only what it runs.

The module sets are read from fresh interpreters, since the test process has long loaded every module.
"""

import json
import os
import subprocess
import sys

import pytest

import thermolight

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from run import IMPORT_MODULES, setup_sample  # noqa: E402

from test_cli import write_reduce_inputs  # noqa: E402

# run one thermolight command as the CLI's entry point does; the last stderr line lists the package's modules
CHILD = """
import json, sys
import thermolight.cli
code = thermolight.cli.main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("thermolight."))), file=sys.stderr)
sys.exit(code)
"""

# what `cli` imports for every subcommand
CLI_MODULES = {"acceptance", "cli", "constants", "radiometry", "spectra"}


def loaded_modules(*argv) -> set:
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {m.removeprefix("thermolight.") for m in json.loads(proc.stderr.splitlines()[-1])}


def test_importing_the_package_loads_no_module():
    code = "import sys, thermolight; print(sorted(m for m in sys.modules if m.startswith('thermolight')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "['thermolight']"


@pytest.mark.parametrize("command, modules", [
    (["rate", "--ion", "ba138p", "--eta", "0.5", "--grayness", "5e-5", "--temperature-k", "5800"],
     CLI_MODULES | {"data", "ion_thermo", "mode_optics"}),
    (["virtual-temp", "--ion", "ba138p", "--t-room-k", "300", "--t-sun-k", "5800", "--motion-hz", "1e6"],
     CLI_MODULES | {"data", "ion_thermo"}),
    (["spectrum", "--temperature-k", "5800", "--family", "q1d", "--domain", "wavelength"], CLI_MODULES),
    (["spectrum", "--temperature-k", "5800", "--family", "q1d", "--domain", "wavelength", "--svg"],
     CLI_MODULES | {"svgplot"}),
    ("reduce", CLI_MODULES | {"data", "data_pipeline"}),
], ids=["rate", "virtual-temp", "spectrum", "spectrum-svg", "reduce"])
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, command, modules):
    argv = write_reduce_inputs(tmp_path) if command == "reduce" else command
    assert loaded_modules(*argv, "--out", str(tmp_path / "out")) == modules


def test_the_benchmark_set_up_logs_every_module_its_traced_parse_reads():
    # the set-up runs under -X importtime, which logs only modules loaded by an import statement
    _, metrics = setup_sample(importtime=True)
    assert {"import.thermolight_ms", *(f"import.cumulative_ms.{m}" for m in IMPORT_MODULES)} <= set(metrics)


def test_every_name_is_its_modules_object():
    assert sorted(thermolight.__all__) == sorted(thermolight._MODULE_OF)
    assert set(thermolight.__all__) <= set(dir(thermolight))
    for name, module in thermolight._MODULE_OF.items():
        defining = __import__(f"thermolight.{module}", fromlist=["_"])
        expected = defining.run_all if name == "run_acceptance" else getattr(defining, name)
        assert getattr(thermolight, name) is expected, name
    star = {}
    exec("from thermolight import *", star)
    assert set(star) - {"__builtins__"} == set(thermolight.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'thermolight' has no attribute 'no_such_name'"):
        thermolight.no_such_name  # noqa: B018
    assert not hasattr(thermolight, "no_such_name")
