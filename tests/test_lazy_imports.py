"""The package loads each module on first use.

``import ccbilliards`` loads no submodule; a public name or a submodule
read from the package imports the module that defines it, and a CLI
command imports only the layers it runs.  The load checks run in fresh
interpreters, where ``sys.modules`` holds only what the code under test
imported.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import ccbilliards

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

# what the diagonal search never runs
NOT_FOR_DIAGONALS = ("flow", "unfolding", "_batch", "_crossing_loops",
                     "expansivity", "svg", "topology", "specfile")


def _fresh(code):
    """What code prints as JSON, run in a fresh interpreter on this tree."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = ("sorted(m[len('ccbilliards.'):] for m in sys.modules "
          "if m.startswith('ccbilliards.'))")


def test_bare_import_loads_no_submodule_and_submodules_resolve():
    before, state, after = _fresh(
        "import json, sys, ccbilliards\n"
        f"before = {LOADED}\n"
        "b = ccbilliards.collision.BoundaryState(1, 0.5, 1.0)\n"
        f"print(json.dumps([before, list(b), {LOADED}]))")
    assert before == []
    assert state == [1, 0.5, 1.0]
    assert "collision" in after and "flow" not in after


def test_diagonals_loads_no_other_layer():
    loaded = _fresh(
        "import json, sys\n"
        "from ccbilliards import cli\n"
        "cli.main(['diagonals', '--table', 'square', '--angles', '1',"
        " '--json'])\n"
        f"print(json.dumps({LOADED}))")
    assert "collision" in loaded
    assert not set(NOT_FOR_DIAGONALS) & set(loaded)


def test_periodic_loads_the_sweep_engine():
    loaded = _fresh(
        "import json, sys\n"
        "from ccbilliards import cli\n"
        "cli.main(['periodic', '--table', 'square', '--samples', '4',"
        " '--max-bounces', '2', '--json'])\n"
        f"print(json.dumps({LOADED}))")
    assert "_batch" in loaded and "unfolding" in loaded


# what numpy's random package loads: its extension modules, and through
# ``secrets`` the OpenSSL bindings ``_hashlib``
RANDOM_MODULES = ("numpy.random", "secrets", "_hashlib")


@pytest.mark.parametrize("argv", [
    ["periodic", "--table", "square", "--samples", "4", "--max-bounces", "2",
     "--json"],
    ["expansivity", "--table", "sphere-triangle", "--theta", "1.0",
     "--samples", "1", "--max-bounces", "2", "--horizon", "2", "--depth",
     "2", "--angles", "1", "--json"]], ids=["periodic", "expansivity"])
def test_seeded_search_loads_no_numpy_random(argv):
    # the sweep and the pair probes draw from the package's own stream
    loaded = _fresh(
        "import json, sys\n"
        "from ccbilliards import cli\n"
        f"cli.main({argv!r})\n"
        f"print(json.dumps([m for m in {RANDOM_MODULES!r} "
        "if m in sys.modules]))")
    assert loaded == []


def test_vertex_flow_loads_no_collision_layer():
    # the chart flow (simulate --vertex) needs the kernels, not collision
    loaded = _fresh(
        "import json, sys\n"
        "import ccbilliards.flow\n"
        f"print(json.dumps({LOADED}))")
    assert "flow" in loaded and "collision" not in loaded


@pytest.mark.parametrize("name", [n for n in ccbilliards.__all__
                                  if n != "NUMBA_ENABLED"])
def test_public_name_is_its_module_object(name):
    obj = getattr(ccbilliards, name)
    module = importlib.import_module(obj.__module__)
    assert module.__name__.startswith("ccbilliards.")
    assert getattr(module, name) is obj


def test_dir_lists_every_public_name():
    assert set(ccbilliards.__all__) <= set(dir(ccbilliards))
    assert {"collision", "tables", "unfolding"} <= set(dir(ccbilliards))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ccbilliards.no_such_name  # noqa: B018
