import importlib.util
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from qclt import _kernels_py, kernels
from qclt.chain import center_observable, make_chain

REPO = Path(__file__).resolve().parents[1]


def _c_compiler() -> str:
    return (sysconfig.get_config_var("CC") or "cc").split()[0]


@pytest.fixture(scope="session")
def compiled_kernels(tmp_path_factory):
    """The C path kernels built from this checkout into a temporary directory
    and loaded from there; skips only where no C compiler is found."""
    cc = _c_compiler()
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) to build the compiled kernels")
    out = tmp_path_factory.mktemp("kernels_build")
    proc = subprocess.run([sys.executable, "setup.py", "-q", "build_ext",
                           "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
                          cwd=REPO, capture_output=True, text=True, timeout=300)
    built = sorted((out / "lib" / "qclt").glob("_kernels*"))
    assert proc.returncode == 0 and built, f"build failed:\n{proc.stdout}{proc.stderr}"
    spec = importlib.util.spec_from_file_location("qclt._kernels", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def compiled_backend(compiled_kernels, monkeypatch):
    """``kernels`` with the freshly built extension as its ``compiled`` backend."""
    monkeypatch.setattr(kernels, "_compiled", compiled_kernels)
    return kernels


@pytest.fixture
def kernel_modules(request):
    """The numpy fallback, and the extension built from this checkout where a
    C compiler is found: a test of both never skips its fallback half."""
    modules = {"python": _kernels_py}
    if shutil.which(_c_compiler()) is not None:
        modules["compiled"] = request.getfixturevalue("compiled_kernels")
    return modules


@pytest.fixture
def two_state():
    # eigenvalues {1, 0.5}; f = (1, -1) is the 0.5-eigenvector
    return make_chain(["0", "1"], [[0.75, 0.25], [0.25, 0.75]])


@pytest.fixture
def iid():
    # rows equal pi: successive states independent
    return make_chain(["0", "1"], [[0.5, 0.5], [0.5, 0.5]])


@pytest.fixture
def flip():
    # deterministic period-2 swap; eigenvalue -1
    return make_chain(["0", "1"], [[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture
def sign(two_state):
    return center_observable(two_state, np.array([1.0, -1.0]))


def sign_of(chain):
    return center_observable(chain, np.where(np.arange(chain.n_states) % 2 == 0, 1.0, -1.0))
