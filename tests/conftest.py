import importlib.util
import os
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


def _build_kernels(out: Path, cflags: str = ""):
    """The extension built from this checkout into ``out`` and loaded from
    there, with ``cflags`` added to the compiler flags."""
    cc = _c_compiler()
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) to build the compiled kernels")
    env = dict(os.environ)
    if cflags:
        env["CFLAGS"] = f"{env.get('CFLAGS', '')} {cflags}".strip()
    proc = subprocess.run([sys.executable, "setup.py", "-q", "build_ext",
                           "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
                          cwd=REPO, env=env, capture_output=True, text=True, timeout=300)
    built = sorted((out / "lib" / "qclt").glob("_kernels*"))
    assert proc.returncode == 0 and built, f"build failed:\n{proc.stdout}{proc.stderr}"
    spec = importlib.util.spec_from_file_location("qclt._kernels", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def compiled_kernels(tmp_path_factory):
    """The C kernels built from this checkout into a temporary directory, on
    the lanes this CPU picks; skips only where no C compiler is found."""
    return _build_kernels(tmp_path_factory.mktemp("kernels_build"))


@pytest.fixture(scope="session")
def compiled_scalar_kernels(tmp_path_factory):
    """A second build whose ``__builtin_cpu_supports`` reads 0 for every
    feature, so it runs the scalar C lanes on any CPU: with the first build,
    an AVX-512 host tests both lane sets."""
    return _build_kernels(tmp_path_factory.mktemp("kernels_build_scalar"),
                          "-D__builtin_cpu_supports(x)=0")


@pytest.fixture
def kernel_modules(request):
    """The numpy fallback, and where a C compiler is found both builds of the
    extension, by name: a test of all of them never skips its fallback half."""
    modules = {"python": _kernels_py}
    if shutil.which(_c_compiler()) is not None:
        modules["compiled"] = request.getfixturevalue("compiled_kernels")
        modules["compiled-scalar"] = request.getfixturevalue("compiled_scalar_kernels")
    return modules


@pytest.fixture
def compiled_backend(compiled_kernels, kernel_modules, monkeypatch):
    """``kernels`` with the first build as its ``compiled`` backend, and each of
    ``kernel_modules`` named by its ``available_backends()`` and ``backend=``."""
    monkeypatch.setattr(kernels, "_compiled", compiled_kernels)
    monkeypatch.setattr(kernels, "available_backends", lambda: dict(kernel_modules))
    return kernels


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
