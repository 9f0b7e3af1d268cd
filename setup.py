import hashlib
from pathlib import Path

from setuptools import Extension, setup

# The path kernels are a small plain-C extension. It is optional: where it
# cannot be built (no C compiler), the package falls back at import to the
# numpy kernels. -ffp-contract=off keeps fused multiply-adds out, so the
# chain kernel stays bit-identical to the numpy one on FMA targets.
# SOURCE_DIGEST, the sha256 of the C source, is compiled in so that a stale
# build shows; the source is read beside this file, whatever the cwd.
SOURCE = "src/qclt/_kernels.c"
DIGEST = hashlib.sha256((Path(__file__).resolve().parent / SOURCE).read_bytes()).hexdigest()

setup(
    ext_modules=[
        Extension(
            "qclt._kernels",
            [SOURCE],
            define_macros=[("SOURCE_DIGEST", f'"{DIGEST}"')],
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
