from setuptools import Extension, setup

# The path kernels are a small plain-C extension. It is optional: where it
# cannot be built (no C compiler), the package falls back at import to the
# numpy kernels. -ffp-contract=off keeps fused multiply-adds out, so the
# chain kernel stays bit-identical to the numpy one on FMA targets.
setup(
    ext_modules=[
        Extension(
            "qclt._kernels",
            ["src/qclt/_kernels.c"],
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
