import os

import numpy as np
import pytest


@pytest.fixture(scope="session")
def byte_scope():
    """The environment the pinned output bytes depend on, besides the config.

    A golden test names it in its failure message, so a red run on another
    CPU, BLAS build or thread count explains itself.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without show_config's dict mode
        blas = {}
    build = blas.get("openblas configuration", "build config unknown")
    variables = ", ".join(f"{var}={os.environ.get(var, 'unset')}" for var in
                          ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return (f"bytes pinned on one BLAS build, core type and thread count; this run has "
            f"numpy {np.__version__}, BLAS {blas.get('name', 'unknown')} "
            f"{blas.get('version', '')} ({build}), {variables}")
