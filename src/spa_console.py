"""Entry point of the `spa` console script.

It pins the BLAS and OpenMP thread pools to one thread, then runs
`spa.cli`. This model's matrices are small enough that a threaded BLAS
spends more time dispatching than it saves. The module sits outside the
`spa` package because importing `spa` imports numpy, which sizes its
thread pool at import, so the variables must be set first. A value
already set in the environment is kept.
"""

import os

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> None:
    for name in PINNED:
        os.environ.setdefault(name, "1")
    from spa.cli import console_entry

    console_entry()
