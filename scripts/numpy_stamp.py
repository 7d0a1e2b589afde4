"""The numpy build and CPU dispatch that a script's output bits depend on.

numpy runs some float64 functions (`np.cbrt` and `np.arctan2` among them)
through SIMD code chosen for the CPU at run time, and those paths do not
all round alike.  So the outputs of two runs of `kernel_digest.py` or
`fingerprint.py` are comparable byte for byte only when their stamps
agree.  Both scripts write the stamp to stderr; their stdout is unchanged.
"""

import numpy as np

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x, which pyproject.toml still admits
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__


def numpy_stamp() -> str:
    """numpy's version and the SIMD targets it dispatches to on this CPU."""
    dispatched = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    return f"numpy {np.__version__} simd {' '.join(dispatched) or 'none'}"
