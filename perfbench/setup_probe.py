"""Set-up cost of diskevac: import plus the first small call to each kernel.

`warm_up` is what the benchmark runs before it starts timing.  Run as a
script in a fresh interpreter, this file times `warm_up` (importing
`diskevac.cli`, the lazy `_batch` import, one tiny-grid call to every
batch kernel and a 5-scenario verify through the scalar path) and prints
the seconds it took:

    python3 perfbench/setup_probe.py <checkout>/src
"""

import sys
import time


def warm_up() -> None:
    import diskevac.cli
    from diskevac.face_to_face import worst_f2f
    from diskevac.wireless import worst_wireless

    for labeled in (False, True):
        worst_wireless(1.0, "d/2", labeled, 0.5)
    worst_f2f(1.0, "same", 0.5)
    worst_f2f(1.0, "diff", 0.5)
    worst_f2f(1.0, "labeled", 0.5, "d/2")
    max_dev, issues = diskevac.cli.run_verification(5, 0, 1e-4)
    if issues:
        raise RuntimeError(f"warm-up verification failed: {issues[0]}")


if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    warm_up()
    print(f"{time.perf_counter() - t0:.9f}")
