"""Fixed reference kernel that the benchmark's times are normalised by.

The machine this benchmark was written on drifts between speed regimes every
few seconds to minutes, and the drift is not uniform: the Python part below
ran up to 1.8x slower in the slow regime, the LAPACK part about 1.35x.  So
the kernel has two parts, timed separately, and each workload weighs them by
its own share of interpreter-bound and LAPACK-bound work:

* ``python``: exact products and sums of dyadic ``Fraction`` polynomials held
  in dicts, the same kind of arithmetic as ``derham.forms``;
* ``lapack``: singular values of a fixed 500 x 500 Gaussian matrix.

Both parts are deterministic and do a fixed amount of work.  ``NOMINAL`` holds
each part's time at the reference speed; a time ``t`` measured while
the parts take ``t_py`` and ``t_la`` is reported as
``t / (w * t_py / NOMINAL_py + (1 - w) * t_la / NOMINAL_la)``, i.e. in seconds
at the reference speed.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# Seconds each part takes at the reference speed.  These constants define
# that speed: they are rounded lower quartiles measured on the machine the
# benchmark was written on (2-vCPU KVM guest, Xeon model 143, one BLAS
# thread), i.e. its fast regime.
NOMINAL = {"python": 0.030, "lapack": 0.035}

_rng = np.random.default_rng(20161108)
_MATRIX = _rng.standard_normal((500, 500))
_POLY_A = {(i, j, 3 - i - j if i + j <= 3 else 0): Fraction(float(x))
           for (i, j), x in zip([(i, j) for i in range(4) for j in range(4)],
                                _rng.random(16))}
_POLY_B = {(i, j, k): Fraction(float(x))
           for (i, j, k), x in zip([(i, j, k) for i in range(3)
                                    for j in range(3) for k in range(3)],
                                   _rng.random(27))}
_PY_REPEATS = 12


def _python_part():
    total = 0
    for _ in range(_PY_REPEATS):
        out = {}
        for ea, ca in _POLY_A.items():
            for eb, cb in _POLY_B.items():
                e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                out[e] = out.get(e, 0) + ca * cb
        total += len(out)
    return total


def _lapack_part():
    return float(np.linalg.svd(_MATRIX, compute_uv=False)[0])


def measure(repeats, lapack):
    """Run the Python part (and the LAPACK part if ``lapack``) ``repeats``
    times, alternating; return the mean wall time of each part in seconds."""
    spent = {"python": 0.0, "lapack": 0.0} if lapack else {"python": 0.0}
    for _ in range(repeats):
        t0 = time.perf_counter()
        _python_part()
        spent["python"] += time.perf_counter() - t0
        if lapack:
            t0 = time.perf_counter()
            _lapack_part()
            spent["lapack"] += time.perf_counter() - t0
    return {part: t / repeats for part, t in spent.items()}


def slowdown(before, after, python_share):
    """Speed of the host relative to the reference, from two brackets.

    ``before`` and ``after`` are results of :func:`measure` taken just before
    and just after the timed work; 1.0 means reference speed, 1.5 means the
    host ran 1.5x slower.  The LAPACK part is needed only when
    ``python_share`` is below 1.
    """
    ratio = {part: (before[part] + after[part]) / (2.0 * NOMINAL[part])
             for part in before}
    if python_share == 1.0:
        return ratio["python"]
    return python_share * ratio["python"] + (1.0 - python_share) * ratio["lapack"]
