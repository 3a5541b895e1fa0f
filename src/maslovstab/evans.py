"""Evans-function evaluation and argument-principle winding counts.

The Evans value at lambda is the determinant of the 2n x 2n matrix whose
column blocks span the solutions decaying at -infinity (evolved forward to
the matching point) and at +infinity (evolved backward).  Zeros coincide
with eigenvalues of the linearized operator.  Frames are renormalized by
positive-diagonal QR during evolution, which rescales the determinant by a
positive factor only: zeros and winding numbers are unaffected, and the
sampled value stays continuous along contours.  Only the integer winding
is contractual; the value is reproducible but scale-dependent.  The
determinant, the contours and the winding routine live in ``flow``, whose
top edge of the Maslov square counts zeros with them too.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import flow, oracle, parallel
from .errors import ContourError
from .flow import Contour
from .models import check_essential_stability


@dataclass(frozen=True)
class EvansValue:
    lambda_: complex
    value: complex

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("Evans value is not finite")


def evans_at(model, lambda_, opts=None, x_match=0.0):
    """Evans value at one spectral point.

    The matching point defaults to x = 0; any point works and only changes
    the value by a nonvanishing factor.
    """
    opts = (opts or flow.FlowOptions()).resolve(model)
    value = flow._evans_values(model, [lambda_], opts, x_match=x_match)[0]
    return EvansValue(lambda_=complex(lambda_), value=complex(value))


def winding_number(model, contour, opts=None, x_match=0.0):
    """Winding of the Evans value around a contour = enclosed eigenvalue count.

    The phase is sampled as in ``flow._refined_contour_values``, which
    raises PhaseStepError when ``flow.MAX_REFINE`` midpoint rounds do not
    bring every phase step below pi/2; the final accumulated phase must sit
    within 0.1 of a nonnegative integer multiple of 2 pi.
    """
    opts = (opts or flow.FlowOptions()).resolve(model)
    return flow._winding_and_values(model, contour, opts, x_match)[0]


def compare_counts(model, opts=None, epsilon_shift=1e-3, oracle_h=0.02):
    """Count unstable eigenvalues over all three channels and compare.

    Conjugate points at lambda = epsilon_shift, the Evans winding over a
    contour enclosing (epsilon_shift, lambda_inf], and the FD oracle count
    above epsilon_shift.  The channels run independently; the report flags
    disagreement rather than reconciling it.
    """
    stab = check_essential_stability(model)
    if not stab.stable:
        raise ContourError("essential spectrum is unstable; no contour avoids it")
    opts = (opts or flow.FlowOptions()).resolve(model)
    lambda_inf = flow.lambda_ceiling(model, epsilon_shift, opts.truncation)
    contour = Contour.enclosing(epsilon_shift, lambda_inf)

    def conjugate_channel():
        events = flow.detect_conjugate_points(model, epsilon_shift, opts)
        return sum(e.multiplicity for e in events), events

    def winding_channel():
        return winding_number(model, contour, opts)

    def oracle_channel():
        return oracle.oracle_count_above(model, opts.truncation, oracle_h,
                                         epsilon_shift)

    if parallel.worker_count(3) > 1:
        with ThreadPoolExecutor(max_workers=parallel.worker_count(3)) as pool:
            f_conj = pool.submit(conjugate_channel)
            f_wind = pool.submit(winding_channel)
            f_oracle = pool.submit(oracle_channel)
            (conj_count, events), winding, oracle_count = (
                f_conj.result(), f_wind.result(), f_oracle.result()
            )
    else:
        conj_count, events = conjugate_channel()
        winding = winding_channel()
        oracle_count = oracle_channel()
    return flow.SpectralReport(
        conjugate_count=conj_count,
        winding_count=winding,
        oracle_count=oracle_count,
        epsilon_shift=float(epsilon_shift),
        lambda_inf=lambda_inf,
        events=events,
    )
