"""Evans-function winding counts and the one three-channel unstable count.

The Evans value at lambda is the determinant of the 2n x 2n matrix whose
column blocks span the solutions decaying at -infinity and at +infinity,
matched at x = 0.  Both come from one forward run over [-L, 0]: the
+infinity block rides along reflected, (X(-t); -Y(-t)), which solves the
same system with Q(-t).  A winding asks for no frames inside [-L, 0], so
none are interpolated.  Zeros coincide with eigenvalues of the linearized
operator.  Frames are renormalized by positive-diagonal QR during
evolution, which rescales the determinant by a positive factor only, and a
unit-modulus factor takes out the phase
e^{iL Im(sum mu_- + sum mu_+)} that starting the frames at -+L puts in: E
is analytic in lambda up to a positive factor, so its winding counts
zeros and its sampled phase stays slow along contours.  Only the integer
winding is contractual; the value is reproducible but scale-dependent.
The batched determinant, the contours and the winding routine live in
``flow``, whose top edge of the Maslov square counts zeros with them too.

``compare_counts`` is the package's one unstable count: conjugate points,
Evans winding and the finite-difference oracle, side by side.
"""

import contextvars
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import flow, oracle, parallel
from .errors import ContourError, InconsistencyError, SeparationError
from .flow import Contour
from .models import check_essential_stability


def winding_number(model, contour, opts=None):
    """Winding of the Evans value around a contour = enclosed eigenvalue count.

    The phase is sampled as in ``flow._refined_contour_values``, which
    raises PhaseStepError when ``flow.MAX_REFINE`` midpoint rounds do not
    bring every phase step below pi/2; the final accumulated phase must sit
    within 0.1 of a nonnegative integer multiple of 2 pi.
    """
    opts = (opts or flow.FlowOptions()).resolve(model)
    return flow._winding_and_values(model, contour, opts)[0]


@dataclass(frozen=True)
class SpectralReport:
    """Unstable-eigenvalue counts from the three channels."""

    conjugate_count: int
    winding_count: int
    oracle_count: int
    epsilon_shift: float
    lambda_inf: float
    events: tuple

    @property
    def agree(self):
        return self.conjugate_count == self.winding_count == self.oracle_count


def compare_counts(model, opts=None, epsilon_shift=1e-3, oracle_h=0.02):
    """Count unstable eigenvalues over all three channels and compare.

    Conjugate points at lambda = epsilon_shift, the Evans winding over a
    contour enclosing (epsilon_shift, lambda_inf], and the FD oracle count
    above epsilon_shift at steps oracle_h and oracle_h / 2, which must
    agree (SeparationError otherwise).  The channels run independently;
    the report flags disagreement rather than reconciling it.  A pulse
    with no conjugate point contradicts the pulse instability theorem and
    raises.
    """
    stab = check_essential_stability(model)
    if not stab.stable:
        raise ContourError("essential spectrum is unstable; no contour avoids it")
    opts = (opts or flow.FlowOptions()).resolve(model)
    lambda_inf = flow.lambda_ceiling(model, epsilon_shift, opts.truncation)
    contour = Contour.enclosing(epsilon_shift, lambda_inf)

    def conjugate_channel():
        events = flow.detect_conjugate_points(model, epsilon_shift, opts)
        count = sum(e.multiplicity for e in events)
        if model.kind == "pulse" and count == 0:
            # the theorem puts an eigenvalue above 0, not above the shift
            raise InconsistencyError(
                f"pulse model has no conjugate point at epsilon_shift = "
                f"{epsilon_shift!r}, contradicting the pulse instability "
                "theorem unless its eigenvalue lies in (0, epsilon_shift]"
            )
        return count, events

    def winding_channel():
        return winding_number(model, contour, opts)

    def oracle_channel():
        # the FD error of an eigenvalue near the shift can move it across;
        # a count that changes when the step halves is not trusted
        coarse, fine = (
            oracle.oracle_count_above(model, opts.truncation, h, epsilon_shift)
            for h in (oracle_h, 0.5 * oracle_h)
        )
        if coarse != fine:
            raise SeparationError(
                f"FD oracle counts {coarse} at h = {oracle_h!r} and {fine} at "
                f"h = {0.5 * oracle_h!r} differ above epsilon_shift = {epsilon_shift!r}"
            )
        return coarse

    if parallel.worker_count(3) > 1:
        with ThreadPoolExecutor(max_workers=parallel.worker_count(3)) as pool:
            # each channel runs in a copy of the caller's context, so it keeps
            # the caller's numpy error state
            f_conj, f_wind, f_oracle = (
                pool.submit(contextvars.copy_context().run, channel)
                for channel in (conjugate_channel, winding_channel, oracle_channel)
            )
            (conj_count, events), winding, oracle_count = (
                f_conj.result(), f_wind.result(), f_oracle.result()
            )
    else:
        conj_count, events = conjugate_channel()
        winding = winding_channel()
        oracle_count = oracle_channel()
    return SpectralReport(
        conjugate_count=conj_count,
        winding_count=winding,
        oracle_count=oracle_count,
        epsilon_shift=float(epsilon_shift),
        lambda_inf=lambda_inf,
        events=events,
    )
