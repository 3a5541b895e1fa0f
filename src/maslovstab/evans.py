"""Evans-function evaluation and argument-principle winding counts.

The Evans value at lambda is the determinant of the 2n x 2n matrix whose
column blocks span the solutions decaying at -infinity (evolved forward to
the matching point) and at +infinity (evolved backward).  Zeros coincide
with eigenvalues of the linearized operator.  Frames are renormalized by
positive-diagonal QR during evolution, which rescales the determinant by a
positive factor only: zeros and winding numbers are unaffected, and the
sampled value stays continuous along contours.  Only the integer winding
is contractual; the value is reproducible but scale-dependent.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import flow, oracle, parallel
from .errors import ContourError, PhaseStepError
from .models import check_essential_stability

ZERO_MARGIN = 1e-10


@dataclass(frozen=True)
class Contour:
    """Circle in the spectral plane, sampled counterclockwise."""

    center: complex
    radius: float
    samples: int = 256

    def __post_init__(self):
        if not self.radius > 0:
            raise ContourError(f"contour radius {self.radius!r} must be positive")
        if self.samples < 8:
            raise ContourError("need at least 8 contour samples")

    @classmethod
    def enclosing(cls, lo, hi, samples=256):
        """Circle through the real points lo and hi."""
        return cls(center=complex(0.5 * (lo + hi)), radius=0.5 * (hi - lo),
                   samples=samples)

    def point(self, t):
        return self.center + self.radius * np.exp(2j * np.pi * np.asarray(t))


@dataclass(frozen=True)
class EvansValue:
    lambda_: complex
    value: complex

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("Evans value is not finite")


def validate_contour(model, contour, margin=1e-6):
    """Reject contours that touch the essential spectrum (-inf, max eig]."""
    max_eig = check_essential_stability(model).max_eig_qinf
    pts = contour.point(np.arange(contour.samples) / contour.samples)
    re, im = pts.real, pts.imag
    dist = np.where(re > max_eig, np.abs(pts - max_eig), np.abs(im))
    bad = ~((re > max_eig) | (dist > margin))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ContourError(
            f"contour point {pts[k]:.6g} touches the essential spectrum "
            f"(-inf, {max_eig:.6g}]"
        )


def _evans_values(model, lams, opts, x_match=0.0):
    """Batched Evans determinants at the given (complex) lambda values."""
    lams = np.asarray(lams, dtype=complex)
    return flow.evans_determinant(model, lams, opts, x_match)[0]


def evans_at(model, lambda_, opts=None, x_match=0.0):
    """Evans value at one spectral point.

    The matching point defaults to x = 0; any point works and only changes
    the value by a nonvanishing factor.
    """
    opts = (opts or flow.FlowOptions()).resolve(model)
    value = _evans_values(model, [lambda_], opts, x_match=x_match)[0]
    return EvansValue(lambda_=complex(lambda_), value=complex(value))


def _wrapped_diffs(phases):
    d = np.diff(phases)
    return np.arctan2(np.sin(d), np.cos(d))


def _contour_params(samples):
    """Closed-loop parameters clustered near t = 0 and t = 1/2.

    The operators here are self-adjoint, so Evans zeros sit on the real
    axis, which the contour crosses at those two parameters; cubic
    clustering there keeps phase steps small without global oversampling.
    """
    u = np.arange(samples + 1) / samples
    return u - np.sin(4.0 * np.pi * u) / (4.0 * np.pi)


def _base_values(model, contour, opts, x_match):
    """Evans values at the contour's open base parameters, t = 1 excluded.

    A contour centred on the real axis maps parameter index k to m - k
    under complex conjugation.  Q is real, so E(conj lambda) = conj E(lambda)
    and only indices 0 .. m//2 are integrated; the rest are mirrored.
    """
    m = contour.samples
    pts = contour.point(_contour_params(m)[:-1])
    if contour.center.imag != 0:
        return _evans_values(model, pts, opts, x_match=x_match)
    upper = _evans_values(model, pts[: m // 2 + 1], opts, x_match=x_match)
    return np.concatenate([upper, np.conj(upper[1 : (m + 1) // 2][::-1])])


def _refined_contour_values(model, contour, opts, zero_margin, max_refine,
                            x_match):
    """Evans values around the closed contour, a mask of the base samples
    among them, and the refinement rounds used.

    Samples the contour, then inserts midpoints wherever consecutive phase
    steps reach pi/2, at most max_refine rounds.  Every round rejects a
    contour passing within the zero margin of an Evans zero.
    """
    validate_contour(model, contour)
    ts = _contour_params(contour.samples)
    base_values = _base_values(model, contour, opts, x_match)
    values = np.append(base_values, base_values[0])  # closed: t=1 repeats t=0
    base = np.arange(len(values)) < contour.samples
    rounds = 0
    while True:
        mags = np.abs(values)
        if np.min(mags) <= zero_margin * np.max(mags):
            raise ContourError(
                f"contour passes within the zero margin of an Evans zero "
                f"(min |E| = {np.min(mags):.3e}, max |E| = {np.max(mags):.3e})"
            )
        diffs = _wrapped_diffs(np.angle(values))
        bad = np.nonzero(np.abs(diffs) >= np.pi / 2)[0]
        if len(bad) == 0:
            return values, base, rounds
        if rounds >= max_refine:
            raise PhaseStepError(
                f"{len(bad)} phase steps still reach pi/2 after {max_refine} "
                "refinement rounds"
            )
        mid_ts = 0.5 * (ts[bad] + ts[bad + 1])
        mid_vals = _evans_values(model, contour.point(mid_ts % 1.0), opts,
                                 x_match=x_match)
        ts = np.insert(ts, bad + 1, mid_ts)
        values = np.insert(values, bad + 1, mid_vals)
        base = np.insert(base, bad + 1, False)
        rounds += 1


def _winding_and_values(model, contour, opts, zero_margin=ZERO_MARGIN,
                        max_refine=3, x_match=0.0):
    """Winding number and the Evans values at the m base samples.

    ``opts`` must be resolved.  The final accumulated phase must sit within
    0.1 of a nonnegative integer multiple of 2 pi.
    """
    values, base, _ = _refined_contour_values(model, contour, opts, zero_margin,
                                              max_refine, x_match)
    total = float(np.sum(_wrapped_diffs(np.angle(values))))
    winding = total / (2.0 * np.pi)
    nearest = int(np.round(winding))
    if abs(winding - nearest) >= 0.1:
        raise PhaseStepError(
            f"accumulated phase {winding:.4f} turns is not within 0.1 of an integer"
        )
    # E is analytic inside a contour that avoids the essential spectrum, so
    # its winding counts zeros; a negative one is an undersampled contour
    if nearest < 0:
        raise PhaseStepError(
            f"winding {nearest} is negative: the contour is undersampled"
        )
    return nearest, values[base]


def winding_number(model, contour, opts=None, zero_margin=ZERO_MARGIN,
                   max_refine=3, x_match=0.0):
    """Winding of the Evans value around a contour = enclosed eigenvalue count.

    The phase is sampled as in ``_refined_contour_values``; the final
    accumulated phase must sit within 0.1 of a nonnegative integer multiple
    of 2 pi.
    """
    opts = (opts or flow.FlowOptions()).resolve(model)
    return _winding_and_values(model, contour, opts, zero_margin, max_refine,
                               x_match)[0]


def winding_refinement_rounds(model, contour, opts=None, x_match=0.0):
    """Number of midpoint-insertion rounds the winding computation needs."""
    opts = (opts or flow.FlowOptions()).resolve(model)
    return _refined_contour_values(model, contour, opts, ZERO_MARGIN, 10,
                                   x_match)[2]


def compare_counts(model, opts=None, epsilon_shift=1e-3, contour=None,
                   oracle_h=0.02):
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
    if contour is None:
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
