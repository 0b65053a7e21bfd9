"""Simulated photon-counting tomography with maximum-likelihood reconstruction.

The measurement model mirrors a two-detector coincidence experiment: for each
two-qubit projective setting (one polarization projector per arm, drawn from
H/V/D/A/R/L), the recorded coincidence count is Poisson distributed around
exposure * Born probability. :class:`CountRecord` lists carry count data at
the public API and in count files only; inside, a count set is the cached
design of its settings plus count and exposure vectors. One core does each
step on those arrays: :func:`_draw` draws the counts, :func:`_fit` fits them
and :func:`_bootstrap` resamples and refits them. The public
:func:`simulate_counts`, :func:`reconstruct_state_mle` and
:func:`monte_carlo_errors` check their arguments, convert records to arrays
once (:func:`_arrays`) and call the cores, which take their arguments as
checked; a shot-noise point (``harness.shot_noise_point``) runs them from
draw to bootstrap in one array pass, with no record built.
Reconstruction parameterizes the state as T^dag T / Tr(T^dag T) with a
lower-triangular complex T, so the estimate is physical by construction, and
minimizes a Poisson likelihood (Gaussian approximation by default, exact
form behind a switch) by one projected-Newton search on its exact Hessian
(:func:`_fit`). Error bars come from a bootstrap on arrays: a (trials, S)
array of counts resampled Poisson around the observed counts (not around
the fitted state's expected counts, as a parametric bootstrap would), a
refit of each row from the base fit, and one Wootters call on the stack of
the base state and the refit states, which gives the base state's
concurrence with the bootstrap values. Every count, simulated or
resampled, is an exact Poisson draw, by one ``Generator.poisson`` call per
random stream: a simulated count around a mean of at most
:data:`MAX_COUNT`, a resampled one around an observed count of at most
twice that.

Single-qubit process tomography works on stacks: :func:`probe_outputs` maps
the probe inputs through a (N, 4, 4) stack of Pauli-transfer matrices (or
samples the outputs, one random stream per channel), and
:func:`process_matrices` estimates each one's Pauli-transfer matrix by least
squares on the probes' Pauli components and maps it to its process matrix;
the single-channel functions are thin calls into these two.
"""

from __future__ import annotations

import csv
import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import bloch_affine_map, pauli_transfer_matrix
from .dynamics import wootters
from .states import (
    BASIS_KETS, PAULIS, ConfigError, _check_at_least, _check_choice, _check_positive, _checked,
    _csv_rows, _field, _finite, _frozen, _hermitian, _known, _read, dm,
)

PROJECTOR_LABELS = ("H", "V", "D", "A", "R", "L")

#: Probe inputs spanning the single-qubit operator space for process tomography.
DEFAULT_PROBE_LABELS = ("H", "V", "D", "R")

LIKELIHOODS = ("gaussian", "poisson")

#: Largest mean count, pairs per setting or counts per projector. A record's
#: count, a draw around such a mean, may reach twice this (the draw stays
#: below that by ~1e9 standard deviations); numpy's Poisson sampler, which
#: the bootstrap resamples counts with, takes means up to ~9.2e18.
MAX_COUNT = 10**18


def _check_count(n, path: str, low: int = 1, scale: int = 1) -> None:
    """Int ``n`` (read by ``_field``) from ``low`` to ``scale`` * MAX_COUNT: a mean count, or a record's."""
    if not low <= n <= scale * MAX_COUNT:
        _check_at_least(n, low, path)
        raise ConfigError(f"{path}: must be <= {scale}e18, got {n!r}")


_PROJECTORS = {label: dm(ket) for label, ket in BASIS_KETS.items()}

_PAULI_STACK = _frozen(np.array(PAULIS))
_PROBE_INPUTS = _frozen(np.array([_PROJECTORS[label] for label in DEFAULT_PROBE_LABELS]))
# Pauli components Tr(sigma_i rho) of each probe input, row k for probe k.
_PROBE_COMPONENTS = _frozen(np.einsum("iab,kba->ki", _PAULI_STACK, _PROBE_INPUTS))
# chi = _CHI_OF_PTM @ vec(R) inverts R_ij = sum_mn chi_mn Tr(s_i s_m s_j s_n) / 2 (= B vec(chi),
# B^dag B = 4 I): entry (4m + n, 4i + j) is Tr(s_n s_j s_m s_i) / 8, s the Pauli matrices.
_CHI_OF_PTM = _frozen(np.einsum("nab,jbc,mcd,ida->mnij", *[_PAULI_STACK] * 4).reshape(16, 16) / 8)
_PROJECTOR_STACK = _frozen(np.array([_PROJECTORS[label] for label in PROJECTOR_LABELS]))
# Bloch x, y, z are the count contrasts of the projector pairs D/A, R/L, H/V.
_PLUS = [PROJECTOR_LABELS.index(label) for label in "DRH"]
_MINUS = [PROJECTOR_LABELS.index(label) for label in "ALV"]

# The 36-setting scan in standard order, its (36, 4, 4) stack of setting
# operators Pi_a (x) Pi_b, and each label pair's index into that stack.
_STANDARD_KEYS = tuple((a, b) for a in PROJECTOR_LABELS for b in PROJECTOR_LABELS)
_OPERATOR_STACK = _frozen(np.array([np.kron(_PROJECTORS[a], _PROJECTORS[b])
                                    for a, b in _STANDARD_KEYS]))
_SETTING_INDEX = {key: i for i, key in enumerate(_STANDARD_KEYS)}

# Parameter layout of the lower-triangular T: 4 real diagonal entries followed
# by the real and imaginary parts of the strictly-lower entries, so that
# vec(T) = _T_BASIS @ t and t = Re(_T_BASIS^dag vec(T)).
_DIAG_FLAT = (0, 5, 10, 15)
_LOWER_FLAT = (4, 8, 9, 12, 13, 14)
_T_BASIS = np.zeros((16, 16), dtype=complex)
_T_BASIS[_DIAG_FLAT + _LOWER_FLAT, range(10)] = 1.0
_T_BASIS[_LOWER_FLAT, range(10, 16)] = 1j
_T_BASIS.setflags(write=False)
_T_BASIS_H = _frozen(_T_BASIS.conj().T)


@dataclass(frozen=True)
class MeasurementSetting:
    """Pair of single-qubit projector labels, one per detection arm."""

    proj_a: str
    proj_b: str

    def __post_init__(self):
        _check_choice(self.proj_a, PROJECTOR_LABELS, "proj_a")
        _check_choice(self.proj_b, PROJECTOR_LABELS, "proj_b")

    def operator(self) -> np.ndarray:
        return _OPERATOR_STACK[_SETTING_INDEX[(self.proj_a, self.proj_b)]]


@dataclass(frozen=True)
class CountRecord:
    """One tomography data point: setting, coincidence count and pairs per setting,
    read by the config reader's int and float rules, so stored as an int and a float."""

    setting: MeasurementSetting
    count: int
    exposure: float

    def __post_init__(self):
        object.__setattr__(self, "count", _field(self.count, int, "count"))
        _check_count(self.count, "count", low=0, scale=2)
        object.__setattr__(self, "exposure", _checked(self.exposure, float, "exposure", _check_positive))


@dataclass(frozen=True)
class ReconstructionResult:
    """A likelihood fit: ``iterations`` counts likelihood evaluations (each
    with its gradient and Hessian), ``rounds`` the Newton steps taken, and
    ``converged`` says the search met its stop rule (see :func:`minimize`)
    within the evaluation budget."""

    rho_hat: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    rounds: int


@dataclass(frozen=True)
class ErrorEstimate:
    """Bootstrap mean and spread of the concurrence over MLE re-runs.

    ``dropped`` trials are left out of the spread; ``unconverged`` trials are
    kept in it and only counted.
    """

    mean: float
    std_dev: float
    trials: int
    dropped: int = 0
    unconverged: int = 0


#: The 36 settings of :func:`standard_settings`, validated once at import.
_STANDARD_SETTINGS = tuple(MeasurementSetting(a, b) for a, b in _STANDARD_KEYS)


def standard_settings() -> list[MeasurementSetting]:
    """The overcomplete 36-setting scan: every pairing of H/V/D/A/R/L, as a
    new list of the settings built at import (they are frozen, so shared)."""
    return list(_STANDARD_SETTINGS)


def born_probability(rho, setting: MeasurementSetting) -> float:
    return float(np.trace(np.asarray(rho) @ setting.operator()).real)


def simulate_counts(rho, settings, n_per_setting: int, seed) -> list[CountRecord]:
    """Draw one Poisson coincidence count per setting, with mean
    ``n_per_setting`` times its Born probability (:func:`_draw`). Any
    sequence of settings is drawn, informationally complete or not. ``seed``
    is an int >= 0 or a sequence of them (:func:`_seed`).
    """
    n_per_setting = _checked(n_per_setting, int, "n_per_setting", _check_count)
    rho = _finite("rho", rho, (4, 4))
    seed = _seed(seed)
    settings = list(settings)
    operators = _OPERATOR_STACK[[_SETTING_INDEX[(s.proj_a, s.proj_b)] for s in settings]]
    return _records(settings, _draw(rho, n_per_setting, seed, operators), n_per_setting)


def _seed(seed, path: str = "seed"):
    """``seed`` read as an int >= 0 by the config reader's int rule (a
    numeric string reads as its number), or a list, entry i named
    ``seed[i]``, of such ints read from a list, tuple or array."""
    if isinstance(seed, (list, tuple, np.ndarray)):
        return [_seed(s, f"{path}[{i}]") for i, s in enumerate(seed)]
    return _checked(seed, int, path, _check_at_least, 0)


def _draw(rho, n_per_setting: int, seed, operators=_OPERATOR_STACK) -> np.ndarray:
    """Integer Poisson counts of ``rho`` on the (S, 4, 4) setting
    ``operators``, the 36-setting scan by default: all Born probabilities
    from one product with the operators (a probability rounded below 0
    counts as 0) and all counts from one ``np.random.default_rng(seed).poisson``
    call, in setting order. The arguments are taken as checked."""
    means = n_per_setting * np.maximum(np.einsum("sab,ba->s", operators, rho).real, 0.0)
    return np.random.default_rng(seed).poisson(means)


def _records(settings, counts: np.ndarray, exposure) -> list[CountRecord]:
    """Count records of an integer count array drawn on ``settings`` at one exposure."""
    exposure = float(exposure)
    return [CountRecord(s, c, exposure) for s, c in zip(settings, counts.tolist())]


class _Design(NamedTuple):
    """A settings sequence as the fit reads it.

    ``pmat`` (S, 16) maps vec(rho) to Born probabilities, row_s =
    vec(Pi_s^T), and ``pinv`` (16, S) is its pseudo-inverse, which maps
    count frequencies to the least-squares vec(rho). ``forms`` (S * 16, 16)
    stacks the real symmetric quadratic forms Q_s[i, j] = Re Tr(Pi_s E_i^dag
    E_j) of the T-parameters, with E_i column i of ``_T_BASIS`` as a 4x4
    matrix, so that Tr(Pi_s T^dag T) = t.Q_s t.
    """

    pmat: np.ndarray
    pinv: np.ndarray
    forms: np.ndarray


@functools.lru_cache(maxsize=64)
def _design(settings: tuple) -> _Design:
    """Design of a sequence of (proj_a, proj_b) label pairs; raises if the
    settings are not informationally complete. Cached, with its
    pseudo-inverse, because every fit of a scan shares them: a sweep's base
    fits and refits, and every linear-inversion seed."""
    pmat = np.stack([_OPERATOR_STACK[_SETTING_INDEX[key]].T.reshape(16) for key in settings])
    rank = np.linalg.matrix_rank(pmat)
    if rank < 16:
        raise ValueError(f"settings are not informationally complete (operator rank {rank} < 16)")
    basis = _T_BASIS.T.reshape(16, 4, 4)
    products = np.einsum("iba,jbc->ijac", basis.conj(), basis).reshape(256, 16)
    forms = np.ascontiguousarray((pmat @ products.T).real.reshape(-1, 16))
    return _Design(_frozen(pmat), _frozen(np.linalg.pinv(pmat)), _frozen(forms))


def _arrays(records) -> tuple[_Design, np.ndarray, np.ndarray]:
    """The cached :class:`_Design` of the records' settings and their counts
    and exposures as float arrays: the one converter from records."""
    records = list(records)
    if not records:
        raise ConfigError("records: must not be empty")
    design = _design(tuple((r.setting.proj_a, r.setting.proj_b) for r in records))
    counts = np.array([float(r.count) for r in records])
    exposures = np.array([float(r.exposure) for r in records])
    return design, counts, exposures


def _scan_arrays(counts: np.ndarray, n_per_setting) -> tuple[_Design, np.ndarray, np.ndarray]:
    """The arrays of :func:`_arrays` for integer counts drawn on the
    36-setting scan at ``n_per_setting`` pairs each, without records."""
    return _design(_STANDARD_KEYS), counts.astype(float), np.full(counts.size, float(n_per_setting))


def _rho_from_params(t: np.ndarray) -> np.ndarray:
    T = (_T_BASIS @ t).reshape(4, 4)
    return (T.conj().T @ T) / (t @ t)


def _params_from_rho(rho: np.ndarray) -> np.ndarray:
    """Invert the T-parameterization (up to gauge) for a physical state.

    Uses the flipped Cholesky trick: if B = P rho P (P reverses the basis)
    has Cholesky factor L, then T = P L^dag P is lower triangular with
    T^dag T = rho.
    """
    m = np.asarray(rho, dtype=complex)
    min_eig = float(np.linalg.eigvalsh(m)[0])
    shift = max(0.0, -min_eig) + 1e-10
    m = (m + shift * np.eye(4)) / (1.0 + 4.0 * shift)
    flipped = m[::-1, ::-1]
    L = np.linalg.cholesky(flipped)
    T = L.conj().T[::-1, ::-1]
    return (_T_BASIS_H @ T.reshape(16)).real


def linear_inversion_state(records) -> np.ndarray:
    """Least-squares state estimate from count frequencies, clipped to physical.

    Used to seed the likelihood search. The least-squares solution is one
    product with the pseudo-inverse cached with the scan's design
    (:func:`_design`), so the seeds of a scan's fits share one
    decomposition; raises if the settings are not informationally complete.
    """
    return _linear_inversion(*_arrays(records))


def _linear_inversion(design: _Design, counts, exposures) -> np.ndarray:
    """:func:`linear_inversion_state` of count arrays."""
    rho = (design.pinv @ (counts / exposures)).reshape(4, 4)
    return _physical(*np.linalg.eigh(0.5 * (rho + rho.conj().T)))


def _physical(w, v) -> np.ndarray:
    """The PSD unit-trace matrix nearest v diag(w) v^dag (eigenvalue
    clipping): the eigenvalues clipped at 0 and renormalized, or I / d when
    none is left positive. States and process matrices share it."""
    w = np.clip(w, 0.0, None)
    if w.sum() <= 0.0:
        return np.eye(w.size, dtype=complex) / w.size
    return (v * (w / w.sum())) @ v.conj().T


def _objective(likelihood: str, design: _Design, counts, exposures):
    """Negative log-likelihood of the T-parameters, its gradient, its Hessian
    and the size (2 / n) sum_s |g_s| of the Hessian's terms, which sets how
    far rounding moves its eigenvalues.

    Every Born probability is a ratio of real quadratic forms in the 16
    parameters, p_s = t.Q_s t / n with n = t.t (``design.forms``). With
    u_s = Q_s t - p_s t, g_s = e_s f'(mu_s), h_s = e_s^2 f''(mu_s) and
    w = sum_s g_s u_s, the gradient is (2 / n) w and the Hessian

        (4 / n^2) U^T diag(h) U + (2 / n)(sum_s g_s Q_s - (g.p) I)
            - (4 / n^2)(t w^T + w t^T),

    so one product with the stacked forms gives every Q_s t, and one more
    gives sum_s g_s Q_s. The second term is the curvature of the Born
    probabilities themselves: it keeps a T-row that shrinks towards the
    rank-deficient boundary curved. A probability below 1e-12 is clipped to
    it in the count term of f (c^2 / 2 mu, c ln mu), which there adds no
    gradient and no curvature; the term linear in p is not clipped, so a
    setting without counts stays smooth down to p = 0.
    """
    _check_choice(likelihood, LIKELIHOODS, "likelihood")
    gaussian = likelihood == "gaussian"
    forms = design.forms
    stacked = forms.reshape(-1, 256)  # row s is Q_s
    half_exposures = 0.5 * exposures

    def fun(t: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, float]:
        qt = (forms @ t).reshape(-1, 16)  # rows Q_s t
        trace = float(t @ t)  # Tr T^dag T
        p_raw = (qt @ t) / trace
        p = np.maximum(p_raw, 1e-12)
        mu = exposures * p
        r = counts / mu * (p_raw > 1e-12)  # c / mu, 0 where p is clipped
        if gaussian:
            # f = sum (mu - c)^2 / 2 mu; e f'(mu) = e (1 - r^2) / 2, e^2 f''(mu) = e r^2 / p
            diff = mu - counts
            f = 0.5 * float(diff @ (diff / mu) + exposures @ (p_raw - p))
            g = half_exposures * (1.0 - r * r)
            h = exposures * (r * r) / p
        else:
            # f = sum mu - c ln mu; e f'(mu) = e (1 - r), e^2 f''(mu) = e r / p
            f = float(exposures @ p_raw - counts @ np.log(mu))
            g = exposures * (1.0 - r)
            h = exposures * r / p
        u = qt - p_raw[:, None] * t
        w = g @ u
        tw = t[:, None] * w
        scale = 2.0 / trace
        hess = (g @ stacked).reshape(16, 16)
        hess.flat[::17] -= float(g @ p_raw)
        hess = scale * hess + scale * scale * ((u.T * h) @ u - tw - tw.T)
        return f, scale * w, hess, scale * float(np.abs(g).sum())

    return fun


#: Trial steps per line search; each shrinks the step at least twofold.
_BACKTRACKS = 30
_MAX_EVALS = 100_000  # likelihood evaluations of every fit
#: Cholesky tests refused in a row after which a search stops taking them
#: until its eigenvalues show that one would pass (:func:`minimize`).
_FAILED_TESTS = 8


@functools.lru_cache(maxsize=8)
def _identity(n: int) -> np.ndarray:
    """The n x n identity, built once per size for the steps of every search."""
    return _frozen(np.eye(n))


def minimize(fun, t: np.ndarray, max_evals: int):
    """Projected Newton search from ``t`` on ``fun(t) -> (f, gradient,
    Hessian, size)``, with ``size`` the scale of the Hessian's rounding.

    The objective depends on the direction of t only, so t is kept on the
    unit sphere and the Hessian is projected onto its tangent space, P H P
    with P = I - t t^T. Unprojected, the scale direction couples to the
    gradient and shows as a spurious negative eigenvalue. The step solves
    the projected system on its eigenvalues taken as |lambda|, floored at
    1e-8 of the largest and at 1e-12 ``size`` (below which an eigenvalue is
    rounding), and is an Armijo backtracking line search that interpolates
    a cubic through the values and slopes at both ends.

    Each step is first tried without the eigenvalues (:func:`_certified_step`):
    a Cholesky test shows that every tangent eigenvalue lies above a floor
    at least the one above, so none is floored or flipped and the step is
    one linear solve. Only a step the test refuses, at a Hessian that is
    indefinite or has an eigenvalue near zero (on a saddle, near the
    rank-deficient boundary), runs ``np.linalg.eigh``. After
    :data:`_FAILED_TESTS` refusals in a row (a search that stays near the
    boundary) the test is skipped, and taken again only at a step whose
    eigenvalues show that it would pass: all but the lowest, which belongs
    to t or lies below it, above the eigenvalue floor, which is at most the
    test's. So the search takes the steps it would take with the test on
    every step, and pays for one decomposition a step, not two.

    The search stops converged when the Newton decrement -g.d / 2 falls to
    1e-12 max(1, |f|) with evaluations to spare and no eigenvalue lies below
    minus the floor. Where one does, t sits near a saddle (a T-row shrunk to
    zero that should grow), and the search steps downhill along the most
    negative curvature; if no step there lowers f, the curvature is too weak
    to matter and the search stops converged. It stops unconverged when
    ``max_evals`` evaluations are spent or a Newton line search finds no
    decrease. Returns ``(t, f, evaluations, steps, converged)`` with t a
    unit vector and f never above its start.
    """
    t = t / np.linalg.norm(t)
    eye = _identity(t.size)
    f, g, hess, size = fun(t)
    evals = 1
    steps = 0
    failed = 0  # Cholesky tests refused in a row
    converged = False
    while evals < max_evals:
        proj = eye - t[:, None] * t
        tangent = proj @ hess @ proj
        tested = failed < _FAILED_TESTS
        d = _certified_step(tangent, t, g, size) if tested else None
        if d is None:
            lam, vec = np.linalg.eigh(tangent)
            lowest, highest = float(lam[0]), float(lam[-1])
            floor = max(1e-8 * max(-lowest, highest), 1e-12 * size)
            if not tested and (lam[1:] > floor).all():
                d = _certified_step(tangent, t, g, size)
        certified = d is not None
        failed = 0 if certified else failed + 1
        if not certified:
            gv = g @ vec
            d = vec @ (gv / -np.maximum(np.abs(lam), floor))
        slope = float(g @ d)
        rule_met = -0.5 * slope <= 1e-12 * max(1.0, abs(f))
        if rule_met:
            if certified or lowest >= -floor:
                converged = True
                break
            d = math.copysign(1.0, -gv[0]) * vec[:, 0]
            slope = -abs(float(gv[0]))
        step = 1.0
        for _ in range(_BACKTRACKS):
            x = t + step * d
            norm = math.sqrt(float(x @ x))
            t_new = x / norm
            f_new, g_new, hess_new, size_new = fun(t_new)
            evals += 1
            if f_new <= f + 1e-4 * step * slope or evals >= max_evals:
                break
            # f is scale invariant, so its slope along the line at x is g(x / |x|).d / |x|
            step = _cubic_step(step, f, slope, f_new, float(g_new @ d) / norm)
        if not f_new < f:
            converged = rule_met and evals < max_evals
            break
        t, f, g, hess, size = t_new, f_new, g_new, hess_new, size_new
        steps += 1
    return t, f, evals, steps, converged


def _certified_step(tangent, t, g, size):
    """The Newton step of :func:`minimize` at the projected Hessian
    ``tangent`` = P H P, if a Cholesky test certifies it, else None.

    With s = |P H P|_F, which is at least its largest |lambda|, the floor
    max(1e-8 s, 1e-12 size) is at least the step's eigenvalue floor. The
    matrix A = P H P + s t t^T has the tangent eigenvalues of P H P and s
    along t, so a Cholesky factor of A minus the floor exists exactly when
    every eigenvalue, along t included, lies above the floor. Then none is
    floored or flipped, and the step is A^-1 (-g): on the tangent space the
    floored eigenvalue step, and along t a component of g.t / s, which is
    rounding (f is scale invariant) and which the step's normalization
    drops.
    """
    scale = math.sqrt(float(np.vdot(tangent, tangent)))
    floor = max(1e-8 * scale, 1e-12 * size)
    a = tangent + scale * (t[:, None] * t)
    try:
        np.linalg.cholesky(a - floor * _identity(t.size))
    except np.linalg.LinAlgError:
        return None
    return np.linalg.solve(a, -g)


def _cubic_step(step, f0, slope0, f1, slope1) -> float:
    """Minimizer of the cubic through (0, f0, slope0) and (step, f1, slope1),
    kept inside [0.1, 0.5] * step."""
    d1 = slope0 + slope1 - 3.0 * (f1 - f0) / step
    radicand = d1 * d1 - slope0 * slope1
    if radicand >= 0.0:
        d2 = math.sqrt(radicand)
        new = step * (1.0 - (slope1 + d2 - d1) / (slope1 - slope0 + 2.0 * d2))
        if math.isfinite(new):
            return min(max(new, 0.1 * step), 0.5 * step)
    return 0.5 * step


def _fit(likelihood: str, design: _Design, counts, exposures, t0=None):
    """Likelihood fit of count arrays from T-parameters ``t0``, by default
    those of the linear-inversion seed: the one fit core, of base fits and
    refits alike."""
    if t0 is None:
        t0 = _params_from_rho(_linear_inversion(design, counts, exposures))
    fun = _objective(likelihood, design, counts, exposures)
    t, f, evals, steps, converged = minimize(fun, t0, _MAX_EVALS)
    return ReconstructionResult(rho_hat=_frozen(_rho_from_params(t)), log_likelihood=-f,
                                iterations=evals, converged=converged, rounds=steps)


def reconstruct_state_mle(records, likelihood: str = "gaussian") -> ReconstructionResult:
    """Maximum-likelihood two-qubit state from coincidence counts.

    The state is parameterized as T^dag T / Tr(T^dag T) (physical by
    construction) and the likelihood is maximized by one projected-Newton
    search on its exact Hessian (:func:`minimize`) from the linear-inversion
    seed, which stops when the Newton decrement falls to a relative 1e-12.
    A fit that spends the budget of 100,000 likelihood evaluations
    (``iterations``) first is returned with ``converged=False``. The records
    are converted to arrays once and fitted by :func:`_fit`.
    """
    return _fit(likelihood, *_arrays(records))


def monte_carlo_errors(records, trials: int, seed, base: ReconstructionResult,
                       likelihood: str = "gaussian") -> ErrorEstimate:
    """Bootstrap error bar for the concurrence of a reconstruction.

    ``trials`` is read by the config reader's int rule and must be at least
    2; ``seed`` is an int >= 0 or a sequence of them (:func:`_seed`), and
    ``base`` is the fit of the records, whose estimate must be a finite
    Hermitian 4x4 matrix. The records are converted to arrays once and
    resampled by :func:`_bootstrap`, the core that ``tomo-sim`` and every
    shot-noise sweep row run on their count arrays.
    """
    trials = _checked(trials, int, "trials", _check_at_least, 2)
    seed = _seed(seed)
    design, observed, exposures = _arrays(records)
    base_rho = _hermitian("base.rho_hat", base.rho_hat, (4, 4), tol=1e-10)
    seed_parts = seed if isinstance(seed, list) else [seed]
    return _bootstrap(likelihood, design, observed, exposures, base_rho, trials, seed_parts)[1]


def _bootstrap(likelihood: str, design: _Design, observed, exposures, base_rho, trials: int,
               seed_parts) -> tuple[float, ErrorEstimate]:
    """The concurrence of ``base_rho`` and the bootstrap spread of its refits.

    Trial i resamples every count as Poisson around the observed value, by
    one ``np.random.default_rng([*seed_parts, i]).poisson`` call, so each
    trial owns a private stream and the outcome does not depend on execution
    order. Each row of the (trials, S) array of draws is re-fitted (:func:`_fit`)
    from one warm start, the T-parameters of ``base_rho``, and one batched
    Wootters call takes the concurrence of the (1 + trials, 4, 4) stack of
    the base state and the refit states: its first row is the base state's
    concurrence, bit for bit that of :func:`~entdyn.dynamics.concurrence`.
    Trials whose concurrence is not finite are dropped and counted. Refits
    that end with ``converged=False`` stay in the spread and are counted as
    ``unconverged``. The arguments are taken as checked.
    """
    t0 = _params_from_rho(base_rho)
    draws = np.array([np.random.default_rng([*seed_parts, trial]).poisson(observed)
                      for trial in range(trials)], dtype=float)
    fits = [_fit(likelihood, design, counts, exposures, t0) for counts in draws]
    q = wootters(np.array([base_rho, *(fit.rho_hat for fit in fits)]))[0]
    values = np.maximum(q[1:], 0.0)
    values = values[np.isfinite(values)]
    if len(values) < 2:
        raise ValueError(f"only {len(values)} usable trials out of {trials}")
    estimate = ErrorEstimate(mean=float(values.mean()), std_dev=float(values.std(ddof=1)),
                             trials=len(values), dropped=trials - len(values),
                             unconverged=sum(not fit.converged for fit in fits))
    return max(0.0, float(q[0])), estimate


def _probe_map(rho_in) -> np.ndarray:
    """Map (4k, 16) from the flattened outputs of the probe inputs ``rho_in``
    (k, 2, 2) to the flattened process matrix. Outputs' Pauli components are
    R times the inputs', so R-hat is theirs times the pseudo-inverse of the
    inputs' (4, k) components, and chi is :data:`_CHI_OF_PTM` of R-hat.
    Raises unless the inputs span the single-qubit operator space."""
    components = np.einsum("iab,kba->ik", _PAULI_STACK, np.asarray(rho_in, dtype=complex))
    rank = 4 * int(np.linalg.matrix_rank(components))
    if rank < 16:
        raise ValueError(
            f"probe set is rank deficient (rank {rank} < 16); "
            "inputs must span the single-qubit operator space"
        )
    # entry (k, a, b, i, j): d R_ij / d rho_k[a, b] = sigma_i[b, a] pinv[k, j]
    ptm_map = np.einsum("iba,kj->kabij", _PAULI_STACK, np.linalg.pinv(components))
    return _frozen(ptm_map.reshape(-1, 16) @ _CHI_OF_PTM.T)


_DEFAULT_PROBE_MAP = _probe_map(_PROBE_INPUTS)


def process_matrices(rho_out, rho_in=None) -> np.ndarray:
    """Process matrices (Pauli basis) of a stack of channels from probe data.

    ``rho_out`` holds each channel's outputs (N, k, 2, 2) of the k probe
    inputs ``rho_in`` (k, 2, 2), by default those of :func:`probe_outputs`.
    All N estimates come from one product with :func:`_probe_map` (built at
    import for the default inputs) and one batched ``eigh``. An estimate
    with an eigenvalue below -1e-6 is projected (:func:`_physical`), with one
    warning per projected channel naming the caller of the public function.
    """
    probe_map = _DEFAULT_PROBE_MAP if rho_in is None else _probe_map(rho_in)
    rho_out = np.asarray(rho_out, dtype=complex)
    chi = (rho_out.reshape(rho_out.shape[0], -1) @ probe_map).reshape(-1, 4, 4)
    chi = 0.5 * (chi + np.swapaxes(chi, -1, -2).conj())
    w, v = np.linalg.eigh(chi)
    for i in np.flatnonzero(w[:, 0] < -1e-6):
        warnings.warn(
            f"reconstructed process matrix has eigenvalue {w[i, 0]:.3g}; "
            "projecting to the nearest physical process matrix",
            stacklevel=3,
        )
        chi[i] = _physical(w[i], v[i])
    return chi


def process_tomography_single_qubit(probe_results) -> np.ndarray:
    """Process matrix (Pauli basis) from (input ket, output state) probe pairs.

    One channel through :func:`process_matrices`: least squares for the
    Pauli-transfer matrix over the probes, mapped to the process matrix and
    projected to the nearest physical one with a warning if it has an
    eigenvalue below -1e-6. Each input must be a finite ket of 2 entries
    and each output a finite 2x2 matrix.
    """
    pairs = list(probe_results)
    if not pairs:
        raise ValueError("no probe results given")
    rho_in = [dm(_finite("probe_in", probe_in, (2,))) for probe_in, _ in pairs]
    rho_out = [_finite("probe_out", probe_out, (2, 2)) for _, probe_out in pairs]
    return _frozen(process_matrices([rho_out], rho_in)[0])


def probe_outputs(ptm, n_per_projector=None, seeds=None):
    """Output states (N, 4, 2, 2) of the probe inputs
    :data:`DEFAULT_PROBE_LABELS` under each of a (N, 4, 4) stack of
    single-qubit Pauli-transfer matrices.

    With ``n_per_projector`` unset the outputs are exact: each PTM maps the
    Pauli components of the probe inputs, a constant computed at import.
    Otherwise it is read by the config reader's int rule, ``seeds`` holds
    one seed per channel, and channel i draws by one
    ``np.random.default_rng(seeds[i]).poisson`` call a Poisson count on each
    of the six polarization projectors (H, V, D, A, R, L) of each probe,
    probes in label order; the Bloch components are the normalized count
    differences, and a vector longer than 1 is scaled back into the ball.
    """
    if n_per_projector is not None:
        n_per_projector = _checked(n_per_projector, int, "n_per_projector", _check_count)
    mapped = np.einsum("nij,kj->nki", np.asarray(ptm), _PROBE_COMPONENTS)
    rho_out = np.einsum("nki,iab->nkab", 0.5 * mapped, _PAULI_STACK)
    if n_per_projector is None:
        return rho_out
    probabilities = np.einsum("nkab,lba->nkl", rho_out, _PROJECTOR_STACK).real
    means = n_per_projector * np.maximum(probabilities, 0.0)
    counts = np.array([np.random.default_rng(s).poisson(m) for s, m in zip(seeds, means)])
    plus, minus = counts[..., _PLUS], counts[..., _MINUS]
    total = plus + minus
    vec = np.divide(plus - minus, total, out=np.zeros(total.shape), where=total > 0)
    vec /= np.maximum(np.linalg.norm(vec, axis=-1, keepdims=True), 1.0)
    return 0.5 * (_PAULI_STACK[0] + np.einsum("nki,iab->nkab", vec, _PAULI_STACK[1:]))


def simulate_probe_outputs(channel, n_per_projector: int | None = None,
                           seed=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """(input ket, output state) pairs of the probes :data:`DEFAULT_PROBE_LABELS`
    for process tomography of a channel.

    One channel through :func:`probe_outputs`: exact outputs with
    ``n_per_projector`` unset, else estimates from Poissonian counts on the
    six polarization projectors drawn from ``np.random.default_rng(seed)``.
    """
    outputs = probe_outputs(pauli_transfer_matrix(channel)[None], n_per_projector, [seed])[0]
    return [(BASIS_KETS[label], _frozen(rho)) for label, rho in zip(DEFAULT_PROBE_LABELS, outputs)]


def ellipsoid_mesh(channel, n_theta: int = 25, n_phi: int = 50) -> np.ndarray:
    """Image of a regular Bloch-sphere grid under a unital channel.

    Returns an (n_theta * n_phi, 3) array of Cartesian points, in the ball for a
    completely positive unital channel; a size numpy cannot make is a ConfigError.
    """
    n_theta = _checked(n_theta, int, "n_theta", _check_at_least, 2)
    n_phi = _checked(n_phi, int, "n_phi", _check_at_least, 1)
    m = bloch_affine_map(channel)
    try:
        theta = np.linspace(0.0, np.pi, n_theta)
        phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        sphere = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)],
                          axis=-1).reshape(-1, 3)
        return _frozen(sphere @ np.asarray(m).T)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"n_theta, n_phi: cannot make {n_theta} x {n_phi} points ({exc})") from None


def write_counts_csv(records, path) -> None:
    """Count data file: columns proj_a, proj_b, count, exposure."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["proj_a", "proj_b", "count", "exposure"])
        for r in records:
            writer.writerow([r.setting.proj_a, r.setting.proj_b, r.count, repr(r.exposure)])


def read_counts_csv(path) -> list[CountRecord]:
    """Count records of a data file written by :func:`write_counts_csv`.

    The table is read by :func:`states._csv_rows`, which refuses a row whose
    cells do not match the header. Raises ``ConfigError`` naming the file
    for a malformed row (its data row and cell, read by the config reader's
    rules, or an unknown column), a setting repeated on two data rows, or
    settings that are not informationally complete (listing the settings of
    the 36-setting scan the file lacks).
    """
    rows = {}  # (proj_a, proj_b) -> (data row, record)
    for i, row in enumerate(_csv_rows(path), start=1):
        try:
            _known(row, ("proj_a", "proj_b", "count", "exposure"), "")
            a, b = (_read(row, name, str, "") for name in ("proj_a", "proj_b"))
            record = CountRecord(MeasurementSetting(a, b), _read(row, "count", int, ""),
                                 _read(row, "exposure", float, ""))
        except ConfigError as exc:
            raise ConfigError(f"{path}: malformed count record on data row {i} ({exc})") from exc
        if (a, b) in rows:
            raise ConfigError(f"{path}: setting {a}{b} repeated on data rows {rows[a, b][0]} and {i}")
        rows[a, b] = i, record
    if not rows:
        raise ConfigError(f"no count records in {path}")
    try:
        _design(tuple(rows))
    except ValueError as exc:
        missing = [a + b for a, b in _STANDARD_KEYS if (a, b) not in rows]
        raise ConfigError(f"{path}: {exc}; of the 36-setting scan it lacks {', '.join(missing)}") from exc
    return [record for _, record in rows.values()]
