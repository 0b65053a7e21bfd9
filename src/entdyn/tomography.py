"""Simulated photon-counting tomography with maximum-likelihood reconstruction.

The measurement model mirrors a two-detector coincidence experiment: for each
two-qubit projective setting (one polarization projector per arm, drawn from
H/V/D/A/R/L), the recorded coincidence count is Poisson distributed around
exposure * Born probability. :class:`CountRecord` lists carry count data at
the public API and in count files only; inside, a count set is the cached
design of its settings plus count and exposure vectors (:func:`_arrays`).
Reconstruction parameterizes the state as T^dag T / Tr(T^dag T) with a
lower-triangular complex T, so the estimate is physical by construction, and
minimizes a Poisson likelihood (Gaussian approximation by default, exact
form behind a switch) by one projected-Newton search on its exact Hessian
(:func:`_fit`). Error bars come from a bootstrap on arrays: a (trials, S)
array of counts resampled Poisson around the observed counts (not around
the fitted state's expected counts, as a parametric bootstrap would), a
refit of each row from the base fit, and one Wootters concurrence of the
stack of refit states. Every count, simulated or resampled, is an exact
Poisson draw, by one ``Generator.poisson`` call per random stream: a
simulated count around a mean of at most :data:`MAX_COUNT`, a resampled
one around an observed count of at most twice that.

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
    BASIS_KETS, PAULIS, ConfigError, _check_at_least, _check_choice, _check_positive, _finite,
    _frozen, _hermitian, dm,
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
    """``n`` from ``low`` to ``scale`` * MAX_COUNT: a mean count, or a record's with low=0, scale=2."""
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
    """One tomography data point: setting, coincidence count, pairs per setting."""

    setting: MeasurementSetting
    count: int
    exposure: float

    def __post_init__(self):
        _check_count(self.count, "count", low=0, scale=2)
        _check_positive(self.exposure, "exposure")


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
    ``n_per_setting`` times its Born probability.

    All Born probabilities come from one product with the setting operators,
    rows of the stack of the 36 built at import (a probability rounded below
    0 counts as 0), and all counts from one
    ``np.random.default_rng(seed).poisson`` call, in setting order. Any
    sequence of settings is drawn, informationally complete or not. ``seed``
    may be an int or a sequence of ints.
    """
    _check_count(n_per_setting, "n_per_setting")
    rho = _finite("rho", rho, (4, 4))
    settings = list(settings)
    operators = _OPERATOR_STACK[[_SETTING_INDEX[(s.proj_a, s.proj_b)] for s in settings]]
    means = n_per_setting * np.maximum(np.einsum("sab,ba->s", operators, rho).real, 0.0)
    counts = np.random.default_rng(seed).poisson(means).tolist()
    return [CountRecord(s, c, float(n_per_setting)) for s, c in zip(settings, counts)]


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
    design = _design(tuple((r.setting.proj_a, r.setting.proj_b) for r in records))
    counts = np.array([float(r.count) for r in records])
    exposures = np.array([float(r.exposure) for r in records])
    return design, counts, exposures


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
    eye = np.eye(t.size)
    f, g, hess, size = fun(t)
    evals = 1
    steps = 0
    converged = False
    while evals < max_evals:
        proj = eye - t[:, None] * t
        lam, vec = np.linalg.eigh(proj @ hess @ proj)
        lowest, highest = float(lam[0]), float(lam[-1])
        floor = max(1e-8 * max(-lowest, highest), 1e-12 * size)
        gv = g @ vec
        d = vec @ (gv / -np.maximum(np.abs(lam), floor))
        slope = float(g @ d)
        rule_met = -0.5 * slope <= 1e-12 * max(1.0, abs(f))
        if rule_met:
            if lowest >= -floor:
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


def _fit(likelihood: str, design: _Design, counts, exposures, t0):
    """Likelihood fit of count arrays from T-parameters ``t0``: base fits and refits."""
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
    (``iterations``) first is returned with ``converged=False``.
    """
    design, counts, exposures = _arrays(records)
    seed_rho = _linear_inversion(design, counts, exposures)
    return _fit(likelihood, design, counts, exposures, _params_from_rho(seed_rho))


def monte_carlo_errors(records, trials: int, seed, base: ReconstructionResult,
                       likelihood: str = "gaussian") -> ErrorEstimate:
    """Bootstrap error bar for the concurrence of a reconstruction.

    Trial i resamples every count as Poisson around the observed value, by
    one ``np.random.default_rng([*seed, i]).poisson`` call, so each trial
    owns a private stream and the outcome does not depend on execution
    order. Each row of the (trials, S) array of draws is re-fitted from one
    warm start, the T-parameters of ``base`` (the fit of the records; its
    estimate must be a finite Hermitian 4x4 matrix), and one batched
    Wootters call takes the concurrence of the (trials, 4, 4) stack of
    refit states. Trials whose concurrence is not finite are dropped and
    counted. Refits that end with ``converged=False`` stay in the spread and
    are counted as ``unconverged``.
    """
    _check_at_least(trials, 2, "trials")
    design, observed, exposures = _arrays(records)
    t0 = _params_from_rho(_hermitian("base.rho_hat", base.rho_hat, (4, 4), tol=1e-10))
    seed_parts = [int(seed)] if isinstance(seed, (int, np.integer)) else [int(s) for s in seed]
    draws = np.array([np.random.default_rng([*seed_parts, trial]).poisson(observed)
                      for trial in range(trials)], dtype=float)
    fits = [_fit(likelihood, design, counts, exposures, t0) for counts in draws]
    values = np.maximum(wootters(_frozen(np.array([fit.rho_hat for fit in fits])))[0], 0.0)
    values = values[np.isfinite(values)]
    if len(values) < 2:
        raise ValueError(f"only {len(values)} usable trials out of {trials}")
    return ErrorEstimate(mean=float(values.mean()), std_dev=float(values.std(ddof=1)),
                         trials=len(values), dropped=trials - len(values),
                         unconverged=sum(not fit.converged for fit in fits))


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
    Otherwise ``seeds`` holds one seed per channel, and channel i draws by
    one ``np.random.default_rng(seeds[i]).poisson`` call a Poisson count on
    each of the six polarization projectors (H, V, D, A, R, L) of each
    probe, probes in label order; the Bloch components are the normalized
    count differences, and a vector longer than 1 is scaled back into the
    ball.
    """
    if n_per_projector is not None:
        _check_count(n_per_projector, "n_per_projector")
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

    Returns an (n_theta * n_phi, 3) array of Cartesian points; for a
    completely positive unital channel every point stays inside the ball.
    """
    _check_at_least(n_theta, 2, "n_theta")
    _check_at_least(n_phi, 1, "n_phi")
    m = bloch_affine_map(channel)
    theta = np.linspace(0.0, np.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    sphere = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    ).reshape(-1, 3)
    return _frozen(sphere @ np.asarray(m).T)


def write_counts_csv(records, path) -> None:
    """Count data file: columns proj_a, proj_b, count, exposure."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["proj_a", "proj_b", "count", "exposure"])
        for r in records:
            writer.writerow([r.setting.proj_a, r.setting.proj_b, r.count, repr(r.exposure)])


def read_counts_csv(path) -> list[CountRecord]:
    """Count records of a data file written by :func:`write_counts_csv`.

    Raises ``ValueError`` naming the file for a malformed row (and its data
    row), a setting repeated on two data rows, or settings that are not
    informationally complete (listing the settings of the 36-setting scan
    the file lacks).
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        records = []
        rows = {}  # (proj_a, proj_b) -> data row
        for i, row in enumerate(reader, start=1):
            try:
                record = CountRecord(
                    setting=MeasurementSetting(row["proj_a"], row["proj_b"]),
                    count=int(row["count"]),
                    exposure=float(row["exposure"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path}: malformed count record on data row {i} ({exc})"
                ) from exc
            key = (record.setting.proj_a, record.setting.proj_b)
            if key in rows:
                raise ValueError(
                    f"{path}: setting {''.join(key)} repeated on data rows {rows[key]} and {i}"
                )
            rows[key] = i
            records.append(record)
    if not records:
        raise ValueError(f"no count records in {path}")
    try:
        _design(tuple(rows))
    except ValueError as exc:
        missing = [a + b for a, b in _STANDARD_KEYS if (a, b) not in rows]
        raise ValueError(
            f"{path}: {exc}; of the 36-setting scan it lacks {', '.join(missing)}"
        ) from exc
    return records
