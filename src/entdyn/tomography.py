"""Simulated photon-counting tomography with maximum-likelihood reconstruction.

The measurement model mirrors a two-detector coincidence experiment: for each
two-qubit projective setting (one polarization projector per arm, drawn from
H/V/D/A/R/L), the recorded coincidence count is Poisson distributed around
exposure * Born probability. Reconstruction parameterizes the state as
T^dag T / Tr(T^dag T) with a lower-triangular complex T, so the estimate is
physical by construction, and minimizes a Poisson likelihood (Gaussian
approximation by default, exact form behind a switch) with a derivative-free
simplex search restarted on stall. Error bars come from parametric
bootstrap: counts are resampled Poisson around the observed values, the
reconstruction is re-run, and the standard deviation of the derived quantity
is reported.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .channels import apply
from .dynamics import concurrence
from .states import BASIS_KETS, PAULIS, _frozen, density_from_bloch, dm, purity

PROJECTOR_LABELS = ("H", "V", "D", "A", "R", "L")

#: Probe inputs spanning the single-qubit operator space for process tomography.
DEFAULT_PROBE_LABELS = ("H", "V", "D", "R")

LIKELIHOODS = ("gaussian", "poisson")

_PROJECTORS = {label: dm(ket) for label, ket in BASIS_KETS.items()}

# Parameter layout of the lower-triangular T: 4 real diagonal entries followed
# by the real and imaginary parts of the strictly-lower entries.
_LOWER = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))
_LOWER_ROWS = tuple(i for i, _ in _LOWER)
_LOWER_COLS = tuple(j for _, j in _LOWER)


@dataclass(frozen=True)
class MeasurementSetting:
    """Pair of single-qubit projector labels, one per detection arm."""

    proj_a: str
    proj_b: str

    def __post_init__(self):
        for label in (self.proj_a, self.proj_b):
            if label not in PROJECTOR_LABELS:
                raise ValueError(f"unknown projector label {label!r}")

    def operator(self) -> np.ndarray:
        return np.kron(_PROJECTORS[self.proj_a], _PROJECTORS[self.proj_b])


@dataclass(frozen=True)
class CountRecord:
    """One tomography data point: setting, coincidence count, pairs per setting."""

    setting: MeasurementSetting
    count: int
    exposure: float

    def __post_init__(self):
        if not self.count >= 0:
            raise ValueError(f"count must be non-negative, got {self.count!r}")
        if not 0 < self.exposure < math.inf:
            raise ValueError(f"exposure must be positive and finite, got {self.exposure!r}")


@dataclass(frozen=True)
class ReconstructionResult:
    rho_hat: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class ErrorEstimate:
    """Bootstrap mean and spread of a derived quantity over MLE re-runs."""

    quantity: str
    mean: float
    std_dev: float
    trials: int
    dropped: int = 0


def projector(label: str) -> np.ndarray:
    """Single-qubit projector for one of the labels H, V, D, A, R, L."""
    if label not in _PROJECTORS:
        raise ValueError(f"unknown projector label {label!r}")
    return _PROJECTORS[label]


def standard_settings() -> list[MeasurementSetting]:
    """The overcomplete 36-setting scan: every pairing of H/V/D/A/R/L."""
    return [MeasurementSetting(a, b) for a in PROJECTOR_LABELS for b in PROJECTOR_LABELS]


def minimal_settings() -> list[MeasurementSetting]:
    """The minimal informationally complete 16-setting scan."""
    pairs = [
        ("H", "H"), ("H", "V"), ("V", "V"), ("V", "H"),
        ("R", "H"), ("R", "V"), ("D", "V"), ("D", "H"),
        ("D", "R"), ("D", "D"), ("R", "D"), ("H", "D"),
        ("V", "D"), ("V", "L"), ("H", "L"), ("R", "L"),
    ]
    return [MeasurementSetting(a, b) for a, b in pairs]


def born_probability(rho, setting: MeasurementSetting) -> float:
    return float(np.trace(np.asarray(rho) @ setting.operator()).real)


def _sample_poisson(rng: np.random.Generator, mean: float) -> int:
    """Poisson sample: inversion by sequential search below mean 30, rounded
    Gaussian above (exact where counts are small, fast where they are not)."""
    if mean <= 0.0:
        return 0
    if mean < 30.0:
        u = rng.random()
        p = math.exp(-mean)
        c = p
        k = 0
        while u > c and k < 1000:
            k += 1
            p *= mean / k
            c += p
        return k
    return max(0, int(round(rng.normal(mean, math.sqrt(mean)))))


def simulate_counts(rho, settings, n_per_setting: int, seed) -> list[CountRecord]:
    """Draw one Poissonian coincidence count per setting.

    ``seed`` may be an int or a sequence of ints; the draw is deterministic
    for a fixed seed and setting order.
    """
    if n_per_setting < 1:
        raise ValueError(f"n_per_setting must be >= 1, got {n_per_setting!r}")
    rng = np.random.default_rng(seed)
    records = []
    for setting in settings:
        mean = n_per_setting * max(born_probability(rho, setting), 0.0)
        records.append(
            CountRecord(setting=setting, count=_sample_poisson(rng, mean), exposure=float(n_per_setting))
        )
    return records


def _setting_matrix(records) -> np.ndarray:
    """Rows map vec(rho) to Born probabilities: row_s = vec(Pi_s^T)."""
    return np.stack([r.setting.operator().T.reshape(16) for r in records])


def _rho_from_params(t: np.ndarray) -> np.ndarray:
    T = np.zeros((4, 4), dtype=complex)
    T[(0, 1, 2, 3), (0, 1, 2, 3)] = t[:4]
    T[_LOWER_ROWS, _LOWER_COLS] = t[4:10] + 1j * t[10:16]
    rho = T.conj().T @ T
    return rho / np.trace(rho).real


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
    t = np.empty(16)
    t[:4] = T[(0, 1, 2, 3), (0, 1, 2, 3)].real
    lower = T[_LOWER_ROWS, _LOWER_COLS]
    t[4:10] = lower.real
    t[10:16] = lower.imag
    return t


def linear_inversion_state(records) -> np.ndarray:
    """Least-squares state estimate from count frequencies, clipped to physical.

    Used to seed the likelihood search; raises if the settings are not
    informationally complete.
    """
    a = _setting_matrix(records)
    if np.linalg.matrix_rank(a) < 16:
        raise ValueError(
            f"settings are not informationally complete (operator rank "
            f"{np.linalg.matrix_rank(a)} < 16)"
        )
    freqs = np.array([r.count / r.exposure for r in records])
    x, *_ = np.linalg.lstsq(a, freqs, rcond=None)
    rho = x.reshape(4, 4)
    rho = 0.5 * (rho + rho.conj().T)
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    if w.sum() <= 0.0:
        return np.eye(4, dtype=complex) / 4.0
    return (v * (w / w.sum())) @ v.conj().T


def _objective(likelihood: str, pmat, counts, exposures):
    if likelihood not in LIKELIHOODS:
        raise ValueError(f"likelihood must be one of {LIKELIHOODS}, got {likelihood!r}")
    gaussian = likelihood == "gaussian"

    def fun(t: np.ndarray) -> float:
        rho = _rho_from_params(t)
        p = np.clip((pmat @ rho.reshape(16)).real, 1e-12, None)
        mu = exposures * p
        if gaussian:
            return float(np.sum((mu - counts) ** 2 / (2.0 * mu)))
        return float(np.sum(mu - counts * np.log(mu)))

    return fun


def reconstruct_state_mle(
    records,
    likelihood: str = "gaussian",
    max_evals: int = 100_000,
    initial=None,
) -> ReconstructionResult:
    """Maximum-likelihood two-qubit state from coincidence counts.

    The state is parameterized as T^dag T / Tr(T^dag T) (physical by
    construction) and the likelihood is minimized by Nelder-Mead restarted
    from its own optimum until an extra restart improves the objective by
    less than a relative 1e-10, or the evaluation budget runs out (the result
    is then returned with ``converged=False``). ``initial`` warm-starts the
    search from a given density matrix instead of the linear-inversion seed.
    """
    records = list(records)
    pmat = _setting_matrix(records)
    if np.linalg.matrix_rank(pmat) < 16:
        raise ValueError("settings are not informationally complete")
    counts = np.array([float(r.count) for r in records])
    exposures = np.array([r.exposure for r in records])
    fun = _objective(likelihood, pmat, counts, exposures)

    seed_rho = linear_inversion_state(records) if initial is None else np.asarray(initial)
    t = _params_from_rho(seed_rho)
    best_f = fun(t)
    evals = 1
    converged = False
    # In-round simplex tolerances are loose relative to the objective scale;
    # the restart loop owns the 1e-10 relative-improvement convergence test.
    fatol = max(1e-11, 1e-9 * (1.0 + abs(best_f)))
    while evals < max_evals:
        res = minimize(
            fun,
            t,
            method="Nelder-Mead",
            options={
                "maxfev": min(4000, max_evals - evals),
                "xatol": 1e-4,
                "fatol": fatol,
                "adaptive": True,
            },
        )
        evals += res.nfev
        improvement = best_f - res.fun
        if res.fun < best_f:
            best_f = float(res.fun)
            t = res.x
        if improvement < 1e-10 * max(1.0, abs(best_f)):
            converged = True
            break
    rho_hat = _rho_from_params(t)
    return ReconstructionResult(
        rho_hat=_frozen(rho_hat),
        log_likelihood=-best_f,
        iterations=evals,
        converged=converged,
    )


_ESTIMATORS = {
    "concurrence": lambda rho: concurrence(rho).c,
    "purity": purity,
}


def monte_carlo_errors(
    records,
    trials: int,
    estimator,
    seed,
    likelihood: str = "gaussian",
    base: ReconstructionResult | None = None,
) -> ErrorEstimate:
    """Bootstrap error bar for a quantity derived from a reconstruction.

    Each trial resamples every count as Poisson around the observed value,
    re-runs the likelihood fit (warm-started from the base reconstruction)
    and evaluates the estimator: either a registered name ("concurrence",
    "purity") or any callable of the reconstructed density matrix. Trials
    where the estimator raises or returns a non-finite value are dropped and
    counted. Each trial owns a private random stream derived from
    (seed, trial index), so the outcome does not depend on execution order.
    """
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials!r}")
    if isinstance(estimator, str):
        if estimator not in _ESTIMATORS:
            raise ValueError(
                f"unknown estimator {estimator!r}; registered: {sorted(_ESTIMATORS)}"
            )
        name, fun = estimator, _ESTIMATORS[estimator]
    else:
        name, fun = getattr(estimator, "__name__", "custom"), estimator

    records = list(records)
    if base is None:
        base = reconstruct_state_mle(records, likelihood=likelihood)
    seed_parts = [int(seed)] if isinstance(seed, (int, np.integer)) else [int(s) for s in seed]

    values = []
    dropped = 0
    for trial in range(trials):
        rng = np.random.default_rng(seed_parts + [trial])
        resampled = [
            replace(r, count=_sample_poisson(rng, float(r.count))) for r in records
        ]
        fit = reconstruct_state_mle(resampled, likelihood=likelihood, initial=base.rho_hat)
        try:
            value = float(fun(fit.rho_hat))
        except (ValueError, ArithmeticError):
            dropped += 1
            continue
        if not math.isfinite(value):
            dropped += 1
            continue
        values.append(value)
    if len(values) < 2:
        raise ValueError(f"only {len(values)} usable trials out of {trials}")
    arr = np.asarray(values)
    return ErrorEstimate(
        quantity=name,
        mean=float(arr.mean()),
        std_dev=float(arr.std(ddof=1)),
        trials=len(values),
        dropped=dropped,
    )


def process_tomography_single_qubit(probe_results) -> np.ndarray:
    """Process matrix (Pauli basis) from (input ket, output state) probe pairs.

    Linear inversion: each probe contributes the four complex entries of its
    output to an overdetermined system in the 16 chi coefficients. If the
    solution has an eigenvalue below -1e-6 it is projected to the nearest
    PSD unit-trace matrix (eigenvalue clipping) with a warning.
    """
    pairs = list(probe_results)
    if not pairs:
        raise ValueError("no probe results given")
    blocks = []
    targets = []
    for probe_in, probe_out in pairs:
        vin = np.asarray(probe_in, dtype=complex)
        rho_in = np.outer(vin, vin.conj()) if vin.ndim == 1 else vin
        block = np.empty((4, 16), dtype=complex)
        for m in range(4):
            for n in range(4):
                block[:, 4 * m + n] = (PAULIS[m] @ rho_in @ PAULIS[n]).reshape(4)
        blocks.append(block)
        targets.append(np.asarray(probe_out, dtype=complex).reshape(4))
    a = np.vstack(blocks)
    if np.linalg.matrix_rank(a) < 16:
        raise ValueError(
            f"probe set is rank deficient (rank {np.linalg.matrix_rank(a)} < 16); "
            "inputs must span the single-qubit operator space"
        )
    chi_vec, *_ = np.linalg.lstsq(a, np.concatenate(targets), rcond=None)
    chi = chi_vec.reshape(4, 4)
    chi = 0.5 * (chi + chi.conj().T)
    w, v = np.linalg.eigh(chi)
    if w[0] < -1e-6:
        warnings.warn(
            f"reconstructed process matrix has eigenvalue {w[0]:.3g}; "
            "projecting to the nearest physical process matrix",
            stacklevel=2,
        )
        w = np.clip(w, 0.0, None)
        chi = (v * (w / w.sum())) @ v.conj().T
    return _frozen(chi)


def simulate_probe_outputs(
    channel,
    probe_labels=DEFAULT_PROBE_LABELS,
    n_per_projector: int | None = None,
    seed=None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(input ket, output state) pairs for process tomography of a channel.

    With ``n_per_projector`` unset the outputs are exact. Otherwise each
    output is estimated from Poissonian counts on the six polarization
    projectors: the Bloch components come from normalized count differences
    and the vector is clipped into the Bloch ball.
    """
    pairs = []
    rng = np.random.default_rng(seed) if n_per_projector is not None else None
    for label in probe_labels:
        ket_in = BASIS_KETS[label]
        rho_out = apply(channel, dm(ket_in))
        if n_per_projector is not None:
            counts = {
                lab: _sample_poisson(
                    rng, n_per_projector * float(np.trace(rho_out @ _PROJECTORS[lab]).real)
                )
                for lab in PROJECTOR_LABELS
            }
            vec = []
            for plus, minus in (("D", "A"), ("R", "L"), ("H", "V")):
                total = counts[plus] + counts[minus]
                vec.append((counts[plus] - counts[minus]) / total if total else 0.0)
            vec = np.asarray(vec)
            norm = np.linalg.norm(vec)
            if norm > 1.0:
                vec = vec / norm
            rho_out = density_from_bloch(vec)
        pairs.append((ket_in, rho_out))
    return pairs


def ellipsoid_mesh(channel, n_theta: int = 25, n_phi: int = 50) -> np.ndarray:
    """Image of a regular Bloch-sphere grid under a unital channel.

    Returns an (n_theta * n_phi, 3) array of Cartesian points; for a
    completely positive unital channel every point stays inside the ball.
    """
    from .channels import bloch_affine_map

    if n_theta < 2 or n_phi < 1:
        raise ValueError("mesh needs n_theta >= 2 and n_phi >= 1")
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
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        records = []
        for i, row in enumerate(reader):
            try:
                records.append(
                    CountRecord(
                        setting=MeasurementSetting(row["proj_a"], row["proj_b"]),
                        count=int(row["count"]),
                        exposure=float(row["exposure"]),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path}: malformed count record on data row {i + 1} ({exc})"
                ) from exc
    if not records:
        raise ValueError(f"no count records in {path}")
    return records
