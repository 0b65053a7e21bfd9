"""Correctness gate: every op's output against theory the benchmark derives itself.

The closed forms here are written out from the paper's formulas rather than
taken from ``entdyn``, so a defect in the library's laws fails the gate
instead of agreeing with itself. Each ``check_*`` returns a list of problems;
an empty list means the op passed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile

import numpy as np

EXACT_TOL = 1e-9  # closed form vs exact evolution where the law is exact
BREAKING_TOL = 1e-6
CHI_EXACT_TOL = 1e-10
ROUND_TRIP_TOL = 1e-12  # values that pass through repr() or a JSON float unchanged

#: Shot-noise gates scale with 1/sqrt(counts). The tomo-sim concurrence must
#: sit within TOMO_K * max(bootstrap sigma, floor / sqrt(N)) of theory; the
#: floor stands in for the bootstrap sigma, which two trials estimate poorly.
#: Away from C = 1 the estimator's spread is about 0.4-0.9 / sqrt(N), so a
#: floor of 1 puts a valid fit more than six sigma inside. At C = 1 (a pure
#: maximally entangled state) a valid fit lands within 0.006 / sqrt(N) of 1
#: while a linear-inversion estimate misses by 0.9-2.7 / sqrt(N) (15 seeds
#: each at N = 10^4), so the floor there is 0.02: tolerance 0.12 / sqrt(N).
TOMO_K = 6.0
TOMO_FLOOR = 1.0
TOMO_FLOOR_PURE = 0.02
#: |chi_i - theory_i| * sqrt(counts per projector) for sampled probes: the
#: largest seen over 360 characterize runs (11 points, 4 entries each, all
#: three families, 10^3 and 10^4 counts) was 1.9.
CHI_SHOT_K = 4.0

BREAKING_POINTS = {
    ("two-field", "one_sided"): 0.5,
    ("two-field", "two_sided"): 1.0 / 3.0,
    ("isotropic", "one_sided"): 0.5,
    ("isotropic", "two_sided"): (3.0 - math.sqrt(3.0)) / 4.0,
}

PROJECTION_WARNING = "reconstructed process matrix has eigenvalue"

_S2 = 1.0 / math.sqrt(2.0)
_KETS = {
    "H": np.array([1.0, 0.0]), "V": np.array([0.0, 1.0]),
    "D": np.array([_S2, _S2]), "A": np.array([_S2, -_S2]),
    "R": np.array([_S2, 1j * _S2]), "L": np.array([_S2, -1j * _S2]),
}
_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_YY = np.kron(_PAULIS[2], _PAULIS[2])

#: Density matrices of the singlet and of |phi+> = (|00> + |11>)/sqrt(2).
SINGLET = np.outer([0.0, _S2, -_S2, 0.0], [0.0, _S2, -_S2, 0.0])
PHI_PLUS = np.outer([_S2, 0.0, 0.0, _S2], [_S2, 0.0, 0.0, _S2])


# ---------------------------------------------------------------------------
# Theory


def family_chi(family: str, p: float) -> np.ndarray:
    """Pauli weights (chi_0..chi_3) of a named one-parameter family."""
    if family == "two-field":
        return np.array([1.0 - p, p / 2.0, p / 2.0, 0.0])
    if family == "isotropic":
        return np.array([1.0 - p, p / 3.0, p / 3.0, p / 3.0])
    if family == "dephasing":
        return np.array([1.0 - p, 0.0, 0.0, p])
    raise ValueError(f"unknown family {family!r}")


def family_radii(family: str, p: float) -> np.ndarray:
    """Signed ellipsoid radii R_i = chi_0 + chi_i - chi_j - chi_k."""
    chi = family_chi(family, p)
    return np.array([2.0 * (chi[0] + chi[i]) - 1.0 for i in (1, 2, 3)])


def law_one_sided(radii) -> float:
    r = np.abs(np.asarray(radii, dtype=float))
    return max((r.sum() - 1.0) / 2.0, 0.0)


def law_two_sided(radii) -> float:
    r = np.asarray(radii, dtype=float)
    return max((np.dot(r, r) - 1.0) / 2.0, 0.0)


def initial_concurrence(initial: dict) -> float:
    return 1.0 if initial["kind"] == "bell" else abs(math.sin(4.0 * initial["delta"]))


def sweep_expectation(family: str, mode: str, initial: dict, p: float) -> tuple[float, bool]:
    """(value, exact): the concurrence law, or an upper bound when not exact.

    One-sided noise on a pure state factorizes (C = C_bell(channel) * C0);
    the dephasing-prepared mixed state is a pure state under the composed
    channel, whose radii multiply. Two-sided Pauli noise on a Bell pair
    follows the two-sided law; on other states, applying the second side
    can multiply the concurrence by at most C_bell(channel), which bounds it.
    """
    radii = family_radii(family, p)
    c0 = initial_concurrence(initial)
    composed = radii
    if initial["kind"] == "mixed_pes":
        composed = radii * family_radii("dephasing", initial["dephasing"])
    if mode == "one_sided":
        return law_one_sided(composed) * c0, True
    if initial["kind"] == "bell":
        return law_two_sided(radii), True
    return law_one_sided(radii) * law_one_sided(composed) * c0, False


def wootters_concurrence(rho) -> float:
    m = np.asarray(rho, dtype=complex)
    flipped = _YY @ m.conj() @ _YY
    lam = np.sort(np.sqrt(np.clip(np.linalg.eigvals(m @ flipped).real, 0.0, None)))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def bloch_rotation(u) -> np.ndarray:
    """O with bloch(u rho u^dag) = O bloch(rho): O_ij = Tr(s_i u s_j u^dag) / 2."""
    u = np.asarray(u, dtype=complex)
    return np.array([[0.5 * np.trace(_PAULIS[i] @ u @ _PAULIS[j] @ u.conj().T).real
                      for j in (1, 2, 3)] for i in (1, 2, 3)])


def _matrix(obj) -> np.ndarray:
    dim = int(obj["dim"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    return (re + 1j * im).reshape(dim, dim)


def bloch_map(channel: dict) -> np.ndarray:
    """3x3 Bloch map of a channel description; its singular values are |R_i|."""
    if channel["family"] == "unital":
        return bloch_rotation(_matrix(channel["u"])) @ np.diag(channel["radii"]) @ bloch_rotation(
            _matrix(channel["v"]))
    return np.diag(family_radii(channel["family"], channel["p"]))


def sphere_grid(n_theta: int, n_phi: int) -> np.ndarray:
    theta = np.linspace(0.0, np.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    return np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)],
                    axis=-1).reshape(-1, 3)


def grid_points(grid: dict) -> np.ndarray:
    return np.linspace(grid["start"], grid["stop"], grid["points"])


def _label(initial: dict) -> str:
    if initial["kind"] == "bell":
        return "bell_" + initial["bell"].replace("+", "_plus").replace("-", "_minus")
    if initial["kind"] == "pure_pes":
        return f"pure_pes_delta{initial['delta']:g}_phi0"
    return f"mixed_pes_delta{initial['delta']:g}_p{initial['dephasing']:g}"


# ---------------------------------------------------------------------------
# Likelihood, written out independently of entdyn.tomography


def _setting_matrix(rows) -> np.ndarray:
    ops = []
    for a, b in rows:
        ka, kb = _KETS[a], _KETS[b]
        op = np.kron(np.outer(ka, ka.conj()), np.outer(kb, kb.conj()))
        ops.append(op.T.reshape(16))
    return np.array(ops)


def read_counts(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    settings = [(r["proj_a"], r["proj_b"]) for r in rows]
    return (_setting_matrix(settings), np.array([float(r["count"]) for r in rows]),
            np.array([float(r["exposure"]) for r in rows]))


def neg_log_likelihood(rho, counts_data, likelihood: str) -> float:
    pmat, counts, exposures = counts_data
    mu = exposures * np.clip((pmat @ np.asarray(rho).reshape(16)).real, 1e-12, None)
    if likelihood == "gaussian":
        return float(np.sum((mu - counts) ** 2 / (2.0 * mu)))
    return float(np.sum(mu - counts * np.log(mu)))


def linear_inversion(counts_data) -> np.ndarray:
    pmat, counts, exposures = counts_data
    x, *_ = np.linalg.lstsq(pmat, counts / exposures, rcond=None)
    rho = x.reshape(4, 4)
    rho = 0.5 * (rho + rho.conj().T)
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    return (v * (w / w.sum())) @ v.conj().T


# ---------------------------------------------------------------------------
# Gates


def _read_table(path, fmt) -> list[dict]:
    if fmt == "json":
        with open(path) as fh:
            return json.load(fh)
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_sweep_rows(rows, check, initial) -> list[str]:
    problems = []
    grid = grid_points(check["grid"])
    if len(rows) != len(grid):
        return [f"{len(rows)} rows for a {len(grid)}-point grid"]
    for row, p in zip(rows, grid):
        if abs(row.p - p) > ROUND_TRIP_TOL:
            problems.append(f"p {row.p!r} != grid {p!r}")
            continue
        if row.error is not None:
            problems.append(f"p={p:.4f}: unexpected error bar {row.error!r}")
        value, exact = sweep_expectation(check["family"], check["mode"], initial, row.p)
        if exact:
            for name, got in (("concurrence", row.concurrence), ("predicted", row.predicted)):
                if abs(got - value) > EXACT_TOL:
                    problems.append(f"p={p:.4f}: {name} {got!r} vs law {value!r}")
        else:
            if row.concurrence > value + EXACT_TOL or row.predicted > value + EXACT_TOL:
                problems.append(f"p={p:.4f}: {row.concurrence!r} above bound {value!r}")
            if abs(row.concurrence - row.predicted) > EXACT_TOL:
                problems.append(f"p={p:.4f}: concurrence {row.concurrence!r} != predicted "
                                f"{row.predicted!r}")
        if not 0.0 <= row.concurrence <= 1.0 + EXACT_TOL:
            problems.append(f"p={p:.4f}: concurrence {row.concurrence!r} outside [0, 1]")
        if len(problems) > 3:
            break
    return problems


def check_sweep(check, workdir) -> list[str]:
    from entdyn.harness import read_rows

    rows = read_rows(os.path.join(workdir, check["out"]), check["format"])
    return _check_sweep_rows(rows, check, check["initials"][0])


def check_pes_sweep(check, workdir) -> list[str]:
    from entdyn.harness import read_rows

    out = os.path.join(workdir, check["out"])
    problems = []
    if check["format"] == "json":
        with open(out) as fh:
            tables = json.load(fh)
    else:
        tables = None
    expected_labels = sorted(_label(i) for i in check["initials"])
    if tables is not None and sorted(tables) != expected_labels:
        return [f"tables {sorted(tables)} != {expected_labels}"]
    for initial in check["initials"]:
        label = _label(initial)
        if tables is None:
            stem, _ = os.path.splitext(out)
            rows = read_rows(f"{stem}_{label}.csv", "csv")
        else:
            with tempfile.NamedTemporaryFile("w", suffix=".json", dir=workdir, delete=False) as fh:
                json.dump(tables[label], fh)
            try:
                rows = read_rows(fh.name, "json")
            finally:
                os.remove(fh.name)
        problems += [f"{label}: {p}" for p in _check_sweep_rows(rows, check, initial)]
    return problems


def check_breaking_points(check, workdir) -> list[str]:
    rows = _read_table(os.path.join(workdir, check["out"]), check["format"])
    got = {(r["family"], r["mode"]): float(r["p_star"]) for r in rows}
    if sorted(got) != sorted(BREAKING_POINTS):
        return [f"rows {sorted(got)} != {sorted(BREAKING_POINTS)}"]
    return [f"{key}: p* {got[key]!r} vs {want!r}" for key, want in BREAKING_POINTS.items()
            if abs(got[key] - want) > BREAKING_TOL]


def check_characterize(check, workdir) -> list[str]:
    rows = _read_table(os.path.join(workdir, check["out"]), check["format"])
    grid = grid_points(check["grid"])
    if len(rows) != len(grid):
        return [f"{len(rows)} rows for a {len(grid)}-point grid"]
    tol = CHI_EXACT_TOL if check["counts"] is None else CHI_SHOT_K / math.sqrt(check["counts"])
    problems = []
    for row, p in zip(rows, grid):
        chi = np.array([float(row[f"chi_{i}"]) for i in range(4)])
        theory = np.array([float(row[f"theory_{i}"]) for i in range(4)])
        want = family_chi(check["family"], p)
        if abs(float(row["p"]) - p) > ROUND_TRIP_TOL:
            problems.append(f"p {row['p']!r} != grid {p!r}")
        elif np.max(np.abs(theory - want)) > ROUND_TRIP_TOL:
            problems.append(f"p={p:.4f}: theory {theory.tolist()} != {want.tolist()}")
        elif np.max(np.abs(chi - want)) > tol:
            problems.append(f"p={p:.4f}: chi {chi.tolist()} off theory by "
                            f"{np.max(np.abs(chi - want)):.3g} > {tol:.3g}")
        elif abs(chi.sum() - 1.0) > EXACT_TOL:
            problems.append(f"p={p:.4f}: chi sums to {chi.sum()!r}")
    return problems


def check_ellipsoid(check, workdir) -> list[str]:
    path = os.path.join(workdir, check["out"])
    if check["format"] == "json":
        with open(path) as fh:
            points = np.array(json.load(fh), dtype=float)
    else:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["x", "y", "z"]:
            return [f"header {rows[0]}"]
        points = np.array(rows[1:], dtype=float)
    n_theta, n_phi = check["mesh"]
    if points.shape != (n_theta * n_phi, 3):
        return [f"mesh shape {points.shape} != ({n_theta * n_phi}, 3)"]
    problems = []
    norm = np.max(np.linalg.norm(points, axis=1))
    if norm > 1.0 + ROUND_TRIP_TOL:
        problems.append(f"point outside the unit ball (|r| = {norm!r})")
    # on the ellipsoid: the image of the same sphere grid under the Bloch map,
    # whose singular values are the radii |R_i|
    off = np.max(np.abs(points - sphere_grid(n_theta, n_phi) @ bloch_map(check["channel"]).T))
    if off > ROUND_TRIP_TOL:
        problems.append(f"points off the ellipsoid by {off:.3g}")
    return problems


def check_tomo(check, workdir, summaries, index) -> list[str]:
    with open(os.path.join(workdir, check["out"])) as fh:
        s = json.load(fh)
    initial = check["initials"][0]
    theory, exact = sweep_expectation(check["family"], check["mode"], initial, check["p"])
    if not exact:
        raise ValueError("tomo-sim ops need a configuration with an exact law")
    problems = []
    for key, want in (("n_per_setting", check["counts"]), ("trials", check["trials"]),
                      ("seed", check["seed"])):
        if s[key] != want:
            problems.append(f"{key} {s[key]!r} != {want!r}")
    if not s["converged"]:
        problems.append("fit did not converge")
    if abs(s["predicted"] - theory) > EXACT_TOL:
        problems.append(f"predicted {s['predicted']!r} vs law {theory!r}")
    rho = _matrix(s["rho"])
    if (np.max(np.abs(rho - rho.conj().T)) > 1e-12 or abs(np.trace(rho).real - 1.0) > 1e-9
            or np.linalg.eigvalsh(rho)[0] < -1e-9):
        problems.append("reconstructed rho is not a density matrix")
    elif abs(wootters_concurrence(rho) - s["concurrence"]) > 1e-6:
        problems.append(f"concurrence {s['concurrence']!r} does not belong to the reported rho")
    floor = TOMO_FLOOR_PURE if theory >= 1.0 - 1e-12 else TOMO_FLOOR
    sigma = max(s["error"], floor / math.sqrt(check["counts"]))
    if abs(s["concurrence"] - theory) > TOMO_K * sigma:
        problems.append(f"concurrence {s['concurrence']:.5f} vs law {theory:.5f}: more than "
                        f"{TOMO_K:g} x {sigma:.2g}")
    if check["counts_file"]:
        data = read_counts(os.path.join(workdir, check["counts_file"]))
        nll = neg_log_likelihood(rho, data, check["likelihood"])
        seed_nll = neg_log_likelihood(linear_inversion(data), data, check["likelihood"])
        scale = 1.0 + abs(nll)
        if abs(nll + s["log_likelihood"]) > 1e-6 * scale:
            problems.append(f"log_likelihood {s['log_likelihood']!r} != -NLL(rho) {-nll!r}")
        if nll > seed_nll - 1e-6 * scale:
            problems.append(f"fit NLL {nll!r} does not improve on linear inversion {seed_nll!r}")
    if check["same_as"] is not None:
        prior = summaries.get(check["same_as"])
        if prior is not None and (prior["concurrence"], prior["rho"]) != (
                s["concurrence"], s["rho"]):
            problems.append("reading the counts back gave a different reconstruction")
    summaries[index] = s
    return problems


def check_unital(result) -> list[str]:
    """Singlet under a unital channel: equality with the two-sided law; the
    rotated Bell pair |phi+>: the law is an upper bound."""
    problems = []
    for radii, c_singlet, c_phi, predicted in result:
        law = law_two_sided(radii)
        if abs(c_singlet - law) > EXACT_TOL:
            problems.append(f"singlet concurrence {c_singlet!r} vs law {law!r}")
        if c_phi > law + EXACT_TOL:
            problems.append(f"phi+ concurrence {c_phi!r} above bound {law!r}")
        if abs(predicted - law) > ROUND_TRIP_TOL:
            problems.append(f"predict_two_sided {predicted!r} vs law {law!r}")
    return problems


def check_op(check, workdir, summaries, index, result=None) -> list[str]:
    """Problems with one op's output; ``summaries`` carries tomo-sim results
    between ops so a counts read-back can be compared with its writer."""
    verb = check["verb"]
    if verb == "unital":
        return check_unital(result)
    if verb == "sweep":
        return check_sweep(check, workdir)
    if verb == "pes-sweep":
        return check_pes_sweep(check, workdir)
    if verb == "breaking-points":
        return check_breaking_points(check, workdir)
    if verb == "characterize":
        return check_characterize(check, workdir)
    if verb == "ellipsoid":
        return check_ellipsoid(check, workdir)
    if verb == "tomo-sim":
        return check_tomo(check, workdir, summaries, index)
    raise ValueError(f"no gate for verb {verb!r}")


def unexpected_warnings(check, caught) -> tuple[int, list[str]]:
    """(projection warnings, messages of any other warning).

    Process tomography may project a shot-noise estimate onto the physical
    set and says so; that is expected for ``characterize`` with counts and
    is counted. Any other warning fails the op."""
    projected, other = 0, []
    for w in caught:
        message = str(w.message)
        if check["verb"] == "characterize" and message.startswith(PROJECTION_WARNING):
            projected += 1
        else:
            other.append(f"{w.category.__name__}: {message}")
    return projected, other
