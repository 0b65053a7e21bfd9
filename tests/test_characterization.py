"""Batched process tomography against a per-point reference: one channel
object, its probe outputs and a double-loop design solved by ``lstsq`` at
every grid point, as characterization was computed point by point."""

import warnings

import numpy as np
import pytest

from entdyn.channels import channel_for, pauli_transfer_matrix
from entdyn.cli import main
from entdyn.harness import ConfigError, run_channel_characterization
from entdyn.sampling import random_unital_channel
from entdyn.states import BASIS_KETS, PAULIS, dm
from entdyn.tomography import (
    DEFAULT_PROBE_LABELS,
    MAX_COUNT,
    PROJECTOR_LABELS,
    probe_outputs,
    process_matrices,
    process_tomography_single_qubit,
    simulate_probe_outputs,
)
import reference
from oracles import density_from_bloch, kraus_apply

FAMILIES = ("two-field", "isotropic", "dephasing")
GRID = tuple(np.linspace(0.0, 1.0, 11)) + (0.0123, 0.987)


def reference_solve(pairs):
    """(chi, projection warning text or None) by the per-point linear inversion."""
    blocks, targets = [], []
    for ket_in, rho_out in pairs:
        rho_in = np.outer(ket_in, np.conj(ket_in))
        block = np.empty((4, 16), dtype=complex)
        for m in range(4):
            for n in range(4):
                block[:, 4 * m + n] = (PAULIS[m] @ rho_in @ PAULIS[n]).reshape(4)
        blocks.append(block)
        targets.append(np.asarray(rho_out, dtype=complex).reshape(4))
    a = np.vstack(blocks)
    rank = np.linalg.matrix_rank(a)
    if rank < 16:
        raise ValueError(f"rank {rank}")
    chi_vec, *_ = np.linalg.lstsq(a, np.concatenate(targets), rcond=None)
    chi = chi_vec.reshape(4, 4)
    chi = 0.5 * (chi + chi.conj().T)
    w, v = np.linalg.eigh(chi)
    if w[0] < -1e-6:
        text = (f"reconstructed process matrix has eigenvalue {w[0]:.3g}; "
                "projecting to the nearest physical process matrix")
        w = np.clip(w, 0.0, None)
        return (v * (w / w.sum())) @ v.conj().T, text
    return chi, None


def ptm_apply(channel, rho):
    """Single-qubit channel action through the PTM: the Pauli components
    Tr(sigma_i rho) map to R times them."""
    r = pauli_transfer_matrix(channel) @ np.array([np.trace(s @ rho) for s in PAULIS])
    return 0.5 * sum(x * s for x, s in zip(r, PAULIS))


def reference_sampled_outputs(channel, n, seed):
    """Per-probe counts on the six projectors, drawn in label order from one
    stream, turned into clipped Bloch-vector estimates."""
    rng = np.random.default_rng(seed)
    pairs = []
    for label in DEFAULT_PROBE_LABELS:
        rho_out = ptm_apply(channel, dm(BASIS_KETS[label]))
        counts = {lab: rng.poisson(n * max(float(np.trace(rho_out @ dm(BASIS_KETS[lab])).real), 0.0))
                  for lab in PROJECTOR_LABELS}
        vec = np.array([(counts[a] - counts[b]) / (counts[a] + counts[b])
                        if counts[a] + counts[b] else 0.0
                        for a, b in (("D", "A"), ("R", "L"), ("H", "V"))])
        norm = np.linalg.norm(vec)
        pairs.append((BASIS_KETS[label], density_from_bloch(vec / norm if norm > 1.0 else vec)))
    return pairs


def run_recorded(*args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = run_channel_characterization(*args, **kwargs)
    return rows, [str(w.message) for w in caught]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("counts, seed", [(None, 0), (100, 0), (1000, 3), (1000, 17),
                                          (10_000, 5)])
def test_batched_rows_match_per_point_reference(family, counts, seed):
    rows, texts = run_recorded(family, GRID, n_per_probe=counts, seed=seed)
    want_texts = []
    assert len(rows) == len(GRID)
    for i, (row, p) in enumerate(zip(rows, GRID)):
        channel = channel_for(family, p)
        pairs = simulate_probe_outputs(channel, n_per_projector=counts,
                                       seed=None if counts is None else (seed, i))
        chi, text = reference_solve(pairs)
        want_texts += [text] if text else []
        assert row.p == p
        assert row.theory == tuple(channel.chi_diag.tolist())
        assert np.max(np.abs(np.array(row.chi) - np.diag(chi).real)) < 1e-12
    assert texts == want_texts


def test_reference_comparison_sees_projections():
    projected = sum(len(run_recorded(family, GRID, n_per_probe=100, seed=0)[1])
                    for family in FAMILIES)
    assert projected > 0


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("counts", [5, 1000, 10_000])
def test_sampled_outputs_keep_the_per_point_draw_order(family, counts):
    for i, p in enumerate(GRID):
        channel = channel_for(family, p)
        got = simulate_probe_outputs(channel, n_per_projector=counts, seed=(9, i))
        want = reference_sampled_outputs(channel, counts, (9, i))
        for (ket_a, rho_a), (ket_b, rho_b) in zip(got, want):
            assert np.array_equal(ket_a, ket_b)
            assert np.max(np.abs(rho_a - rho_b)) < 1e-14


def test_stack_equals_single_channels():
    rng = np.random.default_rng(2)
    channels = [random_unital_channel(rng) for _ in range(6)]
    ptm = np.array([pauli_transfer_matrix(c) for c in channels])
    for counts in (None, 500):
        seeds = [(4, i) for i in range(len(channels))]
        stacked = probe_outputs(ptm, n_per_projector=counts, seeds=seeds)
        rho_in = [dm(BASIS_KETS[label]) for label in DEFAULT_PROBE_LABELS]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            chi = process_matrices(stacked, rho_in)
            assert np.array_equal(process_matrices(stacked), chi)  # the default probe inputs
            for i, channel in enumerate(channels):
                pairs = simulate_probe_outputs(channel, n_per_projector=counts, seed=seeds[i])
                assert np.max(np.abs(np.array([rho for _, rho in pairs]) - stacked[i])) < 1e-15
                single = process_tomography_single_qubit(pairs)
                assert np.max(np.abs(single - chi[i])) < 1e-12
                assert np.max(np.abs(single - reference_solve(pairs)[0])) < 1e-12


def test_only_a_custom_probe_set_is_decomposed(monkeypatch):
    """Characterization applies the default probes' map, built at import,
    with no SVD or pseudo-inverse; a custom probe set makes one rank check
    and one pseudo-inverse of its (4, k) Pauli components per call."""
    calls = []
    for name in ("svd", "pinv", "matrix_rank"):
        def counting(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    run_channel_characterization("two-field", GRID)
    run_recorded("dephasing", GRID, n_per_probe=1000, seed=3)
    run_recorded("isotropic", GRID, n_per_probe=100, seed=0)
    assert calls == []
    channel = channel_for("isotropic", 0.2)
    pairs = [(BASIS_KETS[label], kraus_apply(channel, dm(BASIS_KETS[label])))
             for label in ("H", "D", "R", "L", "A")]
    for expected in (1, 2):
        process_tomography_single_qubit(pairs)
        assert calls == [("matrix_rank", (4, 5)), ("pinv", (4, 5))] * expected


def test_exact_probe_process_matrices_match_the_40_digit_reference():
    """Exact-probe process matrices of the three families on a 101-point
    grid and of 20 seeded random unital channels, against mpmath's chi of
    each channel's weights or rotations (largest errors measured: 5.0e-16
    families and 6.8e-16 unital with the process-matrix design inverted
    directly, 3.3e-16 and 4.0e-16 by PTM least squares)."""
    rng = np.random.default_rng(17)
    channels = [channel_for(family, p) for family in FAMILIES for p in np.linspace(0.0, 1.0, 101)]
    channels += [random_unital_channel(rng) for _ in range(20)]
    chi = process_matrices(probe_outputs(np.array([pauli_transfer_matrix(c) for c in channels])))
    errors = [reference.max_abs_error(x, reference.chi(c)) for x, c in zip(chi, channels)]
    assert max(errors) < 1e-15


@pytest.mark.parametrize("family", FAMILIES)
def test_exact_probe_process_matrices_within_1e_15(family):
    """Every entry of the exact-probe process matrix is diag(weights) to
    1e-15 on a 101-point grid (largest error measured: 5.0e-16)."""
    channels = [channel_for(family, p) for p in np.linspace(0.0, 1.0, 101)]
    ptm = np.array([pauli_transfer_matrix(c) for c in channels])
    chi = process_matrices(probe_outputs(ptm))
    want = np.array([np.diag(c.chi_diag) for c in channels])
    assert np.max(np.abs(chi - want)) < 1e-15


@pytest.mark.parametrize("labels, rank", [(("H", "V"), 8), (("H", "V", "D", "A"), 12),
                                          (("H", "D", "R", "L", "A"), 16)])
def test_probe_rank(labels, rank):
    channel = channel_for("isotropic", 0.2)
    pairs = [(BASIS_KETS[label], kraus_apply(channel, dm(BASIS_KETS[label]))) for label in labels]
    if rank == 16:
        chi = process_tomography_single_qubit(pairs)
        assert np.max(np.abs(np.diag(chi).real - [0.8, 0.2 / 3, 0.2 / 3, 0.2 / 3])) < 1e-12
        return
    with pytest.raises(ValueError, match="rank"):
        reference_solve(pairs)
    with pytest.raises(ValueError, match=rf"rank deficient \(rank {rank} < 16\)"):
        process_tomography_single_qubit(pairs)


@pytest.mark.parametrize("n", [0, -1])
def test_non_positive_counts_rejected(n):
    with pytest.raises(ValueError, match="n_per_projector: must be >= 1"):
        simulate_probe_outputs(channel_for("isotropic", 0.2), n_per_projector=n, seed=1)
    with pytest.raises(ValueError, match="n_per_projector"):
        run_channel_characterization("isotropic", (0.2,), n_per_probe=n)


def test_counts_above_the_limit_rejected():
    with pytest.raises(ValueError, match="n_per_projector: must be <= 1e18"):
        simulate_probe_outputs(channel_for("isotropic", 0.2), n_per_projector=MAX_COUNT + 1, seed=1)
    pairs = simulate_probe_outputs(channel_for("isotropic", 0.2), n_per_projector=MAX_COUNT, seed=1)
    assert np.max(np.abs(process_tomography_single_qubit(pairs).diagonal().real
                         - [0.8, 0.2 / 3, 0.2 / 3, 0.2 / 3])) < 1e-6


@pytest.mark.parametrize("counts", ["0", "-4"])
def test_cli_non_positive_counts_exit_1(capsys, counts):
    assert main(["characterize", "--family", "isotropic", "--p-grid", "0,0.5",
                 "--counts", counts]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "counts" in captured.err


def test_empty_grid_rejected(capsys):
    with pytest.raises(ConfigError, match="^p_grid: must not be empty$"):
        run_channel_characterization("isotropic", ())
    assert main(["characterize", "--family", "isotropic", "--p-grid", ","]) == 1
    assert "p_grid: must not be empty" in capsys.readouterr().err


def test_grid_values_checked_by_index():
    with pytest.raises(ConfigError, match=r"p_grid\[1\]: value 1.5 outside"):
        run_channel_characterization("dephasing", (0.2, 1.5))
