"""The eigenvalue oracle must be trustworthy on problems with known answers
before it is pointed at constructed potentials: a particle in a box, random
tridiagonal matrices solved two independent ways, and deliberately wrong
inputs that have to be flagged."""

import math

import numpy as np
import pytest

from darboux_lab import oracle
from darboux_lab.darboux import SpectrumPrediction
from darboux_lab.fields import ComplexField, EigenState, RealField, interior_grid
from darboux_lab.pipeline import richardson_spectrum


def _box_hamiltonian(n=1500):
    grid = interior_grid(0.0, math.pi, n)
    return oracle.build_fd(RealField(grid, np.zeros(n)))


def test_box_spectrum():
    ev = np.sort_complex(oracle.eig_complex(_box_hamiltonian()))
    assert np.max(np.abs(ev[:3].imag)) == 0.0
    assert ev[:3].real == pytest.approx([1.0, 4.0, 9.0], abs=1e-2)


def test_build_fd_rejects_tiny_grids():
    grid = interior_grid(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        oracle.build_fd(RealField(grid, np.zeros(10)))


@pytest.mark.parametrize("n, seed", [(8, 11), (33, 5), (50, 2)])
def test_charpoly_agrees_with_qr_eigenvalues(n, seed):
    # two routes to the same spectrum: LAPACK-style dense solve vs root
    # finding on the tridiagonal characteristic polynomial
    rng = np.random.default_rng(seed)
    diag = rng.normal(size=n) + 1j * rng.normal(size=n)
    lower = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    upper = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    dense = oracle.dense_eigenvalues(diag, lower, upper)
    roots = oracle.charpoly_roots(diag, lower, upper)
    assert len(roots) == n
    for r in roots:
        assert np.min(np.abs(np.asarray(dense) - r)) < 1e-8


def test_spectrum_match_reports_errors_and_spurious():
    pred = SpectrumPrediction((1.0, 4.0), ("eps", "E0"), (1, 1))
    computed = [4.003 + 2e-9j, 0.999, 2.5, 11.0]
    slots, matched, spurious = oracle.match_levels(pred, computed, cutoff=10.0)
    assert slots == [1.0, 4.0]
    assert np.abs(matched - slots) == pytest.approx((1e-3, 3e-3), abs=1e-9)
    # 2.5 is below the cutoff and unclaimed; 11.0 is past it
    assert spurious == [2.5 + 0.0j]


def test_spectrum_match_expands_multiplicity():
    pred = SpectrumPrediction((1.0, 4.0), ("E0", "E1+eps"), (1, 2))
    computed = [1.0, 3.99, 4.01]
    slots, matched, spurious = oracle.match_levels(pred, computed)
    assert slots == [1.0, 4.0, 4.0]
    # the doubled level claims both members of the split pair
    assert sorted(matched[1:].real) == [3.99, 4.01]
    assert spurious == []


def _box_field(grid, shift=0.0):
    return ComplexField(grid, np.full(grid.size, shift, dtype=complex))


_BOX = SpectrumPrediction((1.0, 4.0, 9.0), ("E0", "E1", "E2"), (1, 1, 1))


def test_spectrum_match_fails_on_imaginary_leak():
    # a constant potential i*1e-3 shifts every box level by exactly that much:
    # the real parts stay within tol_abs, the imaginary gate must fail
    report = richardson_spectrum(lambda g: _box_field(g, 1e-3j), (0.0, math.pi),
                                 _BOX, n_fine=600, n_coarse=300, tol_abs=1e-2)
    assert max(report["abs_errors"]) <= 1e-2
    assert report["max_imag"] == pytest.approx(1e-3, rel=1e-6)
    assert not report["passed"]


def test_richardson_spectrum_beats_fine_grid_on_box():
    # particle in a box: the three-point stencil misses E = k^2 by about
    # k^4 h^2 / 12, and the (h, 2h) combination must cancel that term
    report = richardson_spectrum(_box_field, (0.0, math.pi), _BOX,
                                 n_fine=600, n_coarse=300, tol_abs=1e-2)
    assert report["passed"]
    assert report["unmatched_spurious_below_cutoff"] == []
    ham = oracle.build_fd(_box_field(interior_grid(0.0, math.pi, 600)))
    _, fine, _ = oracle.match_levels(_BOX, oracle.eig_complex(ham))
    fine_errors = np.abs(fine - np.array(_BOX.energies))
    assert np.all(100.0 * np.array(report["abs_errors"]) <= fine_errors)


def test_residual_flags_wrong_energy():
    # the residual must be an actual detector: right energy passes, an energy
    # off by 1e-3 fails by orders of magnitude
    n = 2001
    grid = interior_grid(0.0, math.pi, n)
    psi = np.sqrt(2.0 / math.pi) * np.sin(2.0 * grid)
    field = ComplexField(grid, np.zeros(n, dtype=complex))
    good = EigenState(4.0, grid, psi.astype(complex), 1.0 + 0j, False, {})
    bad = EigenState(4.001, grid, psi.astype(complex), 1.0 + 0j, False, {})
    r_good = oracle.schrodinger_residual(good, field)
    r_bad = oracle.schrodinger_residual(bad, field)
    assert r_good < 1e-6
    assert r_bad > 100.0 * r_good


def test_interlacing_on_synthetic_states():
    n = 3001
    grid = interior_grid(0.0, math.pi, n)
    # Re has zeros at pi/3, 2pi/3; Im at pi/2: strict alternation
    good = EigenState(0.0, grid,
                      np.sin(3.0 * grid) + 1j * np.sin(2.0 * grid),
                      1.0 + 0j, False, {})
    assert oracle.interlacing_check(good).ok
    # shared zeros: no Im zero strictly between consecutive Re zeros
    bad = EigenState(0.0, grid,
                     np.sin(3.0 * grid) + 1j * np.sin(3.0 * grid),
                     1.0 + 0j, False, {})
    assert not oracle.interlacing_check(bad).ok


def test_binorm_is_bilinear_not_sesquilinear():
    n = 4001
    grid = interior_grid(-1.0, 1.0, n)
    psi = np.exp(1j * grid)
    # int exp(2ix) over the sampled span (-L, L) is sin(2L); a sesquilinear
    # integral would give 2L instead
    span = float(grid[-1])
    value = oracle.binorm(grid, psi)
    assert value == pytest.approx(math.sin(2.0 * span) + 0.0j, abs=1e-9)
