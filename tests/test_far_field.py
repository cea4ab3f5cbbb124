"""The far-field sums and roots of the normal modes against the term-by-term ones.

transform.far_field_sums is checked against the direct sums over every
(target, source) pair, each difference formed from its two exact factors.
From propagator.FAR_FIELD_ROOTS roots on, Loewner's z and the secular
modes of a pass over the shapes go through it; those are checked
against the dense path, which the threshold selects when patched out of
reach.  The in-band secular roots go through a far-field tree there
too; they are checked by one Newton step in long double, summed over
every pole.  The bounds were fixed before the first comparison: the
pass's projections, particle entries and state within 1e-13 of their
largest entry, Loewner's z within 1e-12 relative, the flow's total
energy within ENERGY_DRIFT_TOL, and each root's Newton step within
2e-13 of its offset from its pole.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from finitebath import propagator, transform
from finitebath.bath import realize_bath
from finitebath.experiments import ENERGY_DRIFT_TOL
from finitebath.model import (BathSpec, DensityOfStates, SystemState, TestParticleSpec,
                              initial_state, total_energy)
from finitebath.propagator import (EigensolverError, build_multi_coupling_matrix, diagonalize,
                                   flow_factors)
from finitebath.transform import far_field_sums

from conftest import full_state

BAND = DensityOfStates("uniform", 0.2, 1.0)
EPS = np.finfo(float).eps


def _direct(targets, sources, charges, kernels):
    """Every term of far_field_sums, with its exact differences: (sums, sums of magnitudes)."""
    (tb, to), (sb, so) = targets, sources
    u = (np.subtract.outer(tb, sb) + np.subtract.outer(to, so)) * np.add.outer(tb + to, sb + so)
    own = u != 0.0
    safe = np.where(own, u, 1.0)
    table = {"log": np.log(np.abs(safe)), "cauchy": 1.0 / safe, "cauchy2": 1.0 / safe**2}
    terms = [np.where(own, table[k], 0.0) * q for k, q in zip(kernels, charges)]
    return (np.array([t.sum(axis=1) for t in terms]),
            np.array([np.abs(t).sum(axis=1) for t in terms]))


def _interlaced(n, rng):
    """n poles in [0.2, 1] and a root held as pole plus offset in each gap between them."""
    w = np.sort(rng.uniform(0.2, 1.0, n))
    return (w, np.zeros(n)), (w[:-1], np.diff(w) * rng.uniform(0.01, 0.99, n - 1))


@pytest.mark.parametrize("n", [3, 40, 3000])
def test_far_field_sums_match_the_terms_within_32_eps_of_their_magnitudes(n):
    """Every kernel, targets with offsets or without, and a point's own term left out.

    The three sizes make a tree of one leaf, of leaves all within each
    other's near field, and of eight levels.  Over four seeds and four
    sizes the error reached 14 eps of the terms' magnitudes.
    """
    rng = np.random.default_rng(n)
    poles, roots = _interlaced(n, rng)
    kernels = ["cauchy2", "cauchy", "log"]
    for targets, sources in ((roots, poles), (poles, roots), (poles, poles)):
        charges = rng.normal(size=(3, len(sources[0])))
        got = far_field_sums(targets, sources, charges, kernels)
        want, size = _direct(targets, sources, charges, kernels)
        assert np.all(np.abs(got - want) <= 32 * EPS * size)


def test_a_window_wider_than_a_chunk_is_summed_whole(monkeypatch):
    """Half the points crowd into one leaf, chunks hold 64 pairs: a target's window is wider."""
    monkeypatch.setattr(transform, "FAR_CHUNK", 64)
    rng = np.random.default_rng(2)
    w = np.sort(np.r_[rng.uniform(0.2, 1.0, 300), 0.5 + 1e-6 * rng.uniform(size=300)])
    poles = (w, np.zeros(len(w)))
    roots = (w[:-1], np.diff(w) * 0.5)
    charges = rng.normal(size=(2, len(w)))
    got = far_field_sums(roots, poles, charges, ["cauchy", "cauchy2"])
    want, size = _direct(roots, poles, charges, ["cauchy", "cauchy2"])
    assert np.all(np.abs(got - want) <= 32 * EPS * size)


def test_a_deep_tree_keeps_its_split_sums_within_32_eps_of_their_magnitudes():
    """Leaves of two points, 12 levels: 3000 poles, summed at the roots between them.

    The Cauchy sums are split at each root's pole, as the secular roots
    take them, and reached 11 eps.  Every point is placed against its
    box's exact centre: against the rounded centre a point moves by
    eps x, a share of its box that doubles with each level, and the sums
    here erred by 260 eps.
    """
    rng = np.random.default_rng(9)
    poles, roots = _interlaced(3000, rng)
    charges = rng.uniform(0.1, 1.0, size=(1, 3000))
    tree = transform.far_field(poles, charges, ["cauchy"], (roots[0] + roots[1]) ** 2, leaf=2,
                               split=True)
    split = np.arange(1, 3000)           # root k lies above pole k
    got = tree.at(roots, split=split)
    (tb, to), (sb, _) = roots, poles
    terms = charges[0] / ((np.subtract.outer(tb, sb) + to[:, None]) * np.add.outer(tb + to, sb))
    size = np.abs(terms).sum(axis=1)
    left = np.arange(3000)[None, :] < split[:, None]
    for side, mask in enumerate((left, ~left)):
        want = np.where(mask, terms, 0.0).sum(axis=1)
        assert np.all(np.abs(got[side, 0] - want) <= 32 * EPS * size), side


def _system(poles, omega, kind, seed=3):
    """`poles` secular poles, m N = 0.4: one coupled bath, or one with clusters and a free bath.

    The second has a sixth of its poles as clusters of five equal
    frequencies (Helmert vectors), and poles / 10 free oscillators.
    """
    tp = TestParticleSpec(mass=1.0, omega=omega)
    rng = np.random.default_rng(seed)
    if kind == "plain":
        real = realize_bath(BathSpec(size=poles, mass=0.4 / poles, temperature=5.0, dos=BAND),
                            seed)
        return (build_multi_coupling_matrix(tp, [(real.m, real.frequencies, True)]),
                initial_state(tp, (real,)).as_vector(), (tp, real))
    clusters = poles // 6
    coupled = np.r_[rng.uniform(0.2, 1.0, poles - clusters),
                    np.repeat(rng.uniform(0.3, 0.9, clusters), 5)]
    size = len(coupled) + poles // 10
    cm = build_multi_coupling_matrix(tp, [(0.4 / size, coupled, True),
                                          (0.4 / size, rng.uniform(0.2, 1.0, poles // 10), False)])
    return cm, rng.normal(size=cm.dim), None


def _paths(monkeypatch, cm, v0, t):
    """diagonalize on the far-field and on the dense path, each with a final state at t."""
    final = functools.partial(flow_factors, t=t)
    far = diagonalize(cm, v0, final=final)
    monkeypatch.setattr(propagator, "FAR_FIELD_ROOTS", np.iinfo(np.int64).max)
    dense = diagonalize(cm, v0, final=final)
    monkeypatch.undo()
    return far, dense


def _close(got, want, tol):
    return np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["plain", "clusters"])
@pytest.mark.parametrize("n", ["threshold", 2000])
def test_the_far_field_path_matches_the_dense_pass(monkeypatch, n, kind):
    """FAR_FIELD_ROOTS roots and 2000 poles, three Omega: the bounds fixed beforehand.

    The pass is compared on the same shapes, and then each path with
    its own Loewner z.  Its final state is full_state's to the bit, as on
    the dense path, and the exact flow keeps the total energy.
    """
    poles = propagator.FAR_FIELD_ROOTS - 1 if n == "threshold" else n
    for omega in (0.01, 0.5, 5.0):
        cm, v0, bath = _system(poles, omega, kind)
        far, dense = _paths(monkeypatch, cm, v0, 1234.5)
        assert len(far.shapes.nu0) == poles + 1
        df = propagator._deflate(cm)
        origin, tau = propagator._secular_roots(df.poles, df.weights, np.arange(len(df.poles)))
        z_far = propagator._loewner_z(df.poles[1:], df.poles[origin], tau)
        monkeypatch.setattr(propagator, "FAR_FIELD_ROOTS", np.iinfo(np.int64).max)
        z_dense = propagator._loewner_z(df.poles[1:], df.poles[origin], tau)
        y = propagator._weighted(cm, dense.shapes, v0)
        c, s, _ = flow_factors(dense.nu, 1234.5)

        def rows(cols, ab):
            return propagator._state_rows(ab[0, cols], ab[1, cols], dense.nu[cols],
                                          c[cols], s[cols])

        ab_dense, u0_dense, vec_dense = propagator._sweep(cm, dense.shapes, y, rows)
        monkeypatch.undo()
        ab_far, u0_far, vec_far = propagator._sweep(cm, dense.shapes, y, rows)
        assert np.max(np.abs(z_far - z_dense) / z_dense) <= 1e-12
        for got, want in ((ab_far[0], ab_dense[0]), (ab_far[1], ab_dense[1]),
                          (u0_far, u0_dense), (vec_far, vec_dense),
                          (far.coef_cos, dense.coef_cos), (far.coef_sin, dense.coef_sin),
                          (far.u0, dense.u0),
                          (far.final_state.as_vector(), dense.final_state.as_vector())):
            assert _close(got, want, 1e-13), (n, kind, omega)
        np.testing.assert_array_equal(far.final_state.as_vector(),
                                      full_state(far, 1234.5).as_vector())
        if bath is not None:
            tp, real = bath
            e0 = total_energy(full_state(far, 0.0), tp, [(real, True)])
            e1 = total_energy(far.final_state, tp, [(real, True)])
            assert abs(e1 - e0) <= ENERGY_DRIFT_TOL * e0


def test_roots_that_do_not_interlace_the_poles_are_an_eigensolver_error():
    """The log sums lose the products' sign: a root moved past its pole is caught all the same."""
    rng = np.random.default_rng(5)
    w = np.sort(rng.uniform(0.2, 1.0, 2000))
    poles = np.r_[0.0, w]
    weights = np.r_[0.25, np.full(len(w), 0.4 / len(w)) * w**2]
    origin, tau = propagator._secular_roots(poles, weights, np.arange(len(poles)))
    nu0 = poles[origin]
    assert np.all(propagator._loewner_z(w, nu0, tau) > 0.0)
    k = 700
    tau[k] = (w[k] - nu0[k]) + 1e-3          # root k now lies above pole k
    with pytest.raises(EigensolverError, match="do not interlace"):
        propagator._loewner_z(w, nu0, tau)


def test_a_bath_of_twenty_thousand_keeps_its_energy_in_o_of_n_memory():
    """diagonalize with a final state at N = 2e4 (m N = 0.4): the exact flow keeps the energy.

    Its traced peak stays below 1 % of one (N+1)^2 array: the far-field
    sums hold seven buffers of FAR_CHUNK entries and arrays of O(N)
    length.  It peaked at 13 MB of that 32 MB.
    """
    n = 20_000
    real = realize_bath(BathSpec(size=n, mass=0.4 / n, temperature=5.0, dos=BAND), seed=1)
    tp = TestParticleSpec(mass=1.0, omega=0.5)
    cm = build_multi_coupling_matrix(tp, [(real.m, real.frequencies, True)])
    v0 = initial_state(tp, (real,))
    tracemalloc.start()
    try:
        prop = diagonalize(cm, v0.as_vector(), final=functools.partial(flow_factors, t=1234.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (n + 1) ** 2 / 100
    e0 = total_energy(v0, tp, [(real, True)])
    e1 = total_energy(prop.final_state, tp, [(real, True)])
    assert abs(e1 - e0) <= ENERGY_DRIFT_TOL * e0
    assert isinstance(prop.final_state, SystemState)


def _newton_steps(poles, weights, origin, tau):
    """|Newton step| / |tau| from each root poles[origin] + tau, in long double.

    f = 1 + sum_j weights_j / (poles_j^2 - nu^2) and its derivative sum
    over every pole, each difference formed as the two factors
    ((poles_j - poles_o) - tau) (poles_j + (poles_o + tau)).
    """
    p, w = poles.astype(np.longdouble), weights.astype(np.longdouble)
    steps = []
    for lo in range(0, len(tau), 256):
        base = p[origin[lo:lo + 256], None]
        t = tau[lo:lo + 256, None].astype(np.longdouble)
        diff = ((p - base) - t) * (p + (base + t))
        f = 1.0 + np.sum(w / diff, axis=1)
        slope = np.sum(w / diff**2, axis=1)
        steps.append(np.abs(f / slope / (2.0 * (base + t)[:, 0]) / t[:, 0]))
    return np.concatenate(steps).astype(float)


def _bath_poles(kind, n, omega):
    """The secular poles and weights of a bath of n oscillators, m N = 0.4 or, heavy, 700.

    "close" takes a sixth of them in clusters of five equal frequencies,
    which merge, and a tenth in pairs 1e-13 apart (relative), which do not.
    """
    rng = np.random.default_rng(n)
    w = realize_bath(BathSpec(size=n, mass=1.0, temperature=5.0, dos=BAND), 3).frequencies
    if kind == "close":
        pairs = rng.uniform(0.3, 0.9, n // 20)
        w = np.r_[w[:n - n // 6 - n // 10], np.repeat(rng.uniform(0.3, 0.9, n // 30), 5),
                  pairs, pairs * (1.0 + 1e-13)]
    mass = 700.0 if kind == "heavy" else 0.4
    cm = build_multi_coupling_matrix(TestParticleSpec(mass=1.0, omega=omega),
                                     [(mass / len(w), w, True)])
    df = propagator._deflate(cm)
    return df.poles, df.weights


@pytest.mark.parametrize("kind, n", [("plain", 1200), ("plain", 4000), ("close", 1500),
                                     ("heavy", 1200)])
def test_the_in_band_roots_are_within_a_newton_step_of_2e_13_of_tau(kind, n):
    """A long double Newton step moves no far-field root by over 2e-13 of its offset tau.

    The bound was fixed before the first comparison.  Over these baths
    at Omega = 0.01, 0.5 and 5 the far-field roots reached 2.8e-14 and
    dlasd4's, measured the same way, 8.3e-13 (plain, N = 4000, Omega =
    0.5).
    """
    for omega in (0.01, 0.5, 5.0):
        poles, weights = _bath_poles(kind, n, omega)
        assert len(poles) >= propagator.FAR_FIELD_ROOTS
        k = np.arange(1, len(poles) - 1)
        origin, tau = propagator._secular_roots(poles, weights, k)
        # each root is held from its nearer pole
        assert np.all((origin == k) | (origin == k + 1))
        assert np.all(np.abs(tau) <= 0.5 * (poles[k + 1] - poles[k]) * (1.0 + 4 * EPS))
        assert np.all(_newton_steps(poles, weights, origin, tau) <= 2e-13), (kind, n, omega)


def test_a_sample_of_the_roots_of_twenty_thousand_is_within_a_newton_step_of_2e_13():
    """200 in-band roots of N = 2e4 (m N = 0.4, Omega = 0.5), drawn at random, as above.

    They reached 9.8e-15 and dlasd4's 1.3e-12; over all 19999 in-band
    roots the far field reached 3.7e-14.
    """
    poles, weights = _bath_poles("plain", 20_000, 0.5)
    origin, tau = propagator._secular_roots(poles, weights, np.arange(len(poles)))
    k = np.sort(np.random.default_rng(7).choice(np.arange(1, len(poles) - 1), 200,
                                                replace=False))
    assert np.all(_newton_steps(poles, weights, origin[k], tau[k]) <= 2e-13)


def test_a_root_still_short_of_its_stop_rule_is_an_eigensolver_error(monkeypatch):
    """One model step is too few at N = 1200: the lowest root still iterating is named."""
    monkeypatch.setattr(propagator, "ROOT_STEPS", 1)
    cm, v0, _ = _system(1200, 0.5, "plain")
    with pytest.raises(EigensolverError,
                       match=r"secular root 1 did not converge \(ROOT_STEPS = 1\)"):
        diagonalize(cm, v0)
