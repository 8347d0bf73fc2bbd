"""Hypothesis strategies shared by the property tests."""

import numpy as np
from hypothesis import strategies as st

from affinehs.params import (
    ExponentialDensity,
    OperatorAtom,
    OperatorJumpMeasure,
    OperatorRay,
    PowerLawDensity,
    ScalarAtom,
    ScalarJumpMeasure,
    ScalarRay,
    build_admissible,
)
from affinehs.symcone import frob_norm, random_psd, symmetrize

DENSITIES = st.one_of(
    st.builds(ExponentialDensity, c=st.floats(0.2, 1.0), lam=st.floats(1.0, 3.0)),
    # power laws reaching 0: infinite activity
    st.builds(PowerLawDensity, c=st.floats(0.2, 0.6), alpha=st.floats(0.3, 0.7),
              rmax=st.floats(1.0, 2.0)),
    st.builds(PowerLawDensity, c=st.floats(0.2, 0.6), alpha=st.just(-1.5),
              rmax=st.floats(1.0, 2.0)),
)


@st.composite
def admissible_cases(draw):
    """(p_set, x, u, w, t): a set from build_admissible with atoms and rays."""
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def unit():
        a = random_psd(rng, d) + 0.05 * np.eye(d)
        return a / frob_norm(a)

    m_atoms = tuple(ScalarAtom(rng.uniform(0.2, 2.0) * unit(), rng.uniform(0.2, 1.0))
                    for _ in range(draw(st.integers(0, 2))))
    mu_atoms = tuple(OperatorAtom(rng.uniform(0.3, 1.8) * unit(), rng.uniform(0.1, 0.5) * unit())
                     for _ in range(draw(st.integers(0, 2))))
    m_rays = tuple(ScalarRay(unit(), den) for den in draw(st.lists(DENSITIES, max_size=2)))
    mu_rays = tuple(OperatorRay(unit(), rng.uniform(0.1, 0.6) * unit(), den)
                    for den in draw(st.lists(DENSITIES, max_size=2)))
    beta = -rng.uniform(0.4, 1.0) * np.eye(d) + 0.3 * rng.standard_normal((d, d))
    gs = (0.3 * rng.standard_normal((d, d)),) if draw(st.booleans()) else ()
    p = build_admissible(d, beta=beta, gs=gs, m=ScalarJumpMeasure(d, m_atoms, m_rays),
                         mu=OperatorJumpMeasure(d, mu_atoms, mu_rays),
                         b_extra=0.2 * np.eye(d) + 0.2 * random_psd(rng, d))
    x = symmetrize(0.5 * np.eye(d) + 0.4 * random_psd(rng, d))
    return p, x, rng.uniform(0.1, 1.0) * unit(), random_psd(rng, d), draw(st.floats(0.1, 2.0))
