"""Curated admissible parameter sets used as fixtures and benchmarks.

Every set is produced by build_admissible with a fixed seed, so the drift
inequality and the cone-compatibility inequality hold by construction and
each entry is reproducible.  Tags:

    scalar-oracle   d = 1, atoms only; reference sets for fixed-step checks
    mc              d = 2, finite activity; Monte Carlo cross-validation
    cascade         infinite-activity rays; truncation-cascade studies
    mixed           assorted d in {1, 2, 3, 5} sweep sets
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import (
    ExponentialDensity,
    OperatorJumpMeasure,
    ParameterSet,
    PowerLawDensity,
    ScalarJumpMeasure,
    atom,
    build_admissible,
    ray,
)
from .symcone import frob_norm, random_psd, symmetrize

__all__ = ["BenchmarkSet", "benchmark_sets", "by_tag", "get"]


@dataclass(frozen=True, eq=False)
class BenchmarkSet:
    name: str
    params: ParameterSet
    x0: np.ndarray
    u: np.ndarray
    T: float
    tags: tuple


def _unit_psd(rng, d):
    a = random_psd(rng, d) + 0.05 * np.eye(d)
    return a / frob_norm(a)


def _psd_with_norm(rng, d, norm):
    return norm * _unit_psd(rng, d)


def _stable_beta(rng, d):
    return -(0.4 + rng.uniform(0.0, 0.6)) * np.eye(d) + 0.2 * rng.standard_normal((d, d))


def _scalar_sets():
    sets = []
    for i in range(12):
        rng = np.random.default_rng(1000 + i)
        beta = np.array([[-(0.3 + rng.uniform(0.0, 0.9))]])
        m_atoms = []
        for _ in range(int(rng.integers(1, 4))):
            xi = np.array([[rng.uniform(0.2, 2.4)]])
            m_atoms.append(atom(xi, float(rng.uniform(0.2, 1.0))))
        mu_atoms = []
        for _ in range(int(rng.integers(0, 3))):
            xi = np.array([[rng.uniform(0.3, 2.0)]])
            mu_atoms.append(atom(xi, np.array([[rng.uniform(0.1, 0.8)]])))
        p_set = build_admissible(
            1,
            beta=beta,
            m=ScalarJumpMeasure(1, tuple(m_atoms)),
            mu=OperatorJumpMeasure(1, tuple(mu_atoms)),
            b_extra=np.array([[0.3 + rng.uniform(0.0, 0.7)]]),
        )
        sets.append(BenchmarkSet(
            f"scalar-{i:02d}", p_set,
            x0=np.array([[0.5 + rng.uniform(0.0, 1.0)]]),
            u=np.array([[0.3 + rng.uniform(0.0, 0.5)]]),
            T=1.0, tags=("scalar-oracle", "finite")))
    return sets


def _mc_sets():
    """d = 2 finite-activity sets sized so Monte Carlo runs fast but jumps matter."""
    sets = []
    for i in range(6):
        rng = np.random.default_rng(2000 + i)
        d = 2
        m_atoms = [atom(_psd_with_norm(rng, d, rng.uniform(0.4, 1.8)),
                        float(rng.uniform(0.4, 1.0)))]
        m_rays = []
        mu_rays = []
        if i % 2 == 0:
            m_rays.append(ray(_unit_psd(rng, d),
                              ExponentialDensity(c=rng.uniform(0.4, 1.0),
                                                 lam=rng.uniform(1.5, 3.0))))
        else:
            # keyword order keeps the draws in the order of the weight and then the density
            mu_rays.append(ray(_unit_psd(rng, d),
                               weight=_psd_with_norm(rng, d, rng.uniform(0.3, 0.7)),
                               density=ExponentialDensity(c=rng.uniform(0.4, 1.0),
                                                          lam=rng.uniform(1.5, 3.0))))
        mu_atoms = [atom(_psd_with_norm(rng, d, rng.uniform(0.5, 1.6)),
                         _psd_with_norm(rng, d, rng.uniform(0.2, 0.6)))]
        p_set = build_admissible(
            d,
            beta=_stable_beta(rng, d),
            m=ScalarJumpMeasure(d, tuple(m_atoms + m_rays)),
            mu=OperatorJumpMeasure(d, tuple(mu_atoms + mu_rays)),
            b_extra=0.3 * np.eye(d) + 0.2 * random_psd(rng, d),
        )
        sets.append(BenchmarkSet(
            f"mc2-{i:02d}", p_set,
            x0=symmetrize(0.6 * np.eye(d) + 0.3 * random_psd(rng, d)),
            u=_psd_with_norm(rng, d, 0.35),
            T=1.0, tags=("mc", "finite")))
    return sets


def _cascade_sets():
    """Infinite-activity power-law rays; the truncation level genuinely matters."""
    sets = []
    for i in range(6):
        rng = np.random.default_rng(3000 + i)
        d = 2 if i < 4 else 3
        alpha = 0.3 + 0.1 * (i % 4)
        mu_rays = (ray(_unit_psd(rng, d),
                       weight=_psd_with_norm(rng, d, rng.uniform(0.3, 0.8)),
                       density=PowerLawDensity(c=rng.uniform(0.3, 0.8), alpha=alpha,
                                               rmin=0.0, rmax=1.0)),)
        m_rays = ()
        if i % 2 == 0:
            m_rays = (ray(_unit_psd(rng, d),
                          PowerLawDensity(c=rng.uniform(0.3, 0.8), alpha=0.5,
                                          rmin=0.0, rmax=1.0)),)
        p_set = build_admissible(
            d,
            beta=_stable_beta(rng, d),
            m=ScalarJumpMeasure(d, m_rays),
            mu=OperatorJumpMeasure(d, mu_rays),
            b_extra=0.3 * np.eye(d) + 0.1 * random_psd(rng, d),
        )
        sets.append(BenchmarkSet(
            f"cascade-{i:02d}", p_set,
            x0=symmetrize(0.5 * np.eye(d) + 0.3 * random_psd(rng, d)),
            u=_psd_with_norm(rng, d, 0.6),
            T=1.0, tags=("cascade", "infinite")))
    return sets


def _mixed_sets():
    sets = []
    idx = 0
    for d in (1, 2, 3, 5):
        for j in range(8):
            rng = np.random.default_rng(4000 + 100 * d + j)
            m_atoms = [
                atom(_psd_with_norm(rng, d, rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 0.9)))
                for _ in range(int(rng.integers(0, 3)))]
            mu_atoms = [
                atom(_psd_with_norm(rng, d, rng.uniform(0.3, 1.8)),
                     _psd_with_norm(rng, d, rng.uniform(0.1, 0.5)))
                for _ in range(int(rng.integers(0, 3)))]
            m_rays = []
            mu_rays = []
            style = j % 4
            if style == 1:
                m_rays.append(ray(_unit_psd(rng, d),
                                  ExponentialDensity(c=rng.uniform(0.3, 0.8),
                                                     lam=rng.uniform(1.0, 3.0))))
            elif style == 2:
                mu_rays.append(ray(_unit_psd(rng, d),
                                   weight=_psd_with_norm(rng, d, 0.4),
                                   density=PowerLawDensity(c=rng.uniform(0.2, 0.6),
                                                           alpha=rng.uniform(0.3, 0.7),
                                                           rmin=0.0, rmax=1.0)))
            elif style == 3:
                m_rays.append(ray(_unit_psd(rng, d),
                                  PowerLawDensity(c=rng.uniform(0.2, 0.6),
                                                  alpha=-1.5, rmin=0.0, rmax=1.5)))
            gs = (0.3 * rng.standard_normal((d, d)),) if j % 3 == 0 else ()
            p_set = build_admissible(
                d,
                beta=_stable_beta(rng, d),
                gs=gs,
                m=ScalarJumpMeasure(d, tuple(m_atoms + m_rays)),
                mu=OperatorJumpMeasure(d, tuple(mu_atoms + mu_rays)),
                b_extra=0.2 * np.eye(d) + 0.2 * random_psd(rng, d),
            )
            activity = "finite" if p_set.is_finite_activity else "infinite"
            sets.append(BenchmarkSet(
                f"mixed-d{d}-{j:02d}", p_set,
                x0=symmetrize(0.5 * np.eye(d) + 0.4 * random_psd(rng, d)),
                u=_psd_with_norm(rng, d, 0.5),
                T=1.0, tags=("mixed", activity)))
            idx += 1
    return sets


_CACHE = None


def benchmark_sets():
    """All library sets (56 of them), deterministically constructed."""
    global _CACHE
    if _CACHE is None:
        _CACHE = tuple(_scalar_sets() + _mc_sets() + _cascade_sets() + _mixed_sets())
    return _CACHE


def by_tag(tag):
    return tuple(s for s in benchmark_sets() if tag in s.tags)


def get(name):
    for s in benchmark_sets():
        if s.name == name:
            return s
    raise KeyError(f"no benchmark set named {name!r}")
