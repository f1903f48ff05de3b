"""A generic-data cell: one numeric scenario on which every term of every
deviation equation is nonzero and asymmetric.

Both built-in curved families are 2-D and metric, and every built-in family
of dimension 3 or more is flat, so no built-in cell has curvature with a
non-metric connection, an S-tensor that varies along x_1, ``x_sr != 0`` on
a curved chart, or a mass drift in s*r.  This cell has them all:

* d = 3 and ``Gamma(x) = Gamma_0 + Gamma_1 . x``, so torsion, curvature and
  nonmetricity are nonzero; its partials are ``Gamma_1``;
* the law ``H = -Gamma - sigma(x)``, ``sigma(x) = sigma_0 + sigma_1 . x``,
  so S and DS/ds are nonzero and S varies along x_1;
* the constant metric ``g = I + A A^T``;
* the flat families' surface in 3-d at the quadratic family's defaults,
  the mass with drifts 0.1, 0.2 and 0.3 in s, r and s*r, and the probe
  field every family shares;

each entry of ``Gamma_0``, ``Gamma_1``, ``sigma_0``, ``sigma_1`` and ``A``
drawn uniformly from [-0.3, 0.3] with seed ``SEED``.  Every field is stated
on coordinate stacks, each row with the bits of its stack of one.

The cell is made of the package's building blocks, here and not in the
registry, so that ``geodev list``, the config schema, the output digest and
the benchmark pool do not see it.  The acceptance test and
``scripts/mutation_probe.py`` read it.
"""

import numpy as np

from geodev.geometry import ConnectionField, MetricField
from geodev.kinematics import Scenario
from geodev.scenarios import (_FLAT_QUAD_SCHEMA, DEFAULT_S_EVAL, _flat_surface,
                              _mass_surface, _probe_field, _repeated)
from geodev.transport import TransportLaw

SEED = 7
DIM = 3
LABEL = "generic"
MASSES = {"mass_scale": 1.0, "mass_drift_s": 0.1, "mass_drift_r": 0.2, "mass_drift_sr": 0.3}


def _affine(c0: np.ndarray, c1: np.ndarray):
    """The field ``c0 + c1 . x``, ``c1``'s last index contracting x, on an
    ``(n, d)`` stack: summed over the components of x in order, entry by
    entry, so that a row's bits do not depend on the stack it is in."""
    def at(coords: np.ndarray) -> np.ndarray:
        out = np.repeat(c0[None], len(coords), axis=0)
        for l, column in enumerate(coords.T):
            out = out + column[:, None, None, None] * c1[..., l]
        return out
    return at


def generic_scenario() -> Scenario:
    """The generic cell, at the default evaluation parameter."""
    rng = np.random.default_rng(SEED)
    draw = lambda *shape: rng.uniform(-0.3, 0.3, shape)
    gamma0, gamma1 = draw(DIM, DIM, DIM), draw(DIM, DIM, DIM, DIM)
    sigma0, sigma1, a = draw(DIM, DIM, DIM), draw(DIM, DIM, DIM, DIM), draw(DIM, DIM)
    gamma, sigma = _affine(gamma0, gamma1), _affine(sigma0, sigma1)
    g = np.eye(DIM) + a @ a.T
    surface = {key: spec.default for key, spec in _FLAT_QUAD_SCHEMA.items()}
    return Scenario(
        dimension=DIM,
        conn=ConnectionField(gamma, _repeated(gamma1)),
        metric=MetricField(_repeated((g + g.T) / 2), _repeated(np.zeros((DIM,) * 3))),
        law=TransportLaw(lambda us, path, coords: -gamma(coords) - sigma(coords)),
        surface=_flat_surface(DIM, surface),
        mass=_mass_surface(MASSES),
        label=LABEL,
        probe_field=_probe_field(DIM),
        s_eval=DEFAULT_S_EVAL,
    )
