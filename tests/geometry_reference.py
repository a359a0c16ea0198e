"""Geometry that only the tests compute, over a FrameBatch.

- :func:`lie_derivative_11`: the Lie derivative of a (1,1) tensor field,
  the generic route the tests hold the engine's h-operator to.
- The order-3 path: the third metric partials from one order-3
  evaluation of the structure (:func:`d3g`, one ``structure_jets``
  call), the derivatives they give (:func:`d2ginv`, :func:`d2Gamma`,
  :func:`dRiem`, :func:`dRic`, :func:`dr`), and the conformal-flatness
  obstructions built on them: the Weyl-type tensor (:func:`weyl`,
  dimension >= 5) and the Cotton-type tensor (:func:`cotton`, dimension
  3).  Each takes a batch and returns arrays with the point axis first;
  :func:`weyl` and :func:`cotton` return the max-abs component per point.

Index conventions are those of :mod:`paracr.geometry`.
"""

import numpy as np

from paracr.errors import WrongDimension
from paracr.geometry import _amax, _partials, structure_jets


def lie_derivative_11(V_vals, V_jac, T_vals, T_jac):
    """(L_V T)^k_j = V^a ∂_a T^k_j − T^a_j ∂_a V^k + T^k_a ∂_j V^a."""
    return (np.einsum('...a,...akj->...kj', V_vals, T_jac)
            - np.einsum('...aj,...ak->...kj', T_vals, V_jac)
            + np.einsum('...ka,...ja->...kj', T_vals, V_jac))


def d3g(batch):
    """d3g[p, a, b, c, i, j] = ∂_a ∂_b ∂_c g_ij from one order-3
    evaluation of the batch; raises the first rejection."""
    parts, rejected = structure_jets(batch.structure, batch.points, order=3)
    for error in rejected:
        if error is not None:
            raise error
    return _partials(parts[0], 3)


def d2ginv(batch):
    """∂_a of dginv[b]."""
    return -(np.einsum('paij,pbjk,pkl->pabil',
                       batch.dginv, batch.dg, batch.ginv)
             + np.einsum('pij,pabjk,pkl->pabil',
                         batch.ginv, batch.d2g, batch.ginv)
             + np.einsum('pij,pbjk,pakl->pabil',
                         batch.ginv, batch.dg, batch.dginv))


def d2Gamma(batch):
    d3 = d3g(batch)
    d3_comb = (d3 + d3.transpose(0, 1, 2, 4, 3, 5)
               - d3.transpose(0, 1, 2, 4, 5, 3))
    return 0.5 * (
        np.einsum('pabkl,pijl->pabkij', d2ginv(batch), batch._dg_comb)
        + np.einsum('pbkl,paijl->pabkij', batch.dginv, batch._ddg_comb)
        + np.einsum('pakl,pbijl->pabkij', batch.dginv, batch._ddg_comb)
        + np.einsum('pkl,pabijl->pabkij', batch.ginv, d3_comb))


def dRiem(batch):
    G, dG, d2G = batch.Gamma, batch.dGamma, d2Gamma(batch)
    return (np.einsum('pcakbj->pckabj', d2G)
            - np.einsum('pcbkaj->pckabj', d2G)
            + np.einsum('pckae,pebj->pckabj', dG, G)
            + np.einsum('pkae,pcebj->pckabj', G, dG)
            - np.einsum('pckbe,peaj->pckabj', dG, G)
            - np.einsum('pkbe,pceaj->pckabj', G, dG))


def dRic(batch):
    return np.einsum('pcaayz->pcyz', dRiem(batch))


def dr(batch, dric):
    """∂_c r, with ``dric`` the :func:`dRic` of the batch."""
    return (np.einsum('pcyz,pyz->pc', batch.dginv, batch.Ric)
            + np.einsum('pyz,pcyz->pc', batch.ginv, dric))


def weyl(batch):
    """Max-abs component of the Weyl-type obstruction (dim >= 5)."""
    m = batch.m
    if m < 5:
        raise WrongDimension("Weyl obstruction needs dimension >= 5")
    n2 = m - 1  # 2n
    ric_op = np.einsum('pke,pex->pkx', batch.ginv, batch.Ric)
    eye = np.eye(m)
    schouten = (np.einsum('pyz,pkx->pkxyz', batch.g, ric_op)
                + np.einsum('pyz,kx->pkxyz', batch.Ric, eye)
                - np.einsum('pxz,pky->pkxyz', batch.g, ric_op)
                - np.einsum('pxz,ky->pkxyz', batch.Ric, eye))
    volume = (np.einsum('pyz,kx->pkxyz', batch.g, eye)
              - np.einsum('pxz,ky->pkxyz', batch.g, eye))
    curv = (batch.r / (n2 * (n2 - 1)))[:, None, None, None, None]
    return _amax(batch.Riem - (schouten / (n2 - 1) - curv * volume))


def cotton(batch):
    """Max-abs component of the third-order conformal-flatness
    obstruction in dimension 3 (needs third metric derivatives)."""
    if batch.m != 3:
        raise WrongDimension(
            "the divergence-type obstruction applies in dimension 3 only")
    dric = dRic(batch)
    # ∇Ric[a,y,z] = ∂_a Ric_yz − Γ^e_ay Ric_ez − Γ^e_az Ric_ye
    nabla_ric = (dric
                 - np.einsum('peay,pez->payz', batch.Gamma, batch.Ric)
                 - np.einsum('peaz,pye->payz', batch.Gamma, batch.Ric))
    grad_r = dr(batch, dric)
    return _amax(nabla_ric - nabla_ric.transpose(0, 3, 2, 1)
                 - 0.25 * (np.einsum('pi,pjk->pijk', grad_r, batch.g)
                           - np.einsum('pk,pji->pijk', grad_r, batch.g)))
