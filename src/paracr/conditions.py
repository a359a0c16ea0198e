"""Structure conditions as numerical residuals over a batch of points.

Every named condition in the registry is one kernel over a
:class:`~paracr.geometry.FrameBatch`: it forms the residual parts of the
condition at all points of the batch at once, each as ``(name, res,
terms, slots)`` with the point axis first and the vector slots last,
dense where it has slots (``res`` None: the residual is the sum of the
summands, which ``terms`` may then yield one at a time).  A part's
scale is ``max(1, infinity-norms of the formula's summands)``, so
``scaled = raw / scale`` is dimensionless and insensitive to the
overall magnitude of the inputs.  The worst :class:`ConditionValue` of a
condition is the first strict maximum of ``scaled`` over its candidates
in point-major, candidate-minor order, or the first NaN, so a NaN
residual never hides behind a finite one.

:func:`evaluate_conditions` evaluates the requested conditions of a
batch in one pass.  The kernels read the intermediates several of them
need (the field brackets, the twisted nabla phi, ...) from one memo of
the evaluation.  One grouped reduction then takes every infinity norm
the candidates need.  An array without probe slots is stacked by
shape; one with them is stacked once, by (shape, strides, slots), and
that stack gives its full norms and is contracted with every draw by
one batched matmul with the group axis in front, so every member,
point and draw still gets the gemv a single-point evaluation performs.
Groups are split at a byte budget (``_STACK_BYTES``), and waiting
arrays are reduced once they exceed it.  One arg-max per condition over
the shared [P, candidates] table picks its worst.  Every value is
bit-identical to a one-condition evaluation.

Evaluation policy by scope:

- ``tensor``: the full coordinate-basis residual array is formed (no
  sampling of arguments), and each supplied probe draw additionally
  contracts the vector slots with random vectors, giving extra parts
  with their own raw/scale.
- ``distribution``: like ``tensor`` but the vector slots are first
  composed with the projector P = id - xi (x) eta onto ker(eta), so the
  condition only constrains arguments in the kernel distribution.
- ``field``: the condition involves derivatives of its arguments, so it
  is evaluated on genuine local sections P u (u constant) built from
  the projector field, over all coordinate seed pairs and all probe
  draws.
- ``basis``: evaluated on the brackets of basis fields of an
  eigendistribution, the bases built for all points at once by one
  Gram-Schmidt pass masked per point; probes are not used.
- ``dim3``: like ``tensor`` but defined only in dimension 3; other
  dimensions raise :class:`WrongDimension`.

The classifier combines scaled residuals into three-valued verdicts
(pass / fail / ambiguous, a NaN residual failing) and cross-checks
independent formulations of the same property, raising
:class:`InconsistentVerdict` on hard disagreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import InconsistentVerdict, ParacrError, RankDefect, \
    ValidationError, WrongDimension
from .geometry import (
    _amax,
    _dot,
    _mv,
    lie_bracket,
    phi_applied_field,
    projected_field,
)

__all__ = [
    "CLASS_NAMES",
    "CONDITIONS",
    "CONDITION_IDS",
    "BUNDLES",
    "Condition",
    "ConditionValue",
    "evaluate_conditions",
    "expand_checks",
    "validate_checks",
    "classify",
    "worse",
]

CLASS_NAMES = (
    "almost_paracontact_metric",
    "paracontact_metric",
    "normal",
    "para_sasakian",
    "almost_para_cosymplectic",
    "para_cr",
    "para_kahler_leaves",
)


@dataclass(frozen=True)
class ConditionValue:
    """Worst residual part of one condition."""

    raw: float
    scale: float
    part: str = ""

    @property
    def scaled(self):
        return self.raw / self.scale


def worse(current, value):
    """The worse of two ConditionValues met in this order: ``value``
    replaces ``current`` when strictly worse, or NaN where ``current``
    is not."""
    if current is None or value.scaled > current.scaled or (
            math.isnan(value.scaled) and not math.isnan(current.scaled)):
        return value
    return current


# ---------------------------------------------------------------------------
# building blocks (arrays over [P, ...])
# ---------------------------------------------------------------------------

def _T(A):
    return np.swapaxes(A, -1, -2)


def _outer(u, v):
    return u[:, :, None] * v[:, None, :]


class _Shared:
    """The intermediates that several kernels read, each formed at most
    once per evaluation of a batch with its probe draws.  Every
    evaluation makes its own, so nothing here, the probe-dependent field
    brackets included, outlives the chunk it was formed for."""

    def __init__(self, fb, probes):
        self.fb = fb
        self.probes = probes

    @cached_property
    def phi_nabla_xi(self):
        """v[x, a] = (phi nabla_{e_x} xi)^a."""
        return np.einsum('pab,pxb->pxa', self.fb.phi, self.fb.nabla_xi)

    @cached_property
    def twisted_nabla_phi(self):
        """(nabla_{phi X} phi)(phi Y) as [k, x, y]."""
        fb = self.fb
        return np.einsum('pax,pakb,pby->pkxy', fb.phi, fb.nabla_phi, fb.phi)

    @cached_property
    def along_reeb(self):
        """(nabla_xi xi, nabla_xi phi) parts shared by wlasn and dacko."""
        fb = self.fb
        along = np.einsum('pi,pik->pk', fb.xi, fb.nabla_xi)
        return (("reeb_geodesic", along,
                 (_amax(fb.xi) * _amax(fb.nabla_xi),), ()),
                ("phi_parallel_along_reeb",
                 np.einsum('pi,pikj->pkj', fb.xi, fb.nabla_phi),
                 (_amax(fb.xi) * _amax(fb.nabla_phi),), (1,)))

    @cached_property
    def reeb_gradient_form(self):
        """(nabla_X phi)Y - g(phi nabla_X xi, Y) xi + eta(Y) phi nabla_X
        xi as [k, x, y], and its three terms (jw3d, wzor1, wzor2)."""
        fb, v = self.fb, self.phi_nabla_xi
        t1 = _nphi_kxy(fb)
        t2 = -np.einsum('pxa,pay,pk->pkxy', v, fb.g, fb.xi)
        t3 = np.einsum('py,pxk->pkxy', fb.eta, v)
        return t1 + t2 + t3, (t1, t2, t3)

    @cached_property
    def field_brackets(self):
        """Brackets [X, Y], [phi X, phi Y], [X, phi Y] and [phi X, Y] of
        the sections X, Y = P u, P v over (point, pair): the coordinate
        seed pairs u = e_i, v = e_j (i < j), then the probe pairs (first
        two rows of each draw).  Only the brackets are kept: the
        sections' jacobians are m times larger."""
        fb, probes = self.fb, self.probes
        i, j = np.triu_indices(fb.m, 1)
        eye = np.broadcast_to(np.eye(fb.m), (len(fb), fb.m, fb.m))
        u = np.concatenate([eye[:, i], probes[:, :, 0]], axis=1)
        v = np.concatenate([eye[:, j], probes[:, :, 1]], axis=1)
        P, dP = fb.P[:, None], fb.dP[:, None]
        phi, dphi = fb.phi[:, None], fb.dphi[:, None]
        X, Y = projected_field(P, dP, u), projected_field(P, dP, v)
        pX, pY = phi_applied_field(phi, dphi, *X), \
            phi_applied_field(phi, dphi, *Y)
        return (lie_bracket(*X, *Y), lie_bracket(*pX, *pY),
                lie_bracket(*X, *pY), lie_bracket(*pX, *Y))

    @cached_property
    def h_curvature_blocks(self):
        """A = h - id, phi A, the antisymmetrized nabla h D, g D and
        g(phi A ., .)."""
        fb = self.fb
        A = fb.h - np.eye(fb.m)
        phiA = fb.phi @ A
        nh = fb.nabla_h
        D = nh.transpose(0, 2, 1, 3) - nh.transpose(0, 2, 3, 1)
        gD = np.einsum('pawx,pay->pwxy', D, fb.g)
        gphiA = np.einsum('pax,pay->pxy', phiA, fb.g)
        return A, phiA, D, gD, gphiA


def _nphi_kxy(fb):
    """(nabla_{e_x} phi)^k_y arranged as [k, x, y]."""
    return fb.nabla_phi.transpose(0, 2, 1, 3)


def _project_slots(T, P, slots):
    """Compose the listed vector-argument axes of T with the projector,
    one gemm per point over the merged other axes."""
    for ax in slots:
        moved = np.moveaxis(T, ax + 1, -1)
        T = np.moveaxis((moved.reshape(len(T), -1, moved.shape[-1]) @ P)
                        .reshape(moved.shape), -1, ax + 1)
    return T


def _projected_part(name, terms, P):
    return (name, _project_slots(sum(terms), P, (1, 2)),
            tuple(_project_slots(t, P, (1, 2)) for t in terms), (1, 2))


def _nijenhuis_array(fb):
    """N[k, i, j]: torsion of phi on coordinate fields."""
    return (np.einsum('pai,pakj->pkij', fb.phi, fb.dphi)
            - np.einsum('paj,paki->pkij', fb.phi, fb.dphi)
            - np.einsum('pka,piaj->pkij', fb.phi, fb.dphi)
            + np.einsum('pka,pjai->pkij', fb.phi, fb.dphi))


def _reeb_commutator(fb, sign):
    """phi nabla_X xi - sign * nabla_{phi X} xi as [k, x], and its two
    terms."""
    a = np.einsum('pax,pak->pkx', fb.phi, fb.nabla_xi)
    b = np.einsum('pka,pxa->pkx', fb.phi, fb.nabla_xi)
    return (a - b if sign > 0 else a + b), (a, b)


# ---------------------------------------------------------------------------
# tensor / distribution conditions
# ---------------------------------------------------------------------------

def _cond_axioms(fb, shared):
    phi2 = fb.phi @ fb.phi
    eye = np.tile(np.eye(fb.m), (len(phi2), 1, 1))  # dense, like the rest
    bias = _outer(fb.xi, fb.eta)
    eta_xi = _dot(fb.eta, fb.xi)
    gxi = _mv(fb.g, fb.xi)
    Phi_T = _T(fb.Phi)
    return [
        ("phi_squared", phi2 - eye + bias, (phi2, eye, bias), (1,)),
        ("eta_of_xi", eta_xi - 1.0, (eta_xi,), ()),
        ("phi_xi", _mv(fb.phi, fb.xi), (_amax(fb.phi) * _amax(fb.xi),), ()),
        ("eta_phi", (fb.eta[:, None, :] @ fb.phi)[:, 0],
         (_amax(fb.eta) * _amax(fb.phi),), ()),
        ("eta_metric_dual", fb.eta - gxi, (fb.eta, gxi), ()),
        ("form_skew", fb.Phi + Phi_T, (fb.Phi, Phi_T), (0, 1)),
    ]


def _cond_compat(fb, shared):
    twisted = np.einsum('pai,pab,pbj->pij', fb.phi, fb.g, fb.phi)
    bias = _outer(fb.eta, fb.eta)
    return [("compat", twisted + fb.g - bias, (twisted, fb.g, bias), (0, 1))]


def _cond_normal(fb, shared):
    N = _nijenhuis_array(fb)
    contact = 2.0 * np.einsum('pij,pk->pkij', fb.dEta, fb.xi)
    return [("normality_tensor", N - contact, (N, contact), (1, 2))]


def _cond_pcm(fb, shared):
    return [("form_vs_deta", fb.Phi - fb.dEta, (fb.Phi, fb.dEta), (0, 1))]


def _cond_apcos(fb, shared):
    half = 0.5 * fb.deta
    jac = fb.dPhi_partial
    thirds = (jac / 3.0, jac.transpose(0, 2, 3, 1) / 3.0,
              jac.transpose(0, 3, 1, 2) / 3.0)
    return [
        ("deta_closed", fb.dEta, (half, _T(half)), (0, 1)),
        ("dform_closed", fb.dPhi, thirds, (0, 1, 2)),
    ]


def _symmetry_part(name, M):
    return (name, M - _T(M), (M, _T(M)), (0, 1))


def _cond_news00(fb, shared):
    return [_symmetry_part("levi_symmetry",
                           _T(fb.P) @ (fb.dEta @ fb.phi) @ fb.P)]


def _cond_news01(fb, shared):
    B = fb.nabla_eta @ fb.phi + _T(fb.phi) @ fb.nabla_eta
    return [_symmetry_part("nabla_eta_symmetry", _T(fb.P) @ B @ fb.P)]


def _cond_thm1(fb, shared):
    S = (np.einsum('pya,pax->pxy', fb.nabla_eta, fb.phi)
         + np.einsum('pay,pax->pxy', fb.phi, fb.nabla_eta))
    t3 = np.einsum('pxy,pk->pkxy', S, fb.xi)
    return [_projected_part("symmetric_nabla_phi",
                            (_nphi_kxy(fb), shared.twisted_nabla_phi, t3),
                            fb.P)]


def _nabla_phi_from_reeb_gradient(name, fb, shared):
    """(nabla_X phi)Y = g(phi nabla_X xi, Y) xi - eta(Y) phi nabla_X xi:
    jw3d, wzor1 and wzor2 under their own part names."""
    res, terms = shared.reeb_gradient_form
    return [(name, res, terms, (1, 2))]


def _cond_normal_nabla(fb, shared):
    t1 = np.einsum('pka,pxay->pkxy', fb.phi, fb.nabla_phi)
    t2 = -np.einsum('pax,paky->pkxy', fb.phi, fb.nabla_phi)
    t3 = np.einsum('pxy,pk->pkxy', fb.nabla_eta, fb.xi)
    return [("normal_nabla", t1 + t2 + t3, (t1, t2, t3), (1, 2))]


def _cond_wlasn(fb, shared):
    geodesic, parallel = shared.along_reeb
    r3, r3_terms = _reeb_commutator(fb, +1)
    return [
        geodesic,
        ("eta_parallel_along_reeb",
         np.einsum('pi,pij->pj', fb.xi, fb.nabla_eta),
         (_amax(fb.xi) * _amax(fb.nabla_eta),), ()),
        ("phi_commutes_with_reeb_gradient", r3, r3_terms, (1,)),
        parallel,
    ]


def _cond_h_rel(fb, shared):
    t1 = _T(fb.nabla_xi)
    t2 = fb.phi
    t3 = -fb.phi @ fb.h
    return [("reeb_gradient_vs_h", t1 + t2 + t3, (t1, t2, t3), (1,))]


def _cond_lemat(fb, shared):
    t1 = shared.twisted_nabla_phi
    t2 = -_nphi_kxy(fb)
    t3 = -2.0 * np.einsum('pxy,pk->pkxy', fb.g, fb.xi)
    W = np.eye(fb.m) - fb.h + _outer(fb.xi, fb.eta)
    t4 = np.einsum('py,pkx->pkxy', fb.eta, W)
    return [("twisted_nabla_phi", t1 + t2 + t3 + t4, (t1, t2, t3, t4),
             (1, 2))]


def _cond_sas(fb, shared):
    t1 = _nphi_kxy(fb)
    t2 = np.einsum('pxy,pk->pkxy', fb.g, fb.xi)
    t3 = -np.einsum('py,kx->pkxy', fb.eta, np.eye(fb.m))
    return [("defining_equation", t1 + t2 + t3, (t1, t2, t3), (1, 2))]


def _h_shape(fb):
    """nabla phi and g(X - hX, Y) xi as [k, x, y], and B = id - h."""
    B = np.eye(fb.m) - fb.h
    return (_nphi_kxy(fb),
            np.einsum('pax,pay,pk->pkxy', B, fb.g, fb.xi), B)


def _cond_wzorzamk(fb, shared):
    t1, t2, B = _h_shape(fb)
    t3 = -np.einsum('py,pkx->pkxy', fb.eta, B)
    return [("nabla_phi_from_h", t1 + t2 + t3, (t1, t2, t3), (1, 2))]


def _cond_contparacr(fb, shared):
    t1, t2, _ = _h_shape(fb)
    return [_projected_part("kernel_nabla_phi_from_h", (t1, t2), fb.P)]


def _cond_dacko(fb, shared):
    geodesic, parallel = shared.along_reeb
    r3, r3_terms = _reeb_commutator(fb, -1)
    t1 = shared.twisted_nabla_phi
    t2 = -_nphi_kxy(fb)
    t3 = -np.einsum('py,pxk->pkxy', fb.eta, shared.phi_nabla_xi)
    return [
        geodesic,
        parallel,
        ("phi_anticommutes_with_reeb_gradient", r3, r3_terms, (1,)),
        ("twisted_nabla_phi", t1 + t2 + t3, (t1, t2, t3), (1, 2)),
    ]


def _cond_paracrcos(fb, shared):
    t2 = -np.einsum('pxa,pay,pk->pkxy', shared.phi_nabla_xi, fb.g, fb.xi)
    return [_projected_part("kernel_nabla_phi_from_reeb_gradient",
                            (_nphi_kxy(fb), t2), fb.P)]


# ---------------------------------------------------------------------------
# field conditions (need derivatives of their arguments)
# ---------------------------------------------------------------------------

def _pair_parts(res, terms):
    return [(f"pair{d}", res[:, d], tuple(t[:, d] for t in terms), ())
            for d in range(res.shape[1])]


def _cond_s0(fb, shared):
    _, _, X_pY, pX_Y = shared.field_brackets
    eta = fb.eta[:, None]
    t1 = _dot(eta, pX_Y)
    t2 = _dot(eta, X_pY)
    return _pair_parts(t1 + t2, (t1, t2))


def _cond_s1(fb, shared):
    t1, t2, X_pY, pX_Y = shared.field_brackets
    phi = fb.phi[:, None]
    t3 = _mv(-phi, X_pY)
    t4 = _mv(-phi, pX_Y)
    return _pair_parts(t1 + t2 + t3 + t4, (t1, t2, t3, t4))


# ---------------------------------------------------------------------------
# eigendistributions and involutivity
# ---------------------------------------------------------------------------

# A coordinate image whose Gram-Schmidt remainder is no longer than this
# times max(1, max |Q|) adds no basis vector.
_RANK_TOL = 1e-7


def _distribution_bases(Q, n, label):
    """[P, n, m]: orthonormal bases of the column spaces of the Q[p] by
    one sequential Gram-Schmidt over the coordinate images, masked per
    point; RankDefect at the first point whose rank is not n."""
    scale = np.fmax(1.0, _amax(Q))
    basis, rank = np.zeros(Q.shape), np.zeros(len(Q), dtype=int)
    images = np.ascontiguousarray(_T(Q))  # a strided dot rounds otherwise
    for v in images.swapaxes(0, 1):
        for slot in range(rank.max()):
            b = basis[:, slot]
            v = np.where((rank > slot)[:, None],
                         v - _dot(b, v)[:, None] * b, v)
        norm = np.sqrt(_dot(v, v))
        keep = norm > _RANK_TOL * scale
        basis[keep, rank[keep]] = v[keep] / norm[keep, None]
        rank += keep
    bad = np.flatnonzero(rank != n)
    if len(bad):
        raise RankDefect(
            f"{label} eigendistribution has pointwise rank {rank[bad[0]]}, "
            f"expected {n}")
    return basis[:, :n]


def _involutivity(sign, fb, shared):
    """Non-tangential components (eta(w), Qop w) of the brackets w of
    basis fields of the +1 (sign > 0) or -1 eigendistribution, every
    pair of fields at every point in one bracket."""
    n = (fb.m - 1) // 2
    if sign > 0:
        Q, dQ, Qop, label = fb.Qplus, fb.dQplus, fb.Qminus, "+1"
    else:
        Q, dQ, Qop, label = fb.Qminus, fb.dQminus, fb.Qplus, "-1"
    basis = _distribution_bases(Q, n, label)
    i, j = np.triu_indices(n, 1)
    Q, dQ = Q[:, None], dQ[:, None]
    w = lie_bracket(*projected_field(Q, dQ, basis[:, i]),
                    *projected_field(Q, dQ, basis[:, j]))
    res = np.concatenate([_dot(fb.eta[:, None], w)[..., None],
                          _mv(Qop[:, None], w)], axis=2)
    return [("trivial", np.zeros(len(fb)), (), ())] + [
        (f"bracket{a}{b}", res[:, k], (w[:, k],), ())
        for k, (a, b) in enumerate(zip(i, j))]


# ---------------------------------------------------------------------------
# curvature identities
# ---------------------------------------------------------------------------

def _cond_k1(fb, shared):
    A, phiA, D, gD, gphiA = shared.h_curvature_blocks
    gA = np.einsum('pax,pay->pxy', A, fb.g)

    def terms():  # m^4 per point each: formed one at a time
        yield np.einsum('pkwxa,pay->pkwxy', fb.Riem, fb.phi)
        yield -np.einsum('pka,pawxy->pkwxy', fb.phi, fb.Riem)
        yield -np.einsum('pwxy,pk->pkwxy', gD, fb.xi)
        yield -np.einsum('pxy,pkw->pkwxy', gA, phiA)
        yield np.einsum('pwy,pkx->pkwxy', gA, phiA)
        yield np.einsum('pwy,pkx->pkwxy', gphiA, A)
        yield -np.einsum('pxy,pkw->pkwxy', gphiA, A)
        yield np.einsum('py,pkwx->pkwxy', fb.eta, D)
    return [("curvature_vs_h", None, terms(), (1, 2, 3))]


def _cond_k2(fb, shared):
    A, phiA, D, gD, gphiA = shared.h_curvature_blocks
    gxi = _mv(fb.g, fb.xi)
    M = np.einsum('paw,pax->pwx', fb.phi @ fb.h @ fb.h, fb.g)
    terms = (np.einsum('pkwxa,pay,pk->pwxy', fb.Riem, fb.phi, gxi),
             -gD,
             2.0 * np.einsum('py,pwx->pwxy', fb.eta, M),
             -np.einsum('px,pwy->pwxy', fb.eta, gphiA),
             np.einsum('pw,pxy->pwxy', fb.eta, gphiA))
    return [("reeb_component_of_curvature", sum(terms), terms, (0, 1, 2))]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Condition:
    id: str
    summary: str
    scope: str
    fn: object = field(repr=False)


_REGISTRY = (
    Condition("axioms",
              "structure tensor algebra: phi^2 = id - eta (x) xi, "
              "eta(xi) = 1, phi xi = 0, eta o phi = 0, eta = g(., xi), "
              "and skewness of the fundamental form",
              "tensor", _cond_axioms),
    Condition("compat",
              "metric compatibility g(phi X, phi Y) = -g(X,Y) "
              "+ eta(X) eta(Y)",
              "tensor", _cond_compat),
    Condition("normal",
              "vanishing of the normality tensor "
              "[phi,phi](X,Y) - 2 d(eta)(X,Y) xi",
              "tensor", _cond_normal),
    Condition("pcm",
              "contact coupling: the fundamental 2-form equals d(eta)",
              "tensor", _cond_pcm),
    Condition("apcos",
              "closedness of eta and of the fundamental 2-form",
              "tensor", _cond_apcos),
    Condition("s0",
              "eta([phi X, Y] + [X, phi Y]) = 0 for sections X, Y of "
              "ker(eta)",
              "field", _cond_s0),
    Condition("s1",
              "[X,Y] + [phi X, phi Y] = phi([X, phi Y] + [phi X, Y]) for "
              "sections X, Y of ker(eta)",
              "field", _cond_s1),
    Condition("news00",
              "symmetry of (X,Y) -> d(eta)(X, phi Y) on ker(eta)",
              "distribution", _cond_news00),
    Condition("news01",
              "symmetry of (X,Y) -> (nabla_X eta)(phi Y) "
              "+ (nabla_{phi X} eta)(Y) on ker(eta)",
              "distribution", _cond_news01),
    Condition("thm1",
              "(nabla_X phi)Y + (nabla_{phi X} phi)(phi Y) "
              "+ ((nabla_Y eta)(phi X) + (nabla_{phi Y} eta)(X)) xi = 0 "
              "on ker(eta)",
              "distribution", _cond_thm1),
    Condition("jw3d",
              "dimension-3 identity (nabla_X phi)Y "
              "= g(phi nabla_X xi, Y) xi - eta(Y) phi nabla_X xi",
              "dim3", partial(_nabla_phi_from_reeb_gradient,
                              "dim3_nabla_phi")),
    Condition("normal-nabla",
              "phi((nabla_X phi)Y) - (nabla_{phi X} phi)Y "
              "+ (nabla_X eta)(Y) xi = 0 (covariant form of normality)",
              "tensor", _cond_normal_nabla),
    Condition("wlasn",
              "nabla_xi xi = 0, nabla_xi eta = 0, nabla_{phi X} xi "
              "= phi nabla_X xi, nabla_xi phi = 0",
              "tensor", _cond_wlasn),
    Condition("h-rel",
              "nabla_X xi = -phi X + phi h X with h = (1/2) L_xi phi",
              "tensor", _cond_h_rel),
    Condition("lemat",
              "(nabla_{phi X} phi)(phi Y) - (nabla_X phi)Y "
              "= 2 g(X,Y) xi - eta(Y)(X - h X + eta(X) xi)",
              "tensor", _cond_lemat),
    Condition("sas",
              "(nabla_X phi)Y = -g(X,Y) xi + eta(Y) X "
              "(defining equation of the para-Sasakian class)",
              "tensor", _cond_sas),
    Condition("wzor1",
              "(nabla_X phi)Y = g(phi nabla_X xi, Y) xi "
              "- eta(Y) phi nabla_X xi (paracontact metric setting)",
              "tensor", partial(_nabla_phi_from_reeb_gradient,
                                "nabla_phi_from_reeb_gradient")),
    Condition("wzorzamk",
              "(nabla_X phi)Y = -g(X - h X, Y) xi + eta(Y)(X - h X) "
              "(paracontact metric setting)",
              "tensor", _cond_wzorzamk),
    Condition("contparacr",
              "(nabla_X phi)Y = -g(X - h X, Y) xi for X, Y in ker(eta) "
              "(para-CR test in the paracontact metric setting)",
              "distribution", _cond_contparacr),
    Condition("dacko",
              "nabla_xi xi = 0, nabla_xi phi = 0, nabla_{phi X} xi "
              "= -phi nabla_X xi, and (nabla_{phi X} phi)(phi Y) "
              "= (nabla_X phi)Y + eta(Y) phi nabla_X xi",
              "tensor", _cond_dacko),
    Condition("wzor2",
              "(nabla_X phi)Y = g(phi nabla_X xi, Y) xi "
              "- eta(Y) phi nabla_X xi (almost para-cosymplectic setting)",
              "tensor", partial(_nabla_phi_from_reeb_gradient,
                                "nabla_phi_from_reeb_gradient")),
    Condition("paracrcos",
              "(nabla_X phi)Y = g(phi nabla_X xi, Y) xi for X, Y in "
              "ker(eta) (para-CR test in the almost para-cosymplectic "
              "setting)",
              "distribution", _cond_paracrcos),
    Condition("inv-plus",
              "involutivity of the +1 eigendistribution of phi inside "
              "ker(eta)",
              "basis", partial(_involutivity, +1)),
    Condition("inv-minus",
              "involutivity of the -1 eigendistribution of phi inside "
              "ker(eta)",
              "basis", partial(_involutivity, -1)),
    Condition("k1",
              "curvature identity expressing R(W,X)(phi Y) "
              "- phi(R(W,X)Y) through A = h - id, phi A, and the "
              "antisymmetrized covariant derivative of h",
              "tensor", _cond_k1),
    Condition("k2",
              "scalar curvature identity for g(R(W,X)(phi Y), xi) "
              "through covariant derivatives of h",
              "tensor", _cond_k2),
)

CONDITIONS = {c.id: c for c in _REGISTRY}
CONDITION_IDS = tuple(c.id for c in _REGISTRY)

BUNDLES = {
    "para-cr": ("s0", "s1", "inv-plus", "inv-minus", "news00", "news01",
                "thm1"),
}


# ---------------------------------------------------------------------------
# evaluation: one grouped reduction over the parts of every condition
# ---------------------------------------------------------------------------

# Byte budget of the grouped reduction.  A stacked group is split so
# that members x draws x one member's bytes (a bound on its probe
# temporaries) stays within it, and the arrays waiting for their group
# are reduced as soon as they hold more, so an evaluation keeps at most
# one condition's large arrays alive.
_STACK_BYTES = 1 << 19


def _stack(arrays):
    """[G, P, ...]: one array as a view that keeps its strides, or a
    stack of several, which keeps a dense layout they share (that of a
    transposed view, say) and is C-ordered otherwise."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _norms(stack):
    """[G, P]: max |x| of each member of ``stack`` at each point."""
    return np.max(np.abs(stack), axis=tuple(range(2, stack.ndim)))


def _probe_norms(stack, slots, probes):
    """[G, P, D]: max |x| of each member of ``stack`` [G, P, ...] with
    its trailing axes ``slots`` contracted with the successive rows of
    each probe draw, last axis first.  The other axes are merged, so
    each contraction is one gemv per member, point and draw, the product
    ``tensordot`` forms for a single point; the member axis stays in
    front and never joins the merged rows."""
    groups, count = stack.shape[:2]
    draws = probes.shape[1]
    T = stack[:, :, None]  # the matmul broadcasts it over the draws
    for row in reversed(range(len(slots))):
        T = (T.reshape(T.shape[:3] + (-1, T.shape[-1]))
             @ probes[:, :, row, :, None]).reshape(
                 (groups, count, draws) + T.shape[3:-1])
    return np.max(np.abs(T), axis=tuple(range(3, T.ndim)))


class _Reduction:
    """The raw and scale of every candidate of the parts of many
    conditions, as one [P, candidates] pair of arrays.

    A part's candidates are the part in full, then, when it has vector
    slots, the part contracted with each probe draw.  Every infinity
    norm they need is a column of one [P, columns] table whose column 0
    holds ones.  Arrays are reduced in groups, each by one stack: an
    array without probe slots by shape, one with them by (shape,
    strides, slots), whose stack gives both its full norms and its
    draws' contractions.  An array met again while its group waits (an
    intermediate two conditions share) reuses its columns.
    """

    def __init__(self, probes):
        self.probes = probes
        self.draws = probes.shape[1]
        self.width = 1
        self.done = []
        self.norm_groups = {}
        self.probe_groups = {}
        self.seen = {}
        self.pending = 0
        self.raw, self.terms, self.labels = [], [], []

    def add(self, parts):
        """Register the candidates of one condition's parts; returns
        their span (first, end) among all candidates."""
        first = len(self.labels)
        for name, res, terms, slots in parts:
            if res is None:
                res, cols = self._summed(terms, slots)
            else:
                cols = [self._columns(t, slots if t.ndim == res.ndim
                                      else ()) for t in terms]
            raw, raw_probe = self._columns(res, slots)
            self.raw.append(raw)
            self.terms.append([full for full, _ in cols])
            self.labels.append(name)
            if raw_probe is None:
                continue
            for d in range(self.draws):
                self.raw.append(raw_probe + d)
                self.terms.append([full if probe is None else probe + d
                                   for full, probe in cols])
                self.labels.append(f"{name}/probe{d}")
        return first, len(self.labels)

    def _summed(self, terms, slots):
        """The sum of the summands ``terms`` yields, and their columns;
        each is taken as it comes, so that a large one is reduced and
        freed before the next is formed."""
        res, cols = 0, []
        for t in terms:
            cols.append(self._columns(t, slots))
            res = res + t
        return res, cols

    def _columns(self, a, slots):
        """(column of the full norm of ``a``, first of its draws'
        columns or None)."""
        key = id(a), slots
        if key in self.seen:
            return self.seen[key][1]
        contract = bool(slots) and self.draws > 0
        full = self.width
        probe = full + 1 if contract else None
        self.width += 1 + self.draws * contract
        if contract:
            self.probe_groups.setdefault(
                (a.shape, a.strides, slots), []).append((a, full))
        else:
            self.norm_groups.setdefault(a.shape, []).append((a, full))
        self.seen[key] = a, (full, probe)  # holding a keeps its id unique
        self.pending += a.nbytes
        if self.pending > _STACK_BYTES:
            self._flush()
        return full, probe

    def _flush(self):
        """Reduce the pending groups, each split so that its stack stays
        within the byte budget."""
        for members in self.norm_groups.values():
            size = max(1, _STACK_BYTES // members[0][0].nbytes)
            for lo in range(0, len(members), size):
                self._reduce(members[lo:lo + size])
        for (_, _, slots), members in self.probe_groups.items():
            size = max(1, _STACK_BYTES
                       // (self.draws * members[0][0].nbytes))
            for lo in range(0, len(members), size):
                self._reduce(members[lo:lo + size], slots)
        self.norm_groups, self.probe_groups, self.seen = {}, {}, {}
        self.pending = 0

    def _reduce(self, members, slots=()):
        """The full norms of ``members`` and, with ``slots``, their
        draws' norms (the columns after each full norm), from one
        stack."""
        stack = _stack([a for a, _ in members])
        self.done.append(([col for _, col in members], _norms(stack).T))
        if slots:
            norms = _probe_norms(stack, slots, self.probes)
            cols = [col + 1 + d for _, col in members
                    for d in range(self.draws)]
            self.done.append((cols, norms.transpose(1, 0, 2).reshape(
                norms.shape[1], -1)))

    def candidates(self, count):
        """raw and scale of every candidate registered, as [P, C]."""
        self._flush()
        table = np.empty((count, self.width))
        table[:, 0] = 1.0
        for cols, norms in self.done:
            table[:, cols] = norms
        # terms[c] = [0, columns of candidate c's summands, 0 ...]
        lengths = np.array([len(cols) for cols in self.terms])
        terms = np.zeros((len(lengths), 1 + lengths.max()), dtype=int)
        terms[:, 1:][np.arange(lengths.max()) < lengths[:, None]] = [
            col for cols in self.terms for col in cols]
        return table[:, self.raw], np.max(table[:, terms], axis=2)


def evaluate_conditions(cond_ids, batch, probes):
    """Worst value of each listed condition over a FrameBatch, as a dict
    in the given order of ConditionValue, or of the ParacrError its
    kernel raised.

    ``probes`` holds every point's probe draws, [P, draws, 4, m].  The
    kernels run in order and share one :class:`_Shared` memo; the parts
    of those that did not raise go through one :class:`_Reduction`.  A
    condition's worst is the first strict maximum of ``scaled`` over its
    [P, candidates] columns in point-major, candidate-minor order, or
    the first NaN.  Every value equals that of a one-condition call.
    """
    conds = [CONDITIONS[cid] for cid in dict.fromkeys(cond_ids)]
    shared, reduction = _Shared(batch, probes), _Reduction(probes)
    out, spans = {}, {}
    with np.errstate(invalid="ignore", over="ignore"):
        for cond in conds:
            try:
                if cond.scope == "dim3" and batch.m != 3:
                    raise WrongDimension(f"this identity is specific to "
                                         f"dimension 3, got {batch.m}")
                spans[cond.id] = reduction.add(cond.fn(batch, shared))
            except ParacrError as exc:
                out[cond.id] = exc
        if spans:
            raws, scales = reduction.candidates(len(batch))
            scaled = raws / scales
    for cid, (lo, hi) in spans.items():
        point, cand = divmod(int(np.argmax(scaled[:, lo:hi])), hi - lo)
        out[cid] = ConditionValue(raw=float(raws[point, lo + cand]),
                                  scale=float(scales[point, lo + cand]),
                                  part=reduction.labels[lo + cand])
    return {cond.id: out[cond.id] for cond in conds}


def validate_checks(checks):
    """A check request as the checks block holds it: "all", or a
    non-empty list of condition ids, bundle names and "all" (one name
    stands for the list of it); anything else is a ValidationError."""
    if checks == "all":
        return "all"
    if isinstance(checks, str):
        checks = [checks]
    if not isinstance(checks, list) or not all(
            isinstance(c, str) for c in checks):
        raise ValidationError(
            'checks block: must be "all" or a list of check names')
    if not checks:
        raise ValidationError("checks block: must request at least one check")
    for item in checks:
        if item != "all" and item not in CONDITIONS and item not in BUNDLES:
            known = ", ".join(sorted(set(CONDITIONS) | set(BUNDLES)))
            raise ValidationError(
                f"checks block: unknown check {item!r}; known: {known}")
    return list(checks)


def expand_checks(requested, dim):
    """Expand a check request (see :func:`validate_checks`) into a
    deduplicated ordered list of condition ids.  'all' means every
    condition applicable in the given dimension."""
    requested = validate_checks(requested)
    out = []
    for item in ["all"] if requested == "all" else requested:
        if item == "all":
            ids = [c for c in CONDITION_IDS
                   if not (CONDITIONS[c].scope == "dim3" and dim != 3)]
        else:
            ids = BUNDLES.get(item, (item,))
        for cid in ids:
            if cid not in out:
                out.append(cid)
    return out


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def trit(value, tol, separation):
    """Three-valued verdict for a scaled residual: True below tol, False
    above separation or for NaN, None in the ambiguous band (or for a
    None value)."""
    if value is None:
        return None
    if value <= tol:
        return True
    if value >= separation or math.isnan(value):
        return False
    return None


def _and(*trits):
    """Conjunction: False dominates, then None, else True."""
    if any(t is False for t in trits):
        return False
    if any(t is None for t in trits):
        return None
    return True


def _merge(trits, name):
    """Consensus over independent formulations of one property; hard
    pass-vs-fail disagreement raises InconsistentVerdict."""
    known = [t for t in trits if t is not None]
    if not known:
        return None
    if any(known) and not all(known):
        raise InconsistentVerdict(
            f"independent criteria for {name!r} disagree: "
            f"{[t for t in trits]}")
    return known[0]


def classify(values, tol=1e-6, separation=1e-2):
    """Map per-condition worst scaled residuals to class verdicts.

    ``values`` maps condition ids to scaled residuals; missing ids count
    as unknown.  Returns a dict over CLASS_NAMES with True / False /
    None entries.  Raises InconsistentVerdict when independent
    formulations of the same class give hard opposite verdicts.
    """
    t = {cid: trit(values.get(cid), tol, separation) for cid in CONDITION_IDS}
    apcm = _and(t["axioms"], t["compat"])
    pcm = _and(apcm, t["pcm"])
    normal = t["normal"]
    apcos = _and(apcm, t["apcos"])
    # news00 / news01 are equivalent reformulations of s0 alone (they are
    # identities on any paracontact metric structure), so they feed the s0
    # verdict; full para-CR needs s1 as well.  The three genuinely
    # independent full criteria are (s0 and s1), involutivity of both
    # eigendistributions, and the covariant characterization.
    s0_verdict = _merge([t["s0"], t["news00"], t["news01"]], "s0")
    para_cr = _merge(
        [_and(s0_verdict, t["s1"]),
         _and(t["inv-plus"], t["inv-minus"]),
         t["thm1"]],
        "para_cr")
    para_sasakian = _merge([_and(normal, pcm), t["sas"]], "para_sasakian")
    para_kahler_leaves = _and(apcos, t["wzor2"])
    return {
        "almost_paracontact_metric": apcm,
        "paracontact_metric": pcm,
        "normal": normal,
        "para_sasakian": para_sasakian,
        "almost_para_cosymplectic": apcos,
        "para_cr": para_cr,
        "para_kahler_leaves": para_kahler_leaves,
    }
