"""Point-by-point reference for the batched conditions.

This is how the package evaluated its conditions before they were
batched: every derived tensor and every condition at one point at a
time, with per-point ``tensordot`` probe contractions and a ``>``
running maximum over candidates (which keeps the first strict maximum
of finite values).  Tests hold the batched kernels of
``paracr.conditions`` and the batched tensors of
``paracr.geometry.FrameBatch`` to it.  It also holds the per-point
invariants (Nijenhuis fields, the Levi form, identities of h) that only
tests use, and the sectional-curvature target drawn one plane try at a
time.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from paracr import geometry
from paracr.conditions import ConditionValue
from paracr.errors import DegenerateMetric, DegeneratePlane, RankDefect, \
    WrongDimension


# ---------------------------------------------------------------------------
# per-point tensors
# ---------------------------------------------------------------------------

class ReferenceFrame:
    """The derived tensors of one point from its base arrays (``pf``
    supplies g, dg, d2g, phi, ... as one point's rows)."""

    def __init__(self, pf):
        self.m = pf.m
        self.point = pf.point
        for name in ("g", "dg", "d2g", "phi", "dphi", "d2phi", "xi", "dxi",
                     "d2xi", "eta", "deta", "d2eta"):
            setattr(self, name, np.array(getattr(pf, name)))

    @cached_property
    def ginv(self):
        det = np.linalg.det(self.g)
        if abs(det) < 1e-10:
            raise DegenerateMetric(f"|det g| = {abs(det):.3e}")
        return np.linalg.inv(self.g)

    @cached_property
    def dginv(self):
        return -np.einsum('ij,ajk,kl->ail', self.ginv, self.dg, self.ginv)

    @cached_property
    def _dg_comb(self):
        dg = self.dg
        return dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)

    @cached_property
    def _ddg_comb(self):
        d2g = self.d2g
        return d2g + d2g.transpose(0, 2, 1, 3) - d2g.transpose(0, 2, 3, 1)

    @cached_property
    def Gamma(self):
        return 0.5 * np.einsum('kl,ijl->kij', self.ginv, self._dg_comb)

    @cached_property
    def dGamma(self):
        return 0.5 * (np.einsum('akl,ijl->akij', self.dginv, self._dg_comb)
                      + np.einsum('kl,aijl->akij', self.ginv, self._ddg_comb))

    @cached_property
    def Riem(self):
        G = self.Gamma
        return (np.einsum('akbj->kabj', self.dGamma)
                - np.einsum('bkaj->kabj', self.dGamma)
                + np.einsum('kae,ebj->kabj', G, G)
                - np.einsum('kbe,eaj->kabj', G, G))

    @cached_property
    def nabla_eta(self):
        return self.deta - np.einsum('kij,k->ij', self.Gamma, self.eta)

    @cached_property
    def nabla_xi(self):
        return self.dxi + np.einsum('kie,e->ik', self.Gamma, self.xi)

    def covariant_11(self, vals, jac):
        return (jac + np.einsum('kie,ej->ikj', self.Gamma, vals)
                - np.einsum('eij,ke->ikj', self.Gamma, vals))

    @cached_property
    def nabla_phi(self):
        return self.covariant_11(self.phi, self.dphi)

    @cached_property
    def h(self):
        return 0.5 * (np.einsum('a,akj->kj', self.xi, self.dphi)
                      - np.einsum('aj,ak->kj', self.phi, self.dxi)
                      + np.einsum('ka,ja->kj', self.phi, self.dxi))

    @cached_property
    def dh(self):
        return 0.5 * (np.einsum('ia,akj->ikj', self.dxi, self.dphi)
                      + np.einsum('a,iakj->ikj', self.xi, self.d2phi)
                      - np.einsum('iaj,ak->ikj', self.dphi, self.dxi)
                      - np.einsum('aj,iak->ikj', self.phi, self.d2xi)
                      + np.einsum('ika,ja->ikj', self.dphi, self.dxi)
                      + np.einsum('ka,ija->ikj', self.phi, self.d2xi))

    @cached_property
    def nabla_h(self):
        return self.covariant_11(self.h, self.dh)

    @cached_property
    def dEta(self):
        return 0.5 * (self.deta - self.deta.T)

    @cached_property
    def Phi(self):
        return np.einsum('ik,kj->ij', self.g, self.phi)

    @cached_property
    def dPhi_partial(self):
        return (np.einsum('aik,kj->aij', self.dg, self.phi)
                + np.einsum('ik,akj->aij', self.g, self.dphi))

    @cached_property
    def dPhi(self):
        jac = self.dPhi_partial
        return (jac + np.einsum('jki->ijk', jac)
                + np.einsum('kij->ijk', jac)) / 3.0

    @cached_property
    def P(self):
        return np.eye(self.m) - np.outer(self.xi, self.eta)

    @cached_property
    def dP(self):
        return -(np.einsum('ak,j->akj', self.dxi, self.eta)
                 + np.einsum('k,aj->akj', self.xi, self.deta))

    @cached_property
    def Qplus(self):
        return 0.5 * (self.P + self.phi)

    @cached_property
    def dQplus(self):
        return 0.5 * (self.dP + self.dphi)

    @cached_property
    def Qminus(self):
        return 0.5 * (self.P - self.phi)

    @cached_property
    def dQminus(self):
        return 0.5 * (self.dP - self.dphi)


# ---------------------------------------------------------------------------
# per-point field calculus
# ---------------------------------------------------------------------------

def lie_bracket(X_vals, X_jac, Y_vals, Y_jac):
    return np.einsum('a,ak->k', X_vals, Y_jac) - np.einsum(
        'a,ak->k', Y_vals, X_jac)


def _projected_field(proj, dproj, u):
    return proj @ u, np.einsum('akb,b->ak', dproj, u)


def _phi_applied(pf, vals, jac):
    return (pf.phi @ vals,
            np.einsum('akb,b->ak', pf.dphi, vals)
            + np.einsum('kb,ab->ak', pf.phi, jac))


# ---------------------------------------------------------------------------
# per-point conditions
# ---------------------------------------------------------------------------

def _norm(arr):
    arr = np.asarray(arr, dtype=float)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


@dataclass(frozen=True)
class _Part:
    name: str
    res: np.ndarray
    terms: tuple
    slots: tuple = ()


def _scalar_part(name, value, *magnitudes):
    """A scalar residual scaled by the given term magnitudes."""
    return _Part(name, np.asarray(float(value)),
                 tuple(np.asarray(float(v)) for v in magnitudes))


def _contract(T, slots, draw):
    """Contract the listed axes of T with successive rows of draw."""
    if T.ndim < len(slots) or not slots:
        return T
    for ax, v in sorted(zip(slots, draw), key=lambda p: -p[0]):
        T = np.tensordot(T, np.asarray(v, dtype=float), axes=([ax], [0]))
    return T


def _best(parts, probes):
    best = None
    for p in parts:
        res = np.asarray(p.res, dtype=float)
        terms = tuple(np.asarray(t, float) for t in p.terms)
        candidates = [(res, terms, p.name)]
        if p.slots:
            for d, draw in enumerate(probes):
                rc = _contract(res, p.slots, draw)
                tc = tuple(_contract(t, p.slots, draw) if t.ndim == res.ndim
                           else t for t in terms)
                candidates.append((rc, tc, f"{p.name}/probe{d}"))
        for r, ts, label in candidates:
            raw = _norm(r)
            scale = max([1.0] + [_norm(t) for t in ts])
            val = ConditionValue(raw=raw, scale=scale, part=label)
            if best is None or val.scaled > best.scaled:
                best = val
    return best


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def _phi_nabla_xi(pf):
    """v[x, a] = (phi nabla_{e_x} xi)^a."""
    return np.einsum('ab,xb->xa', pf.phi, pf.nabla_xi)


def _nphi_kxy(pf):
    """(nabla_{e_x} phi)^k_y arranged as [k, x, y]."""
    return pf.nabla_phi.transpose(1, 0, 2)


def _project_slots(T, P, slots):
    """Compose the listed vector-argument axes of T with the projector."""
    for ax in slots:
        T = np.moveaxis(np.tensordot(T, P, axes=([ax], [0])), -1, ax)
    return T


def _nijenhuis_array(pf):
    """N[k, i, j]: torsion of phi on coordinate fields."""
    return (np.einsum('ai,akj->kij', pf.phi, pf.dphi)
            - np.einsum('aj,aki->kij', pf.phi, pf.dphi)
            - np.einsum('ka,iaj->kij', pf.phi, pf.dphi)
            + np.einsum('ka,jai->kij', pf.phi, pf.dphi))


# ---------------------------------------------------------------------------
# tensor / distribution conditions
# ---------------------------------------------------------------------------

def _cond_axioms(pf, probes):
    m = pf.m
    eye = np.eye(m)
    phi2 = pf.phi @ pf.phi
    bias = np.outer(pf.xi, pf.eta)
    parts = [
        _Part("phi_squared", phi2 - eye + bias, (phi2, eye, bias), (1,)),
        _scalar_part("eta_of_xi", float(pf.eta @ pf.xi) - 1.0,
                     float(pf.eta @ pf.xi), 1.0),
        _Part("phi_xi", pf.phi @ pf.xi,
              (_norm(pf.phi) * _norm(pf.xi),)),
        _Part("eta_phi", pf.eta @ pf.phi,
              (_norm(pf.eta) * _norm(pf.phi),)),
        _Part("eta_metric_dual", pf.eta - pf.g @ pf.xi,
              (pf.eta, pf.g @ pf.xi)),
        _Part("form_skew", pf.Phi + pf.Phi.T, (pf.Phi, pf.Phi.T), (0, 1)),
    ]
    return _best(parts, probes)


def _cond_compat(pf, probes):
    twisted = np.einsum('ai,ab,bj->ij', pf.phi, pf.g, pf.phi)
    bias = np.outer(pf.eta, pf.eta)
    res = twisted + pf.g - bias
    return _best([_Part("compat", res, (twisted, pf.g, bias), (0, 1))], probes)


def _cond_normal(pf, probes):
    N = _nijenhuis_array(pf)
    contact = 2.0 * np.einsum('ij,k->kij', pf.dEta, pf.xi)
    return _best([_Part("normality_tensor", N - contact, (N, contact),
                        (1, 2))], probes)


def _cond_pcm(pf, probes):
    return _best([_Part("form_vs_deta", pf.Phi - pf.dEta,
                        (pf.Phi, pf.dEta), (0, 1))], probes)


def _cond_apcos(pf, probes):
    half = 0.5 * pf.deta
    jac = pf.dPhi_partial
    thirds = (jac / 3.0, jac.transpose(1, 2, 0) / 3.0,
              jac.transpose(2, 0, 1) / 3.0)
    parts = [
        _Part("deta_closed", pf.dEta, (half, half.transpose(1, 0)), (0, 1)),
        _Part("dform_closed", pf.dPhi, thirds, (0, 1, 2)),
    ]
    return _best(parts, probes)


def _cond_news00(pf, probes):
    P = pf.P
    M = P.T @ (pf.dEta @ pf.phi) @ P
    return _best([_Part("levi_symmetry", M - M.T, (M, M.T), (0, 1))], probes)


def _cond_news01(pf, probes):
    P = pf.P
    B = pf.nabla_eta @ pf.phi + pf.phi.T @ pf.nabla_eta
    Bp = P.T @ B @ P
    return _best([_Part("nabla_eta_symmetry", Bp - Bp.T, (Bp, Bp.T),
                        (0, 1))], probes)


def _cond_thm1(pf, probes):
    P = pf.P
    t1 = _nphi_kxy(pf)
    t2 = np.einsum('ax,akb,by->kxy', pf.phi, pf.nabla_phi, pf.phi)
    S = (np.einsum('ya,ax->xy', pf.nabla_eta, pf.phi)
         + np.einsum('ay,ax->xy', pf.phi, pf.nabla_eta))
    t3 = np.einsum('xy,k->kxy', S, pf.xi)
    parts = [_Part("symmetric_nabla_phi",
                   _project_slots(t1 + t2 + t3, P, (1, 2)),
                   tuple(_project_slots(t, P, (1, 2)) for t in (t1, t2, t3)),
                   (1, 2))]
    return _best(parts, probes)


def _reeb_gradient_shape(pf):
    """The common right-hand side g(phi nabla_X xi, Y) xi - eta(Y) phi
    nabla_X xi, as [k, x, y] terms (returned separately)."""
    v = _phi_nabla_xi(pf)
    t2 = -np.einsum('xa,ay,k->kxy', v, pf.g, pf.xi)
    t3 = np.einsum('y,xk->kxy', pf.eta, v)
    return t2, t3


def _cond_jw3d(pf, probes):
    if pf.m != 3:
        raise WrongDimension(
            f"this identity is specific to dimension 3, got {pf.m}")
    t1 = _nphi_kxy(pf)
    t2, t3 = _reeb_gradient_shape(pf)
    return _best([_Part("dim3_nabla_phi", t1 + t2 + t3, (t1, t2, t3),
                        (1, 2))], probes)


def _cond_normal_nabla(pf, probes):
    t1 = np.einsum('ka,xay->kxy', pf.phi, pf.nabla_phi)
    t2 = -np.einsum('ax,aky->kxy', pf.phi, pf.nabla_phi)
    t3 = np.einsum('xy,k->kxy', pf.nabla_eta, pf.xi)
    return _best([_Part("normal_nabla", t1 + t2 + t3, (t1, t2, t3),
                        (1, 2))], probes)


def _cond_wlasn(pf, probes):
    along = np.einsum('i,ik->k', pf.xi, pf.nabla_xi)
    eta_along = np.einsum('i,ij->j', pf.xi, pf.nabla_eta)
    r3 = (np.einsum('ax,ak->kx', pf.phi, pf.nabla_xi)
          - np.einsum('ka,xa->kx', pf.phi, pf.nabla_xi))
    r4 = np.einsum('i,ikj->kj', pf.xi, pf.nabla_phi)
    parts = [
        _Part("reeb_geodesic", along,
              (_norm(pf.xi) * _norm(pf.nabla_xi),)),
        _Part("eta_parallel_along_reeb", eta_along,
              (_norm(pf.xi) * _norm(pf.nabla_eta),)),
        _Part("phi_commutes_with_reeb_gradient", r3,
              (np.einsum('ax,ak->kx', pf.phi, pf.nabla_xi),
               np.einsum('ka,xa->kx', pf.phi, pf.nabla_xi)), (1,)),
        _Part("phi_parallel_along_reeb", r4,
              (_norm(pf.xi) * _norm(pf.nabla_phi),), (1,)),
    ]
    return _best(parts, probes)


def _cond_h_rel(pf, probes):
    t1 = pf.nabla_xi.T
    t2 = pf.phi
    t3 = -pf.phi @ pf.h
    return _best([_Part("reeb_gradient_vs_h", t1 + t2 + t3, (t1, t2, t3),
                        (1,))], probes)


def _cond_lemat(pf, probes):
    t1 = np.einsum('ax,akb,by->kxy', pf.phi, pf.nabla_phi, pf.phi)
    t2 = -_nphi_kxy(pf)
    t3 = -2.0 * np.einsum('xy,k->kxy', pf.g, pf.xi)
    W = np.eye(pf.m) - pf.h + np.outer(pf.xi, pf.eta)
    t4 = np.einsum('y,kx->kxy', pf.eta, W)
    return _best([_Part("twisted_nabla_phi", t1 + t2 + t3 + t4,
                        (t1, t2, t3, t4), (1, 2))], probes)


def _cond_sas(pf, probes):
    t1 = _nphi_kxy(pf)
    t2 = np.einsum('xy,k->kxy', pf.g, pf.xi)
    t3 = -np.einsum('y,kx->kxy', pf.eta, np.eye(pf.m))
    return _best([_Part("defining_equation", t1 + t2 + t3, (t1, t2, t3),
                        (1, 2))], probes)


def _cond_wzor1(pf, probes):
    t1 = _nphi_kxy(pf)
    t2, t3 = _reeb_gradient_shape(pf)
    return _best([_Part("nabla_phi_from_reeb_gradient", t1 + t2 + t3,
                        (t1, t2, t3), (1, 2))], probes)


def _cond_wzorzamk(pf, probes):
    B = np.eye(pf.m) - pf.h
    t1 = _nphi_kxy(pf)
    t2 = np.einsum('ax,ay,k->kxy', B, pf.g, pf.xi)
    t3 = -np.einsum('y,kx->kxy', pf.eta, B)
    return _best([_Part("nabla_phi_from_h", t1 + t2 + t3, (t1, t2, t3),
                        (1, 2))], probes)


def _cond_contparacr(pf, probes):
    B = np.eye(pf.m) - pf.h
    t1 = _nphi_kxy(pf)
    t2 = np.einsum('ax,ay,k->kxy', B, pf.g, pf.xi)
    P = pf.P
    parts = [_Part("kernel_nabla_phi_from_h",
                   _project_slots(t1 + t2, P, (1, 2)),
                   (_project_slots(t1, P, (1, 2)),
                    _project_slots(t2, P, (1, 2))), (1, 2))]
    return _best(parts, probes)


def _cond_dacko(pf, probes):
    along = np.einsum('i,ik->k', pf.xi, pf.nabla_xi)
    r2 = np.einsum('i,ikj->kj', pf.xi, pf.nabla_phi)
    r3 = (np.einsum('ax,ak->kx', pf.phi, pf.nabla_xi)
          + np.einsum('ka,xa->kx', pf.phi, pf.nabla_xi))
    v = _phi_nabla_xi(pf)
    t1 = np.einsum('ax,akb,by->kxy', pf.phi, pf.nabla_phi, pf.phi)
    t2 = -_nphi_kxy(pf)
    t3 = -np.einsum('y,xk->kxy', pf.eta, v)
    parts = [
        _Part("reeb_geodesic", along,
              (_norm(pf.xi) * _norm(pf.nabla_xi),)),
        _Part("phi_parallel_along_reeb", r2,
              (_norm(pf.xi) * _norm(pf.nabla_phi),), (1,)),
        _Part("phi_anticommutes_with_reeb_gradient", r3,
              (np.einsum('ax,ak->kx', pf.phi, pf.nabla_xi),
               np.einsum('ka,xa->kx', pf.phi, pf.nabla_xi)), (1,)),
        _Part("twisted_nabla_phi", t1 + t2 + t3, (t1, t2, t3), (1, 2)),
    ]
    return _best(parts, probes)


def _cond_wzor2(pf, probes):
    t1 = _nphi_kxy(pf)
    t2, t3 = _reeb_gradient_shape(pf)
    return _best([_Part("nabla_phi_from_reeb_gradient", t1 + t2 + t3,
                        (t1, t2, t3), (1, 2))], probes)


def _cond_paracrcos(pf, probes):
    v = _phi_nabla_xi(pf)
    t1 = _nphi_kxy(pf)
    t2 = -np.einsum('xa,ay,k->kxy', v, pf.g, pf.xi)
    P = pf.P
    parts = [_Part("kernel_nabla_phi_from_reeb_gradient",
                   _project_slots(t1 + t2, P, (1, 2)),
                   (_project_slots(t1, P, (1, 2)),
                    _project_slots(t2, P, (1, 2))), (1, 2))]
    return _best(parts, probes)


# ---------------------------------------------------------------------------
# field conditions (need derivatives of their arguments)
# ---------------------------------------------------------------------------

def _field_draws(pf, probes):
    """Coordinate seed pairs plus the supplied probe pairs."""
    m = pf.m
    eye = np.eye(m)
    draws = [(eye[i], eye[j]) for i in range(m) for j in range(i + 1, m)]
    draws += [(draw[0], draw[1]) for draw in probes]
    return draws


def _cond_s0(pf, probes):
    best = None
    for d, (u, v) in enumerate(_field_draws(pf, probes)):
        X = _projected_field(pf.P, pf.dP, u)
        Y = _projected_field(pf.P, pf.dP, v)
        pX = _phi_applied(pf, *X)
        pY = _phi_applied(pf, *Y)
        t1 = float(pf.eta @ lie_bracket(*pX, *Y))
        t2 = float(pf.eta @ lie_bracket(*X, *pY))
        val = ConditionValue(raw=abs(t1 + t2),
                             scale=max(1.0, abs(t1), abs(t2)),
                             part=f"pair{d}")
        if best is None or val.scaled > best.scaled:
            best = val
    return best


def _cond_s1(pf, probes):
    best = None
    for d, (u, v) in enumerate(_field_draws(pf, probes)):
        X = _projected_field(pf.P, pf.dP, u)
        Y = _projected_field(pf.P, pf.dP, v)
        pX = _phi_applied(pf, *X)
        pY = _phi_applied(pf, *Y)
        t1 = lie_bracket(*X, *Y)
        t2 = lie_bracket(*pX, *pY)
        t3 = -pf.phi @ lie_bracket(*X, *pY)
        t4 = -pf.phi @ lie_bracket(*pX, *Y)
        val = ConditionValue(
            raw=_norm(t1 + t2 + t3 + t4),
            scale=max(1.0, _norm(t1), _norm(t2), _norm(t3), _norm(t4)),
            part=f"pair{d}")
        if best is None or val.scaled > best.scaled:
            best = val
    return best


# ---------------------------------------------------------------------------
# eigendistributions and involutivity
# ---------------------------------------------------------------------------

def _distribution_basis(Q, n, label, tol=1e-7):
    """Orthonormal basis of the column space of Q by sequential
    Gram-Schmidt over the coordinate images; RankDefect unless rank n."""
    scale = max(1.0, _norm(Q))
    basis = []
    for j in range(Q.shape[0]):
        v = np.array(Q[:, j], dtype=float)
        for b in basis:
            v -= (b @ v) * b
        nv = float(np.linalg.norm(v))
        if nv > tol * scale:
            basis.append(v / nv)
    if len(basis) != n:
        raise RankDefect(
            f"{label} eigendistribution has pointwise rank {len(basis)}, "
            f"expected {n}")
    return basis


def eigendistribution_bases(pf, tol=1e-7):
    """Bases of the +1 and -1 eigendistributions of phi inside ker(eta)."""
    n = (pf.m - 1) // 2
    plus = _distribution_basis(pf.Qplus, n, "+1", tol)
    minus = _distribution_basis(pf.Qminus, n, "-1", tol)
    return plus, minus


def involutivity_residual(pf, sign):
    """Worst non-tangential component of brackets of basis fields of the
    +1 (sign > 0) or -1 eigendistribution, as a ConditionValue."""
    n = (pf.m - 1) // 2
    if sign > 0:
        Q, dQ, Qop, label = pf.Qplus, pf.dQplus, pf.Qminus, "+1"
    else:
        Q, dQ, Qop, label = pf.Qminus, pf.dQminus, pf.Qplus, "-1"
    basis = _distribution_basis(Q, n, label)
    best = ConditionValue(raw=0.0, scale=1.0, part="trivial")
    for i in range(n):
        for j in range(i + 1, n):
            U = _projected_field(Q, dQ, basis[i])
            V = _projected_field(Q, dQ, basis[j])
            w = lie_bracket(*U, *V)
            raw = max(abs(float(pf.eta @ w)), _norm(Qop @ w))
            val = ConditionValue(raw=raw, scale=max(1.0, _norm(w)),
                                 part=f"bracket{i}{j}")
            if val.scaled > best.scaled:
                best = val
    return best


def _cond_inv_plus(pf, probes):
    return involutivity_residual(pf, +1)


def _cond_inv_minus(pf, probes):
    return involutivity_residual(pf, -1)


# ---------------------------------------------------------------------------
# curvature identities
# ---------------------------------------------------------------------------

def _cond_k1(pf, probes):
    A = pf.h - np.eye(pf.m)
    phiA = pf.phi @ A
    nh = pf.nabla_h
    D = nh.transpose(1, 0, 2) - nh.transpose(1, 2, 0)
    gD = np.einsum('awx,ay->wxy', D, pf.g)
    gA = np.einsum('ax,ay->xy', A, pf.g)
    gphiA = np.einsum('ax,ay->xy', phiA, pf.g)
    l1 = np.einsum('kwxa,ay->kwxy', pf.Riem, pf.phi)
    l2 = -np.einsum('ka,awxy->kwxy', pf.phi, pf.Riem)
    r1 = -np.einsum('wxy,k->kwxy', gD, pf.xi)
    r2 = -np.einsum('xy,kw->kwxy', gA, phiA)
    r3 = np.einsum('wy,kx->kwxy', gA, phiA)
    r4 = np.einsum('wy,kx->kwxy', gphiA, A)
    r5 = -np.einsum('xy,kw->kwxy', gphiA, A)
    r6 = np.einsum('y,kwx->kwxy', pf.eta, D)
    terms = (l1, l2, r1, r2, r3, r4, r5, r6)
    res = sum(terms)
    return _best([_Part("curvature_vs_h", res, terms, (1, 2, 3))], probes)


def _cond_k2(pf, probes):
    A = pf.h - np.eye(pf.m)
    phiA = pf.phi @ A
    nh = pf.nabla_h
    D = nh.transpose(1, 0, 2) - nh.transpose(1, 2, 0)
    gD = np.einsum('awx,ay->wxy', D, pf.g)
    gphiA = np.einsum('ax,ay->xy', phiA, pf.g)
    gxi = pf.g @ pf.xi
    phih2 = pf.phi @ pf.h @ pf.h
    M = np.einsum('aw,ax->wx', phih2, pf.g)
    l1 = np.einsum('kwxa,ay,k->wxy', pf.Riem, pf.phi, gxi)
    r1 = -gD
    r2 = 2.0 * np.einsum('y,wx->wxy', pf.eta, M)
    r3 = -np.einsum('x,wy->wxy', pf.eta, gphiA)
    r4 = np.einsum('w,xy->wxy', pf.eta, gphiA)
    terms = (l1, r1, r2, r3, r4)
    res = sum(terms)
    return _best([_Part("reeb_component_of_curvature", res, terms,
                        (0, 1, 2))], probes)



REFERENCE = {
    "axioms": _cond_axioms, "compat": _cond_compat, "normal": _cond_normal,
    "pcm": _cond_pcm, "apcos": _cond_apcos, "s0": _cond_s0, "s1": _cond_s1,
    "news00": _cond_news00, "news01": _cond_news01, "thm1": _cond_thm1,
    "jw3d": _cond_jw3d, "normal-nabla": _cond_normal_nabla,
    "wlasn": _cond_wlasn, "h-rel": _cond_h_rel, "lemat": _cond_lemat,
    "sas": _cond_sas, "wzor1": _cond_wzor1, "wzorzamk": _cond_wzorzamk,
    "contparacr": _cond_contparacr, "dacko": _cond_dacko,
    "wzor2": _cond_wzor2, "paracrcos": _cond_paracrcos,
    "inv-plus": _cond_inv_plus, "inv-minus": _cond_inv_minus,
    "k1": _cond_k1, "k2": _cond_k2,
}


def evaluate(cond_id, pf, probes=()):
    """One condition at one point (any object with the tensors of
    ``ReferenceFrame``)."""
    return REFERENCE[cond_id](pf, probes)


def worst_over_points(cond_id, frames, probe_sets):
    """The per-point reduction over a sample: first strict maximum."""
    worst = None
    for pf, probes in zip(frames, probe_sets):
        cv = evaluate(cond_id, pf, probes)
        if worst is None or cv.scaled > worst.scaled:
            worst = cv
    return worst


# ---------------------------------------------------------------------------
# the sectional-curvature target, one plane try at a time
# ---------------------------------------------------------------------------

def sectional(pf, X, Y):
    """Sectional curvature of span(X, Y) at one point; DegeneratePlane
    for a zero vector or a Gram determinant below the threshold."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    nx, ny = np.linalg.norm(X), np.linalg.norm(Y)
    if nx == 0.0 or ny == 0.0:
        raise DegeneratePlane("zero probe vector")
    X, Y = X / nx, Y / ny
    gXX = X @ pf.g @ X
    gYY = Y @ pf.g @ Y
    gXY = X @ pf.g @ Y
    denom = gXX * gYY - gXY * gXY
    if abs(denom) < geometry._MIN_PLANE_GRAM:
        raise DegeneratePlane(
            f"plane Gram determinant {denom:.3e} below "
            f"{geometry._MIN_PLANE_GRAM:.1e}")
    RXYY = np.einsum('kabj,a,b,j->k', pf.Riem, X, Y, Y)
    return float((RXYY @ pf.g @ X) / denom)


def random_plane(pf, rng, max_tries=100):
    """The sectional curvature of the first nondegenerate plane of at
    most ``max_tries`` tries, each one uniform X then one Y."""
    for _ in range(max_tries):
        X = rng.uniform(-1.0, 1.0, pf.m)
        Y = rng.uniform(-1.0, 1.0, pf.m)
        try:
            return sectional(pf, X, Y)
        except DegeneratePlane:
            continue
    raise DegeneratePlane(
        f"no nondegenerate plane found in {max_tries} draws at {pf.point}")


def random_sectionals(frames, rng, planes=4):
    """``planes`` random plane curvatures per point, in point order."""
    return [random_plane(pf, rng) for pf in frames for _ in range(planes)]


# ---------------------------------------------------------------------------
# per-point invariants used by tests
# ---------------------------------------------------------------------------

def nijenhuis_field(pf, X, Y):
    """Torsion of phi on the vector fields X, Y given as (values,
    jacobian) pairs: phi^2[X,Y] + [phi X, phi Y] - phi[phi X, Y]
    - phi[X, phi Y]."""
    pX = _phi_applied(pf, *X)
    pY = _phi_applied(pf, *Y)
    return (pf.phi @ (pf.phi @ lie_bracket(*X, *Y))
            + lie_bracket(*pX, *pY)
            - pf.phi @ lie_bracket(*pX, *Y)
            - pf.phi @ lie_bracket(*X, *pY))


def normality_field_residual(pf, X, Y):
    """The normality tensor on two fields: nijenhuis - 2 d(eta)(X,Y) xi."""
    w = nijenhuis_field(pf, X, Y)
    return w - 2.0 * float(X[0] @ pf.dEta @ Y[0]) * pf.xi


def levi_form(pf):
    """L(X,Y) = -d(eta)(X, phi Y) with both slots restricted to
    ker(eta), as a coordinate-slot matrix."""
    M = -pf.dEta @ pf.phi
    return pf.P.T @ M @ pf.P


def levi_symmetry_residual(pf):
    L = levi_form(pf)
    return _norm(L - L.T) / max(1.0, _norm(L))


def h_property_residuals(pf):
    """Scaled residuals of the algebraic identities of h on paracontact
    metric structures: g-symmetry, anticommutation with phi,
    tracelessness, h xi = 0, and eta o h = 0."""
    gh = pf.g @ pf.h
    ph = pf.phi @ pf.h
    hp = pf.h @ pf.phi
    hnorm = max(1.0, _norm(pf.h))
    return {
        "g_symmetric": _norm(gh - gh.T) / max(1.0, _norm(gh)),
        "anticommutes_with_phi": _norm(ph + hp)
        / max(1.0, _norm(ph), _norm(hp)),
        "traceless": abs(float(np.trace(pf.h))) / hnorm,
        "kills_reeb": _norm(pf.h @ pf.xi)
        / max(1.0, _norm(pf.h) * _norm(pf.xi)),
        "eta_annihilated": _norm(pf.eta @ pf.h)
        / max(1.0, _norm(pf.eta) * _norm(pf.h)),
    }
