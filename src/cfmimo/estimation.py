"""Fast fading, uplink training and LMMSE channel estimation.

EstimatorSet.channels draws a coherence block's fast fading from channel's
Ricean model, EstimatorSet.draw adds its training and EstimatorSet.estimate
its LMMSE estimates, from what build_estimators derives once per drop.

A link's covariance G = E[g g^H] = c_los a a^H + c_eye I is held as
(c_los, c_eye) = covariance_coeffs(beta, kappa) and its steering vector a,
never as a matrix. The users on one pilot share, at each AP, the covariance
of their de-spread training observation y, the pilot gram

    B = alpha I + U W U^H,  alpha = sigma_w^2 + sum_i eta_i c_eye,i,

with U (N, r) the steering vectors of the r users on the pilot that have a
LOS component and W = diag(eta_i c_los,i). B is held as thin factors,

    B^{-1} = (I - U M U^H) / alpha,  M = (alpha I_r + W U^H U)^{-1} W,

and the LMMSE estimate of a link, with s its user's slot in U, is

    g_hat = sqrt(eta) G B^{-1} y = sqrt(eta) (c_eye v + c_los a (z^H y)),
    v = B^{-1} y,  z = B^{-1} a = U (alpha I_r + W U^H U)^{-1} e_s,

with v shared by every user on the gram; its mean energy is

    gamma = E[||g_hat||^2] = eta (c_eye^2 tr B^{-1} + 2 c_eye c_los q
                                  + N c_los^2 q),  q = a^H B^{-1} a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LinkSet, covariance_coeffs
from .errors import NumericalError

COND_LIMIT = 1e12


def _check_grams(alpha, uu, w, n, sigma_w2):
    """Raise NumericalError unless every gram B = alpha I_n + U W U^H, from
    alpha (G,), uu = U^H U (G, r, r) and w (G, r) >= 0, is positive definite
    with cond(B) <= COND_LIMIT. B's eigenvalues are the n largest of those
    of S = alpha I_r + W^1/2 U^H U W^1/2 together with n copies of alpha.
    As B - sigma_w^2 I is PSD, cond(B) <= tr(B) / sigma_w^2; grams where
    that bound is at most COND_LIMIT / 2 (the factor absorbs rounding) skip
    eigvalsh; with sigma_w^2 <= 0 none do."""
    if sigma_w2 > 0:
        trace = n * alpha + np.einsum("gs,gss->g", w, uu).real
        keep = ~(trace / sigma_w2 <= COND_LIMIT / 2)
        alpha, uu, w = alpha[keep], uu[keep], w[keep]
    root = np.sqrt(w)[:, :, None]
    S = root * uu * np.swapaxes(root, 1, 2)
    S += alpha[:, None, None] * np.eye(uu.shape[-1])
    ew = np.concatenate([np.linalg.eigvalsh(S),
                         np.repeat(alpha[:, None], n, axis=1)], axis=1)
    ew = np.sort(ew, axis=1)[:, -n:]
    if np.any(ew[:, 0] <= 0) or np.any(ew[:, -1] / ew[:, 0] > COND_LIMIT):
        raise NumericalError("pilot gram is numerically singular")


@dataclass
class EstimatorSet:
    """The LMMSE estimator of a drop's (user, AP) links: the per-gram
    statistics the closed forms read and everything channels, draw and
    estimate read of the drop besides the draws. build_estimators derives
    every field once per drop, all from the one serving mask it stores as
    `served`: a field held on served links or grams is held on that mask's.
    No later stage re-applies the mask, so a set with gamma or scale nonzero
    off it (one given another mask after it is built) raises ValueError.

    The gram of link (k, a) is (pilot_index[k], a), flat index
    pilot_index[k] * A + a, with P = pilot_index.max() + 1 pilot rows.
    M counts the links with a LOS component (c_los > 0) and L the served
    ones with c_los > 0 and eta > 0.

    gamma : (K, A), solved on the links in `served` and exactly 0 elsewhere
    served : (K, A) bool, the drop's serving mask; pilot_index : (K,);
    train_powers : (K,) eta
    alpha : (P, A) the scalar part of every gram
    tr_inv : (P, A) tr B^{-1}, N / alpha on the grams without a LOS user
    los_gram : (G,) ascending flat indices of the grams a served link reads
        that have a user with a LOS component
    U_conj : (G, N, r) conj(U), U the steering vectors of each such gram's
        LOS users, with r the most on any gram and zero columns past a
        gram's own count
    UM : (G, N, r) the product U M, so B^{-1} = (I - UM U^H) / alpha there;
        estimate reads it through a transposed view
    z : (K, A, N) B^{-1} a on the LOS links of those grams, 0 elsewhere
    q : (K, A) a^H B^{-1} a = a^H z, 0 where z is
    scatter : (K, A) sqrt(c_eye / 2), the scattered part's amplitude per
        real component
    los : (M,) flat (user, AP) indices of the links with c_los > 0
    los_amp : (M,) sqrt(c_los) on those links
    los_steer : (M, N) their steering vectors
    spread : (P, K) sqrt(eta_k) at (pilot_index[k], k), 0 elsewhere
    scale : (K, A) sqrt(eta) c_eye / alpha on the served links, 0 elsewhere
    lk : (L,) flat (user, AP) indices of the served links with
        sqrt(eta) c_los > 0
    lk_row : (L,) flat (pilot, AP) row of each one's gram in y
    z_conj : (L, N) conj(z) on them
    los_term : (L, N) sqrt(eta) c_los a on them

    The scales (scatter and scale) are held (K, A) and repeated along 2N
    per block: held repeated, they would add two trials' draws to the
    memory of every batch of the upper bound.
    """
    gamma: np.ndarray
    served: np.ndarray
    pilot_index: np.ndarray
    train_powers: np.ndarray
    sigma_w2: float
    alpha: np.ndarray
    tr_inv: np.ndarray
    los_gram: np.ndarray
    U_conj: np.ndarray
    UM: np.ndarray
    z: np.ndarray
    q: np.ndarray
    scatter: np.ndarray
    los: np.ndarray
    los_amp: np.ndarray
    los_steer: np.ndarray
    spread: np.ndarray
    scale: np.ndarray
    lk: np.ndarray
    lk_row: np.ndarray
    z_conj: np.ndarray
    los_term: np.ndarray

    def __post_init__(self):
        off = ~self.served
        if np.any(self.gamma[off]) or np.any(self.scale[off]):
            raise ValueError("gamma and scale must be 0 off the serving mask")

    def channels(self, rng: np.random.Generator, n_draws, out=None):
        """n_draws coherence blocks of every link's channel, (n_draws, K, A,
        N): each link's phase, then the scattered part as one standard_normal
        call over the real view. out, a C-contiguous complex128 array of that
        shape, is filled and returned in place of a new array. Phases are
        redrawn per block. draw states the draw order of a whole block,
        training included."""
        n = self.los_steer.shape[-1]
        full = (n_draws,) + self.scatter.shape

        theta = rng.uniform(0.0, 2.0 * np.pi, size=full)
        if out is None:
            g = np.empty(full + (n,), dtype=complex)
        elif out.shape != full + (n,) or out.dtype != complex:
            raise ValueError(f"out must be complex128 of shape {full + (n,)}")
        else:
            g = out
        # Scattered part CN(0, c_eye), scaled in place on the real view,
        # whose scale array is contiguous along 2N.
        re_im = g.view(float)
        rng.standard_normal(out=re_im)
        re_im *= np.repeat(self.scatter[..., None], 2 * n, axis=-1)
        # LOS part, formed only on the links that have one (every link still
        # draws its phase, so the draw stream does not depend on los_frac).
        phase = np.exp(1j * theta.reshape(n_draws, -1)[:, self.los])
        g_los = g.reshape(n_draws, -1, n)
        g_los[:, self.los, :] += ((self.los_amp * phase)[..., None]
                                  * self.los_steer)
        return g

    def draw(self, rng: np.random.Generator, n_draws, g=None):
        """n_draws coherence blocks of the drop: the channels g (T, K, A, N),
        written into g when it is given, and the de-spread training
        observation y (T, P, A, N), P = max pilot index + 1.

        The one definition of a block's draws, in order: the channels, by
        channels (each link's phase, then the scattered part as one
        standard_normal call over g's real view); then the training noise
        CN(0, sigma_w^2), one standard_normal call over the real view of a
        new (T, P, A, N) array, added to y = spread @ g, with
        spread[p, k] = sqrt(eta_k) where user k is on pilot p.
        """
        T = n_draws
        P, K = self.spread.shape
        g = self.channels(rng, T, out=g)
        A, N = g.shape[2:]
        noise = np.empty((T, P, A, N), dtype=complex)
        re_im = noise.view(float)
        rng.standard_normal(out=re_im)
        re_im *= np.sqrt(self.sigma_w2 / 2)
        y = self.spread @ g.view(float).reshape(T, K, 2 * A * N)
        y = y.view(complex).reshape(T, P, A, N)
        y += noise
        return g, y

    def estimate(self, y, out=None):
        """LMMSE estimates g_hat (T, K, A, N) of every link, 0 off the
        serving set, from de-spread training observations y (T, P, A, N),
        one row per pilot with P > every pilot index. out, a C-contiguous
        complex128 (T, K, A, N) array that does not overlap y, receives the
        estimates in place of a new array and is returned.

        y is used as workspace: its rows on the LOS grams are overwritten
        when y is C-contiguous. Each gram's alpha B^{-1} y = y - UM (U^H y)
        is formed in place with two thin products, then spread to the users
        along the pilot axis and scaled by sqrt(eta) c_eye / alpha per link;
        each served link with a LOS component adds sqrt(eta) c_los a (z^H y).
        """
        K, A = self.scale.shape
        T, N = y.shape[0], y.shape[-1]
        pilot = self.pilot_index
        if pilot.max() >= y.shape[1]:
            raise ValueError("y has fewer pilot rows than the pilot indices")
        flat = y.reshape(T, -1, N)
        # z^H y on the served LOS links, from the observation as drawn,
        # before the grams overwrite it. take, not fancy indexing, gathers
        # the (T, L, N) rows: it is ~2x faster here.
        zy = np.einsum("tln,ln->tl", np.take(flat, self.lk_row, axis=1),
                       self.z_conj)

        y_g = flat.transpose(1, 0, 2)[self.los_gram]        # (G, T, N)
        y_g -= (y_g @ self.U_conj) @ np.swapaxes(self.UM, 1, 2)
        flat.transpose(1, 0, 2)[self.los_gram] = y_g
        del y_g
        # mode="clip" (the indices are in range) lets take write into out
        # directly; with "raise" numpy fills a temporary and copies it over.
        ghat = np.take(flat.reshape(T, -1, A, N), pilot, axis=1, out=out,
                       mode="clip")                             # (T, K, A, N)
        # Scale the real view, whose scale array is contiguous along 2N.
        re_im = ghat.view(float)
        re_im *= np.repeat(self.scale[..., None], 2 * N, axis=-1)
        # Gathered, summed and written back: an in-place += through the
        # index takes twice as long, and so does broadcasting zy along N.
        per_link = ghat.reshape(T, K * A, N)
        term = np.repeat(zy, N, axis=1).reshape(T, -1, N)
        term *= self.los_term
        term += np.take(per_link, self.lk, axis=1)
        per_link[:, self.lk] = term
        return ghat


def build_estimators(links: LinkSet, pilot_index, train_powers, sigma_w2,
                     serving=None) -> EstimatorSet:
    """Solve the grams read by the links in `serving` (K, A) bool and gamma
    on those links; None, as in cell-free mode, serves every link. The set
    carries the serving mask and the pilot assignment to every later stage
    of the drop. pilot_index must hold K integers >= 0, train_powers finite
    values >= 0, sigma_w2 a finite value, serving shape (K, A), beta finite
    values >= 0 and los_frac values in [0, 1], else ValueError."""
    K, A, N = links.steering.shape
    eta = np.broadcast_to(np.asarray(train_powers, dtype=float), (K,)).copy()
    pilot = np.asarray(pilot_index)
    if (pilot.shape != (K,) or not np.issubdtype(pilot.dtype, np.integer)
            or np.any(pilot < 0)):
        raise ValueError("pilot_index must be K non-negative integers")
    if not np.all(np.isfinite(eta) & (eta >= 0)):
        raise ValueError("train_powers must be finite and >= 0")
    if not np.isfinite(sigma_w2):
        raise ValueError("sigma_w2 must be finite")
    if not np.all(np.isfinite(links.beta) & (links.beta >= 0)):
        raise ValueError("beta must be finite and >= 0")
    if not np.all((links.los_frac >= 0) & (links.los_frac <= 1)):
        raise ValueError("los_frac must lie in [0, 1]")
    if serving is None:
        served = np.ones((K, A), dtype=bool)
    else:
        served = np.array(serving, dtype=bool)
        if served.shape != (K, A):
            raise ValueError(f"serving must have shape {(K, A)}")
    c_los, c_eye = covariance_coeffs(links.beta, links.los_frac)
    alpha = np.full((pilot.max() + 1, A), float(sigma_w2))
    np.add.at(alpha, pilot, eta[:, None] * c_eye)
    gram = pilot[:, None] * A + np.arange(A)                    # (K, A)
    used = np.zeros(alpha.size, dtype=bool)
    used[gram[served]] = True
    if np.any(alpha.ravel()[used] <= 0):
        raise NumericalError("pilot gram is numerically singular")

    # The used grams with a LOS user: slot s of gram g holds its s-th LOS
    # user (k, a) in U[g, :, s] with weight eta c_los, zero-padded to r.
    k, a = np.nonzero((c_los > 0) & used[gram])
    los_gram, pos = np.unique(gram[k, a], return_inverse=True)
    order = np.argsort(pos, kind="stable")
    slot = np.empty_like(pos)
    slot[order] = np.arange(len(pos)) - np.searchsorted(pos[order], pos[order])
    G, r = len(los_gram), int(slot.max(initial=-1)) + 1
    U = np.zeros((G, N, r), dtype=complex)
    U[pos, :, slot] = links.steering[k, a]
    U_conj = np.conj(U)
    w = np.zeros((G, r))
    w[pos, slot] = eta[k] * c_los[k, a]
    alpha_g = alpha.ravel()[los_gram]
    uu = np.swapaxes(U_conj, 1, 2) @ U                          # (G, r, r)
    _check_grams(alpha_g, uu, w, N, sigma_w2)
    # One inverse of S = alpha I + W U^H U (r x r) per gram gives U M =
    # U S^{-1} W and the solved z = U S^{-1} e_s; (a - U M U^H a) / alpha
    # would cancel on ill-conditioned grams.
    S_inv = np.linalg.inv(w[:, :, None] * uu
                          + alpha_g[:, None, None] * np.eye(r))
    US = U @ S_inv
    z = np.zeros((K, A, N), dtype=complex)
    z[k, a] = z_los = US[pos, :, slot]
    q = np.zeros((K, A), dtype=complex)
    q[k, a] = np.einsum("ln,ln->l", np.conj(links.steering[k, a]), z_los)
    # tr B^{-1} = (N - r) / alpha + tr S^{-1} sums positive terms for
    # r <= N, where N / alpha + tr(B^{-1} - I / alpha) would cancel.
    tr_inv = N / alpha
    tr_inv.ravel()[los_gram] = ((N - r) / alpha_g
                                + np.trace(S_inv, axis1=1, axis2=2).real)

    # Formed on every link, where tr_inv and q are finite; checked and kept
    # on the served ones.
    gamma = eta[:, None] * (c_eye * c_eye * tr_inv[pilot]
                            + (2.0 * c_eye + N * c_los) * c_los * q)
    scale = np.maximum(np.abs(gamma), 1e-300)
    if np.any(served & ((np.abs(gamma.imag) > 1e-8 * scale)
                        | (gamma.real < -1e-8 * scale))):
        raise NumericalError("gamma is not real non-negative; inconsistent inputs")
    gamma = np.where(served, np.maximum(gamma.real, 0.0), 0.0)

    # What channels, draw and estimate read: the channel draw's amplitudes
    # and LOS links, the de-spreading matrix, and the apply's per-link
    # factors on the served links lk that have a LOS component.
    steer = links.steering.reshape(-1, N)
    spread = np.zeros((alpha.shape[0], K))
    spread[pilot, np.arange(K)] = np.sqrt(eta)
    los_amp = np.sqrt(c_los).ravel()
    los = np.flatnonzero(los_amp > 0)
    root = np.sqrt(eta)[:, None] * served
    w_los = (root * c_los).ravel()
    lk = np.flatnonzero(w_los > 0)
    return EstimatorSet(gamma=gamma, served=served, pilot_index=pilot,
                        train_powers=eta, sigma_w2=float(sigma_w2),
                        alpha=alpha, tr_inv=tr_inv, los_gram=los_gram,
                        U_conj=U_conj, UM=US * w[:, None, :], z=z,
                        q=q.real.copy(),
                        scatter=np.sqrt(c_eye) / np.sqrt(2.0), los=los,
                        los_amp=los_amp[los], los_steer=steer[los],
                        spread=spread, scale=root * c_eye / alpha[pilot],
                        lk=lk, lk_row=gram.ravel()[lk],
                        z_conj=np.conj(z.reshape(-1, N)[lk]),
                        los_term=w_los[lk, None] * steer[lk])
