"""Spectral-efficiency bounds.

Closed-form lower bounds come from hardening ("use-and-then-forget") SINR
expressions evaluated from the estimation statistics (G, D, gamma) only;
upper bounds are Monte-Carlo averages of log2(1 + instantaneous SINR) with
true channels and actual LMMSE estimates/beamformers.

All SINR denominators decompose into: beamforming-gain-uncertainty term,
cross-interference trace term, noise term, and a pilot-contamination term
over users sharing the same pilot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LinkSet, sample_channels
from .estimation import EstimatorSet
from .errors import NumericalError

_IMAG_TOL = 1e-9


def _real_guard(x, what):
    x = np.asarray(x)
    scale = np.maximum(np.abs(x), 1e-300)
    if np.any(np.abs(x.imag) > _IMAG_TOL * scale):
        raise NumericalError(f"{what} has non-negligible imaginary part")
    return x.real


def _c_coeffs(beta, rice_k):
    """(beta/(K+1))^2 and K (beta/(K+1))^2, with the pure-LOS limit 0."""
    beta = np.asarray(beta, dtype=float)
    k = np.asarray(rice_k, dtype=float)
    pure = np.isinf(k)
    ksafe = np.where(pure, 0.0, k)
    c = np.where(pure, 0.0, beta / (ksafe + 1.0))
    c2 = c * c
    c2k = c2 * ksafe
    return c2, c2k


def delta_dl(beta, rice_k, steering, D):
    """Fourth-moment coefficient of one link against one LMMSE filter:

        delta = c^2 |tr D|^2 + 2 c^2 K tr(D) Re{a^H D a},  c = beta/(K+1).

    This is the excess of E|g^H D g|^2 over the value obtained by treating
    the two g factors as independent; it vanishes in the pure-LOS limit.
    """
    a = np.asarray(steering)
    D = np.asarray(D)
    c2, c2k = _c_coeffs(beta, rice_k)
    trD = np.einsum("...nn->...", D)
    aDa = np.einsum("...n,...nm,...m->...", np.conj(a), D, a)
    return (c2 * np.abs(trD) ** 2
            + 2.0 * c2k * np.real(aDa * np.conj(trD)))


def delta_ul(beta, rice_k, steering, D):
    """Uplink mirror of delta_dl: same symmetric form, with the link
    belonging to the interfering user and D to the decoding user."""
    return delta_dl(beta, rice_k, steering, D)


@dataclass
class RateReport:
    """Per-user spectral efficiencies (bits/s/Hz) and rates (bits/s) for one
    drop. Rates are SE times the system bandwidth."""
    se_lb_dl: np.ndarray
    se_ub_dl: np.ndarray
    se_lb_ul: np.ndarray
    se_ub_ul: np.ndarray
    ub_stderr_dl: np.ndarray
    ub_stderr_ul: np.ndarray
    sinr_lb_dl: np.ndarray
    sinr_lb_ul: np.ndarray
    bandwidth: float

    @property
    def rate_lb_dl(self):
        return self.se_lb_dl * self.bandwidth

    @property
    def rate_ub_dl(self):
        return self.se_ub_dl * self.bandwidth

    @property
    def rate_lb_ul(self):
        return self.se_lb_ul * self.bandwidth

    @property
    def rate_ub_ul(self):
        return self.se_ub_ul * self.bandwidth


def se_lb(sinr, phase_fraction):
    """SE = fraction * log2(1 + sinr), via log1p so that an SINR below
    machine epsilon still gives a positive rate."""
    return phase_fraction * np.log1p(np.asarray(sinr, dtype=float)) / np.log(2)


# ---------------------------------------------------------------------------
# Shared per-drop precomputation for the closed-form SINRs
# ---------------------------------------------------------------------------

@dataclass
class UatfTerms:
    """Per-drop cache of every pairwise trace needed by the closed forms.

    trace_D   : (K, A) real            tr(D_{k,a})
    t         : (J, K, A) complex      tr(D_{j,a} G_{k,a})
    cross     : (J, K, A) real         tr(G_{j,a} D_{j,a}^H G_{k,a})
    delta     : (K, J, A) real         delta of link (k,a) against D_{j,a}
    collide   : (K, K) bool            shared-pilot indicator
    gamma     : (K, A); eta_train : (K,)
    """
    trace_D: np.ndarray
    t: np.ndarray
    cross: np.ndarray
    delta: np.ndarray
    collide: np.ndarray
    gamma: np.ndarray
    eta_train: np.ndarray


def _re_traces(X, Y):
    """Re tr(X_{j,a} Y_{k,a}) for every j, k and AP a, shape (J, K, A),
    where either X or Y is Hermitian.

    Then tr(X Y) = sum(X * conj(Y)) over matching entries, whose real part
    is the dot product of the two matrices' (re, im) entries: per AP, one
    real (J, 2N^2) @ (2N^2, K) product.
    """
    J, A = X.shape[:2]
    K = Y.shape[0]
    x = np.ascontiguousarray(X).view(float).reshape(J, A, -1)
    y = np.ascontiguousarray(Y).view(float).reshape(K, A, -1)
    return np.ascontiguousarray(
        np.einsum("jaq,kaq->jka", x, y, optimize=True))


def uatf_terms(links: LinkSet, est: EstimatorSet, pilot_index) -> UatfTerms:
    G, D = est.G, est.D
    steer = links.steering

    trace_D = _real_guard(np.einsum("kann->ka", D), "tr(D)")
    # a_k^H D_j a_k = tr(a_k a_k^H D_j); only its real part enters delta.
    c2, c2k = _c_coeffs(links.beta, links.rice_k)
    aah = steer[..., :, None] * np.conj(steer[..., None, :])
    delta = (c2[:, None, :] * trace_D[None, :, :] ** 2
             + 2.0 * c2k[:, None, :] * trace_D[None, :, :]
             * _re_traces(aah, D))
    del aah

    # optimize=True turns the pairwise trace into per-AP BLAS products;
    # the AP-major result is copied to the (J, K, A) layout the closed
    # forms read fastest.
    t = np.ascontiguousarray(np.einsum("janm,kamn->jka", D, G, optimize=True))
    # G D^H = sqrt(eta) G B^{-1} G is Hermitian, so its trace against the
    # Hermitian G_k is real; symmetrize to kill solve roundoff, which makes
    # it exactly Hermitian for _re_traces.
    GDH = np.einsum("janm,japm->janp", G, np.conj(D))
    GDH = 0.5 * (GDH + np.conj(np.swapaxes(GDH, -1, -2)))
    cross = _re_traces(GDH, G)

    pilot_index = np.asarray(pilot_index)
    collide = pilot_index[:, None] == pilot_index[None, :]

    return UatfTerms(trace_D=trace_D, t=t, cross=cross, delta=delta,
                     collide=collide, gamma=est.gamma,
                     eta_train=est.train_powers)


def _contamination(terms: UatfTerms, power_w, t_slice):
    """Coherent pilot-contamination factor per (interferer j, victim k):

        sum_a w_{j,a} delta[k, j, a] + |sum_a sqrt(w_{j,a}) t_a|^2
                                     - sum_a w_{j,a} |t_a|^2

    where w are per-AP power weights over the interferer's serving set and
    t_a = t_slice[j, k, a]. The |sum|^2 - sum|.|^2 arrangement is the
    ordered cross-AP double sum in closed form.
    """
    sqrt_w = np.sqrt(power_w)
    coherent = np.abs(np.einsum("ja,jka->jk", sqrt_w, t_slice)) ** 2
    diagonal = np.einsum("ja,jka->jk", power_w, np.abs(t_slice) ** 2)
    dterm = np.einsum("ja,kja->jk", power_w, terms.delta)
    return dterm + coherent - diagonal


def sinr_dl_lb(terms: UatfTerms, eta_dl, serving_mask, sigma_z2,
               return_parts=False):
    """Closed-form downlink SINR for every user (linear).

    eta_dl : (K, A) normalized per-link downlink powers eta_{k,a}^DL
    serving_mask : (K, A) bool, the serving sets A_k
    """
    eta_dl = np.asarray(eta_dl, dtype=float) * serving_mask
    gamma = terms.gamma
    eta = terms.eta_train

    K = len(eta)

    num = np.einsum("ka,ka->k", np.sqrt(eta_dl), gamma) ** 2

    self_delta = terms.delta[np.arange(K), np.arange(K), :]
    bu = np.einsum("ka,ka->k", eta_dl,
                   eta[:, None] * self_delta - gamma ** 2)

    cross = np.einsum("j,ja,jka->k", np.sqrt(eta), eta_dl, terms.cross)

    cont_jk = _contamination(terms, eta_dl, terms.t)
    cont_w = terms.collide & ~np.eye(K, dtype=bool)
    contamination = eta * np.einsum("jk,jk->k", cont_w, cont_jk)

    den = bu + cross + sigma_z2 + contamination
    if np.any(den <= 0):
        raise NumericalError("non-positive downlink SINR denominator")
    sinr = num / den
    if return_parts:
        return sinr, {"num": num, "bu": bu, "cross": cross,
                      "contamination": contamination, "noise": sigma_z2,
                      "cont_jk": cont_jk}
    return sinr


def sinr_ul_lb(terms: UatfTerms, eta_ul, serving_mask, sigma_w2,
               return_parts=False):
    """Closed-form uplink SINR for every user (linear).

    eta_ul : (K,) uplink transmit powers
    serving_mask : (K, A) bool, the serving sets A_k
    """
    eta_ul = np.asarray(eta_ul, dtype=float)
    mask = np.asarray(serving_mask, dtype=float)
    gamma = terms.gamma
    eta = terms.eta_train
    K = len(eta)

    gsum = np.einsum("ka,ka->k", mask, gamma)
    num = eta_ul * gsum ** 2

    self_delta = terms.delta[np.arange(K), np.arange(K), :]
    bu = eta_ul * np.einsum("ka,ka->k", mask,
                            eta[:, None] * self_delta - gamma ** 2)

    # tr(G_{k,a} D_{k,a}^H G_{j,a}) is cross[k, j, a] (first index owns D).
    cross = np.sqrt(eta) * np.einsum("j,ka,kja->k", eta_ul, mask, terms.cross)

    noise = sigma_w2 * gsum

    # Interferer j against victim k's serving set; t[k, j, a] = tr(D_k G_j).
    t_kj = np.transpose(terms.t, (1, 0, 2))          # (j, k, a) with D_k
    w = np.broadcast_to(mask[None, :, :], t_kj.shape) * 1.0
    coherent = np.abs(np.einsum("jka,jka->jk", w, t_kj)) ** 2
    diagonal = np.einsum("jka,jka->jk", w, np.abs(t_kj) ** 2)
    # delta[j, k, a]: link j (interferer) against the victim's filter D_k.
    dterm = np.einsum("ka,jka->jk", mask, terms.delta)
    cont_jk = dterm + coherent - diagonal
    cont_w = terms.collide & ~np.eye(K, dtype=bool)
    contamination = np.einsum("j,j,jk,jk->k", eta_ul, eta, cont_w, cont_jk)

    den = bu + cross + noise + contamination
    if np.any(den <= 0):
        raise NumericalError("non-positive uplink SINR denominator")
    sinr = num / den
    if return_parts:
        return sinr, {"num": num, "bu": bu, "cross": cross, "noise": noise,
                      "contamination": contamination, "cont_jk": cont_jk}
    return sinr


# ---------------------------------------------------------------------------
# Monte-Carlo upper bounds
# ---------------------------------------------------------------------------

def se_ub_mc(links: LinkSet, est: EstimatorSet, pilot_index, eta_dl, eta_ul,
             serving_mask, sigma_z2, frac_dl, frac_ul, n_trials,
             rng: np.random.Generator, batch=64):
    """Monte-Carlo SE upper bounds for all users, both directions.

    Each trial draws one coherence block (channels + training noise), runs
    the actual LMMSE estimation, and evaluates the instantaneous SINR with
    conjugate beamforming (DL) and matched-filter combining at the CPU (UL).
    The same draws serve every user (common random numbers).

    A batch of T trials is evaluated with BLAS products, with AN = A*N the
    flattened (AP, antenna) axis:

    - training: one (P, K) @ (T, K, AN) product, on real views of the
      complex arrays, spreads the users' channels onto their pilots; the
      training noise is added in place;
    - LMMSE: the filters are applied as (K, A) stacks of (T, N) @ (N, N)
      products that write the (T, K, A, N) layout the GEMMs read. They act
      on the conjugated observation with D^H, so out comes conj(g_hat);
    - DL: the received amplitudes M[t, k, j] = sum_a sqrt(eta_dl[j, a])
      g_{t,k,a}^H g_hat_{t,j,a} enter the SINR only through |M|^2, so the
      kernel computes conj(M) = g @ conj(w g_hat)^T instead: T products of
      (K, AN) by (AN, K), with no conjugate of g ever formed;
    - UL: M = conj(m g_hat) @ g^T, with conj(m g_hat) written into the DL
      buffer (m the 0/1 serving mask). The squares of that buffer's real
      and imaginary parts sum to the combining noise
      sum_a m_{k,a} ||g_hat_{t,k,a}||^2.

    The draws are those of one sample_channels call and the real, then the
    imaginary, training noise per batch. The training arrays are freed
    before the GEMMs, and no more than three arrays the size of one channel
    draw (T, K, A, N) are live at once.

    Returns (se_dl, stderr_dl, se_ul, stderr_ul), each (K,), where se is
    frac * mean log2(1 + sinr) and stderr is the standard error of se.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    K, A = links.beta.shape
    N = links.steering.shape[-1]
    eta_dl = np.asarray(eta_dl, dtype=float) * serving_mask
    eta_ul = np.asarray(eta_ul, dtype=float)
    mask = np.asarray(serving_mask, dtype=float)
    sigma_w2 = est.sigma_w2
    pilot_index = np.asarray(pilot_index)
    # spread[p, k]: user k's training amplitude on pilot p.
    spread = np.zeros((int(pilot_index.max()) + 1, K))
    spread[pilot_index, np.arange(K)] = np.sqrt(est.train_powers)
    wdl = np.sqrt(eta_dl)
    DH = np.conj(np.swapaxes(est.D, -1, -2))
    diag = np.arange(K)

    sums = np.zeros((2, K))
    sq = np.zeros((2, K))
    done = 0
    while done < n_trials:
        T = min(batch, n_trials - done)
        g = sample_channels(links.beta, links.rice_k, links.steering,
                            rng, n_draws=T)                     # (T, K, A, N)
        g_flat = g.reshape(T, K, A * N)

        # De-spread training observation per pilot, noise added in place.
        y = (spread @ g.view(float).reshape(T, K, 2 * A * N)).view(complex)
        y = y.reshape(T, -1, A, N)                              # (T, P, A, N)
        wn = rng.standard_normal(y.shape)
        wn *= np.sqrt(sigma_w2 / 2)
        y.real += wn
        rng.standard_normal(out=wn)
        wn *= np.sqrt(sigma_w2 / 2)
        y.imag += wn
        del wn
        np.conjugate(y, out=y)
        y = y.transpose(1, 2, 0, 3)[pilot_index]                # (K, A, T, N)
        ghat_c = np.empty((T, K, A, N), dtype=complex)          # conj(g_hat)
        np.matmul(y, DH, out=ghat_c.transpose(1, 2, 0, 3))
        del y

        # Downlink: received amplitude of user j's beam at user k.
        buf = ghat_c * wdl[:, :, None]                          # conj(w g_hat)
        buf_flat = buf.reshape(T, K, A * N)
        Mdl = g_flat @ buf_flat.transpose(0, 2, 1)              # conj(M)
        p_dl = Mdl.real ** 2 + Mdl.imag ** 2                    # (T, K, K)
        sig = p_dl[:, diag, diag]
        interf = p_dl.sum(axis=2) - sig
        sinr_dl = sig / (interf + sigma_z2)

        # Uplink: matched-filter combining over the serving set.
        np.multiply(ghat_c, mask[:, :, None], out=buf)          # conj(m g_hat)
        del ghat_c
        Mul = buf_flat @ g_flat.transpose(0, 2, 1)
        p_ul = Mul.real ** 2 + Mul.imag ** 2
        sig = eta_ul * p_ul[:, diag, diag]
        interf = p_ul @ eta_ul - sig
        re_im = buf.view(float).reshape(T, K, 2 * A * N)
        noise = sigma_w2 * np.einsum("tki,tki->tk", re_im, re_im)
        sinr_ul = sig / (interf + noise)
        # Free the batch (and the views that hold it) before the next draw.
        del g, g_flat, buf, buf_flat, re_im

        for i, (frac, sinr) in enumerate(((frac_dl, sinr_dl),
                                          (frac_ul, sinr_ul))):
            se = se_lb(sinr, frac)
            sums[i] += se.sum(axis=0)
            sq[i] += (se ** 2).sum(axis=0)
        done += T

    mean = sums / n_trials
    var = np.maximum(sq / n_trials - mean ** 2, 0.0)
    stderr = np.sqrt(var / n_trials)
    return mean[0], stderr[0], mean[1], stderr[1]
