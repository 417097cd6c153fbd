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
from .estimation import EstimatorSet, covariance_coeffs
from .errors import NumericalError

_IMAG_TOL = 1e-9


def _real_guard(x, what):
    x = np.asarray(x)
    scale = np.maximum(np.abs(x), 1e-300)
    if np.any(np.abs(x.imag) > _IMAG_TOL * scale):
        raise NumericalError(f"{what} has non-negligible imaginary part")
    return x.real


def delta_dl(beta, rice_k, steering, D):
    """Fourth-moment coefficient of one link against one LMMSE filter:

        delta = c^2 |tr D|^2 + 2 c^2 K tr(D) Re{a^H D a},  c = beta/(K+1).

    This is the excess of E|g^H D g|^2 over the value obtained by treating
    the two g factors as independent; it vanishes in the pure-LOS limit.
    The form is symmetric, so it serves the uplink (link of the interfering
    user, D of the decoding user) as well as the downlink.
    """
    a = np.asarray(steering)
    D = np.asarray(D)
    c_los, c_eye = covariance_coeffs(beta, rice_k)
    trD = np.einsum("...nn->...", D)
    aDa = np.einsum("...n,...nm,...m->...", np.conj(a), D, a)
    # c^2 = c_eye^2 and c^2 K = c_eye c_los, both 0 in the pure-LOS limit.
    return (c_eye ** 2 * np.abs(trD) ** 2
            + 2.0 * c_eye * c_los * np.real(aDa * np.conj(trD)))


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
    """Per-drop cache of every pairwise trace the closed forms read, on
    serving-set slots.

    The J = K filter owners are the users. Slot c of owner j is the link
    (j, ap[j, c]): the APs serving j, in ascending order, fill j's first
    |A_j| slots. C is the largest serving-set size; an owner served by
    fewer APs has its remaining slots pointing at APs that do not serve it,
    and the SINRs give those slots weight 0. In cell-free mode C = A and
    ap[j, c] = c. With a = ap[j, c]:

    ap      : (J, C) int          AP of each slot
    serving : (K, A) bool         the serving mask the slots were built from
    t       : (J, C, K) complex   tr(D_{j,a} G_{k,a})
    cross   : (J, C, K) real      tr(G_{j,a} D_{j,a}^H G_{k,a})
    delta   : (J, C, K) real      delta of link (k, a) against D_{j,a}
    collide : (K, K) bool         shared-pilot indicator
    gamma   : (K, A); eta_train : (K,)
    """
    ap: np.ndarray
    serving: np.ndarray
    t: np.ndarray
    cross: np.ndarray
    delta: np.ndarray
    collide: np.ndarray
    gamma: np.ndarray
    eta_train: np.ndarray

    def at_slots(self, x, serving_mask):
        """x (K, A) read at each owner's slots, (K, C), after checking that
        serving_mask is the mask the terms were built for."""
        if not np.array_equal(serving_mask, self.serving):
            raise ValueError("serving_mask differs from the one the UatF "
                             "terms were built for")
        return np.take_along_axis(np.asarray(x, dtype=float), self.ap, axis=1)


def uatf_terms(links: LinkSet, est: EstimatorSet, pilot_index,
               serving) -> UatfTerms:
    """Build the closed-form terms on the serving-set slots of `serving`.

    Each AP's slots take two products against the G_{k,a} of every user k
    at that AP: a complex one with the slots' D for t, and a real one with
    the slots' D G for cross. delta needs no third product: with
    G_k = c_los a_k a_k^H + c_eye I, t = c_los a_k^H D a_k + c_eye tr(D),
    so Re(a_k^H D a_k) follows from Re(t).
    """
    serving = np.array(serving, dtype=bool)
    K, A = serving.shape
    N = links.steering.shape[-1]
    C = int(serving.sum(axis=1).max())
    # Served APs first, each group in ascending order.
    ap = np.argsort(~serving, axis=1, kind="stable")[:, :C]

    # Slots in AP-major order, so that each AP's slots form one block.
    order = np.argsort(ap, axis=None, kind="stable")
    a_s = ap.ravel()[order]
    j_s = order // C
    edges = np.searchsorted(a_s, np.arange(A + 1))
    S = len(order)

    D = est.D[j_s, a_s]                                         # (S, N, N)
    trD = _real_guard(np.einsum("snn->s", D), "tr(D)")
    # For Hermitian G_k, tr(X G_k) = sum_nm X[n, m] conj(G_k[n, m]), and
    # Re tr(X G_k) is the real dot product of the (re, im) entries. cross
    # is real and equals Re tr(D_j G_j G_k), the conjugate of
    # tr(G_j D_j^H G_k).
    DG = (D @ est.G[j_s, a_s]).reshape(S, N * N).view(float)
    D = D.reshape(S, N * N)
    G_ap = np.swapaxes(est.G, 0, 1).reshape(A, K, N * N)
    G_conj = np.conj(np.swapaxes(G_ap, 1, 2))                   # (A, N^2, K)
    G_real = np.swapaxes(G_ap.view(float), 1, 2)                # (A, 2N^2, K)
    # delta = c^2 tr(D)^2 + 2 c^2 K tr(D) Re(a^H D a) with c = c_eye and
    # c^2 K = c_eye c_los, i.e. x (2 Re t - x) with x = c_eye tr(D).
    c_eye = covariance_coeffs(links.beta, links.rice_k)[1].T    # (A, K)

    # Each AP's block is computed in cache and scattered to its slots.
    t = np.empty((K * C, K), dtype=complex)
    cross = np.empty((K * C, K))
    delta = np.empty((K * C, K))
    for a in range(A):
        lo, hi = edges[a], edges[a + 1]
        rows = order[lo:hi]
        t_a = D[lo:hi] @ G_conj[a]
        t[rows] = t_a
        cross[rows] = DG[lo:hi] @ G_real[a]
        x = c_eye[a] * trD[lo:hi, None]
        delta[rows] = x * (2.0 * t_a.real - x)

    pilot_index = np.asarray(pilot_index)
    collide = pilot_index[:, None] == pilot_index[None, :]

    return UatfTerms(ap=ap, serving=serving, t=t.reshape(K, C, K),
                     cross=cross.reshape(K, C, K),
                     delta=delta.reshape(K, C, K), collide=collide,
                     gamma=est.gamma, eta_train=est.train_powers)


def _slot_sum(w, x):
    """sum_c w[j, c] x[j, c, k] for every (j, k): J products of (1, C) by
    (C, K)."""
    return (w[:, None, :] @ x)[:, 0]


def _contamination(terms: UatfTerms, w):
    """Coherent pilot-contamination factor per (filter owner j, user k):

        sum_c w[j, c] delta[j, c, k] + |sum_c sqrt(w[j, c]) t[j, c, k]|^2
                                     - sum_c w[j, c] |t[j, c, k]|^2

    with w (J, C) per-slot power weights over the owner's serving set. The
    |sum|^2 - sum|.|^2 arrangement is the ordered cross-AP double sum in
    closed form.
    """
    coherent = np.abs(_slot_sum(np.sqrt(w), terms.t)) ** 2
    diagonal = _slot_sum(w, np.abs(terms.t) ** 2)
    dterm = _slot_sum(w, terms.delta)
    return dterm + coherent - diagonal


def _self_terms(terms: UatfTerms):
    """Per-slot gamma and eta_k delta_k - gamma^2 of each user's own links,
    both (K, C)."""
    K = len(terms.eta_train)
    gamma = np.take_along_axis(terms.gamma, terms.ap, axis=1)
    self_delta = terms.delta[np.arange(K), :, np.arange(K)]
    return gamma, terms.eta_train[:, None] * self_delta - gamma ** 2


def sinr_dl_lb(terms: UatfTerms, eta_dl, serving_mask, sigma_z2,
               return_parts=False):
    """Closed-form downlink SINR for every user (linear).

    eta_dl : (K, A) normalized per-link downlink powers eta_{k,a}^DL
    serving_mask : (K, A) bool, the serving sets A_k; it must be the mask
        the terms were built for.
    """
    w = terms.at_slots(np.asarray(eta_dl, dtype=float) * serving_mask,
                       serving_mask)                            # (J, C)
    eta = terms.eta_train
    K = len(eta)
    gamma, self_bu = _self_terms(terms)

    num = np.einsum("kc,kc->k", np.sqrt(w), gamma) ** 2
    bu = np.einsum("kc,kc->k", w, self_bu)
    cross = (np.sqrt(eta)[:, None] * w).ravel() @ terms.cross.reshape(-1, K)

    cont_jk = _contamination(terms, w)
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
    serving_mask : (K, A) bool, the serving sets A_k; it must be the mask
        the terms were built for.
    """
    eta_ul = np.asarray(eta_ul, dtype=float)
    m = terms.at_slots(serving_mask, serving_mask)              # (K, C) 0/1
    eta = terms.eta_train
    K = len(eta)
    gamma, self_bu = _self_terms(terms)

    gsum = np.einsum("kc,kc->k", m, gamma)
    num = eta_ul * gsum ** 2
    bu = eta_ul * np.einsum("kc,kc->k", m, self_bu)

    # The decoding user k owns the filters: cross[k, c, j] with D_k.
    cross = np.sqrt(eta) * np.einsum("kc,kc->k", m, terms.cross @ eta_ul)

    noise = sigma_w2 * gsum

    # Interferer j against victim k's serving set: the factor with owner k,
    # transposed to (j, k).
    cont_jk = _contamination(terms, m).T
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
    - LMMSE: the filters are applied on the S served links only, as a
      stack of S (T, N) @ (N, N) products. They act on the conjugated
      observation with D^H, so out comes conj(g_hat), which one take along
      the link axis spreads to the (T, K, A, N) layout the GEMMs read,
      zero off the serving set;
    - DL: the received amplitudes M[t, k, j] = sum_a sqrt(eta_dl[j, a])
      g_{t,k,a}^H g_hat_{t,j,a} enter the SINR only through |M|^2, so the
      kernel computes conj(M) = g @ conj(w g_hat)^T instead: T products of
      (K, AN) by (AN, K), with no conjugate of g ever formed;
    - UL: M = conj(m g_hat) @ g^T (m the 0/1 serving mask), and
      conj(m g_hat) is the spread estimate itself. The squares of its real
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
    sigma_w2 = est.sigma_w2
    pilot_index = np.asarray(pilot_index)
    P = int(pilot_index.max()) + 1
    # spread[p, k]: user k's training amplitude on pilot p.
    spread = np.zeros((P, K))
    spread[pilot_index, np.arange(K)] = np.sqrt(est.train_powers)
    wdl = np.sqrt(eta_dl)
    # Served links (k, a): the observation row each one reads, its filter,
    # and for every (k, a) its row in the estimate, S (a zero row) if
    # unserved.
    k_s, a_s = np.nonzero(serving_mask)
    S = len(k_s)
    y_row = pilot_index[k_s] * A + a_s
    DH = np.conj(np.swapaxes(est.D[k_s, a_s], -1, -2))         # (S, N, N)
    est_row = np.full(K * A, S)
    est_row[k_s * A + a_s] = np.arange(S)
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
        y = np.take(y.reshape(T, P * A, N), y_row, axis=1)       # (T, S, N)
        ghat_s = np.empty((T, S + 1, N), dtype=complex)         # conj(g_hat)
        ghat_s[:, S] = 0.0
        np.matmul(y.transpose(1, 0, 2), DH,
                  out=ghat_s[:, :S].transpose(1, 0, 2))
        del y
        ghat_c = np.take(ghat_s, est_row, axis=1).reshape(T, K, A, N)
        del ghat_s

        # Downlink: received amplitude of user j's beam at user k.
        buf = ghat_c * wdl[:, :, None]                          # conj(w g_hat)
        Mdl = g_flat @ buf.reshape(T, K, A * N).transpose(0, 2, 1)  # conj(M)
        del buf
        p_dl = Mdl.real ** 2 + Mdl.imag ** 2                    # (T, K, K)
        sig = p_dl[:, diag, diag]
        interf = p_dl.sum(axis=2) - sig
        sinr_dl = sig / (interf + sigma_z2)

        # Uplink: matched-filter combining over the serving set; the
        # estimate is already zero off it, so it is conj(m g_hat).
        Mul = ghat_c.reshape(T, K, A * N) @ g_flat.transpose(0, 2, 1)
        p_ul = Mul.real ** 2 + Mul.imag ** 2
        sig = eta_ul * p_ul[:, diag, diag]
        interf = p_ul @ eta_ul - sig
        re_im = ghat_c.view(float).reshape(T, K, 2 * A * N)
        noise = sigma_w2 * np.einsum("tki,tki->tk", re_im, re_im)
        sinr_ul = sig / (interf + noise)
        # Free the batch (and the views that hold it) before the next draw.
        del g, g_flat, ghat_c, re_im

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
