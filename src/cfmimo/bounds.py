"""Spectral-efficiency bounds.

Closed-form lower bounds come from hardening ("use-and-then-forget") SINR
expressions evaluated from the estimation statistics (D, gamma) and the
link covariances G = c_los a a^H + c_eye I, read as (c_los, c_eye, a);
upper bounds are Monte-Carlo averages of log2(1 + instantaneous SINR) with
true channels and actual LMMSE estimates/beamformers.

All SINR denominators decompose into: beamforming-gain-uncertainty term,
cross-interference trace term, noise term, and a pilot-contamination term
over users sharing the same pilot. The cross traces are formed for every
pair of users; the contamination traces only for the pairs that share a
pilot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LinkSet, covariance_coeffs, sample_channels
from .estimation import EstimatorSet
from .errors import NumericalError

_IMAG_TOL = 1e-9


def _real_guard(x, what):
    x = np.asarray(x)
    scale = np.maximum(np.abs(x), 1e-300)
    if np.any(np.abs(x.imag) > _IMAG_TOL * scale):
        raise NumericalError(f"{what} has non-negligible imaginary part")
    return x.real


@dataclass
class RateReport:
    """Per-user spectral efficiencies (bits/s/Hz) for one drop."""
    se_lb_dl: np.ndarray
    se_ub_dl: np.ndarray
    se_lb_ul: np.ndarray
    se_ub_ul: np.ndarray
    ub_stderr_dl: np.ndarray
    ub_stderr_ul: np.ndarray


def se_lb(sinr, phase_fraction):
    """SE = fraction * log2(1 + sinr), via log1p so that an SINR below
    machine epsilon still gives a positive rate."""
    return phase_fraction * np.log1p(np.asarray(sinr, dtype=float)) / np.log(2)


# ---------------------------------------------------------------------------
# Shared per-drop precomputation for the closed-form SINRs
# ---------------------------------------------------------------------------

@dataclass
class UatfTerms:
    """Per-drop cache of every trace the closed forms read, on serving-set
    slots.

    The J = K filter owners are the users. Slot c of owner j is the link
    (j, ap[j, c]): the APs serving j, in ascending order, fill j's first
    |A_j| slots. C is the largest serving-set size; an owner served by
    fewer APs has its remaining slots pointing at APs that do not serve it,
    and the SINRs give those slots weight 0 (their filters, and so their
    terms, are 0: the estimators are solved on the serving set only).
    In cell-free mode C = A and ap[j, c] = c.

    cross is read for every (owner, user) pair. t and delta are read only
    on the P pairs p = (j, k) = (pj[p], pk[p]) whose users share a pilot,
    self-pairs included, in row-major (j, k) order. With a = ap[j, c]:

    ap      : (J, C) int          AP of each slot
    serving : (K, A) bool         the estimators' serving mask
    cross   : (J, C, K) real      tr(G_{j,a} D_{j,a}^H G_{k,a})
    pj, pk  : (P,) int            filter owner and user of each pair
    t       : (P, C) complex      tr(D_{j,a} G_{k,a})
    delta   : (P, C) real         delta of link (k, a) against D_{j,a}
    gamma   : (K, A); eta_train : (K,)
    """
    ap: np.ndarray
    serving: np.ndarray
    cross: np.ndarray
    pj: np.ndarray
    pk: np.ndarray
    t: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    eta_train: np.ndarray

    def at_slots(self, x):
        """x (K, A) read at each owner's slots, (K, C)."""
        return np.take_along_axis(np.asarray(x, dtype=float), self.ap, axis=1)


def uatf_terms(links: LinkSet, est: EstimatorSet) -> UatfTerms:
    """Build the closed-form terms on the serving-set slots of the drop.

    links : the drop's link state; est : its estimators, which carry the
        serving mask (est.served) and the pilot assignment.

    Every term comes from the form G_k = c_los a_k a_k^H + c_eye I: cross
    from each slot's X = D_j G_j, with one real product per AP for the users
    with a LOS component; t = c_los a_k^H D a_k + x and
    delta = x (x + 2 c_los Re(a_k^H D a_k)) with x = c_eye tr(D), so each
    pair gathers only its owner's filters and its user's steering vectors.
    """
    serving = est.served
    K, A, N = links.steering.shape
    C = int(serving.sum(axis=1).max())
    # Served APs first, each group in ascending order.
    ap = np.argsort(~serving, axis=1, kind="stable")[:, :C]

    cl, ce = covariance_coeffs(links.beta, links.los_frac)
    pj, pk = np.nonzero(est.pilot_index[:, None] == est.pilot_index)
    link = (pk[:, None], ap[pj])                                # (P, C)
    D = est.D[pj[:, None], ap[pj]]                              # (P, C, N, N)
    steer = links.steering[link]
    aDa = np.einsum("pcn,pcn->pc", np.conj(steer),
                    np.einsum("pcnm,pcm->pcn", D, steer))
    c_los = cl[link]
    x = ce[link] * _real_guard(np.einsum("pcnn->pc", D), "tr(D)")

    # cross = Re tr(X G_k), the conjugate of tr(G_j D_j^H G_k), with
    # X = D_j G_j = c_eye,j D_j + c_los,j (D_j a_j) a_j^H: c_eye,k Re tr X
    # plus, for the users with a LOS component, c_los,k Re(a_k^H X a_k), one
    # real product of X and a_k a_k^H per AP block. Slots in AP-major order
    # make each AP's block contiguous.
    order = np.argsort(ap, axis=None, kind="stable")
    edges = np.searchsorted(ap.ravel()[order], np.arange(A + 1))
    owner = np.arange(K)[:, None]
    D = est.D[owner, ap]                                        # (J, C, N, N)
    steer = links.steering[owner, ap]
    X = (ce[owner, ap, None, None] * D + cl[owner, ap, None, None]
         * np.einsum("jcnm,jcm->jcn", D, steer)[..., None]
         * np.conj(steer)[..., None, :])
    cross = ce.T[ap] * np.einsum("jcnn->jc", X).real[..., None]  # (J, C, K)
    los = np.flatnonzero(np.any(cl > 0, axis=1))
    a_l = np.swapaxes(links.steering[los], 0, 1)                # (A, L, N)
    W = (cl[los].T[..., None, None] * a_l[..., :, None]
         * np.conj(a_l)[..., None, :]).reshape(A, len(los), N * N)
    W = np.swapaxes(W.view(float), 1, 2)                        # (A, 2N^2, L)
    X = X.reshape(-1, N * N).view(float)[order]
    los_part = np.empty((len(order), len(los)))
    for a in range(A):
        lo, hi = edges[a], edges[a + 1]
        np.matmul(X[lo:hi], W[a], out=los_part[lo:hi])
    cross.reshape(-1)[order[:, None] * K + los] += los_part

    return UatfTerms(ap=ap, serving=serving, cross=cross,
                     pj=pj, pk=pk, t=c_los * aDa + x,
                     delta=x * (x + 2.0 * c_los * aDa.real),
                     gamma=est.gamma, eta_train=est.train_powers)


def _contamination(terms: UatfTerms, w):
    """Coherent pilot-contamination factor of each pair p = (filter owner
    j, user k) that shares a pilot:

        sum_c w[j, c] delta[p, c] + |sum_c sqrt(w[j, c]) t[p, c]|^2
                                  - sum_c w[j, c] |t[p, c]|^2

    with w (J, C) per-slot power weights over the owner's serving set, and
    0 on the self-pairs. The |sum|^2 - sum|.|^2 arrangement is the ordered
    cross-AP double sum in closed form.
    """
    w = w[terms.pj]
    coherent = np.abs(np.einsum("pc,pc->p", np.sqrt(w), terms.t)) ** 2
    diagonal = np.einsum("pc,pc->p", w, np.abs(terms.t) ** 2)
    dterm = np.einsum("pc,pc->p", w, terms.delta)
    return np.where(terms.pj != terms.pk, dterm + coherent - diagonal, 0.0)


def _self_terms(terms: UatfTerms):
    """Per-slot gamma and eta_k delta_k - gamma^2 of each user's own links,
    both (K, C)."""
    gamma = terms.at_slots(terms.gamma)
    self_delta = terms.delta[terms.pj == terms.pk]
    return gamma, terms.eta_train[:, None] * self_delta - gamma ** 2


def sinr_dl_lb(terms: UatfTerms, eta_dl, sigma_z2, return_parts=False):
    """Closed-form downlink SINR for every user (linear).

    terms : the drop's UatfTerms, which fix the serving sets A_k
    eta_dl : (K, A) normalized per-link downlink powers eta_{k,a}^DL; only
        the entries on the serving sets are read
    sigma_z2 : noise power at the users
    """
    w = terms.at_slots(np.asarray(eta_dl, dtype=float)
                       * terms.serving)                         # (J, C)
    eta = terms.eta_train
    K = len(eta)
    gamma, self_bu = _self_terms(terms)

    num = np.einsum("kc,kc->k", np.sqrt(w), gamma) ** 2
    bu = np.einsum("kc,kc->k", w, self_bu)
    cross = (np.sqrt(eta)[:, None] * w).ravel() @ terms.cross.reshape(-1, K)

    cont = _contamination(terms, w)
    contamination = eta * np.bincount(terms.pk, cont, minlength=K)

    den = bu + cross + sigma_z2 + contamination
    if np.any(den <= 0):
        raise NumericalError("non-positive downlink SINR denominator")
    sinr = num / den
    if return_parts:
        return sinr, {"num": num, "bu": bu, "cross": cross,
                      "contamination": contamination, "noise": sigma_z2,
                      "cont_pair": cont}
    return sinr


def sinr_ul_lb(terms: UatfTerms, eta_ul, sigma_w2, return_parts=False):
    """Closed-form uplink SINR for every user (linear).

    terms : the drop's UatfTerms, which fix the serving sets A_k
    eta_ul : (K,) uplink transmit powers
    sigma_w2 : noise power at the APs
    """
    eta_ul = np.asarray(eta_ul, dtype=float)
    m = terms.at_slots(terms.serving)                           # (K, C) 0/1
    eta = terms.eta_train
    K = len(eta)
    gamma, self_bu = _self_terms(terms)

    gsum = np.einsum("kc,kc->k", m, gamma)
    num = eta_ul * gsum ** 2
    bu = eta_ul * np.einsum("kc,kc->k", m, self_bu)

    # The decoding user k owns the filters: cross[k, c, j] with D_k.
    cross = np.sqrt(eta) * np.einsum("kc,kc->k", m, terms.cross @ eta_ul)

    noise = sigma_w2 * gsum

    # Interferer pk against the serving set of victim pj, who owns the
    # filters of the pair.
    cont = _contamination(terms, m)
    contamination = np.bincount(terms.pj, eta_ul[terms.pk] * eta[terms.pk]
                                * cont, minlength=K)

    den = bu + cross + noise + contamination
    if np.any(den <= 0):
        raise NumericalError("non-positive uplink SINR denominator")
    sinr = num / den
    if return_parts:
        return sinr, {"num": num, "bu": bu, "cross": cross, "noise": noise,
                      "contamination": contamination, "cont_pair": cont}
    return sinr


# ---------------------------------------------------------------------------
# Monte-Carlo upper bounds
# ---------------------------------------------------------------------------

def se_ub_mc(links: LinkSet, est: EstimatorSet, eta_dl, eta_ul, sigma_z2,
             frac, n_trials, rng: np.random.Generator, batch=64):
    """Monte-Carlo SE upper bounds for all users, both directions.

    links, est : the drop's link state and estimators; est carries the
        serving mask (est.served) and the pilot assignment
    eta_dl : (K, A) normalized downlink powers, read on the serving sets
    eta_ul : (K,) uplink transmit powers
    sigma_z2 : noise power at the users (the APs' is est.sigma_w2)
    frac : fraction of the coherence block each direction's data phase takes
    n_trials : coherence blocks drawn; batch : trials per batch

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
    serving_mask = est.served
    K, A = links.beta.shape
    N = links.steering.shape[-1]
    eta_dl = np.asarray(eta_dl, dtype=float) * serving_mask
    eta_ul = np.asarray(eta_ul, dtype=float)
    sigma_w2 = est.sigma_w2
    pilot_index = est.pilot_index
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
        g = sample_channels(links.beta, links.los_frac, links.steering,
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

        for i, sinr in enumerate((sinr_dl, sinr_ul)):
            se = se_lb(sinr, frac)
            sums[i] += se.sum(axis=0)
            sq[i] += (se ** 2).sum(axis=0)
        done += T

    mean = sums / n_trials
    var = np.maximum(sq / n_trials - mean ** 2, 0.0)
    stderr = np.sqrt(var / n_trials)
    return mean[0], stderr[0], mean[1], stderr[1]
