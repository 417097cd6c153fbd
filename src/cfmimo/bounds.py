"""Spectral-efficiency bounds.

Closed-form lower bounds come from hardening ("use-and-then-forget") SINR
expressions evaluated from the estimators' per-gram state (alpha, tr B^{-1},
z = B^{-1} a on the LOS links), gamma and the link covariances
G = c_los a a^H + c_eye I, read as (c_los, c_eye, a); no filter is formed as
a matrix. Upper bounds are Monte-Carlo averages of log2(1 + instantaneous
SINR) with true channels and actual LMMSE estimates/beamformers.

All SINR denominators decompose into: beamforming-gain-uncertainty term,
cross-interference trace term, noise term, and a pilot-contamination term
over users sharing the same pilot. The contamination traces are formed only
for the pairs that share a pilot. The cross trace of every (filter owner,
user) pair is held in factors: gamma on each owner slot times each user's
c_eye at the slot's AP, plus a (J, C, L) block for the L users with a LOS
component. Its memory and work scale as K C L, not K^2 C, and the SINRs
contract the factors without forming the (J, C, K) array. The terms carry
every training power, so the SINRs read only the data powers.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .channel import LinkSet, covariance_coeffs
from .estimation import EstimatorSet
from .errors import NumericalError

UB_BATCH_BYTES = 2 << 20   # most bytes of one upper-bound batch's channel draw


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
    slots, each scaled by the training powers the SINRs need.

    The J = K filter owners are the users. Slot c of owner j is the link
    (j, ap[j, c]): the APs serving j, in ascending order, fill j's first
    |A_j| slots. C is the largest serving-set size; an owner served by
    fewer APs has its remaining slots pointing at APs that do not serve it.
    Every slot and pair array is exactly 0 on those pad slots by
    construction (the owner's filter is 0 there), so the SINRs sum over all
    C slots without a mask. In cell-free mode C = A and ap[j, c] = c. Every
    per-owner array is held on the slots; c_eye, read for every user, is
    the one (K, A) array.

    The cross trace cross[j, c, k] = sqrt(eta_j) tr(G_{j,a} D_{j,a}^H G_{k,a})
    of every (owner, user) pair is held in factors, never as a (J, C, K)
    array: it is gamma[j, c] c_eye[k, a], plus cross_los[j, c, l] when k is
    the l-th user los[l] with a LOS component. cross_at_users and
    cross_at_slots contract it against the SINRs' weights. t and delta are
    read only on the P pairs p = (j, k) = (pj[p], pk[p]) whose users share
    a pilot, self-pairs included, in row-major (j, k) order. With
    a = ap[j, c] and X_{j,a} = D_{j,a} G_{j,a}, each array carries the
    training powers shown (D_{j,a} carries sqrt(eta_j)):

    ap        : (J, C) int        AP of each slot
    c_eye     : (K, A) real       scattered power of each link
    los       : (L,) int          the users with a LOS component, ascending
    cross_los : (J, C, L) real    sqrt(eta_j) c_los[los, a]
                                  Re(a_l^H X_{j,a} a_l)
    pj, pk    : (P,) int          filter owner and user of each pair
    t         : (P, C) complex    sqrt(eta_k) tr(D_{j,a} G_{k,a})
    delta     : (P, C) real       eta_k times delta of link (k, a) against
                                  D_{j,a}
    gamma     : (J, C) real       gamma of each slot's link,
                                  sqrt(eta_j) tr X_{j,a}
    self_bu   : (J, C) real       delta[(j, j)] - gamma^2

    D_{j,a} = sqrt(eta_j) G_{j,a} B^{-1} is owner j's LMMSE filter at AP
    a, never formed: every entry comes from scalars of its pilot gram B.
    """
    ap: np.ndarray
    c_eye: np.ndarray
    los: np.ndarray
    cross_los: np.ndarray
    pj: np.ndarray
    pk: np.ndarray
    t: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    self_bu: np.ndarray

    # The two contractions run as einsums, not BLAS products: a threaded
    # BLAS call leaves OpenBLAS workers spinning into se_ub_mc, which runs
    # next and then shares the cores with them.

    def cross_at_users(self, v):
        """sum_{j,c} v[j, c] cross[j, c, k] for every user k, (K,), from v
        (J, C): the slots' v gamma summed per AP and weighted by c_eye,
        plus v against cross_los on the LOS users."""
        per_ap = np.bincount(self.ap.ravel(), (v * self.gamma).ravel(),
                             minlength=self.c_eye.shape[1])
        out = np.einsum("ka,a->k", self.c_eye, per_ap)
        out[self.los] += np.einsum("jc,jcl->l", v, self.cross_los)
        return out

    def cross_at_slots(self, x):
        """sum_k cross[j, c, k] x[k] for every owner slot, (J, C), from x
        (K,): gamma times the c_eye-weighted sum of x at the slot's AP, plus
        cross_los against x on the LOS users."""
        return (self.gamma * np.einsum("k,ka->a", x, self.c_eye)[self.ap]
                + np.einsum("jcl,l->jc", self.cross_los, x[self.los]))


def uatf_terms(links: LinkSet, est: EstimatorSet) -> UatfTerms:
    """Build the closed-form terms on the serving-set slots of the drop.

    links : the drop's link state; est : its estimators, which carry the
        serving mask (est.served) and the pilot assignment.

    Every term comes from G = c_los a a^H + c_eye I and the owner's filter
    D_j = sqrt(eta_j) (c_eye,j B^{-1} + c_los,j a_j z_j^H), read through
    scalars of its gram: tr B^{-1} and q = a^H B^{-1} a.
    With x = sqrt(eta_k) c_eye,k tr D_j and
    aDa = sqrt(eta_k) a_k^H D_j a_k
        = sqrt(eta_j eta_k) (c_eye,j q_k + c_los,j (a_k^H a_j)(z_j^H a_k)),
    t = c_los,k aDa + x and delta = x (x + 2 c_los,k Re aDa). aDa is formed
    only on the pairs whose user k has a LOS component (elsewhere t = x and
    delta = x^2), and its steering products only where j has one too.
    cross = c_eye,k gamma + sqrt(eta_j) c_los,k Re(a_k^H X a_k), X = D_j G_j,
    is held as gamma and, for the users k with a LOS component, the second
    term, whose B^{-1} part a_k^H B^{-1} a_k = (N - a_k^H U M U^H a_k) / alpha
    comes from z and the steering products.
    """
    serving = est.served
    K, A, N = links.steering.shape
    C = int(serving.sum(axis=1).max())
    # Served APs first, each group in ascending order.
    ap = np.argsort(~serving, axis=1, kind="stable")[:, :C]
    owner = np.arange(K)[:, None]
    steer = links.steering

    cl, ce = covariance_coeffs(links.beta, links.los_frac)
    has_los = np.any(cl > 0, axis=1)
    los = np.flatnonzero(has_los)
    q = est.q                                   # a^H B^{-1} a, 0 off LOS
    # The owner's training power on each slot, 0 on pad slots, and its gram.
    eta = est.train_powers
    power = eta[:, None] * serving[owner, ap]
    ce_j, cl_j, q_j = ce[owner, ap], cl[owner, ap], q[owner, ap]
    gram = est.pilot_index[:, None] * A + ap                    # (J, C)
    tr_inv = est.tr_inv.ravel()[gram]
    gamma = est.gamma[owner, ap]

    pj, pk = np.nonzero(est.pilot_index[:, None] == est.pilot_index)
    # sqrt(eta_j eta_k) on each pair's slots, 0 on the owner's pad slots.
    root = np.sqrt(power)[pj] * np.sqrt(eta)[pk, None]          # (P, C)
    x = ce[pk[:, None], ap[pj]] * root * (ce_j * tr_inv + cl_j * q_j)[pj]
    # Where the user k has no LOS component (c_los,k = 0), t = x and
    # delta = x^2; aDa and the steering products are formed only on the
    # pairs pl whose user has one.
    t, delta = x.astype(complex), x * x
    pl = np.flatnonzero(has_los[pk])
    oj, xl = pj[pl], x[pl]
    link = (pk[pl, None], ap[oj])                               # (P', C)
    sb = np.zeros(xl.shape, dtype=complex)            # (a_k^H a_j)(z_j^H a_k)
    ll = np.flatnonzero(has_los[oj])
    jl, kl = (oj[ll, None], link[1][ll]), (link[0][ll], link[1][ll])
    sb[ll] = (np.einsum("pcn,pcn->pc", np.conj(steer[kl]), steer[jl])
              * np.einsum("pcn,pcn->pc", np.conj(est.z[jl]), steer[kl]))
    aDa = root[pl] * (ce_j[oj] * q[link] + cl_j[oj] * sb)
    c_los = cl[link]
    t[pl] = c_los * aDa + xl
    delta[pl] = xl * (xl + 2.0 * c_los * aDa.real)

    # cross = sqrt(eta_j) Re tr(X G_k), with
    # X = sqrt(eta_j) (c_eye,j^2 B^{-1} + c_eye,j c_los,j (z_j a_j^H + a_j z_j^H)
    #                  + c_los,j^2 q_j a_j a_j^H).
    # For the users l with a LOS component, Re(a_l^H X a_l) from a_l^H z_i
    # and a_l^H a_i per AP: as U M U^H = sum_i w_i z_i a_i^H over the LOS
    # users i on a gram (w = eta c_los), its B^{-1} part is (N - ea) / alpha
    # with ea = Re sum_i w_i (a_l^H z_i)(a_i^H a_l), summed per pilot, ...
    L, P = len(los), est.alpha.shape[0]
    a_l = np.swapaxes(steer[los], 0, 1)                         # (A, L, N)
    prod = np.conj(a_l) @ np.concatenate([est.z[los],
                                          steer[los]]).transpose(1, 2, 0)
    w = (eta[los, None] * cl[los]).T[:, None, :]                # (A, 1, L)
    ea = ((prod[..., :L] * np.conj(prod[..., L:])).real * w
          @ (est.pilot_index[los, None] == np.arange(P)))       # (A, L, P)
    # Gathered as rows of L from a (P, A, L) copy, not through a transposed
    # view, which is ~3x slower.
    aXa = np.ascontiguousarray(ea.transpose(2, 0, 1))[
        est.pilot_index[:, None], ap]                           # (J, C, L)
    np.subtract(N, aXa, out=aXa)
    aXa *= (power * ce_j * ce_j / est.alpha.ravel()[gram])[..., None]
    # ... and the rest from a_l^H z_j and a_l^H a_j for the owners j with a
    # LOS component, read at their slots.
    j = np.arange(L)[:, None]
    za, aa = prod[ap[los], :, j], prod[ap[los], :, L + j]     # (J', C, L)
    aXa[los] += (power * cl_j)[los, :, None] * (
        2.0 * ce_j[los, :, None] * (za * np.conj(aa)).real
        + (cl_j * q_j)[los, :, None] * (aa.real ** 2 + aa.imag ** 2))
    aXa *= np.ascontiguousarray(cl[los].T)[ap]      # c_los,l Re(a_l^H X a_l)

    return UatfTerms(ap=ap, c_eye=ce, los=los, cross_los=aXa, pj=pj, pk=pk,
                     t=t, delta=delta, gamma=gamma,
                     self_bu=delta[pj == pk] - gamma ** 2)


def _contamination(terms: UatfTerms, w):
    """Coherent pilot-contamination factor of each pair p = (filter owner
    j, user k) that shares a pilot:

        sum_c w[j, c] delta[p, c] + |sum_c sqrt(w[j, c]) t[p, c]|^2
                                  - sum_c w[j, c] |t[p, c]|^2

    with w (J, C) finite per-slot power weights (t and delta are 0 on pad
    slots), and 0 on the self-pairs. The |sum|^2 - sum|.|^2 arrangement is
    the ordered cross-AP double sum in closed form.
    """
    w = w[terms.pj]
    coherent = np.abs(np.einsum("pc,pc->p", np.sqrt(w), terms.t)) ** 2
    diagonal = np.einsum("pc,pc->p", w, np.abs(terms.t) ** 2)
    dterm = np.einsum("pc,pc->p", w, terms.delta)
    return np.where(terms.pj != terms.pk, dterm + coherent - diagonal, 0.0)


def _sinr(direction, return_parts, **parts):
    """num / (bu + cross + noise + contamination) from the parts, summed in
    that order; with return_parts, also the parts. A denominator <= 0
    (or NaN) raises NumericalError naming the direction."""
    den = (parts["bu"] + parts["cross"] + parts["noise"]
           + parts["contamination"])
    if not np.all(den > 0):
        raise NumericalError(f"non-positive {direction} SINR denominator")
    sinr = parts["num"] / den
    return (sinr, parts) if return_parts else sinr


def sinr_dl_lb(terms: UatfTerms, eta_dl, sigma_z2, return_parts=False):
    """Closed-form downlink SINR for every user (linear).

    terms : the drop's UatfTerms, which fix the serving sets A_k
    eta_dl : (K, A) normalized per-link downlink powers eta_{k,a}^DL; the
        entries off the serving sets must be finite and >= 0, and do not
        change the result
    sigma_z2 : noise power at the users
    """
    w = np.take_along_axis(np.asarray(eta_dl, dtype=float), terms.ap,
                           axis=1)                              # (J, C)

    num = np.einsum("kc,kc->k", np.sqrt(w), terms.gamma) ** 2
    bu = np.einsum("kc,kc->k", w, terms.self_bu)
    cross = terms.cross_at_users(w)

    cont = _contamination(terms, w)
    contamination = np.bincount(terms.pk, cont, minlength=len(w))

    return _sinr("downlink", return_parts, num=num, bu=bu, cross=cross,
                 noise=sigma_z2, contamination=contamination, cont_pair=cont)


def sinr_ul_lb(terms: UatfTerms, eta_ul, sigma_w2, return_parts=False):
    """Closed-form uplink SINR for every user (linear).

    terms : the drop's UatfTerms, which fix the serving sets A_k
    eta_ul : (K,) uplink transmit powers
    sigma_w2 : noise power at the APs
    """
    eta_ul = np.asarray(eta_ul, dtype=float)

    gsum = terms.gamma.sum(axis=1)
    num = eta_ul * gsum ** 2
    bu = eta_ul * terms.self_bu.sum(axis=1)

    # The decoding user k owns the filters: cross[k, c, j] with D_k.
    cross = terms.cross_at_slots(eta_ul).sum(axis=1)

    noise = sigma_w2 * gsum

    # Interferer pk against the serving set of victim pj, who owns the
    # filters of the pair.
    cont = _contamination(terms, np.ones(terms.gamma.shape))
    contamination = np.bincount(terms.pj, eta_ul[terms.pk] * cont,
                                minlength=len(eta_ul))

    return _sinr("uplink", return_parts, num=num, bu=bu, cross=cross,
                 noise=noise, contamination=contamination, cont_pair=cont)


# ---------------------------------------------------------------------------
# Monte-Carlo upper bounds
# ---------------------------------------------------------------------------

def _power(M, out=None):
    """|M|^2 of the complex array M, as M.real ** 2 + M.imag ** 2, squared
    in place on M's real view (M is overwritten)."""
    v = M.view(float)
    np.square(v, out=v)
    return np.add(v[..., 0::2], v[..., 1::2], out=out)


def _ub_batches(n_trials, trial_bytes):
    """Trial counts of the upper bound's batches, for trials whose channel
    draw takes trial_bytes: the fewest of at most
    max(1, UB_BATCH_BYTES // trial_bytes) trials, at least two when
    n_trials >= 2, as equal as possible (np.array_split's sizes), e.g. 100
    trials of a default drop -> 20 x 5."""
    cap = max(1, UB_BATCH_BYTES // trial_bytes)
    n = max(-(-n_trials // cap), min(n_trials, 2))
    size, extra = divmod(n_trials, n)
    return [size + 1] * extra + [size] * (n - extra)


def _cpus():
    """CPUs this process may run on: the most threads se_ub_mc uses. One
    where the platform has no affinity mask."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy loaded, or
    None when none is loaded or it exports neither naming."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f
                            if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
                return get, put
    return None


def se_ub_mc(links: LinkSet, est: EstimatorSet, eta_dl, eta_ul, sigma_z2,
             frac, n_trials, rng: np.random.Generator):
    """Monte-Carlo SE upper bounds for all users, both directions.

    links : the drop's link state, read for its shape (K, A, N)
    est : the drop's estimators: all that est.channel_draws,
        est.form_channels, est.train and est.estimate read; the estimate
        is 0 off the serving mask
    eta_dl : (K, A) normalized downlink powers, finite and >= 0 (else
        ValueError); the entries off the serving sets do not change the
        result
    eta_ul : (K,) uplink transmit powers, finite and >= 0
    sigma_z2 : noise power at the users (the APs' is est.sigma_w2)
    frac : fraction of the coherence block each direction's data phase takes
    n_trials : coherence blocks drawn
    rng : the drop's stream; only the children spawned from its
        SeedSequence are drawn from

    Each trial draws one coherence block (channels + training noise), runs
    the actual LMMSE estimation, and evaluates the instantaneous SINR with
    conjugate beamforming (DL) and matched-filter combining at the CPU (UL).
    The same draws serve every user (common random numbers).

    Batches: n_trials is split into the fewest batches whose channel draw,
    T trials of (K, A, N) complex128, fits in UB_BATCH_BYTES (at least one
    trial each), at least two when n_trials >= 2, with sizes as equal as
    possible (_ub_batches: 100 trials of the default 60-user drop ->
    20 x 5, 10 trials of 120 users -> 5 x 2, 1 -> 1). Every batch reads
    the drop's est as build_estimators derived it: nothing is derived
    from links or est per call, batch or thread. A batch draws from
    np.random.Generator(np.random.SFC64(s_b)), with s_b the b-th
    SeedSequence spawned from rng's, in est.draw's order: the random part
    of its T trials' channels at once, with est.channel_draws, then each
    trial in turn formed with est.form_channels and trained with
    est.train, which draws that trial's noise. The layout depends only on
    n_trials and the drop's shape, never on the thread count, and a
    batch's draws only on its own stream.

    Buffers: sqrt(eta_dl) repeated along 2N, one trial's draw in size, is
    made once per call and read by every thread. Each thread that runs
    batches allocates, once per call, a flat channel buffer sized for the
    largest batch, which est.channel_draws fills for each of its batches,
    and a one-trial estimate, which est.estimate fills trial by trial.
    Per batch it allocates the LOS phasors (T, M), and per trial
    est.train's (1, P, A, N) noise and observation, est.estimate's
    workspace and the (K, K) amplitudes and powers. So a call holds, per
    thread, one batch's channel draw plus about three trials' draws in
    size, the shared DL weights included. On the default drop, a 64-trial
    call on one thread peaks at 1.75 five-trial draws and a 100-trial call
    on two at 6.3-6.9 MB (tracemalloc, three drops), where batches drawn,
    trained and estimated whole peaked at 3.3 draws and 12.4-13.2 MB.
    Keeping every trial's DL and UL SINR for the reduction adds 16 B per
    trial and user, and the reduction at most 24 B more (one direction's
    concatenated SINRs and se_lb's temporaries), 0.6% of the 6.4 KB per
    trial and user that the default drop's channel draw takes.

    Threads: the batches run on min(CPUs in the process's affinity mask,
    n_batches) threads. While more than one runs, numpy's OpenBLAS is
    pinned to one thread (through ctypes; its idle threads would otherwise
    spin on the other core) and its previous count is restored after the
    last batch, also when one raises. Without that OpenBLAS symbol the
    batches run serially, on the same batches and streams. Each batch
    returns its (T, K) DL and UL SINRs; the caller's thread concatenates
    them in batch order and reduces every trial's SE once, so the output is
    bit-identical for any thread count.

    Each trial is evaluated with BLAS products, with AN = A*N the
    flattened (AP, antenna) axis:

    - LMMSE: est.estimate forms B^{-1} y once per (pilot, AP) gram, with
      two thin products through the factors U, U M only on the grams with
      a LOS user, and spreads it to the (K, A, N) layout the GEMMs read,
      zero off the serving set; the trial's channel is then conjugated in
      place;
    - UL: M = (m g_hat)^H g enters the SINR only through |M|^2, so the
      kernel computes conj(M) = g_hat @ conj(g)^T (m the 0/1 serving mask;
      the estimate is already zero off it). The squares of its real and
      imaginary parts sum to the combining noise
      sum_a m_{k,a} ||g_hat_{k,a}||^2;
    - DL: the estimate is then weighted in place by sqrt(eta_dl) (its
      zeros off the serving set stay 0), and the received amplitudes
      M[k, j] = sum_a sqrt(eta_dl[j, a]) g_{k,a}^H g_hat_{j,a} are the
      product of conj(g) (K, AN) by (w g_hat)^T (AN, K), written over the
      UL amplitudes; the powers |M|^2 are squared in place and overwrite
      the UL's.

    Returns (se_dl, stderr_dl, se_ul, stderr_ul), each (K,), where se is
    frac * mean log2(1 + sinr) and stderr the standard error of se,
    np.std(ddof=0) / sqrt(n_trials), both numpy's two-pass moments over
    the n_trials per-trial SEs in batch order.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    K, A = links.beta.shape
    N = links.steering.shape[-1]
    eta_dl = np.asarray(eta_dl, dtype=float)
    eta_ul = np.asarray(eta_ul, dtype=float)
    for name, eta, shape in (("eta_dl", eta_dl, (K, A)),
                             ("eta_ul", eta_ul, (K,))):
        if eta.shape != shape or not np.all((eta >= 0) & (eta < np.inf)):
            raise ValueError(f"{name} must be {shape}, finite and >= 0")

    sizes = _ub_batches(n_trials, 16 * K * A * N)
    local = threading.local()
    # sqrt(eta_dl) repeated along 2N for the estimate's real view, one
    # trial's draw in size, shared by the threads.
    wdl = np.repeat(np.sqrt(eta_dl)[:, :, None], 2 * N,
                    axis=2).reshape(K, 2 * A * N)

    def batch(rng, T):
        """(sinr_dl, sinr_ul), each (T, K), of T trials drawn from rng: the
        channels of all T into the calling thread's channel buffer, then
        each trial in turn in its one-trial workspace."""
        if not hasattr(local, "g"):
            local.g = np.empty(sizes[0] * K * A * N, dtype=complex)
            local.ghat = np.empty((1, K, A, N), dtype=complex)
        phasor, g = est.channel_draws(
            rng, T, local.g[:T * K * A * N].reshape(T, K, A, N))
        ghat = local.ghat.reshape(K, A * N)
        re_im = local.ghat.view(float).reshape(K, 2 * A * N)
        # Per trial, the diagonal and the UL-weighted or plain row sums of
        # each direction's powers |M|^2, and each user's estimate energy;
        # the SINRs are formed from them once per batch.
        ul_sig, ul_sum, energy, dl_sig, dl_sum = np.empty((5, T, K))
        for t in range(T):
            block = est.form_channels(phasor[t:t + 1], g[t:t + 1])
            est.estimate(est.train(rng, block), out=local.ghat)
            g_t = np.conjugate(g[t], out=g[t]).reshape(K, A * N)

            # Uplink: matched-filter combining over the serving set; the
            # estimate is already zero off it. The UL amplitudes and
            # powers are overwritten by the DL's.
            M = ghat @ g_t.T
            p = _power(M)                                       # (K, K)
            np.copyto(ul_sig[t], p.diagonal())
            np.matmul(p, eta_ul, out=ul_sum[t])
            np.einsum("ki,ki->k", re_im, re_im, out=energy[t])

            # Downlink: received amplitude of user j's beam at user k, with
            # the estimate weighted in place by sqrt(eta_dl).
            re_im *= wdl                                        # w g_hat
            np.matmul(g_t, ghat.T, out=M)
            _power(M, out=p)
            np.copyto(dl_sig[t], p.diagonal())
            p.sum(axis=1, out=dl_sum[t])
        ul_sig *= eta_ul
        sinr_ul = ul_sig / (ul_sum - ul_sig + est.sigma_w2 * energy)
        return dl_sig / (dl_sum - dl_sig + sigma_z2), sinr_ul

    streams = [np.random.Generator(np.random.SFC64(seed))
               for seed in rng.bit_generator.seed_seq.spawn(len(sizes))]
    workers = min(_cpus(), len(sizes))
    blas = _openblas_threads() if workers > 1 else None
    if blas is None:
        batches = list(map(batch, streams, sizes))
    else:
        # Imported here: it pulls in logging, ~4% of `import cfmimo`.
        from concurrent.futures import ThreadPoolExecutor
        get, put = blas
        saved = get()
        put(1)
        try:
            with ThreadPoolExecutor(workers,
                                    thread_name_prefix="cfmimo-ub") as pool:
                batches = list(pool.map(batch, streams, sizes))
        finally:
            put(saved)

    out = []
    for sinrs in zip(*batches):
        se = se_lb(np.concatenate(sinrs), frac)                 # (n_trials, K)
        out += [se.mean(axis=0), se.std(axis=0) / np.sqrt(n_trials)]
    return tuple(out)
