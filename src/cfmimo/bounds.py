"""Spectral-efficiency bounds.

Closed-form lower bounds come from hardening ("use-and-then-forget") SINR
expressions evaluated from the estimators' per-gram state (alpha, tr B^{-1},
z = B^{-1} a on the LOS links), gamma and the link covariances
G = c_los a a^H + c_eye I, read as (c_los, c_eye, a); no filter is formed as
a matrix. Upper bounds are Monte-Carlo averages of log2(1 + instantaneous
SINR) with true channels and actual LMMSE estimates/beamformers.

All SINR denominators decompose into: beamforming-gain-uncertainty term,
cross-interference trace term, noise term, and a pilot-contamination term
over users sharing the same pilot. The cross traces are formed for every
pair of users; the contamination traces only for the pairs that share a
pilot.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .channel import LinkSet, covariance_coeffs
from .estimation import EstimatorSet, draw_block, lmmse_estimate
from .errors import NumericalError

UB_BATCH_BYTES = 4 << 20   # most bytes of one upper-bound batch's channel draw


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
    terms, are 0: the owner's side of a slot is masked by the serving set).
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

    D_{j,a} = sqrt(eta_j) G_{j,a} B^{-1} is owner j's LMMSE filter at AP
    a, never formed: every entry comes from scalars of its pilot gram B.
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

    Every term comes from G = c_los a a^H + c_eye I and the owner's filter
    D_j = sqrt(eta_j) (c_eye,j B^{-1} + c_los,j a_j z_j^H), read through
    scalars of its gram: tr B^{-1} and q = a^H B^{-1} a.
    With x = c_eye,k tr D_j and
    a_k^H D_j a_k = sqrt(eta_j) (c_eye,j q_k + c_los,j (a_k^H a_j)(z_j^H a_k)),
    t = c_los,k a_k^H D_j a_k + x and
    delta = x (x + 2 c_los,k Re(a_k^H D_j a_k)); the steering products are
    formed only on the pairs whose users both have a LOS component.
    cross = c_eye,k tr X + c_los,k Re(a_k^H X a_k) with X = D_j G_j, whose
    B^{-1} part a_k^H B^{-1} a_k = (N - a_k^H U M U^H a_k) / alpha comes
    from z and the steering products.
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
    # The owner's side of each slot, 0 on pad slots, and its gram.
    root = np.sqrt(est.train_powers)[:, None] * serving[owner, ap]
    ce_j, cl_j, q_j = ce[owner, ap], cl[owner, ap], q[owner, ap]
    gram = est.pilot_index[:, None] * A + ap                    # (J, C)
    tr_inv = est.tr_inv.ravel()[gram]

    pj, pk = np.nonzero(est.pilot_index[:, None] == est.pilot_index)
    link = (pk[:, None], ap[pj])                                # (P, C)
    sb = np.zeros(link[1].shape, dtype=complex)       # (a_k^H a_j)(z_j^H a_k)
    ll = np.flatnonzero(has_los[pj] & has_los[pk])
    jl, kl = (pj[ll, None], ap[pj[ll]]), (pk[ll, None], ap[pj[ll]])
    sb[ll] = (np.einsum("pcn,pcn->pc", np.conj(steer[kl]), steer[jl])
              * np.einsum("pcn,pcn->pc", np.conj(est.z[jl]), steer[kl]))
    aDa = root[pj] * (ce_j[pj] * q[link] + cl_j[pj] * sb)
    x = ce[link] * root[pj] * (ce_j[pj] * tr_inv[pj] + cl_j[pj] * q_j[pj])
    c_los = cl[link]

    # cross = Re tr(X G_k), the conjugate of tr(G_j D_j^H G_k), with
    # X = sqrt(eta_j) (c_eye,j^2 B^{-1} + c_eye,j c_los,j (z_j a_j^H + a_j z_j^H)
    #                  + c_los,j^2 q_j a_j a_j^H).
    tr_X = root * (ce_j * ce_j * tr_inv + (2.0 * ce_j + N * cl_j) * cl_j * q_j)
    cross = np.ascontiguousarray(ce.T)[ap]                      # (J, C, K)
    cross *= tr_X[..., None]
    # For the users l with a LOS component, Re(a_l^H X a_l) from a_l^H z_i
    # and a_l^H a_i per AP: as U M U^H = sum_i w_i z_i a_i^H over the LOS
    # users i on a gram (w = eta c_los), its B^{-1} part is (N - ea) / alpha
    # with ea = Re sum_i w_i (a_l^H z_i)(a_i^H a_l), summed per pilot, ...
    L, P = len(los), est.alpha.shape[0]
    a_l = np.swapaxes(steer[los], 0, 1)                         # (A, L, N)
    prod = np.conj(a_l) @ np.concatenate([est.z[los],
                                          steer[los]]).transpose(1, 2, 0)
    w = (est.train_powers[los, None] * cl[los]).T[:, None, :]   # (A, 1, L)
    ea = ((prod[..., :L] * np.conj(prod[..., L:])).real * w
          @ (est.pilot_index[los, None] == np.arange(P)))       # (A, L, P)
    aXa = (root * ce_j * ce_j / est.alpha.ravel()[gram])[..., None] * (
        N - ea.transpose(2, 0, 1)[est.pilot_index[:, None], ap])
    # ... and the rest from a_l^H z_j and a_l^H a_j for the owners j with a
    # LOS component, read at their slots.
    j = np.arange(L)[:, None]
    za, aa = prod[ap[los], :, j], prod[ap[los], :, L + j]     # (J', C, L)
    aXa[los] += (root * cl_j)[los, :, None] * (
        2.0 * ce_j[los, :, None] * (za * np.conj(aa)).real
        + (cl_j * q_j)[los, :, None] * (aa.real ** 2 + aa.imag ** 2))
    cross[..., los] += np.ascontiguousarray(cl[los].T)[ap] * aXa

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
    trials of a default drop -> 10 x 10."""
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


@contextmanager
def _one_blas_thread(get, put):
    """OpenBLAS pinned to one thread while the block runs, and its previous
    count restored after, also when the block raises. The count is
    process-wide."""
    saved = get()
    put(1)
    try:
        yield
    finally:
        put(saved)


def se_ub_mc(links: LinkSet, est: EstimatorSet, eta_dl, eta_ul, sigma_z2,
             frac, n_trials, rng: np.random.Generator):
    """Monte-Carlo SE upper bounds for all users, both directions.

    links, est : the drop's link state and estimators; est carries the
        serving mask (est.served) and the pilot assignment
    eta_dl : (K, A) normalized downlink powers, read on the serving sets
    eta_ul : (K,) uplink transmit powers
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
    10 x 10, 10 trials of 120 users -> 2 x 5, 1 -> 1). Batch b draws its
    blocks with estimation.draw_block, which defines the draw order, from
    np.random.Generator(np.random.SFC64(s_b)), with s_b the b-th
    SeedSequence spawned from rng's. The layout depends only on n_trials
    and the drop's shape, never on the thread count, and a batch's draws
    only on its own stream.

    Buffers: each thread that runs batches allocates two flat buffers of
    K rows once per call, sized for the largest batch, and reuses them
    for each of its batches: the channel draw, which draw_block fills,
    and the estimate, which lmmse_estimate fills. Per batch it allocates
    draw_block's (T, P, A, N) noise and observation, freed before the
    GEMMs, lmmse_estimate's workspace and the (T, K, K) amplitudes and
    powers, so a call's peak memory is a few UB_BATCH_BYTES per thread.
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

    A batch of T trials is evaluated with BLAS products, with AN = A*N the
    flattened (AP, antenna) axis:

    - LMMSE: lmmse_estimate forms B^{-1} y once per (pilot, AP) gram, with
      two thin products through the factors U, U M only on the grams with
      a LOS user, and spreads it to the (T, K, A, N) layout the GEMMs read,
      zero off the serving set; the channel is then conjugated in place;
    - UL: M = (m g_hat)^H g enters the SINR only through |M|^2, so the
      kernel computes conj(M) = g_hat @ conj(g)^T (m the 0/1 serving mask;
      the estimate is already zero off it). The squares of its real and
      imaginary parts sum to the combining noise
      sum_a m_{k,a} ||g_hat_{t,k,a}||^2;
    - DL: the estimate is then weighted in place by sqrt(eta_dl), and the
      received amplitudes M[t, k, j] = sum_a sqrt(eta_dl[j, a])
      g_{t,k,a}^H g_hat_{t,j,a} are T products of conj(g) (K, AN) by
      (w g_hat)^T (AN, K), written over the UL amplitudes; the powers
      |M|^2 are squared in place and overwrite the UL's, so the DL
      allocates no (T, K, K) array.

    Returns (se_dl, stderr_dl, se_ul, stderr_ul), each (K,), where se is
    frac * mean log2(1 + sinr) and stderr the standard error of se,
    np.std(ddof=0) / sqrt(n_trials), both numpy's two-pass moments over
    the n_trials per-trial SEs in batch order.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    serving_mask = est.served
    K, A = links.beta.shape
    N = links.steering.shape[-1]
    eta_dl = np.asarray(eta_dl, dtype=float) * serving_mask
    eta_ul = np.asarray(eta_ul, dtype=float)
    # sqrt(eta_dl) on the real view of the estimate: contiguous along 2N.
    wdl = np.repeat(np.sqrt(eta_dl)[:, :, None], 2 * N, axis=2)
    diag = np.arange(K)

    sizes = _ub_batches(n_trials, 16 * K * A * N)
    local = threading.local()

    def batch(rng, T):
        """(sinr_dl, sinr_ul), each (T, K), of T trials drawn from rng, in
        the two channel-sized buffers of the calling thread."""
        if not hasattr(local, "g"):
            local.g = np.empty(sizes[0] * K * A * N, dtype=complex)
            local.ghat = np.empty_like(local.g)
        n = T * K * A * N
        g, y = draw_block(links, est, rng, T, local.g[:n].reshape(T, K, A, N))
        g_flat = g.reshape(T, K, A * N)
        ghat = lmmse_estimate(links, est, y,
                              out=local.ghat[:n].reshape(g.shape))
        del y
        np.conjugate(g, out=g)

        # Uplink: matched-filter combining over the serving set; the
        # estimate is already zero off it. The UL amplitudes and powers
        # are overwritten by the DL's.
        M = ghat.reshape(T, K, A * N) @ g_flat.transpose(0, 2, 1)
        p = _power(M)                                           # (T, K, K)
        sig = eta_ul * p[:, diag, diag]
        interf = p @ eta_ul - sig
        re_im = ghat.view(float).reshape(T, K, 2 * A * N)
        noise = est.sigma_w2 * np.einsum("tki,tki->tk", re_im, re_im)
        sinr_ul = sig / (interf + noise)

        # Downlink: received amplitude of user j's beam at user k, with the
        # estimate weighted in place.
        re_im *= wdl.reshape(K, 2 * A * N)                      # w g_hat
        np.matmul(g_flat, ghat.reshape(T, K, A * N).transpose(0, 2, 1),
                  out=M)
        _power(M, out=p)
        sig = p[:, diag, diag]
        interf = p.sum(axis=2) - sig
        return sig / (interf + sigma_z2), sinr_ul

    streams = [np.random.Generator(np.random.SFC64(seed))
               for seed in rng.bit_generator.seed_seq.spawn(len(sizes))]
    workers = min(_cpus(), len(sizes))
    blas = _openblas_threads() if workers > 1 else None
    if blas is None:
        batches = list(map(batch, streams, sizes))
    else:
        # Imported here: it pulls in logging, ~4% of `import cfmimo`.
        from concurrent.futures import ThreadPoolExecutor
        with _one_blas_thread(*blas), ThreadPoolExecutor(
                workers, thread_name_prefix="cfmimo-ub") as pool:
            batches = list(pool.map(batch, streams, sizes))

    out = []
    for sinrs in zip(*batches):
        se = se_lb(np.concatenate(sinrs), frac)                 # (n_trials, K)
        out += [se.mean(axis=0), se.std(axis=0) / np.sqrt(n_trials)]
    return tuple(out)
