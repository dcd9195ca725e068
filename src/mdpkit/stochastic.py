"""MDPs with additive reward noise: Monte Carlo E[max] backups.

Per-state noise vectors perturb the action values before the max.  With
i.i.d. Gumbel noise the expected-max backup has the log-sum-exp closed form:
it is the entropy backup (`GumbelIid.regularizer`), which is what ties this
framework to the entropy-regularized one.  Other noise laws go through
Monte Carlo with common random numbers so that value iteration still
converges to a fixed point of the (fixed-draw) perturbed operator.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import MdpModel, _array, _blocks, _count, _param, _row, derive_rng
from .regularized import AffineRegularizer, EntropyRegularizer

EULER_GAMMA = float(np.euler_gamma)

# bytes of block buffers one Monte Carlo worker holds beside its per-sample
# arrays: `_column_emax` sizes its blocks by it, and `_require_draws_fit`
# reserves it for each worker
WORKER_BUDGET = 2 ** 18


class NoiseModel:
    """Per-state sampler for an additive noise vector over actions.

    `sample(state, n, rng)` returns an (n, num_actions) array.  Sampling
    must be a pure function of (state, n, rng), so that each (seed, state)
    keys its own stream.  The Monte Carlo backups draw their states on
    worker threads, one state per thread at a time, which that contract
    allows.

    The backups draw through `_fill(state, cols, rng)`, which writes the
    draws into a given C-contiguous (num_actions, n) block of their cache.
    Here it copies `sample`'s return into the block.  The built-in laws
    draw straight into it, and their `sample` is `_fill` into a fresh
    block, returned as its `.T` view.

    A law with a per-state table sets `num_states` and `num_actions` to the
    table's (S, A); one with none leaves `num_states` None.

    A law whose expected max has a closed form defines `regularizer()`,
    the regularizer whose backup is that expected max; the others leave
    `regularizer` None and are backed up by Monte Carlo.
    """

    num_states = num_actions = None
    regularizer = None

    def sample(self, state, n, rng) -> np.ndarray:
        raise NotImplementedError

    def _fill(self, state, cols, rng):
        draws = self.sample(state, cols.shape[1], rng)
        if np.shape(draws) != cols.T.shape:
            raise ValueError(f"noise drew shape {np.shape(draws)}, expected "
                             f"{cols.T.shape} (samples, actions)")
        cols.T[...] = draws


def _drawn(noise, state, num_actions, n, rng):
    """A fresh C-contiguous (num_actions, n) block of the noise's draws,
    checked against memory with one worker's buffers before it is made."""
    _require_draws_fit(num_actions, n)
    cols = np.empty((num_actions, n))
    noise._fill(state, cols, rng)
    return cols


class GumbelIid(NoiseModel):
    """I.i.d. Gumbel(location, scale eta) noise on every action.

    Location defaults to 0, whose mean is eta * euler_gamma; use
    `GumbelIid.mean_zero(eta)` for the mean-zero convention, whose
    `regularizer()` backs up to `entropy_backup(w, eta)` bit for bit.
    """

    def __init__(self, eta, location=0.0, num_actions=None):
        self.eta = _param(eta, "eta", 0.0, strict=True)
        self.location = _param(location, "location")
        self.num_actions = (None if num_actions is None
                            else _count(num_actions, "num_actions"))

    @classmethod
    def mean_zero(cls, eta, num_actions=None):
        return cls(eta, location=-eta * EULER_GAMMA, num_actions=num_actions)

    def regularizer(self):
        """Entropy at eta plus the noise mean, location + eta * euler_gamma.

        Its backup is E[max]: the soft backup is the expected max under
        mean-zero noise, and the mean shifts every action alike.
        """
        return AffineRegularizer(EntropyRegularizer(self.eta),
                                 offset=self.location + self.eta * EULER_GAMMA)

    def sample(self, state, n, rng):
        if self.num_actions is None:
            raise ValueError("num_actions unknown; construct with num_actions=")
        return _drawn(self, state, self.num_actions, n, rng).T

    def _fill(self, state, cols, rng):
        # location - eta * ln E is Gumbel(location, eta) for E ~ Exp(1)
        # (Devroye 1986); an exact zero E (probability about 2^-53) is drawn
        # again so that every draw is finite
        rng.standard_exponential(out=cols)
        while not cols.all():
            zero = cols == 0.0
            cols[zero] = rng.standard_exponential(np.count_nonzero(zero))
        np.log(cols, out=cols)
        cols *= -self.eta
        cols += self.location


class UniformPerEntry(NoiseModel):
    """Independent Uniform[lo, hi] noise per (state, action); lo == hi allowed."""

    def __init__(self, bounds):
        bounds = _array(bounds, "bounds", -np.inf)
        if bounds.ndim != 3 or bounds.shape[2] != 2:
            raise ValueError(f"bounds must have shape (S, A, 2), got {bounds.shape}")
        if not np.all(bounds[..., 0] <= bounds[..., 1]):
            raise ValueError("bounds must have lower <= upper")
        self.bounds = bounds
        self.num_states, self.num_actions = bounds.shape[:2]

    def sample(self, state, n, rng):
        return _drawn(self, state, self.bounds.shape[1], n, rng).T

    def _fill(self, state, cols, rng):
        lo = self.bounds[state, :, :1]
        hi = self.bounds[state, :, 1:]
        if len(lo) != len(cols):
            raise ValueError(f"noise has {len(lo)} actions, the action values "
                             f"{len(cols)}")
        rng.random(out=cols)
        cols *= hi - lo
        cols += lo


def _require_psd(matrices):
    """Eigendecompose (S, A, A) matrices at once, as eigh's (vals, vecs).

    The one PSD rule of the package: a matrix is PSD unless its least
    eigenvalue is below -1e-10 * max(1, its largest), a bound relative to
    its scale.  Raises ValueError on another shape, or naming the first
    state whose matrix has a non-finite entry or is not PSD.
    """
    if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
        raise ValueError("covariance matrices must have shape (S, A, A), "
                         f"got {matrices.shape}")
    finite = np.isfinite(matrices).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"covariance for state {np.argmin(finite)} is not "
                         "finite")
    vals, vecs = np.linalg.eigh(matrices)
    # eigh sorts each state's eigenvalues in ascending order
    bad = np.flatnonzero(vals[:, 0] < -1e-10 * np.maximum(1.0, vals[:, -1]))
    if bad.size:
        raise ValueError(f"covariance for state {bad[0]} is not PSD")
    return vals, vecs


class GaussianJoint(NoiseModel):
    """Mean-zero jointly Gaussian noise with a per-state covariance matrix.

    Draws are F[s] @ z, z standard normal, for F[s] = U sqrt(max(L, 0)) from
    cov[s] = U L U^T: a singular covariance is sampled on its support.

    The product is taken in place, over blocks of samples, so no second
    (A, n) array exists.  Blocks start on multiples of 64 samples and
    hold 128 KB (2,048 samples at 8 actions), the last one the remainder
    too: each is at most a worker's `WORKER_BUDGET` (256 KB) and 2^18
    multiply-adds, below which OpenBLAS runs on one thread, so the draws
    do not depend on its thread count.  That threshold, not the budget,
    sets the step.  The draws equal the whole `F[s] @ z` bit for bit,
    except that with OpenBLAS at 12 actions or more the last n mod 8
    samples can differ in the last bits (as the whole product's own do
    between OpenBLAS thread counts).
    """

    def __init__(self, cov):
        self.cov = _array(cov, "cov")
        vals, vecs = _require_psd(self.cov)
        self.factor = vecs * np.sqrt(np.maximum(vals, 0.0))[:, None, :]
        self.num_states, self.num_actions = self.cov.shape[:2]

    def sample(self, state, n, rng):
        return _drawn(self, state, self.factor.shape[1], n, rng).T

    def _fill(self, state, cols, rng):
        factor = self.factor[state]
        rng.standard_normal(out=cols)
        num_actions, n = cols.shape
        step = max(64, min(2 ** 14 // num_actions,
                           2 ** 17 // num_actions ** 2) // 64 * 64)
        blocks = max(1, n // step)
        buf = np.empty((num_actions, n - (blocks - 1) * step))
        for k in range(blocks):
            lo, hi = k * step, (n if k == blocks - 1 else (k + 1) * step)
            block, out = cols[:, lo:hi], buf[:, :hi - lo]
            np.matmul(factor, block, out=out)
            block[...] = out


@dataclass
class EmaxEstimate:
    mean: float
    std_error: float
    samples: int


def _column_emax(w, cols):
    """Per-sample max of w_a + eps_a over (A, n) columns, and its maximizer.

    Returns (m, first): m[i] = max_a (w_a + cols[a, i]) and first[i] is the
    first (lowest-index) maximizer of sample i.  Each sum and each max is
    exact, so for NaN-free draws m and first equal the row-major
    `(w + eps).max(axis=1)` and `argmax(axis=1)` bit for bit.  The samples
    are walked in `core._blocks` whose buffers fit `WORKER_BUDGET`.
    """
    num_actions, n = cols.shape
    if w.shape != (num_actions,):
        raise ValueError(f"action values have shape {w.shape}, "
                         f"noise has {num_actions} actions")
    index = np.min_scalar_type(num_actions - 1).type
    m = np.empty(n)
    first = np.zeros(n, dtype=index)
    # per sample of a block: the sum `cb`, the leader `lb` and `cb > mb`
    blocks = _blocks(n, 9 + first.itemsize, WORKER_BUDGET)
    col = np.empty(blocks[0].stop)
    lead = np.empty(col.shape, dtype=index)
    for blk in blocks:
        mb, fb = m[blk], first[blk]
        cb, lb = col[:len(mb)], lead[:len(mb)]
        np.add(w[0], cols[0, blk], out=mb)
        for a in range(1, num_actions):
            np.add(w[a], cols[a, blk], out=cb)
            # strict >: a tie keeps the earlier, lower-index maximizer.  A
            # new leader a exceeds every earlier index, so a max records it
            # without the data-dependent branches of a masked store.
            np.multiply(cb > mb, index(a), out=lb)
            np.maximum(fb, lb, out=fb)
            np.maximum(mb, cb, out=mb)
    return m, first


def _shares(first, num_actions):
    """Share of samples whose first maximizer is each action."""
    counts = np.array([np.count_nonzero(first == a) for a in range(num_actions)])
    return counts / float(first.shape[0])


def _emax_estimate(w, cols) -> EmaxEstimate:
    """E[max_a (w_a + eps_a)] and its standard error over (A, n) draw columns.

    A standard error needs n >= 2 draws: ValueError below that.
    """
    n = cols.shape[1]
    if n < 2:
        raise ValueError(f"a standard error needs at least 2 samples, got {n}")
    m, _ = _column_emax(w, cols)
    mean = m.mean()
    # m.std(ddof=1), bit for bit, without its n-entry temporary
    m -= mean
    np.square(m, out=m)
    std = np.sqrt(m.sum() / (n - 1))
    return EmaxEstimate(float(mean), float(std / np.sqrt(n)), n)


def mc_emax(w, noise, samples, seed, state=0) -> EmaxEstimate:
    """Monte Carlo estimate of E[max_a (w_a + eps_a)] with its standard error.

    `noise` is anything that draws through `_fill`: a noise law, or an
    ambiguity set of `distributional`, which draws its lower-bound member.
    """
    w = np.asarray(w, dtype=float)
    cols = _drawn(noise, state, len(w), samples, derive_rng(seed, state))
    return _emax_estimate(w, cols)


def mc_policy(w, noise, samples, seed, state=0) -> np.ndarray:
    """Empirical argmax frequencies under the noise (lowest index on ties)."""
    w = np.asarray(w, dtype=float)
    cols = _drawn(noise, state, len(w), samples, derive_rng(seed, state))
    return _shares(_column_emax(w, cols)[1], len(w))


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _state_map(fn, items):
    """[fn(*item) for item in items], on up to `_cpus()` threads.

    For per-state Monte Carlo work: numpy's fills and ufuncs release the
    GIL, so the states run in parallel.  The threads live for this call
    only, and an exception in one of them is raised here.
    """
    items = list(items)
    workers = min(_cpus(), len(items))
    if workers <= 1:
        return [fn(*item) for item in items]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(lambda item: fn(*item), items))


def smdp_backup_operator(noise, samples, seed):
    """Monte Carlo backup operator for noisy-reward value iteration.

    The draws for a state are fixed across sweeps (common random numbers):
    the operator is then deterministic, and value iteration settles to the
    fixed point of the perturbed operator.  Fresh draws every sweep would
    leave the residual at the Monte Carlo noise level, which no tolerance
    below it ever meets.
    Its row, the argmax share, is the gradient of its sample-average max, so
    the Newton steps of `value_iteration` are exact policy iteration on it.
    Value and policy come from the same draws, and at sweep 0 they equal
    `mc_emax(...).mean` and `mc_policy(...)` for the same (w, seed, state)
    bit for bit.

    A table operator: the states of a call are spread over the CPUs this
    process may run on (`_state_map`), each state drawn from its own
    `derive_rng(seed, state)` stream, and the values and rows come back in
    row order, the same whatever the number of threads.  Draws are cached
    per state as a contiguous (num_actions, samples) float64 array, one row
    per action: samples * num_actions * 8 bytes per state (24 MB at 10^6
    samples and 3 actions).  The states a call draws first share one
    block, allocated in the calling thread (arrays that worker threads
    allocate fragment their per-thread malloc arenas), which the workers
    fill through `NoiseModel._fill`; the built-in laws draw straight into
    it.  While it backs up a state, a worker holds a float64 and a uint8
    array of `samples` entries and the block buffers of `_column_emax`,
    which `WORKER_BUDGET` (256 KB) sizes, all freed when it moves on.  The
    cache is `op.draws`, {state: columns}, for reuse after a solve:
    `op.std_errors(table, states)` gives the standard error of each row's
    sample-average max over its state's cached draws (`_emax_estimate`),
    on the same threads.  A call that draws new states first checks the
    cache it will hold after the call, and its workers' buffers, against
    physical memory (`_require_draws_fit`).
    """
    samples, seed = _count(samples, "samples"), _count(seed, "seed", 0)
    cache = {}

    def op(table, states, sweep):
        table = np.asarray(table, dtype=float)
        values = np.empty(len(states))
        rows = np.empty(table.shape)
        rows_of = {}
        for i, state in enumerate(states):
            rows_of.setdefault(int(state), []).append(i)
        jobs = [(state, index, state not in cache)
                for state, index in rows_of.items()]
        fresh = [state for state, _, new in jobs if new]
        if fresh:
            _require_draws_fit(table.shape[1], samples, len(cache) + len(fresh),
                               min(_cpus(), len(jobs)))
        cache.update(zip(fresh, np.empty((len(fresh), table.shape[1],
                                          samples))))

        def backup(state, index, new):
            cols = cache[state]
            if new:
                noise._fill(state, cols, derive_rng(seed, state))
            for i in index:
                m, first = _column_emax(table[i], cols)
                values[i] = m.mean()
                del m  # freed before `_shares` allocates its masks
                rows[i] = _shares(first, len(cols))

        try:
            _state_map(backup, jobs)
        except BaseException:
            for state in fresh:
                del cache[state]
            raise
        return values, rows

    def std_errors(table, states):
        return np.array(_state_map(lambda state, w: _emax_estimate(
            w, cache[state]).std_error, zip(states, table)))

    op.draws = cache
    op.std_errors = std_errors
    return op


def _physical_memory_bytes():
    """Physical memory of the machine in bytes, or None where unknown."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None


def _require_draws_fit(num_actions, samples, num_states=None, workers=1):
    """Raise ValueError if Monte Carlo draws cannot fit in memory.

    One block of draws (no `num_states`) holds num_actions * samples
    float64 draws: `_drawn` (so `mc_emax`, `mc_policy` and the built-in
    `sample`s) and `mc_counterexample_ratio`.  The common-random-number
    cache of `smdp_backup_operator` over num_states states holds
    num_states such blocks.  Each of the `workers` adds a float64 and an
    index array of `samples` entries (9 bytes per sample up to 256
    actions) and `WORKER_BUDGET` (256 KB) of block buffers.  Checked
    against physical memory, before anything is drawn, so that a solve
    too large for the machine fails at once instead of swapping or being
    killed.  First of all, `samples` must be a positive integer
    (`core._count`).
    """
    samples = _count(samples, "samples")
    cache = (num_states or 1) * num_actions * samples * 8
    index = np.min_scalar_type(num_actions - 1).itemsize
    need = cache + workers * ((8 + index) * samples + WORKER_BUDGET)
    have = _physical_memory_bytes()
    if have is not None and need > have:
        sizes = f"{num_actions} actions x {samples} samples x 8, and "
        held = (f"draws need {need} bytes ({sizes}one worker's buffers)"
                if num_states is None else
                f"draw cache needs {need} bytes ({num_states} states x "
                f"{sizes}{workers} workers' buffers)")
        knob = "samples (--mc-samples)" if num_states is None else "mc_samples"
        raise ValueError(f"Monte Carlo {held}, more than the {have} bytes "
                         f"of physical memory; lower {knob}")


def build_uniform_counterexample(r1, r2, discount=0.9):
    """Three-state chooser model with Uniform[0, 1] noise on one entry.

    State 0 picks between two absorbing zero-reward states; action 1 pays r1
    plus Uniform[0, 1] noise, action 2 pays r2 exactly.  Returns the model
    and its noise.
    """
    transition = np.zeros((3, 2, 3))
    transition[0, 0, 1] = 1.0
    transition[0, 1, 2] = 1.0
    transition[1, :, 1] = 1.0
    transition[2, :, 2] = 1.0
    reward = np.zeros((3, 2))
    reward[0] = [r1, r2]
    model = MdpModel(num_states=3, num_actions=2, transition=transition,
                     reward=reward, discount=discount)
    bounds = np.zeros((3, 2, 2))
    bounds[0, 0] = [0.0, 1.0]
    return model, UniformPerEntry(bounds)


def uniform_counterexample_ratio(r1, r2, beta=0.0) -> float:
    """Published piecewise policy ratio for the uniform-noise chooser model.

    Reproduced verbatim from its source: with t = r2 - r1 + beta the ratio is
    0 for t <= 0, t / (1 - t) for 0 < t < 1, and infinity for t >= 1.  Note
    the direct probability calculation P[eps >= t] / P[eps < t] gives the
    transposed value (1 - t) / t on the middle branch; `mc_counterexample_ratio`
    estimates that orientation empirically, and tests document that the two
    are reciprocals.
    """
    t = _param(r2, "r2") - _param(r1, "r1") + _param(beta, "beta")
    if t <= 0:
        return 0.0
    if t >= 1:
        return np.inf
    return t / (1.0 - t)


def mc_counterexample_ratio(r1, r2, beta=0.0, samples=1000000, seed=0) -> float:
    """Monte Carlo pi(a1)/pi(a2) at the chooser state of the uniform model."""
    r1, r2, beta = _param(r1, "r1"), _param(r2, "r2"), _param(beta, "beta")
    _require_draws_fit(1, samples)
    rng = derive_rng(seed, 0)
    eps = rng.random(samples)
    wins = float(np.count_nonzero(r1 + eps >= r2 + beta))
    losses = samples - wins
    if losses == 0:
        return np.inf
    return wins / losses


@dataclass
class FitResult:
    """Best single-temperature softmax fit of a set of policy ratios."""

    eta: float
    residual: float


def refute_single_eta_fit(deltas, ratios) -> FitResult:
    """Min over eta > 0 of the worst log-ratio error |ln r_i - delta_i / eta|.

    deltas are action-value gaps (w_1 - w_2) and ratios the target
    pi(a1)/pi(a2) values a single softmax temperature would have to satisfy
    simultaneously.  A residual far from zero certifies no temperature fits.

    With u = 1/eta >= 0 the worst error is convex and piecewise linear in u,
    so its minimum lies at u = 0 or where two of the lines
    +-(ln r_i - delta_i u) cross; the least error over those candidates is
    the exact infimum.  When it lies at u = 0 (eta -> infinity) `eta` is inf.
    Gaps are finite and ratios in [0, inf], one of each per pair and at
    least one pair; a ratio of 0 or inf leaves no temperature to fit, and
    the residual is inf.
    """
    deltas = _row(deltas, "deltas", -np.inf).reshape(-1)
    ratios = _row(ratios, "ratios").reshape(-1)
    if not np.all(ratios >= 0.0):
        raise ValueError("ratios entries must be in [0, inf]")
    if ratios.shape != deltas.shape:
        raise ValueError(f"ratios has {ratios.size} entries, deltas "
                         f"{deltas.size}: one ratio per gap")
    if not deltas.size:
        raise ValueError("deltas must have at least one entry")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logr = np.log(ratios)
        u = np.concatenate((
            ((logr[:, None] - logr) / (deltas[:, None] - deltas)).ravel(),
            ((logr[:, None] + logr) / (deltas[:, None] + deltas)).ravel()))
        eta = np.concatenate(([np.inf], 1.0 / u[np.isfinite(u) & (u > 0.0)]))
        errs = np.max(np.abs(logr - deltas / eta[:, None]), axis=1)
    i = int(np.argmin(errs))
    return FitResult(eta=float(eta[i]), residual=float(errs[i]))
