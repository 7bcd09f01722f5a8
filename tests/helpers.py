"""Independent oracles shared by the test modules, and the helpers only
tests use.

Everything here deliberately avoids the package's own fast paths: transfers
are dense matrices, operators are ``np.kron`` sums of dense Toeplitz
factors, coarse operators come from explicit triple products,
series powers from binomial expansion with naive convolution, the
reference V-cycle allocates every intermediate, with its own apply,
smoother and transfers, and applies the operator to every iterate, zero or
not, the time-level right-hand side is summed term by term in Python loops,
the contraction estimate cycles the reference V-cycle and takes each
energy norm from a fresh apply, and the V-cycle's approximate inverse and
contraction norm are dense matrices.  The exact integer coefficients of the
unnormalised Galerkin recursion (``coefficient``) cover stencils of any
width, which the package's tridiagonal stencils never reach.
"""

import csv
import functools
import math

import numpy as np

from mgfk import stencil, transfer
from mgfk.coarsen import c_constant
from mgfk.errors import DimensionError, EligibilityError, GridSizeError
from mgfk.multigrid import MgHierarchy, vcycle
from mgfk.executor import run_numpy
from mgfk.stencil import ToeplitzStencil, grid_depth, interior, require_coarsenable, run_shape


def restriction_matrix(m_fine: int) -> np.ndarray:
    """Dense full-weighting matrix, (m_fine - 1) // 2 rows."""
    m_coarse = (m_fine - 1) // 2
    r = np.zeros((m_coarse, m_fine))
    for i in range(m_coarse):
        r[i, 2 * i : 2 * i + 3] = (0.25, 0.5, 0.25)
    return r


def prolongation_matrix(m_fine: int) -> np.ndarray:
    return 2.0 * restriction_matrix(m_fine).T


def cut(v: np.ndarray) -> np.ndarray:
    """Select the fine entries that coincide with coarse grid points."""
    v = np.asarray(v)
    if grid_depth(v.shape[0]) < 2:
        raise GridSizeError(f"fine grid size {v.shape[0]} has no coarser level")
    return v[1::2].copy()


def cutting_matrix(m_fine: int) -> np.ndarray:
    m_coarse = (m_fine - 1) // 2
    t = np.zeros((m_coarse, m_fine))
    for i in range(m_coarse):
        t[i, 2 * i + 1] = 1.0
    return t


def dense_galerkin(a_dense: np.ndarray) -> np.ndarray:
    """Triple product restriction * A * prolongation."""
    m = a_dense.shape[0]
    return restriction_matrix(m) @ a_dense @ prolongation_matrix(m)


def toeplitz_dense(bands, m: int) -> np.ndarray:
    a = np.zeros((m, m))
    for j, val in enumerate(bands):
        if j >= m:
            break
        a += val * np.eye(m, k=j)
        if j:
            a += val * np.eye(m, k=-j)
    return a


def kron_sum_dense(op, m: int) -> np.ndarray:
    """Dense matrix of a ``KroneckerSum`` on the (m,)*ndim grid: its mass
    and stiffness terms as explicit ``np.kron`` products of dense factors."""
    e, s = toeplitz_dense(op.mass.bands, m), toeplitz_dense(op.stiff.bands, m)
    d = op.ndim
    mass = functools.reduce(np.kron, [e] * d)
    stiff = sum(functools.reduce(np.kron, [s if j == k else e for j in range(d)]) for k in range(d))
    return op.c_mass * mass + op.c_stiff * stiff


def _div_exact(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r != 0:
        raise ArithmeticError(f"{num} not divisible by {den}")
    return q


def _coeff_j0(m: int, k: int) -> int:
    c, half = c_constant(k), 2 ** (k - 1)
    if m == 0:
        return 4 * c + half
    if m < half:
        return 8 * c - (m * m - 1) * (2**k - m)
    n = 2**k - m
    return _div_exact((n - 1) * n * (n + 1), 3)


def _coeff_j1(m: int, k: int) -> int:
    c, half = c_constant(k), 2 ** (k - 1)
    if m == 0:
        return c
    if m < half:
        return 2 * c + m * m * half - _div_exact(2 * (m - 1) * m * (m + 1), 3)
    if m < 2 * half:
        n = 2**k - m
        p = m - half
        return (
            2 * c
            + n * n * half
            - _div_exact(2 * (n - 1) * n * (n + 1), 3)
            - _div_exact((p - 1) * p * (p + 1), 6)
        )
    n = 3 * half - m
    return _div_exact((n - 1) * n * (n + 1), 6)


def _coeff_jge2(j: int, m: int, k: int) -> int:
    c, half = c_constant(k), 2 ** (k - 1)
    if m < (j - 1) * half:
        p = m - (j - 2) * half
        return _div_exact((p - 1) * p * (p + 1), 6)
    if m < j * half:
        p = m - (j - 1) * half
        q = j * half - m
        return (
            2 * c
            + p * p * half
            - _div_exact((q - 1) * q * (q + 1), 6)
            - _div_exact(2 * (p - 1) * p * (p + 1), 3)
        )
    if m < (j + 1) * half:
        p = (j + 1) * half - m
        q = m - j * half
        return (
            2 * c
            + p * p * half
            - _div_exact((q - 1) * q * (q + 1), 6)
            - _div_exact(2 * (p - 1) * p * (p + 1), 3)
        )
    p = (j + 2) * half - m
    return _div_exact((p - 1) * p * (p + 1), 6)


def coefficient(j: int, m: int, k: int) -> int:
    """Exact integer coefficient of fine band a_m in unscaled coarse band a_j
    after (k-1) unnormalised coarsening steps (k >= 2)."""
    if k < 2:
        raise ValueError(f"coefficient tables require k >= 2, got {k}")
    if j < 0 or m < 0:
        raise ValueError("band indices must be non-negative")
    half = 2 ** (k - 1)
    if j == 0:
        return _coeff_j0(m, k) if m < 2 * half else 0
    if j == 1:
        return _coeff_j1(m, k) if m < 3 * half else 0
    if m < (j - 2) * half or m >= (j + 2) * half:
        return 0
    return _coeff_jge2(j, m, k)


def coefficient_table(j: int, k: int) -> tuple[int, list[int]]:
    """Return ``(m_offset, coefficients)`` covering the support of band j."""
    half = 2 ** (k - 1)
    if j == 0:
        lo, hi = 0, 2 * half
    elif j == 1:
        lo, hi = 0, 3 * half
    else:
        lo, hi = max((j - 2) * half, 0), (j + 2) * half
    return lo, [coefficient(j, m, k) for m in range(lo, hi)]


def mu_decomposition(a0: float, a1: float, k: int) -> tuple[float, float]:
    """Split the level-k coarse stencil into mu1 * tridiag(-1, 2, -1) +
    mu2 * tridiag(1, 2, 1); mu1 > 0 and mu2 >= 0 for eligible input."""
    c = float(c_constant(k))
    half = 2.0 ** (k - 1)
    scale = 4.0 * 8.0 ** (k - 1)
    mu1 = (2.0 * c * (a0 + 2.0 * a1) + half * (a0 - 2.0 * a1)) / scale
    mu2 = (6.0 * c + half) * (a0 + 2.0 * a1) / scale
    return mu1, mu2


def split_ratio(a0: float, a1: float, k: int) -> float:
    """Ratio of averaging-part to Laplacian-part weight of the level-k stencil."""
    c = float(c_constant(k))
    half = 2.0 ** (k - 1)
    num = (6.0 * c + half) * (a0 + 2.0 * a1)
    den = (2.0 * c + half) * (a0 + 2.0 * a1) - 2.0 ** (k + 1) * a1
    return num / den


def approx_constant_sweep(a0: float, a1: float) -> float:
    """sup over levels k = 1..64 of (1 + split_ratio)**2.

    The ratio converges monotonically (it is a quotient of cubics in 2**k),
    so 64 levels over-cover any buildable hierarchy.
    """
    require_coarsenable(ToeplitzStencil((a0, a1)))
    best = max(split_ratio(a0, a1, k) for k in range(1, 65))
    return (1.0 + best) ** 2


def read_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a dump produced by ``fsd.write_csv``; returns (l, d)."""
    ls, ds = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            ls.append(float(row[1]))
            ds.append(complex(float(row[2]), float(row[3])))
    return np.array(ls), np.array(ds)


def unscaled_recursion(bands, steps: int):
    """Band recurrence of the unnormalised coarsening, applied ``steps`` times.

    Works on plain Python numbers, so integer input stays exact.
    """
    cur = list(bands)

    def at(seq, m):
        return seq[m] if m < len(seq) else 0

    for _ in range(steps):
        nxt = [6 * at(cur, 0) + 8 * at(cur, 1) + 2 * at(cur, 2)]
        j = 1
        while 2 * j - 2 < len(cur):
            nxt.append(
                at(cur, 2 * j - 2)
                + 4 * at(cur, 2 * j - 1)
                + 6 * at(cur, 2 * j)
                + 4 * at(cur, 2 * j + 1)
                + at(cur, 2 * j + 2)
            )
            j += 1
        cur = nxt
    return cur


def binomial_weights(alpha: float, count: int) -> np.ndarray:
    """(-1)**k * C(alpha, k) via the ratio recurrence."""
    g = np.zeros(count + 1)
    g[0] = 1.0
    for k in range(1, count + 1):
        g[k] = g[k - 1] * (k - 1.0 - alpha) / k
    return g


def naive_series_power(w, alpha: float, count: int) -> np.ndarray:
    """Taylor coefficients of (sum w_j z**j)**alpha by binomial expansion.

    Writes w = w0 * (1 + u) with u of valuation >= 1 and sums
    C(alpha, n) * u**n with plain convolution; terms beyond n = count cannot
    touch the kept degrees, so the truncated sum is exact as a formal series.
    The expansion cancels catastrophically in double precision, so the
    arithmetic runs at 50 decimal digits and is rounded at the end.
    """
    from mpmath import mp, mpf

    with mp.workdps(50):
        a = mpf(alpha)
        u = [mpf(0)] * (count + 1)
        for j in range(1, len(w)):
            if j <= count:
                u[j] = mpf(w[j]) / mpf(w[0])
        out = [mpf(0)] * (count + 1)
        out[0] = mpf(1)
        term = [mpf(0)] * (count + 1)
        term[0] = mpf(1)
        coeff = mpf(1)
        for n in range(1, count + 1):
            coeff *= (a - (n - 1)) / n
            nxt = [mpf(0)] * (count + 1)
            for i in range(count + 1):
                if term[i] == 0:
                    continue
                for j in range(1, min(len(w) - 1, count - i) + 1):
                    nxt[i + j] += term[i] * u[j]
            term = nxt
            for i in range(count + 1):
                out[i] += coeff * term[i]
        scale = mpf(w[0]) ** a
        return np.array([float(scale * v) for v in out])


def random_eligible_tridiag(rng, strict: bool = False):
    """Random (a0, a1) passing the eligibility test, away from the rejected
    a0 == 2*a1 > 0 boundary."""
    a0 = rng.uniform(0.5, 10.0)
    frac = rng.uniform(-1.0, 0.9 if strict else 1.0)
    if strict:
        frac *= 0.95
    a1 = 0.5 * a0 * frac
    if a1 > 0 and a0 - 2 * a1 < 1e-6 * a0:
        a1 = 0.45 * a0
    return a0, a1


def gershgorin_bound(op) -> float:
    """Upper bound on the largest eigenvalue of a stencil, ``a_0 + 2|a_1|``,
    or of a Kronecker sum, its form over its factors' bounds."""
    if isinstance(op, ToeplitzStencil):
        a0, a1 = op.bands
        return a0 + 2.0 * abs(a1)
    return float(stencil._kron_sum(op, gershgorin_bound(op.mass), gershgorin_bound(op.stiff)))


def reference_apply(op, x):
    """The operator on a grid: a zero-padded copy and a fresh multiply-add
    per point coefficient, in the package's ``points`` order."""
    centre, taps = op.points
    out = centre * x
    xp = np.zeros((x.shape[0] + 2,) * op.ndim, out.dtype)
    xp[(slice(1, -1),) * op.ndim] = x
    for window, c in taps:
        out += c * xp[window]
    return out


def reference_smooth(level, v, f, weight, steps):
    """Damped Jacobi, a new iterate per sweep."""
    scale = weight / level.diag
    for _ in range(steps):
        v = v + scale * (f - reference_apply(level.operator, v))
    return v


def reference_restrict(x):
    """Full weighting along axis 0, then the axes rotated, ndim times."""
    x = np.asarray(x)
    axes = (*range(1, x.ndim), 0)  # moves the first axis last; ndim times is the identity
    for _ in axes:
        mc = (x.shape[0] - 1) // 2
        x = (0.25 * (x[0 : 2 * mc - 1 : 2] + 2.0 * x[1::2] + x[2::2])).transpose(axes)
    return x


def reference_prolong(x):
    """Linear interpolation along axis 0 into zeros, then the axes rotated."""
    x = np.asarray(x)
    axes = (*range(1, x.ndim), 0)
    for _ in axes:
        out = np.zeros((2 * x.shape[0] + 1,) + x.shape[1:], dtype=x.dtype)
        out[1::2] = x
        out[2:-1:2] = 0.5 * (x[:-1] + x[1:])
        out[0] = 0.5 * x[0]
        out[-1] = 0.5 * x[-1]
        x = out.transpose(axes)
    return x


def _grid(x) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim not in (1, 2):
        raise DimensionError(f"expected a 1D or 2D grid, got shape {x.shape}")
    return x


def _row_buffer(shape: tuple, dtype) -> np.ndarray | None:
    """A new zeroed row buffer of the 2D transfers of a fine grid of
    ``shape``; ``None`` in 1D."""
    return np.zeros(transfer.row_buffer(shape, 1), dtype) if len(shape) == 2 else None


def restrict(x: np.ndarray) -> np.ndarray:
    """The package's ``transfer.restriction`` of the grid ``x``, bound to
    fresh buffers and run by ``run_numpy``, as a new array."""
    x = _grid(x)
    coarse = tuple(transfer._coarse_size(m) for m in x.shape)
    dtype = np.result_type(x, 0.25)
    fine = np.zeros(math.prod(run_shape(x.shape)), dtype)
    interior(fine, x.shape)[...] = x
    out = np.empty(math.prod(run_shape(coarse)), dtype)
    run_numpy((transfer.restriction(fine, out, x.shape, _row_buffer(x.shape, dtype)),))
    return interior(out, coarse).copy()


def prolong(x: np.ndarray) -> np.ndarray:
    """The package's ``transfer.prolongation`` of the grid ``x``, added onto
    zeros in fresh buffers by ``run_numpy``, as a new array."""
    x = _grid(x)
    for m in x.shape:
        grid_depth(m)
    shape = tuple(2 * m + 1 for m in x.shape)
    dtype = np.result_type(x, 0.5)
    rows = run_shape(x.shape)
    block = math.prod(rows[1:])
    framed = np.zeros(math.prod(rows) + 2 * block, dtype)
    interior(framed[block:-block], x.shape)[...] = x
    out = np.zeros(math.prod(run_shape(shape)), dtype)
    run_numpy((transfer.prolongation(framed, out, shape, _row_buffer(shape, dtype)),))
    return interior(out, shape).copy()


def reference_vcycle(h, v, f, level: int = 0):
    """V-cycle that starts each coarse level from an explicit zero vector and
    smooths it through the operator, allocating every intermediate, with
    its own apply, smoother and transfers in the package's operation order,
    so its result must equal ``multigrid.vcycle`` bit for bit."""
    lv = h.levels[level]
    if level == h.depth - 1:
        return f / lv.diag
    shape, v, f = np.shape(f), np.reshape(v, lv.shape), np.reshape(f, lv.shape)
    v = reference_smooth(lv, v, f, h.omega_pre, h.pre_count)
    coarse_rhs = reference_restrict(f - reference_apply(lv.operator, v))
    e = reference_vcycle(h, np.zeros_like(coarse_rhs), coarse_rhs, level + 1)
    v = v + reference_prolong(e)
    return reference_smooth(lv, v, f, h.omega_post, h.post_smooths).reshape(shape)


def lane_sum(x) -> float:
    """The sum of the values ``x`` in the order of ``executor.dot``, in
    plain Python: 8 lanes, lane j the running sum of x_k over k = j (mod 8)
    in index order, from 0, the lanes then added as
    ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))."""
    lanes = [0.0] * 8
    for k, v in enumerate(map(float, x)):
        lanes[k % 8] = lanes[k % 8] + v
    l0, l1, l2, l3, l4, l5, l6, l7 = lanes
    return ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))


def history_sum(w, levels, hi: int, j: int) -> np.ndarray:
    """sum_{k=1..hi} w_{j-k} levels[k] in the order of ``executor.convolve``,
    in plain Python: each element from 0.0 in ascending k, acc + w h on real
    data, and on complex data acc_re + (w_re h_re - w_im h_im) and acc_im +
    (w_re h_im + w_im h_re), each operation one Python float's."""
    if not np.iscomplexobj(levels):
        out = []
        for e in range(levels.shape[1]):
            acc = 0.0
            for k in range(1, hi + 1):
                acc = acc + float(w[j - k]) * float(levels[k][e])
            out.append(acc)
        return np.array(out, float)
    re, im = [], []
    for e in range(levels.shape[1]):
        a, b = 0.0, 0.0
        for k in range(1, hi + 1):
            x, h = complex(w[j - k]), complex(levels[k][e])
            a = a + (x.real * h.real - x.imag * h.imag)
            b = b + (x.real * h.imag + x.imag * h.real)
        re.append(a)
        im.append(b)
    out = np.empty(levels.shape[1], complex)
    out.real, out.imag = re, im
    return out


def lane_squares(x) -> float:
    """The sum of the squares of the values ``x`` in the order of a solve's
    norm (``lane_sum``), in plain Python."""
    return lane_sum(v * v for v in map(float, x))


def run_of(x) -> np.ndarray:
    """The grid ``x`` in the tapes' run layout, as a new flat array: along
    the last axis each row holds, per part (the real one, then for complex
    data the imaginary one), its points and then one zero pad cell."""
    x = np.asarray(x)
    parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
    pad = [(0, 0)] * (x.ndim - 1) + [(0, 1)]
    return np.concatenate([np.pad(part, pad) for part in parts], axis=-1).ravel()


def reference_solve(h, f, v0, tol: float, max_iter: int = 200):
    """``multigrid.solve`` from ``v0`` as a loop of ``reference_vcycle``: the
    flat solution and the relative residual norms, each taken from a fresh
    grid ``f - A v`` as ``solve`` takes them, the ``lane_squares`` of its
    one run (``run_of``)."""
    op, shape = h.fine.operator, h.fine.shape
    f, v = np.reshape(f, shape), np.reshape(v0, shape)

    def residual_norm(v):
        return math.sqrt(lane_squares(run_of(f - reference_apply(op, v))))

    r0, residuals = residual_norm(v), []
    for _ in range(max_iter):
        v = reference_vcycle(h, v, f)
        residuals.append(residual_norm(v) / r0)
        if residuals[-1] < tol:
            break
    return v.ravel(), residuals


def reference_contraction(h, trials: int = 4, iters: int = 12, discard: int = 3, seed: int = 0):
    """``multigrid.measure_contraction`` as a loop of ``reference_vcycle`` on
    f = 0 from the same random errors, each scaled to unit norm, each energy
    norm sqrt((A e, e)) taken with ``reference_apply``; both inner products
    the ``lane_sum`` of the products over the runs (``run_of``)."""
    rng = np.random.default_rng(seed)
    lv = h.fine
    zero = np.zeros(lv.shape)

    def energy(e):
        return math.sqrt(max(lane_sum(run_of(e) * run_of(reference_apply(lv.operator, e))), 0.0))

    worst = 0.0
    for _ in range(trials):
        e = rng.standard_normal(lv.unknowns).reshape(lv.shape)
        e /= math.sqrt(lane_squares(run_of(e)))
        prev = energy(e)
        for i in range(1, iters + 1):
            e = reference_vcycle(h, e, zero)
            cur = energy(e)
            if not math.isfinite(cur):
                return math.inf
            if prev <= 1e-300:
                break
            if i > discard:
                worst = max(worst, cur / prev)
            prev = cur
    return worst


def naive_level_rhs(ev, n: int) -> np.ndarray:
    """Level-n right-hand side of a 1D or 2D ``Evolution``, rebuilt
    with plain Python loops (no matmul, no stencil apply) from the stepper's
    ``history``, ``l``, ``decay`` and ``mu`` and the problem's forcing and
    boundary traces.

    Every grid value, and in 1D each wall's ghost value, gets the tempered
    memory sum S_n d_n G^0 - sum_{k=1..n-1} d_k l_k G^{n-k} + tau**alpha F^n
    with S_n = l_0 + ... + l_{n-1} and d_k = e^{-rho k tau}.  In 1D the sum is
    then weighted by H = (1/12) tridiag(1, 10, 1), truncated at the walls, and
    each wall row gets the Dirichlet completion mu g^n + (ghost - l_0 g^n) / 12.
    This is the naive history convolution any fast one must reproduce.
    """
    p = ev.problem
    t = n * p.tau
    tau_alpha = p.tau**p.alpha
    s_n = sum(ev.l[k] for k in range(n))

    def memory(level, f):
        acc = s_n * ev.decay[n] * level(0)
        for k in range(1, n):
            acc -= ev.decay[k] * ev.l[k] * level(n - k)
        return acc + tau_alpha * f

    if p.ndim == 2:
        xg, yg = p.coords
        f = np.asarray(p.forcing(xg, yg, t), dtype=complex).ravel()
        return np.array([memory(lambda j: ev.history[j][i], f[i]) for i in range(f.size)])

    f = np.asarray(p.forcing(*p.coords, t), dtype=complex)
    u = [memory(lambda j: ev.history[j][i], f[i]) for i in range(p.m)]
    rhs = []
    for i in range(p.m):
        left = u[i - 1] if i > 0 else 0.0
        right = u[i + 1] if i < p.m - 1 else 0.0
        rhs.append((left + 10.0 * u[i] + right) / 12.0)
    for pos, bc, x_ghost in ((0, p.bc_left, 0.0), (p.m - 1, p.bc_right, p.length)):
        g_n = complex(bc(t))
        f_ghost = complex(p.forcing(np.array([x_ghost]), t)[0])
        ghost = memory(lambda j: complex(bc(j * p.tau)), f_ghost)
        rhs[pos] += ev.mu * g_n + (ghost - ev.l[0] * g_n) / 12.0
    return np.array(rhs)


def dense_approximate_inverse(h: MgHierarchy) -> np.ndarray:
    """Materialise B, the linear map applied by one zero-start V-cycle."""
    n = h.fine.unknowns
    cols = []
    for j in range(n):
        ej = np.zeros(n)
        ej[j] = 1.0
        cols.append(vcycle(h, None, ej))
    return np.column_stack(cols)


def dense_operator(h: MgHierarchy) -> np.ndarray:
    return kron_sum_dense(h.fine.operator, h.fine.m)


def dense_contraction_norm(h: MgHierarchy) -> float:
    """Exact ||I - B A||_A via dense materialisation (small grids only)."""
    a = dense_operator(h)
    b = dense_approximate_inverse(h)
    n = a.shape[0]
    prop = np.eye(n) - b @ a
    evals, evecs = np.linalg.eigh(a)
    if evals.min() <= 0.0:
        raise EligibilityError("fine operator is not positive definite")
    root = evecs @ np.diag(np.sqrt(evals)) @ evecs.T
    inv_root = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T
    return float(np.linalg.norm(root @ prop @ inv_root, 2))
