"""Brute-force oracles shared by the estimator and acceptance tests.

Everything here is deliberately independent of the closed-form solver
paths: plain grids, explicit loops, and generic optimizers only.
"""

import numpy as np

from adaptik.spectral import INFINITE_LAMBDA, tikhonov_solve


def inner_objective(f, g, b_cross, m):
    """E_n[2 m(W;f) - 2 h(X) f(Z) - f(Z)^2] as a function of f-coefficients."""
    return 2.0 * g @ f - 2.0 * b_cross @ f - f @ m @ f


def grid_inner_max(g, b_cross, m, lo=-3.0, hi=3.0, step=1e-3):
    """Exhaustive grid maximum of the inner objective (J = 1 or 2)."""
    j = g.size
    grid = np.arange(lo, hi + step / 2, step)
    if j == 1:
        vals = 2.0 * (g[0] - b_cross[0]) * grid - m[0, 0] * grid**2
        i = int(np.argmax(vals))
        return np.array([grid[i]]), float(vals[i])
    best_val = -np.inf
    best_f = None
    # blocked evaluation over f1 rows to keep memory flat
    f2 = grid
    quad2 = m[1, 1] * f2**2
    lin2 = 2.0 * (g[1] - b_cross[1]) * f2
    for start in range(0, grid.size, 512):
        f1 = grid[start : start + 512][:, None]
        vals = (
            2.0 * (g[0] - b_cross[0]) * f1
            - m[0, 0] * f1**2
            + lin2[None, :]
            - quad2[None, :]
            - 2.0 * m[0, 1] * f1 * f2[None, :]
        )
        i, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[i, k] > best_val:
            best_val = float(vals[i, k])
            best_f = np.array([f1[i, 0], f2[k]])
    return best_f, best_val


def row_major_evaluate(basis, pts):
    """basis.evaluate(pts) written column by column into a row-major (m, K)
    array, one elementwise operation per value as the basis code applies
    them, for the polynomial, trigonometric and additive kinds."""
    pts = np.asarray(pts, dtype=np.float64)
    m = pts.shape[0]
    out = np.ones((m, basis.n_funcs))
    if basis.kind == "polynomial":
        expo = np.asarray(basis.params["exponents"], dtype=np.float64)
        for j in range(basis.input_dim):
            for k in range(basis.n_funcs):
                if expo[k, j]:
                    out[:, k] *= pts[:, j] ** expo[k, j]
    elif basis.kind == "trigonometric":
        # sin x, cos x from libm, then sin fx, cos fx by angle addition
        s1, c1 = np.sin(pts[:, 0]), np.cos(pts[:, 0])
        for k in range(1, basis.n_funcs):
            if k <= 2:
                out[:, k] = s1 if k == 1 else c1
            elif k % 2 == 1:
                out[:, k] = out[:, k - 2] * c1 + out[:, k - 1] * s1
            else:
                out[:, k] = out[:, k - 2] * c1 - out[:, k - 3] * s1
    else:
        powers, treat_col, interact_cols = basis.params["additive"]
        cols = [np.ones(m)]
        if treat_col is not None:
            cols.append(pts[:, treat_col])
        for j in range(pts.shape[1]):
            if j != treat_col:
                pw = [pts[:, j]]
                for _ in range(1, max(powers)):
                    pw.append(pw[-1] * pts[:, j])
                cols.extend(pw[e - 1] for e in powers)
        cols.extend(pts[:, treat_col] * pts[:, j] for j in interact_cols)
        out = np.column_stack(cols)
    out *= basis.normalization
    return out


def trae_mats(data, moment, basis_h, basis_f):
    """The (M, g, B, G_h) matrices of the adversarial problem, rebuilt
    plainly: g = mean(m(W; phi)), B = Phi'Psi/n on separately evaluated
    row-major values."""
    hyp = np.ascontiguousarray(basis_h.evaluate(data.x))
    adv = np.ascontiguousarray(basis_f.evaluate(data.z))
    m = adv.T @ adv / data.n
    g = moment.matrix(data.z, data.y, basis_f).mean(axis=0)
    b = adv.T @ hyp / data.n
    return m, g, b, hyp.T @ hyp / data.n


def dense_inner_max(data, moment, basis_h, basis_f, coeffs):
    """The exact maximum of E_n[2 m(W; f) - 2 h(X) f(Z) - f(Z)^2] over the
    span of basis_f at h = basis_h c: (g - B c)' M^{-1} (g - B c), by one
    dense solve on trae_mats."""
    m, g, b, _ = trae_mats(data, moment, basis_h, basis_f)
    v = g - b @ np.asarray(coeffs, dtype=np.float64)
    return float(v @ np.linalg.solve(m, v))


def rdiv_loss(data, b, basis_z, coeffs):
    """RDIV's empirical loss (1/n) sum_i (y_i - phi(z_i)' B c)^2: the
    residual of y against Phi B c, with Phi from basis_z.evaluate."""
    phi = basis_z.evaluate(data.z)
    resid = data.y - phi @ (b @ np.asarray(coeffs, dtype=np.float64))
    return float(resid @ resid / data.n)


def trae_reference_system(data, moment, basis_h, basis_f, ridge_inner):
    """(A, rhs, const, G_h) of TRAE's quadratic with inner ridge
    ridge_inner, from trae_mats and a dense solve."""
    m, g, b, gram_h = trae_mats(data, moment, basis_h, basis_f)
    minv = np.linalg.solve(m + ridge_inner * np.eye(len(g)),
                           np.column_stack([g, b]))
    return b.T @ minv[:, 1:], b.T @ minv[:, 0], g @ minv[:, 0], gram_h


def rdiv_reference_system(data, b, basis_x, basis_z):
    """(A, rhs, const, G_x) of RDIV stage 2 on data with stage-1 operator
    B, from the n-row product Phi B: A = (Phi B)'(Phi B)/n."""
    phi = np.ascontiguousarray(basis_z.evaluate(data.z))
    psi = np.ascontiguousarray(basis_x.evaluate(data.x))
    fitted = phi @ b
    n = data.n
    return (fitted.T @ fitted / n, fitted.T @ data.y / n, data.y @ data.y / n,
            psi.T @ psi / n)


def dense_tikhonov(system, lam):
    """(coefficients, loss) minimizing const - 2 rhs'c + c'A c + lam c'G c
    by one dense solve of (A + lam G) c = rhs."""
    a, rhs, const, gram = system
    c = np.linalg.solve(a + lam * gram, rhs)
    return c, float(const - 2.0 * rhs @ c + c @ a @ c)


def nested_grid_trae_objective(data, moment, basis_h, basis_f, lam,
                               outer_step=0.1, inner_step=0.05, box=3.0):
    """min over an outer c-grid of [grid-inner-max + lam * ||h_c||_{2,n}^2]."""
    m, g, b, gram_h = trae_mats(data, moment, basis_h, basis_f)
    k = b.shape[1]
    axis = np.arange(-box, box + outer_step / 2, outer_step)
    if k == 1:
        c_grid = axis[:, None]
    else:
        c_grid = np.array([[a, bb] for a in axis for bb in axis])
    f_axis = np.arange(-box, box + inner_step / 2, inner_step)
    if g.size == 1:
        f_grid = f_axis[:, None]
    else:
        f_grid = np.array([[a, bb] for a in f_axis for bb in f_axis])
    # inner objective over all (f, c) pairs: max over f per c, done in blocks
    const_f = 2.0 * f_grid @ g - np.einsum("ij,jk,ik->i", f_grid, m, f_grid)
    cross = f_grid @ b  # (n_f, K)
    best = np.full(c_grid.shape[0], -np.inf)
    for start in range(0, c_grid.shape[0], 256):
        block = c_grid[start : start + 256]
        vals = const_f[:, None] - 2.0 * cross @ block.T
        best[start : start + 256] = vals.max(axis=0)
    penalties = np.einsum("ij,jk,ik->i", c_grid, gram_h, c_grid)
    total = best + lam * penalties
    i = int(np.argmin(total))
    return float(total[i]), c_grid[i]


def path_shows_bracket(path, delta):
    """Whether the last two (lambda, loss) pairs of a DP path show
    loss(lam) <= delta <= loss(lam_prev) with lam_prev <= 2 lam."""
    if len(path) < 2:
        return False
    (lam_prev, loss_prev), (lam, loss) = path[-2:]
    return lam_prev <= 2.0 * lam and loss <= delta <= loss_prev


def dp_walk(system, delta, lambda0, rho, max_iters):
    """The discrepancy search one grid point at a time: a full solve at
    lam = lambda0, lambda0 * rho, ... (by repeated multiplication) until
    the loss reaches delta or max_iters points are tried.  Returns (the
    (lam, loss) pairs, the last fit, converged, bracket_ok)."""
    lam = float(lambda0)
    path = []
    converged = False
    for _ in range(max_iters):
        fit = system.solve(lam)
        path.append((lam, fit.empirical_loss))
        if fit.empirical_loss <= delta:
            converged = True
            break
        lam = lam * rho
    bracket_ok = (converged and len(path) >= 2 and path[-2][1] >= delta
                  and path[-2][0] <= 2.0 * path[-1][0])
    return path, fit, converged, bracket_ok


def residual_norm(prob, r, coeffs):
    """||T h - r|| of candidate coefficients against the observed data,
    formed directly from the coefficients."""
    return float(np.linalg.norm(prob.singular_values * coeffs - r.r_coeffs))


def classical_dp_walk(prob, r, k, lambda0, rho, max_steps):
    """The classical discrepancy rule one grid point at a time: a full
    Tikhonov solve and its residual norm at lam = lambda0, lambda0 * rho,
    ... (by repeated multiplication).  Returns (grid index, lam, coefficients),
    (None, inf, zeros) for pure noise, or None when max_steps grid
    points all miss the bound.

    The residual is r - T h of the solved coefficients h.  Formed so, it
    is off by at most 8 eps ||r||; where that is too coarse to tell it from
    the bound, the walk decides on its filter form r lam / (sigma^2 + lam)."""
    r_norm = float(np.linalg.norm(r.r_coeffs))
    threshold = k * r.delta
    if r_norm <= threshold:
        return None, INFINITE_LAMBDA, np.zeros(prob.dim)
    sig = prob.singular_values
    rounding = 8.0 * np.finfo(np.float64).eps * r_norm
    lam = float(lambda0)
    for j in range(max_steps):
        sol = tikhonov_solve(prob, r, lam)
        norm = residual_norm(prob, r, sol)
        if abs(norm - threshold) <= rounding:
            norm = float(np.linalg.norm(r.r_coeffs * (lam / (sig**2 + lam))))
        if norm <= threshold:
            return j, lam, sol
        lam *= rho
    return None
