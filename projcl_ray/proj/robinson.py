"""Robinson (sphere only, table-driven).

Semantics per `kernel/pl_project_robinson.opencl`: 5°-interval cubic-spline
coefficient tables (public constants originating from the PROJ project /
proj-4 mailing list, as the reference's own comment cites), forward = spline
eval × FXC/FYC, inverse = table-interval search + Newton on the Y spline.
Host prep (`src/projcl_run.c:568-586`) passes scale·R and x0/y0 only — no
λ0/φ0 support.
"""

from __future__ import annotations

import numpy as np

from .base import (
    as_float,
    DEG_TO_RAD,
    RAD_TO_DEG,
    PreparedProjection,
    ProjParams,
    dtype_tol,
    newton_rows,
    register,
)

FXC = 0.8487
FYC = 1.3523
C1 = 11.45915590261646417544  # (180/π)/5 — radians→5° interval index
RC1 = 0.08726646259971647884  # 5° in radians
NODES = 18

# Spline coefficients (value, d1, d2, d3) per 5° node, X then Y.
_X = np.array(
    [
        [1, 2.2199e-17, -7.15515e-05, 3.1103e-06],
        [0.9986, -0.000482243, -2.4897e-05, -1.3309e-06],
        [0.9954, -0.00083103, -4.48605e-05, -9.86701e-07],
        [0.99, -0.00135364, -5.9661e-05, 3.6777e-06],
        [0.9822, -0.00167442, -4.49547e-06, -5.72411e-06],
        [0.973, -0.00214868, -9.03571e-05, 1.8736e-08],
        [0.96, -0.00305085, -9.00761e-05, 1.64917e-06],
        [0.9427, -0.00382792, -6.53386e-05, -2.6154e-06],
        [0.9216, -0.00467746, -0.00010457, 4.81243e-06],
        [0.8962, -0.00536223, -3.23831e-05, -5.43432e-06],
        [0.8679, -0.00609363, -0.000113898, 3.32484e-06],
        [0.835, -0.00698325, -6.40253e-05, 9.34959e-07],
        [0.7986, -0.00755338, -5.00009e-05, 9.35324e-07],
        [0.7597, -0.00798324, -3.5971e-05, -2.27626e-06],
        [0.7186, -0.00851367, -7.01149e-05, -8.6303e-06],
        [0.6732, -0.00986209, -0.000199569, 1.91974e-05],
        [0.6213, -0.010418, 8.83923e-05, 6.24051e-06],
        [0.5722, -0.00906601, 0.000182, 6.24051e-06],
        [0.5322, -0.00677797, 0.000275608, 6.24051e-06],
    ],
    dtype=np.float64,
)
_Y = np.array(
    [
        [-5.20417e-18, 0.0124, 1.21431e-18, -8.45284e-11],
        [0.062, 0.0124, -1.26793e-09, 4.22642e-10],
        [0.124, 0.0124, 5.07171e-09, -1.60604e-09],
        [0.186, 0.0123999, -1.90189e-08, 6.00152e-09],
        [0.248, 0.0124002, 7.10039e-08, -2.24e-08],
        [0.31, 0.0123992, -2.64997e-07, 8.35986e-08],
        [0.372, 0.0124029, 9.88983e-07, -3.11994e-07],
        [0.434, 0.0123893, -3.69093e-06, -4.35621e-07],
        [0.4958, 0.0123198, -1.02252e-05, -3.45523e-07],
        [0.5571, 0.0121916, -1.54081e-05, -5.82288e-07],
        [0.6176, 0.0119938, -2.41424e-05, -5.25327e-07],
        [0.6769, 0.011713, -3.20223e-05, -5.16405e-07],
        [0.7346, 0.0113541, -3.97684e-05, -6.09052e-07],
        [0.7903, 0.0109107, -4.89042e-05, -1.04739e-06],
        [0.8435, 0.0103431, -6.4615e-05, -1.40374e-09],
        [0.8936, 0.00969686, -6.4636e-05, -8.547e-06],
        [0.9394, 0.00840947, -0.000192841, -4.2106e-06],
        [0.9761, 0.00616527, -0.000256, -4.2106e-06],
        [1, 0.00328947, -0.000319159, -4.2106e-06],
    ],
    dtype=np.float64,
)


def _v(c, z):
    """Cubic poly eval: c holds the 4 coefficient arrays, z the local offset."""
    return c[0] + z * (c[1] + z * (c[2] + z * c[3]))


def _dv(c, z):
    return c[1] + z * (2.0 * c[2] + z * 3.0 * c[3])


@register("robinson")
def prepare_robinson(params: ProjParams) -> PreparedProjection:
    if not params.spherical:
        raise ValueError("robinson is sphere-only in the reference (no _e kernels)")
    info = params.info
    x0, y0 = params.x0, params.y0
    k = params.scale * info.major_axis
    # coefficient-major tables in each working dtype, so float32 stays float32
    tables = {np.dtype(dt): (_X.T.astype(dt), _Y.T.astype(dt)) for dt in (np.float32, np.float64)}

    def forward(lon, lat):
        lam = as_float(lon) * DEG_TO_RAD
        phi = as_float(lat) * DEG_TO_RAD
        X, Y = tables[phi.dtype]
        dphi = np.abs(phi)
        # fmin maps NaN to the last node: the row stays NaN, the gather in range
        fidx = np.floor(np.fmin(dphi * C1, NODES - 1))
        index = fidx.astype(np.int64)
        z = (dphi - RC1 * fidx) * RAD_TO_DEG
        x = _v(X[:, index], z) * FXC * lam
        y = np.copysign(_v(Y[:, index], z) * FYC, phi)
        return x0 + k * x, y0 + k * y

    def inverse(x, y):
        xx = (as_float(x) - x0) / k
        yy = (as_float(y) - y0) / k
        X, Y = tables[yy.dtype]
        lam = xx / FXC
        phi_abs = np.abs(yy / FYC)
        polar = phi_abs >= 1.0
        lam = np.where(polar, lam / X[0, NODES], lam)

        # general case: locate the Y-table interval containing phi_abs
        pa = np.clip(phi_abs, 0.0, 1.0)
        index = np.fmin(np.floor(pa * NODES), NODES - 1).astype(np.int64)  # NaN → last node
        # correct the guess by scanning (tables are monotone; at most a few steps)
        for _ in range(NODES):
            too_high = Y[0, index] > pa
            too_low = Y[0, np.minimum(index + 1, NODES)] <= pa
            step = np.where(too_high, -1, np.where(too_low, 1, 0))
            if not np.any(step):
                break
            index = np.clip(index + step, 0, NODES - 1)

        c = Y[:, index]
        t = 5.0 * (pa - c[0]) / (Y[0, np.minimum(index + 1, NODES)] - c[0])
        c[0] -= pa
        (t,) = newton_rows(lambda t, *c: (_v(c, t) / _dv(c, t),), (t,), tuple(c),
                           50, dtype_tol(xx, 1e-12, 1e-6))
        gen_phi = (5.0 * index.astype(t.dtype) + t) * DEG_TO_RAD
        gen_lam = lam / _v(X[:, index], t)
        phi = np.where(polar, np.pi / 2, gen_phi)
        lam = np.where(polar, lam, gen_lam)
        phi = np.copysign(phi, np.where(yy == 0.0, 1.0, yy))
        return lam * RAD_TO_DEG, phi * RAD_TO_DEG

    return PreparedProjection("robinson", params, forward, inverse)
