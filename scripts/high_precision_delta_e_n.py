"""Write the high-precision setting-2 entanglement drop used as a regression table.

Evaluates delta_E_N = (arccosh(2 nu_0) - arccosh(2 nu_1)) / ln 2 for the
setting-2 layout (measured block {0..2 ell}, target N/2 + ell) at N = 100,
alpha = a1 = 0.9, omega = 1, with every step in 50-digit arithmetic: the
correlator mode sums, the two block solves and the difference itself.  At
small ell the drop is about 1e-22, far below double-precision round-off of
the two O(1) negativities, which is why the table is computed this way.

Run from the repository root:

    python scripts/high_precision_delta_e_n.py

It needs mpmath; the package and its tests do not.
"""

from pathlib import Path

import mpmath as mp

N_SITES = 100
ALPHA = mp.mpf(0.9)  # the double nearest 0.9, as the package receives it
OMEGA = mp.mpf(1)
ELLS = (1, 2, 5)
OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "setting2_delta_e_n_a1.csv"


def correlators(n_sites, alpha):
    theta = [2 * mp.pi * k / n_sites for k in range(n_sites)]
    w = [mp.sqrt(1 - alpha * mp.cos(t)) for t in theta]
    g = [mp.fsum(mp.cos(r * t) / (2 * wk) for t, wk in zip(theta, w)) / n_sites for r in range(n_sites)]
    h = [mp.fsum(mp.cos(r * t) * wk / 2 for t, wk in zip(theta, w)) / n_sites for r in range(n_sites)]
    return g, h


def delta_e_n(g, h, ell):
    size = 2 * ell + 1
    target = N_SITES // 2 + ell
    t_p = mp.matrix(size, size)
    t_q = mp.matrix(size, size)
    for a in range(size):
        for b in range(size):
            t_p[a, b] = h[abs(a - b)] + (OMEGA / 2 if a == b else 0)
            t_q[a, b] = g[abs(a - b)] + (1 / (2 * OMEGA) if a == b else 0)
    j = mp.matrix([h[target - a] for a in range(size)])
    g_b = mp.matrix([g[target - a] for a in range(size)])
    dp = (j.T * mp.lu_solve(t_p, j))[0]
    dq = (g_b.T * mp.lu_solve(t_q, g_b))[0]
    nu0 = mp.sqrt(g[0] * h[0])
    nu1 = mp.sqrt((g[0] - dq) * (h[0] - dp))
    return (mp.acosh(2 * nu0) - mp.acosh(2 * nu1)) / mp.log(2)


def main():
    mp.mp.dps = 50
    g, h = correlators(N_SITES, ALPHA)
    lines = ["N,alpha,omega,ell,delta_E_N"]
    for ell in ELLS:
        lines.append(f"{N_SITES},{mp.nstr(ALPHA, 3)},{mp.nstr(OMEGA, 3)},{ell},{mp.nstr(delta_e_n(g, h, ell), 15)}")
    OUT.write_text("\n".join(lines) + "\n")
    print(OUT.read_text(), end="")


if __name__ == "__main__":
    main()
