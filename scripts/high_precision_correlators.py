"""Write high-precision ring correlators used as a regression table.

Evaluates the mode sums

    g_r = (1/N) sum_k cos(r theta_k) / (2 omega_k),
    h_r = (1/N) sum_k (omega_k / 2) cos(r theta_k),

with theta_k = 2 pi k / N and omega_k = sqrt(1 - alpha cos theta_k), in
50-digit arithmetic at r = 0..N/2 (the rest mirror them) for
N in {100, 400} and alpha in {0.3, a1 = 0.9, a4 = 1 - 1e-7}.  Each alpha is
the double the package receives, taken exactly.  One file per N, with 25
significant digits per value: tests/data/correlators_n<N>.csv.  The
absolute error is about 1e-51, so every value above 1e-25 is correct to
all printed digits (a 70-digit run prints the same strings there).

Run from the repository root:

    python scripts/high_precision_correlators.py

It needs mpmath; the package and its tests do not.
"""

from pathlib import Path

import mpmath as mp

SIZES = (100, 400)
ALPHAS = (0.3, 0.9, 1.0 - 1e-7)
DIGITS = 25
OUT_DIR = Path(__file__).resolve().parent.parent / "tests" / "data"


def correlators(n_sites, alpha):
    """(g_r, h_r) for r = 0..n_sites/2, with cos(r theta_k) read from a table of the N angles."""
    cosines = [mp.cos(2 * mp.pi * m / n_sites) for m in range(n_sites)]
    w = [mp.sqrt(1 - mp.mpf(alpha) * c) for c in cosines]
    rows = []
    for r in range(n_sites // 2 + 1):
        phases = [cosines[(r * k) % n_sites] for k in range(n_sites)]
        g = mp.fsum(c / (2 * wk) for c, wk in zip(phases, w)) / n_sites
        h = mp.fsum(c * wk / 2 for c, wk in zip(phases, w)) / n_sites
        rows.append((r, g, h))
    return rows


def main():
    mp.mp.dps = 50
    for n_sites in SIZES:
        lines = ["N,alpha,r,g,h"]
        for alpha in ALPHAS:
            for r, g, h in correlators(n_sites, alpha):
                lines.append(f"{n_sites},{alpha!r},{r},{mp.nstr(g, DIGITS)},{mp.nstr(h, DIGITS)}")
        out = OUT_DIR / f"correlators_n{n_sites}.csv"
        out.write_text("\n".join(lines) + "\n")
        print(f"{out}: {len(lines) - 1} rows")


if __name__ == "__main__":
    main()
