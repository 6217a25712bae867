#!/usr/bin/env python3
"""Scale ladder for the exact eigensystem of the Hubbard chain.

For each chain length L, builds a fresh model at t = 1 and u = 2 and times
two block solves from the terms' structure, neither forming the dense total
H: `gamma_for(h, Exact())`, which reads the eigenvalues alone, and the full
`h.total.eigensystem()`, which also forms the d x d eigenvector matrix. Up
to L = 5 it then forms the dense total H (timed) and times one dense complex
`np.linalg.eigh` of it (ratio = dense eigh / eigensystem), and checks that
both block spectra and gamma = -E0 agree with it within 1e-12 * max(1, |H|).
A rung whose eigenvectors are over the memory budget prints its values-only
time and the refusal, and the ladder goes on. BLAS runs on one thread unless
OPENBLAS_NUM_THREADS is set. Exits 1 on a disagreement.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from peigen import DimensionError, Exact, Hubbard1D, build_model, gamma_for  # noqa: E402

T, U = 1.0, 2.0
DENSE_MAX = 5  # largest L also given a dense eigh


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sites", type=int, nargs="+", default=[3, 4, 5])
    args = ap.parse_args(argv)

    gamma_for(build_model(Hubbard1D(2, T, U)), Exact())  # untimed warm-up
    ok = True
    print("L      d   gamma_for (s)   eigensystem (s)   dense total H (s)   dense eigh (s)   ratio   max |dE|")
    for L in args.sites:
        h = build_model(Hubbard1D(L, T, U))
        t0 = time.perf_counter()
        gamma = gamma_for(h, Exact())
        t1 = time.perf_counter()
        values_only = h.total.eigenvalues()
        line = f"{L:<2} {h.dim:6d}   {t1 - t0:13.4f}"
        try:
            evals, _ = h.total.eigensystem()
        except DimensionError as exc:
            print(f"{line}   refused: {exc}")
            continue
        t_eig = time.perf_counter() - t1
        line += f"   {t_eig:15.4f}"
        if L <= DENSE_MAX:
            t0 = time.perf_counter()
            m = h.total.mat
            t1 = time.perf_counter()
            dense = np.linalg.eigh(m)[0]
            t_dense = time.perf_counter() - t1
            err = max(float(np.abs(got - dense).max()) for got in (values_only, evals))
            err = max(err, abs(gamma + dense[0]))
            ok &= err <= 1e-12 * max(1.0, float(np.abs(dense).max()))
            line += f"   {t1 - t0:17.4f}   {t_dense:14.4f}   {t_dense / t_eig:5.1f}   {err:.1e}"
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
