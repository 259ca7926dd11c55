"""POD of the sharp-layer benchmark flow.

Builds the snapshot ensemble on a coarse mesh, extracts the POD basis,
and prints the eigenvalue spectrum together with the L2 and H1
truncation errors for a range of retained-mode counts. The H1 tail is
the quantity the filtering and ROM errors are later regressed against.

Run:  python3 demos/demo_pod_spectrum.py [mesh_n]
"""

import sys

import numpy as np

from romlab.exact import AnalyticSolution
from romlab.fe import assemble_mass, assemble_stiffness, build_space
from romlab.pod import (build_pod_basis, collapse, collect_snapshots,
                        default_times, truncation_errors)


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    print(f"mesh: {n} x {n} squares, P2 velocity "
          f"({2 * (2 * n + 1) ** 2} dofs)")

    space = build_space(n)
    m_op = assemble_mass(space)
    s_op = assemble_stiffness(space)
    solution = AnalyticSolution()
    snaps, rows = collect_snapshots(space, solution, default_times(1e-2, 1.0))
    basis = build_pod_basis(snaps, rows, collapse(m_op, rows),
                            collapse(s_op, rows))

    print(f"snapshots: {snaps.shape[1]} on {snaps.shape[0]} distinct rows, "
          f"POD rank d = {basis.d}")
    print("\nleading eigenvalues:")
    for j in range(0, min(basis.d, 20), 4):
        lam = basis.eigenvalues[j:j + 4]
        print("  " + "  ".join(f"lambda_{j + k + 1:<3d}= {v:.3e}"
                               for k, v in enumerate(lam)))

    print(f"\n{'r':>4} {'Lambda_L2':>12} {'Lambda_H1':>12}")
    for r in sorted({min(v, basis.d) for v in (5, 10, 20, 30, 40, 50)}):
        lam_l2, lam_h1 = truncation_errors(basis, r)
        print(f"{r:>4} {lam_l2:>12.4e} {lam_h1:>12.4e}")

    # orthonormality sanity, on the full-height modes
    modes = basis.modes[rows]
    gram = modes.T @ (m_op @ modes)
    print(f"\nmax |Phi^T M Phi - I| = "
          f"{np.abs(gram - np.eye(basis.d)).max():.2e}")


if __name__ == "__main__":
    main()
