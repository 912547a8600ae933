"""Solve a triple-junction network on the flat torus and inspect it.

Starts from a crude theta-shaped initializer, minimizes total length,
and prints the junction angles (which settle at 120 degrees), read from
the solver's edge-end table, together with the embeddedness certificate
of the solved net.
"""

import numpy as np

import geonets as gn
from geonets.solver import _edge_ends, _end_cosines


def main():
    torus = gn.FlatTorus()
    init = gn.torus_theta_net([(1, 0), (0, 1), (0, 0)])
    print(f"initial length: {init.length(torus):.6f}")

    res = gn.solve_stationary(init, torus)
    print(f"solved length:  {res.length:.10f} "
          f"(converged={res.converged}, residual={res.residual:.2e})")

    # the pairwise angles of the inward unit tangents at each vertex, from
    # the solver's edge-end table and its junction cosines
    vertex, unit, g = _edge_ends(res.net, torus)
    pairs, cos = _end_cosines(vertex, unit, g)
    for k, v in enumerate(res.net.graph.vertices):
        angles = [np.degrees(np.arccos(np.clip(cos[a][b], -1, 1))) for a, b in pairs if vertex[a] == k]
        print(f"vertex {v}: pairwise angles {[f'{x:.4f}' for x in angles]}")

    cert = gn.embeddedness_certificate(res.net, torus, M_bound=12)
    print(f"certificate satisfied: {cert.all_satisfied()}  "
          f"(F1={cert.F1:.4f}, C3={cert.C3_norm:.2f}, "
          f"min dE={min(cert.dE_min.values()):.4f})")


if __name__ == "__main__":
    main()
