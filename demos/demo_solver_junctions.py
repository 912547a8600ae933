"""Solve a triple-junction network on the flat torus and inspect it.

Starts from a crude theta-shaped initializer, minimizes total length,
and prints the junction angles (which settle at 120 degrees), read from
the embeddedness certificate of the solved net, together with the rest
of that certificate.
"""

import numpy as np

import geonets as gn


def main():
    torus = gn.FlatTorus()
    init = gn.torus_theta_net([(1, 0), (0, 1), (0, 0)])
    print(f"initial length: {init.length(torus):.6f}")

    res = gn.solve_stationary(init, torus)
    print(f"solved length:  {res.length:.10f} "
          f"(converged={res.converged}, residual={res.residual:.2e})")

    # F2 holds the cosine of every two inward unit tangents at one vertex,
    # keyed by their (edge, end) pairs in both orders
    cert = gn.embeddedness_certificate(res.net, torus, M_bound=12)
    edges = res.net.graph.edges
    for v in res.net.graph.vertices:
        angles = [np.degrees(np.arccos(np.clip(cos, -1, 1))) for (a, b), cos in cert.F2_values.items()
                  if a < b and edges[a[0]].endpoint(a[1]) == v]
        print(f"vertex {v}: pairwise angles {[f'{x:.4f}' for x in angles]}")

    print(f"certificate satisfied: {cert.all_satisfied()}  "
          f"(F1={cert.F1:.4f}, C3={cert.C3_norm:.2f}, "
          f"min dE={min(cert.dE_min.values()):.4f})")


if __name__ == "__main__":
    main()
