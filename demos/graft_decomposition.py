"""Graft expander-like trees onto a flat grid and certify a positive Cheeger
bound for the composite through a validated decomposition.

The grid itself is as non-hyperbolic as windows get (its four-point constant
grows with the window), yet the graft keeps a uniform positive expansion:
local certificates glue into a global bound.

Run:  python3 demos/graft_decomposition.py
"""

import cheegerlab as cl


def main():
    print("Strong decompositions: gluing certified pieces into a global bound")
    print("------------------------------------------------------------------")

    base = cl.grid_window(7, 7)
    attachment = cl.homogeneous_tree(3, 4).graph
    spec = cl.graft_decomposition(base, attachment, "v", radius=0)
    g = spec.ambient
    print(f"\ngraft: {len(g.vertices)} vertices, max degree {g.mu}")
    print(f"pieces: {len(spec.pieces)} (49 tree copies certified at rate {spec.rate}, "
          "plus the grid)")

    report = cl.validate(spec)
    print(f"validation: valid = {report.valid}, strong = {report.strong}")
    print(f"re-verified piece bounds: all >= {min(report.verified_lower.values())}")

    bound = cl.decomposition_bound(spec, report)
    print(f"\nglobal lower bound: {bound.lower.value} "
          f"(strong formula at mu = {g.mu}, R = 0, r = {spec.rate})")

    window = cl.window_bound(g)
    print(f"window upper bound (brute force over admissible sets): {window.upper.value}")
    assert bound.lower.value <= window.upper.value

    # delta grows with the grid window; the certified bound does not care
    print("\nfour-point constant of bare grid windows vs their grafts:")
    for rows in (3, 4):
        grid = cl.grid_window(rows, rows, truncated=False)
        graft = cl.graft(grid, cl.homogeneous_tree(3, 1).graph, "v")
        d1 = cl.delta_four_point(grid).delta
        d2 = cl.delta_four_point(graft.graph).delta
        print(f"   {rows}x{rows}: delta(grid) = {d1}, delta(graft) = {d2}  (never smaller)")

    print("\nreference values: general(3,0,1) =", cl.bound_general(3, 0, 1),
          " strong(3,0,1) =", cl.bound_strong(3, 0, 1))


if __name__ == "__main__":
    main()
