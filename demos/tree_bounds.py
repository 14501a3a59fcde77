"""Walk through the rooted-tree pipeline: pseudo-regularity, dead-branch
complementedness, and the certified Cheeger interval they produce.

Run:  python3 demos/tree_bounds.py
"""

from fractions import Fraction

import cheegerlab as cl


def show(title, analysis):
    b = analysis.bounds
    upper = b.upper.value if b.upper else "inf"
    print(f"\n== {title}")
    print(f"   horizon D = {analysis.horizon}, complete subtree: {len(analysis.t_infty)} vertices")
    print(f"   K = {analysis.k}, C = {analysis.c}")
    print(f"   certified interval: [{b.lower.value}, {upper}]")
    print(f"   lower endpoint: {b.lower.kind}, witness {b.lower.witness}")


def main():
    print("Certified Cheeger intervals for rooted-tree windows")
    print("---------------------------------------------------")

    # The 3-regular tree: branches everywhere, no dead wood.  The theorem
    # bound 1/((7K+1)C - 1) collapses to 1/7.
    t3 = cl.homogeneous_tree(3, 6)
    show("3-regular tree, depth-6 window", cl.tree_cheeger_bounds(t3))

    # Decorating every vertex with short dead chains leaves K alone but
    # raises C, and the lower bound degrades gracefully.
    decorated = cl.grafted_dead_branches(cl.homogeneous_tree(3, 6), 2)
    show("3-regular tree with dead 2-chains", cl.tree_cheeger_bounds(decorated))

    # A tree that only branches at even depths needs two levels to double.
    show("even-depth-branching tree", cl.tree_cheeger_bounds(cl.even_branching_tree(8)))

    # A single live chain never doubles: the analysis refuses to emit a
    # positive bound and instead exhibits the defect chain.  Its first k
    # vertices form a window set with |dA| = 2, so ratio 2/k.
    chain = cl.growing_chain(10)
    analysis = cl.tree_cheeger_bounds(chain)
    show("single live chain", analysis)
    defect = analysis.pseudo.chain
    ratios = [cl.cheeger_ratio(chain.graph, set(defect[:k])) for k in range(1, len(defect))]
    assert ratios == [Fraction(2, k) for k in range(1, len(defect))]
    print("   defect family ratios:", ", ".join(map(str, ratios[:6])), "...")

    # The depth function also certifies the 3-regular tree from first
    # principles: gradient 1, interior Laplacian at least 1/3, degree 3.
    cert = cl.certificate_lower_bound(
        t3.graph, {v: t3.depth[v] for v in t3.vertices}
    )
    print(f"\nDepth-function certificate on the same window: "
          f"c1 = {cert.c1}, c2 = {cert.c2}, lower bound {cert.bound.lower.value}")
    assert cert.bound.lower.value == Fraction(1, 9)


if __name__ == "__main__":
    main()
