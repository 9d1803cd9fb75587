#!/usr/bin/env python3
"""Build both hardness-reduction instances at desk scale and audit them.

Usage: python scripts/reduction_demo.py
"""

import sys

sys.path.insert(0, "src")

from flatcover.cover import solve_cover
from flatcover.generators import matching_color_graph, path_graph
from flatcover.reductions import (
    audit_rmis_instance,
    cover_to_dominating_set,
    ds_to_hyperplane_cover,
    exact_solution_cost,
    independent_set_to_lines,
    rmis_to_line_clustering,
)


def main():
    g = path_graph(5)
    inst = ds_to_hyperplane_cover(g, 2)
    print(f"dominating-set instance: {len(inst.cloud.records)} points in R^{inst.dim}")
    sol = solve_cover(inst.cloud, 2)
    print(f"cover with k=2: {'YES' if sol else 'NO'}")
    if sol:
        ds = cover_to_dominating_set(inst, sol.hyperplanes)
        print(f"extracted dominating set: {sorted(ds)}")

    gm = matching_color_graph(2, 8)
    rinst = rmis_to_line_clustering(gm)
    report = audit_rmis_instance(rinst)
    print(f"planar gadget: {len(rinst.cloud.records)} records, "
          f"total weight {rinst.cloud.total_weight}")
    print(f"audit: {'all ok' if all(report.values()) else report}")
    lines = independent_set_to_lines(rinst, (4, 5))
    cost = exact_solution_cost(rinst, lines)
    print(f"independent selection (4,5): cost <= B is {cost <= rinst.B}")
    lines_bad = independent_set_to_lines(rinst, (4, 4))
    cost_bad = exact_solution_cost(rinst, lines_bad)
    print(f"conflicting selection (4,4): cost > B is {cost_bad > rinst.B}")


if __name__ == "__main__":
    main()
