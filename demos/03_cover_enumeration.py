"""
Orientable circuit double covers, counted and weighed
=====================================================

"""

# a circuit double cover hits every edge with exactly two circuit
# passes; orientable means the two passes can run in opposite
# directions.  enumeration is exhaustive below an edge budget.
from cdclab.cdc import enumerate_covers, genus
from cdclab.corpus import select
from cdclab.errors import OddCharacteristic
from cdclab.planar_map import underlying_graph

for name in ("k4", "prism", "cube", "wheel:4"):
    g = underlying_graph(select(name))
    result = enumerate_covers(g, orientable_only=True)
    print(f"{name}: {len(result.covers)} orientable covers "
          f"({result.nodes} search nodes)")

# the count is exactly 1 precisely when the planar dual is an
# Apollonian network: K4 and the prism qualify (duals K4 and the
# bipyramid), the cube and wheels do not.  the census decides a cubic
# host on its core (triangles contracted) and a non-cubic one by two
# checked covers, and never counts past the second cover, so a larger
# count shows as the lower bound "2+"
from cdclab.census import census_entry

for name in ("k4", "prism", "cube", "apollonian-dual:0,1,2"):
    e = census_entry(name)
    covers = f"{e['orientable_covers']}{'+' if e['count_is_lower_bound'] else ''}"
    print(f"{name}: dual_apollonian={e['dual_apollonian']}, "
          f"covers={covers}, verdict {e['verdict']}")

# orientable does not mean surface-like: a circuit through a vertex
# twice pinches the complex and the Euler count V - E + k goes odd
g = underlying_graph(select("wheel:4"))
for cover in enumerate_covers(g).covers:
    try:
        gr = genus(g, cover)
    except OddCharacteristic:
        chi = g.n - len(g.edges) + cover.k
        print("pinched orientable cover, chi =", chi, ":",
              [sorted(c) for c in cover.circuits])
        break
