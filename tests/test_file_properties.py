"""Property tests: edge-list and instance files round-trip through the writer."""

import tempfile
from pathlib import Path

from hypothesis import configuration, given, settings
from hypothesis import strategies as st

from noisymis.graph import build_graph, greedy_mis, read_edgelist, write_edgelist
from noisymis.instances import PlantedInstance, read_instance, write_instance

# derandomized and without an example database: the same examples every run
SETTINGS = settings(derandomize=True, database=None, max_examples=60, deadline=None)
# hypothesis still caches what it reads from local source files, whatever the
# database setting; keep that cache in the temp directory, not the working tree
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir(), "noisymis-hypothesis"))


@st.composite
def instances(draw):
    # n = 0 and vertices that no edge touches both occur
    n = draw(st.integers(0, 40))
    ids = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(ids, ids), max_size=3 * n)) if n else []
    g = build_graph(n, edges)
    planted = greedy_mis(g, draw(st.permutations(range(n))))
    return PlantedInstance(g, planted, {"n": n, "note": draw(st.text(max_size=5))})


def expected_edge_list(g):
    pairs = sorted({(min(u, v), max(u, v)) for u in range(g.n) for v in g.neighbors(u).tolist()})
    return f"{g.n} {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs)


@SETTINGS
@given(instances())
def test_edge_list_and_instance_files_round_trip(inst):
    with tempfile.TemporaryDirectory() as tmp:
        edges_path, inst_path = Path(tmp, "edges.txt"), Path(tmp, "inst.txt")
        write_edgelist(inst.graph, edges_path)
        write_instance(inst, inst_path)
        assert edges_path.read_text() == expected_edge_list(inst.graph)
        assert read_edgelist(edges_path) == inst.graph
        back = read_instance(inst_path)
    assert back.graph == inst.graph
    assert back.planted == inst.planted
    assert back.params == inst.params
    assert inst.graph._owner is None
