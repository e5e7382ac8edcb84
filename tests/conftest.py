import pytest
from hypothesis import HealthCheck, settings

from intcyclic import Graph

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def atlas():
    """Every graph on up to 7 vertices, from the networkx graph atlas (1253
    graphs, disconnected ones included); skipped without networkx, which is
    not a test dependency."""
    nx = pytest.importorskip("networkx")
    return [Graph(a.number_of_nodes(), tuple(a.edges())) for a in nx.graph_atlas_g()]
