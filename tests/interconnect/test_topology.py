"""Unit tests for fabric topology routing and transfers."""

import pytest

from repro.interconnect import (
    MB,
    Fabric,
    LinkConfig,
    SWITCH_PORT_LATENCY_S,
)
from repro.sim import Simulator


def build_two_switch_fabric(sim):
    fabric = Fabric(sim)
    sw0 = fabric.add_switch("sw0")
    sw1 = fabric.add_switch("sw1")
    fabric.add_endpoint("a0", sw0)
    fabric.add_endpoint("a1", sw0)
    fabric.add_endpoint("b0", sw1)
    return fabric


def test_same_switch_path_avoids_upstream_link():
    sim = Simulator()
    fabric = build_two_switch_fabric(sim)
    links, hops = fabric.path("a0", "a1")
    names = [l.name for l in links]
    assert names == ["a0.up", "a1.up"]
    assert hops == 1  # through sw0 only


def test_cross_switch_path_traverses_root():
    sim = Simulator()
    fabric = build_two_switch_fabric(sim)
    links, hops = fabric.path("a0", "b0")
    names = [l.name for l in links]
    assert names == ["a0.up", "sw0.up", "sw1.up", "b0.up"]
    assert hops == 2  # sw0 and sw1; the root complex is not a switch hop


def test_endpoint_to_root_path():
    sim = Simulator()
    fabric = build_two_switch_fabric(sim)
    links, hops = fabric.path("a0", "root")
    assert [l.name for l in links] == ["a0.up", "sw0.up"]
    assert hops == 1


def test_path_to_self_is_empty():
    sim = Simulator()
    fabric = build_two_switch_fabric(sim)
    assert fabric.path("a0", "a0") == ([], 0)


def test_duplicate_node_name_rejected():
    sim = Simulator()
    fabric = Fabric(sim)
    sw = fabric.add_switch("sw0")
    fabric.add_endpoint("a0", sw)
    with pytest.raises(ValueError):
        fabric.add_endpoint("a0", sw)


def test_cannot_attach_under_endpoint():
    sim = Simulator()
    fabric = Fabric(sim)
    sw = fabric.add_switch("sw0")
    ep = fabric.add_endpoint("a0", sw)
    with pytest.raises(ValueError):
        fabric.add_endpoint("a1", ep)


def test_mux_pair_bypasses_switch():
    sim = Simulator()
    fabric = Fabric(sim)
    sw = fabric.add_switch("sw0")
    fabric.add_endpoint("accel", sw)
    fabric.add_endpoint("drx", sw)
    fabric.add_mux_pair("accel", "drx")
    links, hops = fabric.path("accel", "drx")
    assert len(links) == 1
    assert links[0].name == "accel<->drx.mux"
    assert hops == 0


def test_unloaded_latency_matches_simulated_uncontended_transfer():
    sim = Simulator()
    fabric = build_two_switch_fabric(sim)
    expected = fabric.unloaded_latency("a0", "b0", 4 * MB)
    elapsed = []

    def proc(sim):
        t = yield from fabric.transfer("a0", "b0", 4 * MB)
        elapsed.append(t)

    sim.spawn(proc(sim))
    sim.run()
    assert elapsed[0] == pytest.approx(expected)


def test_switch_latency_charged_per_hop():
    sim = Simulator()
    fabric = build_two_switch_fabric(sim)
    same = fabric.unloaded_latency("a0", "a1", 0)
    cross = fabric.unloaded_latency("a0", "b0", 0)
    # Cross-switch adds two extra links' propagation and one extra switch hop
    # (sw1; the root complex is not a switch).
    link_prop = fabric.link_config.propagation_latency_s
    assert cross - same == pytest.approx(2 * link_prop + SWITCH_PORT_LATENCY_S)


def test_shared_upstream_link_contends():
    """Two cross-switch transfers serialize on the shared sw0 upstream."""
    sim = Simulator()
    fabric = build_two_switch_fabric(sim)
    done = []

    def mover(sim, src):
        yield from fabric.transfer(src, "b0", 16 * MB)
        done.append(sim.now)

    sim.spawn(mover(sim, "a0"))
    sim.spawn(mover(sim, "a1"))
    sim.run()
    solo = fabric.unloaded_latency("a0", "b0", 16 * MB)
    one_link = fabric.nodes["sw0"].uplink.transfer_time(16 * MB)
    # The second finisher queues behind the first on the shared sw0 upstream
    # link, so it is delayed by roughly one link-transfer time.
    assert done[0] == pytest.approx(solo, rel=0.01)
    assert done[1] >= done[0] + 0.8 * one_link


def test_local_p2p_does_not_contend_with_cross_traffic_on_upstream():
    sim = Simulator()
    fabric = build_two_switch_fabric(sim)
    upstream = fabric.nodes["sw0"].uplink
    assert upstream.bytes_moved == 0

    def local(sim):
        yield from fabric.transfer("a0", "a1", 8 * MB)

    sim.spawn(local(sim))
    sim.run()
    assert upstream.bytes_moved == 0


def test_total_bytes_moved_counts_every_link_crossing():
    sim = Simulator()
    fabric = build_two_switch_fabric(sim)

    def mover(sim):
        yield from fabric.transfer("a0", "b0", MB)

    sim.spawn(mover(sim))
    sim.run()
    # 4 links crossed, 1 MB each.
    assert fabric.total_bytes_moved() == 4 * MB


# -- route memo ------------------------------------------------------------


def _tree_walk_latency(fabric, src, dst, nbytes):
    """Unloaded latency recomputed from a fresh tree walk over path()."""
    links, switch_hops = fabric.path(src, dst)
    if not links:
        return 0.0
    unique = list({id(link): link for link in links}.values())
    bottleneck = max(nbytes / link.bandwidth for link in unique)
    propagation = sum(link.config.propagation_latency_s for link in unique)
    return bottleneck + propagation + switch_hops * fabric.switch_latency_s


def test_memoized_route_latency_is_the_tree_walk_in_every_mode():
    from repro.core import DMXSystem, Mode, SystemConfig
    from repro.workloads import build_benchmark_chains

    chains = build_benchmark_chains("sound-detection", 3)
    for mode in Mode:
        system = DMXSystem(
            chains, SystemConfig(mode=mode, accelerators_per_switch=2)
        )
        fabric = system.fabric
        names = sorted(node.name for node in fabric.endpoints()) + ["root"]
        for src in names:
            for dst in names:
                for nbytes in (0, 3 * 1024, 4 * MB + 7):
                    expected = _tree_walk_latency(fabric, src, dst, nbytes)
                    # First read fills the memo, second one hits it.
                    assert fabric.unloaded_latency(src, dst, nbytes) == expected
                    assert fabric.unloaded_latency(src, dst, nbytes) == expected
        assert len(fabric._routes) == len(names) ** 2


def test_route_memo_is_invalidated_by_a_new_mux_link():
    sim = Simulator()
    fabric = build_two_switch_fabric(sim)
    before = fabric.unloaded_latency("a0", "a1", MB)
    fast = LinkConfig(lanes=16)
    mux = fabric.add_mux_pair("a0", "a1", fast)
    after = fabric.unloaded_latency("a0", "a1", MB)
    assert after == _tree_walk_latency(fabric, "a0", "a1", MB)
    assert after == mux.transfer_time(MB)
    assert after < before

    def mover(sim):
        yield from fabric.transfer("a0", "a1", MB)

    sim.spawn(mover(sim))
    sim.run()
    # The transfer rode the mux, not the switch links.
    assert mux.bytes_moved == MB
    assert fabric.nodes["a0"].uplink.bytes_moved == 0
