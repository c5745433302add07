"""Golden digests pinning topologies and transcripts across versions.

The digests were computed before topology construction was rewritten, so a
change to the random draws, their order, or the transcript format shows up
here as a mismatch rather than as a silent change of every seeded result.
The CLI digests pin the ``attack`` and ``curve`` CSVs the same way; the
attacks read trace events, so they also pin the event records.  The
``bench`` digest covers only its ``scheme,n_nodes,op_count`` columns, since
the wall times differ from run to run.
"""

import hashlib
import random

import pytest

from privagg import ScenarioConfig, run_scenario
from privagg.cli import main
from privagg.simnet import Topology, generate_topology

TOPOLOGY_GOLDENS = {
    (1, 0.0, 0): "ca2dd1ed49f76379a81e20fb1b8b56356eba71831161c38132d2601a98ee354d",
    (1, 0.0, 1): "ca2dd1ed49f76379a81e20fb1b8b56356eba71831161c38132d2601a98ee354d",
    (1, 0.0, 2): "ca2dd1ed49f76379a81e20fb1b8b56356eba71831161c38132d2601a98ee354d",
    (1, 0.02, 0): "ca2dd1ed49f76379a81e20fb1b8b56356eba71831161c38132d2601a98ee354d",
    (1, 0.02, 1): "ca2dd1ed49f76379a81e20fb1b8b56356eba71831161c38132d2601a98ee354d",
    (1, 0.02, 2): "ca2dd1ed49f76379a81e20fb1b8b56356eba71831161c38132d2601a98ee354d",
    (1, 0.3, 0): "ca2dd1ed49f76379a81e20fb1b8b56356eba71831161c38132d2601a98ee354d",
    (1, 0.3, 1): "ca2dd1ed49f76379a81e20fb1b8b56356eba71831161c38132d2601a98ee354d",
    (1, 0.3, 2): "ca2dd1ed49f76379a81e20fb1b8b56356eba71831161c38132d2601a98ee354d",
    (1, 0.5, 0): "ca2dd1ed49f76379a81e20fb1b8b56356eba71831161c38132d2601a98ee354d",
    (1, 0.5, 1): "ca2dd1ed49f76379a81e20fb1b8b56356eba71831161c38132d2601a98ee354d",
    (1, 0.5, 2): "ca2dd1ed49f76379a81e20fb1b8b56356eba71831161c38132d2601a98ee354d",
    (1, 1.0, 0): "ca2dd1ed49f76379a81e20fb1b8b56356eba71831161c38132d2601a98ee354d",
    (1, 1.0, 1): "ca2dd1ed49f76379a81e20fb1b8b56356eba71831161c38132d2601a98ee354d",
    (1, 1.0, 2): "ca2dd1ed49f76379a81e20fb1b8b56356eba71831161c38132d2601a98ee354d",
    (5, 0.0, 0): "f5337b03f79ef3ea22b09122000d7ade0dce8b80a4969bb1ba1bbbbd35a5244d",
    (5, 0.0, 1): "f5337b03f79ef3ea22b09122000d7ade0dce8b80a4969bb1ba1bbbbd35a5244d",
    (5, 0.0, 2): "f5337b03f79ef3ea22b09122000d7ade0dce8b80a4969bb1ba1bbbbd35a5244d",
    (5, 0.02, 0): "f5337b03f79ef3ea22b09122000d7ade0dce8b80a4969bb1ba1bbbbd35a5244d",
    (5, 0.02, 1): "f5337b03f79ef3ea22b09122000d7ade0dce8b80a4969bb1ba1bbbbd35a5244d",
    (5, 0.02, 2): "f5337b03f79ef3ea22b09122000d7ade0dce8b80a4969bb1ba1bbbbd35a5244d",
    (5, 0.3, 0): "5ce2aa14afa2b350aa5105ee714cbf96057a2bd9659a588c4c68f0790a7728d6",
    (5, 0.3, 1): "e08edb3b932024d94c45b35b8a5bd2edd476e1de3ea6fe64c9dd6f5fee0d9250",
    (5, 0.3, 2): "54b249f4bfee1dec292022fc3402fb71cec94658abde82b66d95bc4ff3a7749c",
    (5, 0.5, 0): "11f0b69a14b253441b21808196e2ffcfee108306a03b7e158b6010be46e4a608",
    (5, 0.5, 1): "5ba0e7e11edde7c20c1cf163c589f1d3fecc2ed36835e2eef0d2d2fc498d6c65",
    (5, 0.5, 2): "ab3de9bd722bc70fad5bb828fb339b0af33cda222d63f87d4cc00c8de01cea77",
    (5, 1.0, 0): "d5922943410da61464b56454d3c0db777ec26a80a9b0c8406a47325401704773",
    (5, 1.0, 1): "c46ebe2d0332f4cb75a4828e83fc8bff89f251319c0186de9f7f9134d1865841",
    (5, 1.0, 2): "ad4e7a7a0052040873e43cf1de37cf32453964f1a001b0befa6d75579e6b4ddf",
    (8, 0.0, 0): "2e5411ada78d3730c84901a24f65f79182e48433202c9ee0cddd6398294e6224",
    (8, 0.0, 1): "2e5411ada78d3730c84901a24f65f79182e48433202c9ee0cddd6398294e6224",
    (8, 0.0, 2): "2e5411ada78d3730c84901a24f65f79182e48433202c9ee0cddd6398294e6224",
    (8, 0.02, 0): "2e5411ada78d3730c84901a24f65f79182e48433202c9ee0cddd6398294e6224",
    (8, 0.02, 1): "d1cf39f2e1523f5cafadff3bd3b80da20f06a2f416554ed0cd5dece3d2f817d4",
    (8, 0.02, 2): "2e5411ada78d3730c84901a24f65f79182e48433202c9ee0cddd6398294e6224",
    (8, 0.3, 0): "49efa2a4b37525d4d6a51a8347977b1054e2c519c7e3bbc05756348b02c2dc55",
    (8, 0.3, 1): "f91c31dc2ba8ed0b5ea56468adc32b4f47dc7b5dd8806bffcc6fe014766825e0",
    (8, 0.3, 2): "17663d809e89fd7f5d93a44ad8bc2209494a842c1b08060d2ad966f2b03e4ec1",
    (8, 0.5, 0): "4b7a9c401cb580c061ea28bc6b945f7a954b8b18cd55be1ec6ab66695026cb5a",
    (8, 0.5, 1): "9b8f2cb1e70767f94eaf5fd830fa902c3b06ee8db4f08989cb1ad2b3e4f81b94",
    (8, 0.5, 2): "0d07843d211bd95f9a8dc1e042447899dcc9b79467b3f0aa34279975b646d4a5",
    (8, 1.0, 0): "759b31a60262b926e33842e267abdbf185c0d554b7a0380fe3f94d7b81f3621c",
    (8, 1.0, 1): "dcf10e243c2924a3bc489a9520631ba6dbebb43616509aeef8186e1723ba788d",
    (8, 1.0, 2): "759b31a60262b926e33842e267abdbf185c0d554b7a0380fe3f94d7b81f3621c",
    (30, 0.0, 0): "ae50baf0291972d8cf6dc354df63643a031d31f7c7674073a44bec362a550588",
    (30, 0.0, 1): "ae50baf0291972d8cf6dc354df63643a031d31f7c7674073a44bec362a550588",
    (30, 0.0, 2): "ae50baf0291972d8cf6dc354df63643a031d31f7c7674073a44bec362a550588",
    (30, 0.02, 0): "3e41b62f2e6859808d4ce3f470858efd66c23b156ff70be206eede6a60b54bae",
    (30, 0.02, 1): "d60dbedf6d84f8587eb5dcaf917698ac03b5fb4b7905aa8487616fd89903637a",
    (30, 0.02, 2): "655138eb648702ecdc77111ebcf2b2242fc1346287ca94bc0615d9431e7f1dfd",
    (30, 0.3, 0): "c5dbaa709ff38fb699b3d296803199cdd95da0043e9d09c41fdb08ef083acd7c",
    (30, 0.3, 1): "e8d1b73c1b9b2584643224fd48288159c194d995df8d1be45a70c91f85b820d1",
    (30, 0.3, 2): "3ed0c99e79ea0717e37cc3a3b737eb4b1f8eeb690b1d21b3b6c993cc9c395e5b",
    (30, 0.5, 0): "a903e545ea6f2496a6d091c8204fbf4e032eaea4cc085d8160f3af8963302751",
    (30, 0.5, 1): "7ce92cde8fa8b24d400691c31be87685db0e68da1bcd0cfbeb2530ac4871701b",
    (30, 0.5, 2): "84525e03429df8e9074fdfae9092042fdc70816a0f5b44ff8f15877d2097f2ac",
    (30, 1.0, 0): "0219ad9b83c707c130d3d3994cbf32ffc3e8c39cccde3969a995cb8089711906",
    (30, 1.0, 1): "b14fa0a04b55d25204bd6f02db7592cabbc4fe05d12f4838db4ed502d4a1753a",
    (30, 1.0, 2): "1143d6f8cd664d9be692ad07666beb2d7e324a955a0001905d278306c16a894f",
    (200, 0.0, 0): "455f1a4a96d5b6a4205aa47963c6bd60ee8e125400bbe34147fcaa434760834b",
    (200, 0.0, 1): "455f1a4a96d5b6a4205aa47963c6bd60ee8e125400bbe34147fcaa434760834b",
    (200, 0.0, 2): "455f1a4a96d5b6a4205aa47963c6bd60ee8e125400bbe34147fcaa434760834b",
    (200, 0.02, 0): "101ae7001bb2ee136074a07de07f2155205d7418b2ee4cc475b41f6f689d4025",
    (200, 0.02, 1): "5cada6a24267c51f01c55a484a94645173fc1690aebb673f3efad203196aa039",
    (200, 0.02, 2): "b6520f1127f7ca5f38756dc8f605d4083b221ed1d726c29f7093d10663e4ac13",
    (200, 0.3, 0): "1914b4345f6f596d58fc769e6ddceaecefd443ab6a5754452b163493b294bf97",
    (200, 0.3, 1): "ee2c1211e970e687e1e18e17a219ec47f7f7aa0db78515ddc61384d932fcdb84",
    (200, 0.3, 2): "bcdb1b1ce85478e13eb502df7cd8ea5af19c6ba4230c0b1f265b89b50f3cc096",
    (200, 0.5, 0): "d287a581ec0e3e58e0a35d2407c61216bb93a0d7e297aeb14dfdb1134729998a",
    (200, 0.5, 1): "95eaf959fa9837fab8a067d9620a61bded3c84f2754067a2f1ad4477f98bdacd",
    (200, 0.5, 2): "a6f6a117e3953b3b68855720cf66012683719087598a1df60e0ce5d0fc9a4f7a",
    (200, 1.0, 0): "729e8930a6e05355bc25ac3f1ea8627b511a6aeb9ff71a72859196e8f4d1acde",
    (200, 1.0, 1): "6724cdd2cd1c0f2fd1053847c834794a9b25fcb91cc6d5f8024df53477aa2cfa",
    (200, 1.0, 2): "43659d8f6ffce33fc8bd8e9ff2005358e26e447d68c894c3abde197d5ab8b599",
    (1000, 0.0, 0): "ebdf8efba60ce45a232d84c8e1230a06ab04eb1876097104c06191cd09cd05fc",
    (1000, 0.0, 1): "ebdf8efba60ce45a232d84c8e1230a06ab04eb1876097104c06191cd09cd05fc",
    (1000, 0.0, 2): "ebdf8efba60ce45a232d84c8e1230a06ab04eb1876097104c06191cd09cd05fc",
    (1000, 0.02, 0): "8cf1aca0ae0dd3d4aaf1db269757c66aecdf65118a8cfde613c98f80dc71977b",
    (1000, 0.02, 1): "65a5f477a4c8896ff6257bdb4d2d8297d8ce74b98dc1bc165c7762d50609d7f5",
    (1000, 0.02, 2): "23fefa6bae83c9d0b8631724ba0a57521348695512844fa47bb46c91b7c85f8a",
    (1000, 0.3, 0): "1b30e33d4cac0c9a20d4e0c4c7c87fad7385bba869d61c170a2ed04c98f59a30",
    (1000, 0.3, 1): "7710b4d1ed9f5a2f9d954bfde695fa0cfdf282ff723f237a162575daecede0b7",
    (1000, 0.3, 2): "803a508f20ad30be8f56b8fd1b2c628518ad6a472a1f9ddcd6c302917dbeaadd",
    (1000, 0.5, 0): "00c7e69be1e7d4197e3c0eac76bd9d494676be85181b245e0acf08bdd85dffb8",
    (1000, 0.5, 1): "1375726d1a1d1b691fa7255104410a8984aa96992c5dd8ebb466f2fd7e27c471",
    (1000, 0.5, 2): "131900a9c4e129e15f91ed652b5ad9cec368d93bee255a5d83421ec070372288",
    (1000, 1.0, 0): "abe78efae38ed40436f2fa4db7e64628492001b5203864c5c70dc9f58fa66e2b",
    (1000, 1.0, 1): "4463aba5dcdcaf313a7b315f8de78a93afc0cbd7c37825b1f9fb55cde84799e7",
    (1000, 1.0, 2): "8be0c5077ebeb793e066f4383a706feb72608b0c90f816786da797e8cfe06a86",
    (2000, 0.005, 0): "192ca8fad99b99181828b444d1278d0cb4872b65e3c4f1112489046567dac0af",
}

TRANSCRIPT_GOLDENS = {
    ("direct", "none", 1, "explicit"):
        "0ea4c42ef6cd09972dae92ce82a41ed59388b4f054504f2c870407688c67d0da",
    ("direct", "none", 1, "sampled"):
        "49bb60300ae9d486c21e6010c8bec74d96d1a376412d3cc64fadbc1de71aa941",
    ("direct", "none", 3, "explicit"):
        "89ef0dbbd2d25cebc0bc31f9b89332af5eac915cf0977caf39748167b8e7381d",
    ("direct", "none", 3, "sampled"):
        "d8fcb83181898ba1f73245b9c00959c2a06dea08702e4bdc162cd2a5c2ef51d9",
    ("direct", "probe", 1, "explicit"):
        "1ac55aea6d651a9e45c24adcad81825b613e5336d6ca1fb622c7eeda208b895f",
    ("direct", "probe", 1, "sampled"):
        "73ad43912f342470c55284d7d337b3e6926a9be5458c4a1f9634fe730b49a6e5",
    ("direct", "probe", 3, "explicit"):
        "1108c99eff7159aeca0eb617edb2f44380876b4bf19c860d47f854356338f033",
    ("direct", "probe", 3, "sampled"):
        "61b75d699b2044b06c8d236ccdfe114ec26350dbe6d6a400b05f63b76ceaa72b",
    ("strict-relay", "none", 1, "explicit"):
        "6688e358c12b9a7e1f34eafc066064f6ef155fb6b0fc779326026337a5e6c00f",
    ("strict-relay", "none", 1, "sampled"):
        "2e43854b8304761b79ac8423dfa7d3fbda1b4a95cd13be5ebec63ba64279ac67",
    ("strict-relay", "none", 3, "explicit"):
        "e2fac70696b5a9059d61eed651895e1cc6fb7473f224768c780620a2395084cb",
    ("strict-relay", "none", 3, "sampled"):
        "332c6a63baa3be9cf11c425af8c8b277616e33adba5fbba50eecc358710ac1a4",
    ("strict-relay", "probe", 1, "explicit"):
        "1ac55aea6d651a9e45c24adcad81825b613e5336d6ca1fb622c7eeda208b895f",
    ("strict-relay", "probe", 1, "sampled"):
        "73ad43912f342470c55284d7d337b3e6926a9be5458c4a1f9634fe730b49a6e5",
    ("strict-relay", "probe", 3, "explicit"):
        "1108c99eff7159aeca0eb617edb2f44380876b4bf19c860d47f854356338f033",
    ("strict-relay", "probe", 3, "sampled"):
        "61b75d699b2044b06c8d236ccdfe114ec26350dbe6d6a400b05f63b76ceaa72b",
}

# The shape of the rounds-sparse benchmark workload: a sparse graph, so
# relay jumps mix with direct hops and most events are pairwise setups.
# Computed before the key shuffles, event records and transcript rendering
# were rewritten for speed.
SPARSE_ROUNDS_GOLDEN = "af5498b075bdd91b431c1d4cefc11fda8d3c6f6ffc7ae87caf5b23594282949d"

CLI_CONFIG = """\
n_sources = 50
modulus = 4294967296
values = 0..999
p = 0.3
seed = 7
"""

CLI_GOLDENS = {
    ("attack", "collusion"):
        "6c5236a7d842e2d3d1e6f1146c17829c01a0e931dead63f5b8a2c30cf730e50c",
    ("attack", "link:0.5"):
        "0cadf05ee36ca6a6e0f3fa73ea73a6632a0e9e53bcb1952ba3a85389c2e23f70",
    ("attack", "probe"):
        "d0917c3a626970985745c0b9a975753a755e01e5c25b288c89ac554c196af0b1",
    ("attack", "probe_ablation"):
        "5f41656b1ec3a203100c8e159680443a81c136019bf28f69d71341ca4f29e899",
    ("curve", "2000"):
        "61969861bdc6e1f03192bde7f5455a2e1cd17c873ae97ce0e88ebc77d16b8e04",
}

# ``privagg bench --sizes 1..12 --repetitions 3``, first three columns.
BENCH_OP_COUNT_GOLDEN = "eaec9880189789082f3d0ca02c3903292dcde6131c117b8ac51c0c41ed3d3c83"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n, p, seed", sorted(TOPOLOGY_GOLDENS))
def test_topology_golden(n, p, seed):
    topo = generate_topology(n, p, random.Random(seed))
    blob = repr((topo.edges, sorted(topo.server_links), topo.server_links))
    assert _sha256(blob) == TOPOLOGY_GOLDENS[(n, p, seed)]


@pytest.mark.parametrize("mode, adversary, rounds, values", sorted(TRANSCRIPT_GOLDENS))
def test_transcript_golden(mode, adversary, rounds, values):
    if values == "explicit":
        value_kwargs = {"values": tuple(range(50))}
    else:
        value_kwargs = {"value_range": (0, 999)}
    config = ScenarioConfig(
        n_sources=50,
        modulus=2**32,
        edge_prob=0.3,
        seed=7,
        mode=mode,
        adversary=adversary,
        rounds=rounds,
        **value_kwargs,
    )
    digest = _sha256(run_scenario(config).serialize())
    assert digest == TRANSCRIPT_GOLDENS[(mode, adversary, rounds, values)]


def test_sparse_many_round_transcript_golden():
    config = ScenarioConfig(
        n_sources=200,
        modulus=2**32,
        value_range=(0, 999),
        total_keys=100,
        source_source_keys=30,
        edge_prob=0.02,
        seed=1,
        mode="direct",
        rounds=10,
    )
    assert _sha256(run_scenario(config).serialize()) == SPARSE_ROUNDS_GOLDEN


@pytest.mark.parametrize("command, arg", sorted(CLI_GOLDENS))
def test_cli_csv_golden(command, arg, tmp_path, capsys):
    if command == "attack":
        config = tmp_path / "scenario.cfg"
        config.write_text(CLI_CONFIG)
        argv = ["attack", "--config", str(config), "--model", arg]
    else:
        argv = ["curve", "--trials", arg]
    assert main(argv) == 0
    assert _sha256(capsys.readouterr().out) == CLI_GOLDENS[(command, arg)]


def test_bench_op_count_golden(capsys):
    assert main(["bench", "--sizes", "1..12", "--repetitions", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    columns = "\n".join(",".join(line.split(",")[:3]) for line in lines)
    assert _sha256(columns) == BENCH_OP_COUNT_GOLDEN


@pytest.mark.parametrize("n, p", sorted({(n, p) for n, p, _ in TOPOLOGY_GOLDENS}))
def test_generated_topology_matches_constructor(n, p):
    """The generator's adjacency equals the validated constructor's."""
    for seed in range(3):
        topo = generate_topology(n, p, random.Random(seed))
        reference = Topology(n, topo.edges, topo.server_links)
        assert topo == reference
        for sid in topo.sources():
            peers = topo.sorted_neighbors(sid)
            assert all(a < b for a, b in zip(peers, peers[1:]))


@pytest.mark.parametrize("p", [0, 1])
def test_integer_edge_probability_matches_float(p):
    for seed in range(3):
        assert generate_topology(30, p, random.Random(seed)) == generate_topology(
            30, float(p), random.Random(seed)
        )


def test_topology_edges_canonical_sorted_and_deduplicated():
    topo = Topology(3, ((2, 1), (1, 2), (3, 2)), frozenset({1}))
    assert topo.edges == ((1, 2), (2, 3))
    assert topo.sorted_neighbors(2) == (1, 3)


@pytest.mark.parametrize("edge", [(1, 1), (0, 1), (1, 0), (1, 4), (4, 2), (-1, 2)])
def test_topology_rejects_bad_edge(edge):
    with pytest.raises(ValueError, match="bad edge"):
        Topology(3, ((1, 2), edge), frozenset({1}))


@pytest.mark.parametrize("link", [0, 4, -1])
def test_topology_rejects_bad_server_link(link):
    with pytest.raises(ValueError, match="bad aggregator link"):
        Topology(3, ((1, 2),), frozenset({1, link}))
    with pytest.raises(ValueError, match="bad aggregator link"):
        Topology(3, (), frozenset({link}))


def test_topology_rejects_repeated_server_link():
    with pytest.raises(ValueError, match="bad aggregator link"):
        Topology(3, (), (1, 1))
    assert Topology(3, (), (2, 1, 3)).server_links == (2, 1, 3)  # kept as given


def test_topology_rejects_empty_source_set():
    with pytest.raises(ValueError):
        Topology(0, (), frozenset())
