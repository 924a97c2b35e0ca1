"""Tests for configuration serialization (repro.core.serialize)."""

import json

import pytest

from repro.core.characterization import is_mixed_nash
from repro.core.configuration import MixedConfiguration
from repro.core.game import GameError, TupleGame
from repro.core.profits import expected_profit_tp
from repro.core.serialize import (
    configuration_from_json,
    configuration_to_json,
    solve_result_to_json,
)
from repro.equilibria.solve import solve_game
from repro.graphs.generators import complete_bipartite_graph, grid_graph, path_graph


@pytest.fixture
def equilibrium():
    game = TupleGame(grid_graph(2, 3), 2, nu=3)
    return game, solve_game(game).mixed


class TestRoundTrip:
    def test_preserves_distributions(self, equilibrium):
        game, config = equilibrium
        restored = configuration_from_json(configuration_to_json(config))
        assert restored.game == game
        assert restored.tp_distribution() == config.tp_distribution()
        for i in range(game.nu):
            assert restored.vp_distribution(i) == config.vp_distribution(i)

    def test_restored_equilibrium_is_still_nash(self, equilibrium):
        game, config = equilibrium
        restored = configuration_from_json(configuration_to_json(config))
        assert is_mixed_nash(restored.game, restored)
        assert expected_profit_tp(restored) == pytest.approx(
            expected_profit_tp(config)
        )

    def test_string_vertices(self):
        from repro.graphs.core import Graph

        game = TupleGame(Graph([("a", "b"), ("b", "c")]), 1, nu=1)
        config = MixedConfiguration(
            game, [{"a": 0.5, "c": 0.5}], {(("a", "b"),): 0.5, (("b", "c"),): 0.5}
        )
        restored = configuration_from_json(configuration_to_json(config))
        assert restored.prob_vp(0, "a") == pytest.approx(0.5)

    def test_deterministic_output(self, equilibrium):
        _, config = equilibrium
        assert configuration_to_json(config) == configuration_to_json(config)

    def test_documents_are_canonical_compact_json(self, equilibrium):
        game, config = equilibrium
        for text in (configuration_to_json(config),
                     solve_result_to_json(solve_game(game))):
            assert text == json.dumps(json.loads(text), sort_keys=True,
                                      separators=(",", ":"))

    def test_reads_whitespace_formatted_text(self, equilibrium):
        _, config = equilibrium
        text = configuration_to_json(config)
        pretty = json.dumps(json.loads(text), indent=2, sort_keys=True)
        assert pretty != text
        assert configuration_to_json(configuration_from_json(pretty)) == text


class TestValidationOnLoad:
    def test_rejects_bad_json(self):
        with pytest.raises(GameError, match="invalid JSON"):
            configuration_from_json("{oops")

    def test_rejects_wrong_format_tag(self):
        with pytest.raises(GameError, match="unrecognized"):
            configuration_from_json(json.dumps({"format": "something.else"}))

    def test_rejects_v1_documents(self, equilibrium):
        _, config = equilibrium
        payload = json.loads(configuration_to_json(config))
        payload["format"] = "repro.mixed-configuration.v1"
        with pytest.raises(GameError, match="unrecognized"):
            configuration_from_json(json.dumps(payload, indent=2))

    def test_rejects_missing_sections(self, equilibrium):
        _, config = equilibrium
        payload = json.loads(configuration_to_json(config))
        del payload["tuple_player"]
        with pytest.raises(GameError, match="missing 'tuple_player'"):
            configuration_from_json(json.dumps(payload))

    def test_rejects_tampered_probabilities(self, equilibrium):
        _, config = equilibrium
        payload = json.loads(configuration_to_json(config))
        payload["tuple_player"][0]["probability"] = 0.9999
        with pytest.raises(GameError, match="sum to 1"):
            configuration_from_json(json.dumps(payload))

    def test_rejects_foreign_edge_in_tuple(self, equilibrium):
        _, config = equilibrium
        payload = json.loads(configuration_to_json(config))
        payload["tuple_player"][0]["edges"][0] = [0, 5]
        with pytest.raises(GameError):
            configuration_from_json(json.dumps(payload))

    def test_rejects_malformed_game(self, equilibrium):
        _, config = equilibrium
        payload = json.loads(configuration_to_json(config))
        del payload["game"]["k"]
        with pytest.raises(GameError, match="malformed game"):
            configuration_from_json(json.dumps(payload))


class TestSolveResultDocument:
    def test_contains_solve_metadata(self):
        game = TupleGame(complete_bipartite_graph(2, 4), 2, nu=5)
        result = solve_game(game)
        payload = json.loads(solve_result_to_json(result))
        assert payload["solve"]["kind"] == "k-matching"
        assert payload["solve"]["defender_gain"] == pytest.approx(2.5)
        assert payload["solve"]["partition"] is not None
        # The embedded configuration is loadable on its own.
        restored = configuration_from_json(json.dumps(payload))
        assert is_mixed_nash(restored.game, restored)

    def test_pure_result_has_no_partition(self):
        game = TupleGame(path_graph(4), 2, nu=1)
        payload = json.loads(solve_result_to_json(solve_game(game)))
        assert payload["solve"]["partition"] is None


class TestNonIntegerLabels:
    """Round-trips on string- and mixed-labeled graphs.

    Regression: ``configuration_to_json`` used to sort vertex and tuple
    entries with bare ``sorted`` (falling back to ``repr`` ordering),
    which raised ``TypeError`` on mixed int/str vertex labels and put
    string labels in non-canonical order.  Both now go through
    ``vertex_sort_key`` / ``tuple_sort_key``.
    """

    def _round_trip(self, game):
        config = solve_game(game).mixed
        text = configuration_to_json(config)
        restored = configuration_from_json(text)
        assert restored.game == game
        assert is_mixed_nash(restored.game, restored)
        assert restored.tp_distribution() == config.tp_distribution()
        for i in range(game.nu):
            assert restored.vp_distribution(i) == config.vp_distribution(i)
        # Serialization is canonical: dumping the restored configuration
        # reproduces the document byte for byte.
        assert configuration_to_json(restored) == text

    def test_string_labeled_round_trip(self):
        from repro.graphs.core import Graph

        g = Graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        self._round_trip(TupleGame(g, 1, nu=2))

    def test_mixed_labeled_round_trip(self):
        from repro.graphs.core import Graph

        # Alternating int/str labels around C6 — unsortable by bare sorted().
        labels = [0, "s1", 2, "s3", 4, "s5"]
        edges = [(labels[i], labels[(i + 1) % 6]) for i in range(6)]
        self._round_trip(TupleGame(Graph(edges), 2, nu=2))

    def test_mixed_labeled_solve_result_document(self):
        from repro.graphs.core import Graph

        labels = [0, "s1", 2, "s3"]
        edges = [(labels[i], labels[(i + 1) % 4]) for i in range(4)]
        game = TupleGame(Graph(edges), 1, nu=1)
        payload = json.loads(solve_result_to_json(solve_game(game)))
        restored = configuration_from_json(json.dumps(payload))
        assert is_mixed_nash(restored.game, restored)


class TestWeightedGameIdentity:
    """Regression: the weighted model is part of the serialized identity.

    ``_game_payload`` used to serialize only ``(vertices, edges, k, nu)``,
    so two ``WeightedTupleGame``s differing only in weights produced
    identical documents (and identical ledger/cache fingerprints), and
    the round trip silently downgraded a weighted game to a plain
    ``TupleGame``.  Weighted games now carry a ``model`` discriminator
    and their weight vector; plain games keep the historical byte format.
    """

    def _weighted_pair(self):
        from repro.weighted.game import WeightedTupleGame

        graph = complete_bipartite_graph(2, 3)
        base = {v: 1.0 + 0.25 * i
                for i, v in enumerate(graph.sorted_vertices())}
        other = dict(base)
        other[graph.sorted_vertices()[0]] += 1.0
        return (WeightedTupleGame(graph, 2, base),
                WeightedTupleGame(graph, 2, other))

    def test_roundtrip_preserves_weighted_type(self):
        from repro.core.serialize import game_from_json, game_to_json
        from repro.weighted.game import WeightedTupleGame

        game, _ = self._weighted_pair()
        restored = game_from_json(game_to_json(game))
        assert isinstance(restored, WeightedTupleGame)
        assert restored.weights == game.weights
        assert restored.k == game.k and restored.nu == game.nu
        # Canonical: re-dump reproduces the document byte for byte.
        assert game_to_json(restored) == game_to_json(game)

    def test_distinct_weights_distinct_fingerprints(self):
        import hashlib

        from repro.core.serialize import game_to_json
        from repro.obs.ledger import fingerprint_game

        a, b = self._weighted_pair()
        assert game_to_json(a) != game_to_json(b)
        sha_a = hashlib.sha256(
            game_to_json(a).encode("utf-8")).hexdigest()
        assert fingerprint_game(a)["sha256"] == sha_a
        assert fingerprint_game(a)["sha256"] != fingerprint_game(b)["sha256"]
        assert fingerprint_game(a)["kind"] == "weighted-tuple-game"

    def test_plain_game_document_unchanged(self):
        from repro.core.serialize import game_from_json, game_to_json
        from repro.obs.ledger import fingerprint_game

        game = TupleGame(grid_graph(2, 3), 2, nu=2)
        payload = json.loads(game_to_json(game))
        assert "model" not in payload
        assert "weights" not in payload
        assert fingerprint_game(game)["kind"] == "tuple-game"
        assert isinstance(game_from_json(game_to_json(game)), TupleGame)
