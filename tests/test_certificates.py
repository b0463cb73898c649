"""Certificates: fingerprints, JSON round trips, and re-verification."""

import random

import pytest

from ncflow.certificates import (
    Certificate,
    fingerprint,
    flow_certificate,
    verify_certificate,
)
from ncflow.coloring import chi_n_exact, z2cubed_flow_coloring
from ncflow.errors import InputError
from ncflow.flows import ALPHA_BETA, FlowAssignment, find_nonconflicting_flow
from ncflow.generators import k4, k33, petersen
from ncflow.graph import build_graph
from ncflow.matchings import PerfectMatching, enumerate_perfect_matchings

from conftest import small_corpus


def relabeled(g, seed):
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


class TestFingerprint:
    def test_deterministic(self):
        for name, g in small_corpus():
            assert fingerprint(g) == fingerprint(g), name

    def test_invariant_when_refinement_discretizes(self):
        # bookkeeping hash, not isomorphism: invariance is only promised when
        # the degree refinement separates all vertices
        g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2), (1, 3), (2, 4)])
        fp = fingerprint(g)
        for seed in range(5):
            assert fingerprint(relabeled(g, seed)) == fp

    def test_distinct_graphs_distinct_prints(self):
        prints = {name: fingerprint(g) for name, g in small_corpus()}
        assert len(set(prints.values())) == len(prints)


class TestFlowCertificate:
    def _cert(self):
        g = k33()
        f = next(enumerate_perfect_matchings(g))
        theta = find_nonconflicting_flow(g, f)
        return g, flow_certificate(g, f, theta, {"nodes": 1})

    def test_round_trip_verifies(self):
        g, cert = self._cert()
        again = Certificate.from_json(cert.to_json())
        assert again.kind == "flow-found"
        assert verify_certificate(again, g)

    def test_tampered_flow_fails(self):
        g, cert = self._cert()
        bad = Certificate.from_json(cert.to_json())
        bad.payload["flow"] = bad.payload["flow"][:-1]  # drop an edge's value
        assert not verify_certificate(bad, g)

    def test_wrong_graph_fails(self):
        _g, cert = self._cert()
        assert not verify_certificate(cert, petersen())

    def test_matching_listing_an_edge_twice_fails(self):
        # K33 edges 0, 4, 8 are a perfect matching; its complement is a
        # 6-cycle, so the constant alpha+beta flow on it is non-conflicting
        g = k33()
        cert = flow_certificate(g, PerfectMatching((0, 4, 8)), FlowAssignment((ALPHA_BETA,) * 3), {})
        assert verify_certificate(cert, g)
        cert.payload["matching"] = [0, 4, 8, 8]
        assert not verify_certificate(cert, g)

    def test_garbled_payload_is_false_not_crash(self):
        g, cert = self._cert()
        bad = Certificate.from_json(cert.to_json())
        bad.payload["matching"] = [0, 1, 2]
        assert not verify_certificate(bad, g)


def assert_refused(cert, g):
    """A kind that nothing writes is refused on load and refuted by
    `verify_certificate`, whatever its payload."""
    with pytest.raises(InputError, match="unknown certificate kind"):
        Certificate.from_json(cert.to_json())
    assert verify_certificate(cert, g) is False


class TestOtherKinds:
    def test_normal_coloring_certificate(self):
        # a normal 3-colouring of K4 is refused, as the kind is gone
        from ncflow.coloring import admits_normal_k_coloring

        g = k4()
        c = admits_normal_k_coloring(g, 3)
        cert = Certificate(
            kind="normal-coloring",
            graph_fingerprint=fingerprint(g),
            payload={"colors": list(c.colors), "k": 3},
        )
        assert_refused(cert, g)

    @pytest.mark.parametrize(
        "alpha, beta, held",
        [
            ([0, 4, 8], [1, 5, 6], True),  # two disjoint perfect matchings of K33
            ([0, 4, 8], [0, 5, 7], False),  # they share edge 0
            ([0, 4], [1, 5, 6], False),  # alpha misses vertices 2 and 5
            ([0, 1, 8], [2, 3, 7], False),  # edges 0 and 1 meet at vertex 0
            ([0, 4, 99], [1, 5, 6], False),  # no edge 99
            ([0, 4, 8, 8], [1, 5, 6], False),  # edge 8 listed twice
            ([0, 4, 8], [1, 5, 6, 6], False),  # edge 6 listed twice
            ([0, 4, -1], [1, 5, 6], False),  # no edge -1
        ],
    )
    def test_disjoint_matchings_certificate(self, alpha, beta, held):
        # held: the payload is two disjoint perfect matchings, and it is
        # refused all the same, as the kind is gone
        g = k33()
        cert = Certificate(
            kind="disjoint-matchings",
            graph_fingerprint=fingerprint(g),
            payload={"alpha": alpha, "beta": beta},
        )
        assert_refused(cert, g)

    def test_negative_certificate_needs_stats(self):
        g = petersen()
        cert = Certificate(
            kind="no-flow-for-any-matching",
            graph_fingerprint=fingerprint(g),
            payload={},
            stats={"matchings_checked": 6},
        )
        assert verify_certificate(cert, g)
        cert.stats = {}
        assert not verify_certificate(cert, g)

    @pytest.mark.parametrize("checked, ok", [(6, True), (5, False), (7, False), (0, False)])
    def test_negative_certificate_replays_the_search(self, checked, ok):
        g = petersen()
        cert = Certificate(
            kind="no-flow-for-any-matching",
            graph_fingerprint=fingerprint(g),
            payload={"selector": "all"},
            stats={"matchings_checked": checked},
        )
        assert verify_certificate(cert, g) is ok

    def test_forged_negative_is_refuted(self):
        # K33 has a flow, so no count makes its negative true
        g = k33()
        for stats in ({"matchings_checked": 0}, {"matchings_checked": 6}):
            cert = Certificate(
                kind="no-flow-for-any-matching", graph_fingerprint=fingerprint(g), payload={}, stats=stats
            )
            assert verify_certificate(cert, g) is False

    @pytest.mark.parametrize("selector", ["edge=0", "edge=14", "3"])
    def test_negative_certificate_round_trips_from_the_cli(self, selector, tmp_path, capsys):
        from ncflow.cli import main

        path = tmp_path / "cert.json"
        assert main(["flow", "search", "petersen", "--matching", selector, "--certificate", str(path)]) == 1
        cert = Certificate.from_json(path.read_text())
        assert cert.payload == {"selector": selector}
        assert verify_certificate(cert, petersen())
        cert.stats["matchings_checked"] += 1
        assert not verify_certificate(cert, petersen())

    @pytest.mark.parametrize(
        "payload",
        [{"selector": s} for s in ("edge=99", "6", "x", 3, None)] + [["selector", "all"]],
    )
    def test_negative_certificate_with_a_bad_selector_is_refuted(self, payload):
        g = petersen()
        cert = Certificate(
            kind="no-flow-for-any-matching",
            graph_fingerprint=fingerprint(g),
            payload=payload,
            stats={"matchings_checked": 1},
        )
        assert verify_certificate(cert, g) is False

    def test_negative_replay_honours_the_deadline(self):
        from ncflow.kernels import SearchTimeout

        g = petersen()
        cert = Certificate(
            kind="no-flow-for-any-matching",
            graph_fingerprint=fingerprint(g),
            payload={},
            stats={"matchings_checked": 6},
        )
        with pytest.raises(SearchTimeout):
            verify_certificate(cert, g, deadline=0.0)

    def test_unknown_kind_rejected_on_load(self):
        with pytest.raises(InputError):
            Certificate.from_json('{"kind": "bogus", "graph_fingerprint": "x"}')

    def test_invalid_json_rejected(self):
        with pytest.raises(InputError):
            Certificate.from_json("{nope")


class TestChiNValueCertificate:
    """`chi-n-value` is no longer a kind.  Its check showed only that the
    witness is a normal colouring with exactly k colours, not that fewer
    colours fail, so a forged value verified."""

    @staticmethod
    def _cert(g, k, witness):
        return Certificate(
            kind="chi-n-value",
            graph_fingerprint=fingerprint(g),
            payload={"k": k, "witness": list(witness)},
        )

    def test_a_forged_petersen_value_no_longer_verifies(self):
        # a normal colouring of Petersen with 7 colours, claimed as
        # chi'_N = 7; chi'_N is 5
        g = petersen()
        witness = z2cubed_flow_coloring(g)[1].colors
        assert len(set(witness)) == 7 and chi_n_exact(g, 7).k == 5
        assert_refused(self._cert(g, 7, witness), g)

    def test_claiming_more_colours_than_the_witness_uses_fails(self):
        # Petersen's own normal 5-colouring does not show that chi'_N = 7
        g = petersen()
        res = chi_n_exact(g, 7)
        assert res.k == 5
        assert not verify_certificate(self._cert(g, 7, res.witness.colors), g)
        assert not verify_certificate(self._cert(g, 6, res.witness.colors), g)


class TestWronglyTypedPayloads:
    """A payload of the wrong type is refuted, not raised as TypeError.

    The rows of kinds that are gone (`chi-n-value`, `normal-coloring`,
    `conjecture4-witness`, `disjoint-matchings`) stay: a certificate of an
    unknown kind built in code, not loaded, is refuted the same way."""

    @pytest.mark.parametrize(
        "kind, payload",
        [
            ("chi-n-value", {"k": 5, "witness": 3}),
            ("flow-found", {"matching": 5}),
            ("normal-coloring", {"colors": None}),
            ("flow-found", {"matching": [0, 1, 2], "flow": None}),
            ("flow-found", {"matching": [0, "a", 2], "flow": []}),
            ("normal-coloring", {"colors": [1] * 15, "k": None}),
            ("conjecture4-witness", {"mu": 7, "x": 1, "y": 2}),
            ("disjoint-matchings", {"alpha": None, "beta": [1]}),
            ("flow-found", ["matching", "flow"]),
            ("chi-n-value", None),
        ],
    )
    def test_refuted_on_petersen(self, kind, payload):
        g = petersen()
        cert = Certificate(kind=kind, graph_fingerprint=fingerprint(g), payload=payload)
        assert verify_certificate(cert, g) is False

    def test_stats_of_the_wrong_type(self):
        g = petersen()
        cert = Certificate(
            kind="no-flow-for-any-matching", graph_fingerprint=fingerprint(g), payload={}, stats=None
        )
        assert verify_certificate(cert, g) is False
