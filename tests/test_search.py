"""Tests for repro.search: genome, adapters, shrinker, engine, corpus, CLI.

The shrinker trio the issue demands sits in :class:`TestShrink`:
determinism (same hit -> byte-identical minimal repro), fixed-point
(shrinking a minimal repro changes nothing) and soundness (a fresh
evaluation of the shrunk genome still trips the original objective).
Everything runs against the resilience target with small budgets — an
evaluation there costs ~10ms, so whole campaigns fit in a unit test.
"""

import dataclasses
import json

import pytest

from repro.cli import main as repro_main
from repro.crypto.prng import XorShift64
from repro.search import (
    Scenario,
    SearchConfig,
    build_corpus,
    corpus_fingerprint,
    crossover,
    default_scenario,
    evaluate_scenario,
    load_corpus,
    mutate,
    random_scenario,
    replay_corpus,
    run_search,
    save_corpus,
    score_evaluation,
    shrink,
)
from repro.search.genome import MAX_OPS, MIN_OPS, TARGETS
from repro.search.objectives import OBJECTIVES, OBJECTIVES_BY_NAME

# the resilience default genome is a known hit (no policies enabled, fault
# plan on) — cheap enough to evaluate repeatedly in tests
HIT = default_scenario("resilience")

SMALL = SearchConfig(budget_ops=4_000, targets=("resilience",))


@pytest.fixture(scope="module")
def hit_evaluation():
    return evaluate_scenario(HIT)


@pytest.fixture(scope="module")
def hit_objective(hit_evaluation):
    scores = score_evaluation(hit_evaluation)
    assert scores, "default resilience scenario must be a hit"
    return max(scores, key=lambda name: (scores[name], name))


@pytest.fixture(scope="module")
def campaign():
    return run_search(7, SMALL)


class TestGenome:
    def test_round_trip_preserves_fingerprint(self):
        for target in TARGETS:
            scenario = default_scenario(target)
            clone = Scenario.from_dict(scenario.to_dict())
            assert clone == scenario
            assert clone.fingerprint() == scenario.fingerprint()

    def test_fingerprint_is_content_addressed(self):
        a = default_scenario("chaos")
        b = dataclasses.replace(a, seed=a.seed + 1)
        assert a.fingerprint() != b.fingerprint()
        assert len(a.fingerprint()) == 64

    def test_validation_rejects_bad_genomes(self):
        with pytest.raises(ValueError, match="unknown target"):
            dataclasses.replace(HIT, target="toaster")
        with pytest.raises(ValueError, match="ops"):
            dataclasses.replace(HIT, ops=MIN_OPS["resilience"] - 1)
        with pytest.raises(ValueError, match="ops"):
            dataclasses.replace(HIT, ops=MAX_OPS["resilience"] + 1)

    def test_random_scenario_is_seed_deterministic(self):
        a = random_scenario("chaos", XorShift64(5))
        b = random_scenario("chaos", XorShift64(5))
        c = random_scenario("chaos", XorShift64(6))
        assert a == b
        assert a != c

    def test_mutate_is_seed_deterministic_and_stays_valid(self):
        rng_a, rng_b = XorShift64(11), XorShift64(11)
        cur_a, cur_b = HIT, HIT
        for _ in range(32):
            cur_a = mutate(cur_a, rng_a)
            cur_b = mutate(cur_b, rng_b)
            assert cur_a == cur_b  # __post_init__ revalidated every step

    def test_crossover_mixes_same_target_parents_only(self):
        a = random_scenario("resilience", XorShift64(1))
        b = random_scenario("resilience", XorShift64(2))
        child = crossover(a, b, XorShift64(3))
        assert child.target == "resilience"
        assert child.seed in (a.seed, b.seed)
        with pytest.raises(ValueError, match="target"):
            crossover(a, random_scenario("chaos", XorShift64(4)), XorShift64(5))


class TestAdapters:
    @pytest.mark.parametrize("target", ["chaos", "resilience", "fleet"])
    def test_evaluation_is_deterministic(self, target):
        scenario = default_scenario(target)
        a = evaluate_scenario(scenario)
        b = evaluate_scenario(scenario)
        assert a.run_fingerprint == b.run_fingerprint
        assert a.signals == b.signals
        assert a.cost > 0

    def test_objectives_cover_every_target(self):
        for target in TARGETS:
            assert any(o.applies_to(target) for o in OBJECTIVES), target

    def test_scores_are_clamped_nonnegative(self, hit_evaluation):
        for objective in OBJECTIVES:
            assert objective.score(hit_evaluation) >= 0.0


class TestShrink:
    def test_shrink_is_deterministic(self, hit_objective):
        a = shrink(HIT, hit_objective, evaluate_scenario)
        b = shrink(HIT, hit_objective, evaluate_scenario)
        assert a.scenario.fingerprint() == b.scenario.fingerprint()
        assert a.steps == b.steps
        assert a.evaluation.run_fingerprint == b.evaluation.run_fingerprint
        assert a.scenario.canonical_json() == b.scenario.canonical_json()

    def test_shrink_reaches_fixed_point(self, hit_objective):
        first = shrink(HIT, hit_objective, evaluate_scenario)
        assert first.at_fixed_point
        again = shrink(first.scenario, hit_objective, evaluate_scenario)
        assert again.scenario == first.scenario
        assert again.steps == ("fixed-point",)  # nothing left to cut

    def test_shrunk_repro_is_sound(self, hit_objective):
        result = shrink(HIT, hit_objective, evaluate_scenario)
        fresh = evaluate_scenario(result.scenario)
        assert OBJECTIVES_BY_NAME[hit_objective].score(fresh) > 0.0
        assert fresh.run_fingerprint == result.evaluation.run_fingerprint

    def test_shrink_only_shrinks(self, hit_objective):
        result = shrink(HIT, hit_objective, evaluate_scenario)
        assert result.scenario.ops <= HIT.ops
        for gene, value in result.scenario.faults.items():
            assert value <= HIT.faults.get(gene, 0), gene

    def test_shrink_rejects_non_firing_objective(self):
        with pytest.raises(ValueError, match="does not fire"):
            shrink(HIT, "data-loss", evaluate_scenario)  # fleet-only

    def test_eval_cap_is_respected(self, hit_objective):
        calls = []

        def counting(scenario):
            calls.append(scenario)
            return evaluate_scenario(scenario)

        result = shrink(HIT, hit_objective, counting, max_evals=3)
        assert len(calls) <= 3
        assert result.evals_used <= 3


class TestEngine:
    def test_campaign_finds_and_shrinks_hits(self, campaign):
        assert campaign.hits, "budgeted search must find a scoring scenario"
        assert campaign.minimal, "top hits must be shrunk"
        assert campaign.stats.evaluations > 0
        assert campaign.stats.sim_ops_spent >= SMALL.budget_ops
        for shrunk in campaign.minimal.values():
            assert shrunk.score > 0.0

    def test_double_run_is_byte_identical(self, campaign):
        rerun = run_search(7, SMALL)
        doc_a, doc_b = build_corpus(campaign), build_corpus(rerun)
        assert doc_a["fingerprint"] == doc_b["fingerprint"]
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)

    def test_seed_changes_the_campaign(self, campaign):
        other = run_search(8, SMALL)
        assert (
            build_corpus(other)["fingerprint"]
            != build_corpus(campaign)["fingerprint"]
        )

    def test_config_rejects_unknown_target(self):
        with pytest.raises(ValueError, match="unknown search targets"):
            SearchConfig(targets=("resilience", "blender"))
        with pytest.raises(ValueError, match="at least one"):
            SearchConfig(targets=())


class TestCorpus:
    def test_save_load_round_trip(self, campaign, tmp_path):
        document = build_corpus(campaign)
        path = save_corpus(document, tmp_path / "corpus.json")
        loaded = load_corpus(path)
        assert loaded == document
        assert loaded["schema"] == "search-corpus/v4"
        assert loaded["fingerprint"] == corpus_fingerprint(loaded)

    def test_tampering_is_detected(self, campaign, tmp_path):
        document = build_corpus(campaign)
        path = save_corpus(document, tmp_path / "corpus.json")
        tampered = json.loads(path.read_text())
        tampered["entries"][0]["objectives"] = {}
        path.write_text(json.dumps(tampered))
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            load_corpus(path)

    def test_wrong_schema_is_rejected(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({"schema": "search-corpus/v999"}))
        with pytest.raises(ValueError, match="not a search-corpus/v4"):
            load_corpus(path)

    @staticmethod
    def _refuses(schema, campaign, tmp_path):
        document = build_corpus(campaign)
        document["schema"] = schema
        document["fingerprint"] = corpus_fingerprint(document)
        path = save_corpus(document, tmp_path / "old.json")
        with pytest.raises(ValueError, match="not a search-corpus/v4 document"):
            load_corpus(path)

    def test_v1_corpus_is_refused(self, campaign, tmp_path):
        # a v1 file holds lab run fingerprints from before the canonical
        # record hash; replaying it would read as a determinism bug
        self._refuses("search-corpus/v1", campaign, tmp_path)

    def test_v2_corpus_is_refused(self, campaign, tmp_path):
        # a v2 file holds chaos and oracle run fingerprints from before the
        # chaos report became a record
        self._refuses("search-corpus/v2", campaign, tmp_path)

    def test_v3_corpus_is_refused(self, campaign, tmp_path):
        # a v3 file holds chaos and oracle run fingerprints from before the
        # chaos report gained its read digest
        self._refuses("search-corpus/v3", campaign, tmp_path)

    def test_replay_reproduces_every_entry(self, campaign):
        report = replay_corpus(build_corpus(campaign))
        assert report.all_reproduced
        assert len(report.outcomes) == len(campaign.hits)
        assert "REPRODUCED" in report.format()

    def test_replay_flags_stale_fingerprints(self, campaign):
        document = json.loads(json.dumps(build_corpus(campaign)))
        entry = document["entries"][0]
        (entry["minimal"] or entry)["run_fingerprint"] = "0" * 64
        report = replay_corpus(document)
        assert not report.all_reproduced
        assert not report.outcomes[0].fingerprint_match


class TestSearchCli:
    def test_search_writes_replayable_corpus(self, tmp_path, capsys):
        out = tmp_path / "corpus.json"
        args = [
            "search", "--seed", "7", "--targets", "resilience",
            "--budget", "4000", "--out", str(out),
        ]
        assert repro_main(args) == 0
        first = capsys.readouterr().out
        assert "hit " in first and "minimal " in first
        assert f"wrote {out}" in first
        assert repro_main(["search", "--replay", str(out)]) == 0
        assert "REPRODUCED" in capsys.readouterr().out

    def test_search_is_deterministic_across_invocations(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["search", "--seed", "7", "--targets", "resilience",
                "--budget", "4000", "--out"]
        assert repro_main(base + [str(a)]) == 0
        assert repro_main(base + [str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_bad_arguments_exit_2(self, tmp_path, capsys):
        assert repro_main(["search", "--targets", "toaster"]) == 2
        assert repro_main(["search", "--budget", "0"]) == 2
        assert repro_main(["search", "--replay", str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()

    def test_no_shrink_skips_minimal_repros(self, tmp_path, capsys):
        out = tmp_path / "corpus.json"
        assert repro_main([
            "search", "--seed", "7", "--targets", "resilience",
            "--budget", "2000", "--out", str(out), "--no-shrink",
        ]) == 0
        assert "minimal " not in capsys.readouterr().out
        document = load_corpus(out)
        assert all(e["minimal"] is None for e in document["entries"])

    def test_chaos_monitors_flag_collects_counters(self, capsys):
        assert repro_main([
            "chaos", "ycsb", "--ops", "400", "--monitors", "--seed", "11",
        ]) == 0
        output = capsys.readouterr().out
        assert "monitors" in output
        assert "deterministic: yes" in output
