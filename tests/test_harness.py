import logging
from dataclasses import FrozenInstanceError

import pytest

from dcfrag import harness, placement
from dcfrag.fixtures import NAMED_TOPOLOGIES, UNIT, category_spec, category_topology
from dcfrag.harness import (ExperimentConfig, ResultRow, compare_schemes, order_hash,
                            resolve_topology, run_experiment, shuffle_order)
from dcfrag.metrics import MultiRequest, placeable_in_reaches
from dcfrag.placement import PlacementState, SchemeConfig, place_application
from dcfrag.topology import ResourceVector, build_tree
from dcfrag.workload import VM, Application, generate_workload, representative_request
from oracle import placeable_in_reach


def small_topology():
    return build_tree(2, 2, UNIT, 1.0, oversub_ratio=2.0)


def small_apps(count=6):
    apps = []
    for i in range(count):
        vms = tuple(VM(id=f"v{j}", demand=ResourceVector(0.25, 0.25, 0.1))
                    for j in range(2))
        apps.append(Application(id=f"app{i}", vms=vms, traffic={("v0", "v1"): 0.1}))
    return apps


def small_config(topology=None, apps=None, **kwargs):
    topology = topology or small_topology()
    return ExperimentConfig(
        topology=topology,
        workload=apps if apps is not None else small_apps(),
        rrf_request=MultiRequest(cpu=0.25, mem=0.25, nw=0.1),
        **kwargs,
    )


class TestShuffle:
    def test_seeded_shuffle_is_shared_across_schemes(self):
        apps = small_apps()
        a = shuffle_order(apps, 42)
        b = shuffle_order(apps, 42)
        assert [x.id for x in a] == [x.id for x in b]
        assert order_hash(a) == order_hash(b)
        assert [x.id for x in shuffle_order(apps, 1)] != [x.id for x in a]

    def test_compare_runs_consume_identical_order(self):
        cfg = small_config(seed=3)
        result = compare_schemes(cfg, ["UNIFIED", "LOCAL"])
        assert result.order_hash == order_hash(shuffle_order(cfg.workload, 3))


class TestRunExperiment:
    def test_empty_workload_gives_empty_result(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run_experiment(small_config(apps=[], output_path=str(out))) == []
        assert out.read_text() == "apps_placed,placeable_requests,rrf_index\n"

    def test_rows_count_successes_and_nm_never_increases(self):
        cfg = small_config(seed=5)
        rows = run_experiment(cfg)
        assert rows, "expected at least one successful placement"
        assert [r.apps_placed for r in rows] == list(range(1, len(rows) + 1))
        counts = [r.placeable_requests for r in rows]
        assert counts == sorted(counts, reverse=True)
        assert all(0.0 <= r.rrf_index <= 1.0 for r in rows)

    def test_first_failure_stops_early(self):
        t = small_topology()
        apps = small_apps(count=12)  # cpu saturates after ~8 VMs
        stop = run_experiment(small_config(t, apps, seed=1, stop_policy="first-failure"))
        exhaust = run_experiment(small_config(t, apps, seed=1, stop_policy="exhaust-list"))
        assert len(stop) <= len(exhaust)

    def test_output_file_is_byte_deterministic(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        run_experiment(small_config(seed=9, output_path=str(out_a)))
        run_experiment(small_config(seed=9, output_path=str(out_b)))
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().splitlines()
        assert lines[0] == "apps_placed,placeable_requests,rrf_index"
        first = lines[1].split(",")
        assert first[0] == "1" and len(first[2].split(".")[1]) == 9

    def test_bad_stop_policy_rejected(self):
        with pytest.raises(ValueError, match="stop_policy"):
            small_config(stop_policy="never")
        # an assignment would skip the check
        with pytest.raises(FrozenInstanceError):
            small_config().stop_policy = "never"

    def test_rrf_request_must_be_network_multi(self):
        t = small_topology()
        with pytest.raises(ValueError, match="rrf_request"):
            ExperimentConfig(topology=t, workload=[],
                             rrf_request=MultiRequest(cpu=0.2, mem=0.2))

    def test_generator_spec_resolves(self):
        cfg = ExperimentConfig(
            topology="fig3-like",
            workload=category_spec(1, app_count=2, seed=0),
            rrf_request=MultiRequest(cpu=0.1, mem=0.1, nw=0.02),
        )
        # tiny topology, tiny workload: placements may fail but runs end cleanly
        rows = run_experiment(cfg)
        assert isinstance(rows, list)


class TestCompareSchemes:
    def test_needs_two_schemes(self):
        with pytest.raises(ValueError, match="two schemes"):
            compare_schemes(small_config(), ["UNIFIED"])

    def test_duplicate_scheme_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate scheme names"):
            compare_schemes(small_config(), ["UNIFIED", "UNIFIED", "LOCAL"])
        with pytest.raises(ValueError, match="duplicate scheme names"):
            compare_schemes(small_config(), [SchemeConfig("NETW", netw_slots_per_host=2),
                                             "NETW"])

    def test_three_scheme_comparison_summary(self, tmp_path):
        out = tmp_path / "cmp.csv"
        cfg = small_config(seed=2, output_path=str(out))
        result = compare_schemes(cfg, ["UNIFIED", "LOCAL", "NETW"])
        assert set(result.runs) == {"UNIFIED", "LOCAL", "NETW"}
        by_scheme = {e["scheme"]: e for e in result.summary}
        assert set(by_scheme) == set(result.runs)
        for run in result.runs.values():
            counts = [r.placeable_requests for r in run.rows]
            assert counts == sorted(counts, reverse=True)
        header = out.read_text().splitlines()[0]
        assert header == "scheme,apps_placed,placeable_requests,rrf_index"

    def test_summary_reads_each_scheme_at_the_checkpoint(self):
        t = small_topology()
        result = compare_schemes(small_config(t, small_apps(count=12), seed=4),
                                 ["UNIFIED", "LOCAL", "NETW"])
        checkpoint = min(run.apps_placed for run in result.runs.values())
        assert checkpoint > 0
        for entry in result.summary:
            run = result.runs[entry["scheme"]]
            (row,) = [r for r in run.rows if r.apps_placed == checkpoint]
            assert entry["apps_placed"] == run.apps_placed
            assert entry["checkpoint"] == checkpoint
            assert entry["placeable_at_checkpoint"] == row.placeable_requests
            assert entry["rrf_at_checkpoint"] == row.rrf_index

    def test_empty_workload_summary_and_file(self, tmp_path):
        out = tmp_path / "cmp.csv"
        result = compare_schemes(small_config(apps=[], output_path=str(out)),
                                 ["UNIFIED", "LOCAL"])
        assert [(e["checkpoint"], e["placeable_at_checkpoint"], e["rrf_at_checkpoint"])
                for e in result.summary] == [(0, 0, 1.0), (0, 0, 1.0)]
        assert out.read_text() == "scheme,apps_placed,placeable_requests,rrf_index\n"

    def test_one_log_line_per_scheme(self, caplog):
        cfg = small_config(seed=2)
        with caplog.at_level(logging.INFO, logger="dcfrag.harness"):
            result = compare_schemes(cfg, ["UNIFIED", "LOCAL"])
            rows = run_experiment(cfg, SchemeConfig("LOCAL"))
        digest = result.order_hash
        assert caplog.messages == [
            f"run scheme=UNIFIED seed=2 order={digest} "
            f"placed={result.runs['UNIFIED'].apps_placed}",
            f"run scheme=LOCAL seed=2 order={digest} placed={result.runs['LOCAL'].apps_placed}",
            f"run scheme=LOCAL seed=2 order={digest} placed={len(rows)}",
        ]

    def test_scheme_configs_accepted(self):
        cfg = small_config(seed=2)
        result = compare_schemes(cfg, [SchemeConfig("UNIFIED"),
                                       SchemeConfig("NETW", netw_slots_per_host=2)])
        assert set(result.runs) == {"UNIFIED", "NETW"}


class TestOneReference:
    """Category-1 apps, sized for 4,000 MHz hosts, on the category-3 CLOS of
    8,000 MHz hosts: every normalization reads the fabric's reference."""

    def pair(self):
        t, spec = category_topology(3), category_spec(1, 8, 0)
        assert t.reference != spec.reference
        return t, generate_workload(spec)

    def test_request_is_the_mean_demand_over_the_fabric_reference(self):
        t, apps = self.pair()
        ref = t.reference
        for app in apps:
            n = len(app.vms)
            req = representative_request(app, ref)
            assert req.cpu == pytest.approx(sum(v.demand.cpu for v in app.vms) / n / ref.host.cpu)
            assert req.mem == pytest.approx(sum(v.demand.mem for v in app.vms) / n / ref.host.mem)
            assert req.nw == pytest.approx(
                sum(app.total_traffic(v.id) for v in app.vms) / n / ref.link)

    def test_unified_ranks_its_first_reach_with_that_request(self, monkeypatch):
        t, apps = self.pair()
        app = apps[0]
        req = representative_request(app, t.reference)
        state = PlacementState(t)
        expected = min(t.reaches, key=lambda r: (-placeable_in_reach(state, r, req), r.id))
        seen, picks = [], []

        def counting(state, reaches, request):
            seen.append(request)
            return placeable_in_reaches(state, reaches, request)

        def picking(*args):
            picks.append(best(*args))
            return picks[-1]

        best = placement.best_sibling_reach
        monkeypatch.setattr(placement, "placeable_in_reaches", counting)
        monkeypatch.setattr(placement, "best_sibling_reach", picking)
        assert place_application(state, app, SchemeConfig("UNIFIED")).ok
        assert seen and all(r == req for r in seen)
        assert picks[0] == expected

    def test_compare_leaves_a_valid_state_after_every_attempt(self, monkeypatch):
        t, apps = self.pair()
        problems = []

        def checked(state, app, config, reaches=None):
            outcome = place_application(state, app, config, reaches)
            problems.extend(state.validate())
            return outcome

        monkeypatch.setattr(harness, "place_application", checked)
        cfg = ExperimentConfig(topology=t, workload=apps, seed=0,
                               rrf_request=MultiRequest(cpu=0.1, mem=0.1, nw=0.02))
        result = compare_schemes(cfg, ["UNIFIED", "LOCAL", "NETW"])
        assert problems == []
        assert all(run.apps_placed > 0 for run in result.runs.values())


class TestResultRow:
    def test_fixed_format(self):
        row = ResultRow(apps_placed=3, placeable_requests=17, rrf_index=1 / 3)
        assert row.format() == "3,17,0.333333333"


class TestNamedTopologies:
    def test_every_name_resolves(self):
        assert list(NAMED_TOPOLOGIES) == ["fig4", "fig3-like", "tree64", "clos64-5g",
                                          "clos64-10g"]
        sizes = [len(resolve_topology(name).hosts) for name in NAMED_TOPOLOGIES]
        assert sizes == [4, 4, 64, 64, 64]

    def test_unknown_name_lists_the_built_ins(self):
        with pytest.raises(ValueError) as exc:
            resolve_topology("nope")
        assert str(exc.value) == ("'nope' is neither an existing file nor a built-in topology: "
                                  "('fig4', 'fig3-like', 'tree64', 'clos64-5g', 'clos64-10g')")
