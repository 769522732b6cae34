import pytest

from dcfrag.fixtures import UNIT, category_spec
from dcfrag.harness import (ExperimentConfig, ResultRow, compare_schemes, order_hash,
                            run_experiment, shuffle_order)
from dcfrag.metrics import MultiRequest
from dcfrag.placement import SchemeConfig
from dcfrag.topology import ResourceVector, build_tree
from dcfrag.workload import VM, Application


def small_topology():
    return build_tree(2, 2, UNIT, 1.0, oversub_ratio=2.0)


def small_apps(topology, count=6):
    apps = []
    for i in range(count):
        vms = tuple(VM(id=f"v{j}", demand=ResourceVector(0.25, 0.25, 0.1))
                    for j in range(2))
        apps.append(Application(id=f"app{i}", vms=vms, traffic={("v0", "v1"): 0.1},
                                reference=topology.reference))
    return apps


def small_config(topology=None, apps=None, **kwargs):
    topology = topology or small_topology()
    return ExperimentConfig(
        topology=topology,
        workload=apps if apps is not None else small_apps(topology),
        rrf_request=MultiRequest(cpu=0.25, mem=0.25, nw=0.1),
        **kwargs,
    )


class TestShuffle:
    def test_seeded_shuffle_is_shared_across_schemes(self):
        t = small_topology()
        apps = small_apps(t)
        a = shuffle_order(apps, 42)
        b = shuffle_order(apps, 42)
        assert [x.id for x in a] == [x.id for x in b]
        assert order_hash(a) == order_hash(b)
        assert [x.id for x in shuffle_order(apps, 1)] != [x.id for x in a]

    def test_compare_runs_consume_identical_order(self):
        cfg = small_config(seed=3)
        result = compare_schemes(cfg, ["UNIFIED", "LOCAL"])
        hashes = {run.order_hash for run in result.runs.values()}
        assert hashes == {result.order_hash}


class TestRunExperiment:
    def test_empty_workload_gives_empty_result(self):
        cfg = small_config(apps=[])
        assert run_experiment(cfg) == []

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
        apps = small_apps(t, count=12)  # cpu saturates after ~8 VMs
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

    def test_scheme_configs_accepted(self):
        cfg = small_config(seed=2)
        result = compare_schemes(cfg, [SchemeConfig("UNIFIED"),
                                       SchemeConfig("NETW", netw_slots_per_host=2)])
        assert set(result.runs) == {"UNIFIED", "NETW"}


class TestResultRow:
    def test_fixed_format(self):
        row = ResultRow(apps_placed=3, placeable_requests=17, rrf_index=1 / 3)
        assert row.format() == "3,17,0.333333333"
