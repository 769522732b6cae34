import itertools
import json
import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dcfrag import placement, workload
from dcfrag.fixtures import (UNIT_REF, category_rrf_request, category_spec, category_topology,
                             fig1_instance)
from dcfrag.harness import ExperimentConfig, compare_schemes, run_experiment
from dcfrag.placement import SCHEMES, SchemeConfig
from dcfrag.topology import Reference, ResourceVector
from dcfrag.workload import (VM, Application, WorkloadError, WorkloadSpec, generate_workload,
                             load_workload, representative_request, validate_application)
from oracle import Application as ReferenceApplication
from oracle import (reference_generate_workload, reference_row_total, reference_traffic_peers,
                    reference_validate_application)


def make_app(demands, traffic, app_id="app"):
    vms = tuple(VM(id=v, demand=ResourceVector(*d)) for v, d in sorted(demands.items()))
    return Application(id=app_id, vms=vms, traffic=traffic)


def vm_of(app, vm_id):
    return next(v for v in app.vms if v.id == vm_id)


def sorted_edges(app):
    """The app's edges ((x, y), Mbps) in sorted key order, read from its tuples."""
    return tuple(((app._xs[i], app._ys[i]), app._bws[i]) for i in app._order)


class TestRepresentativeRequest:
    def test_mean_of_two_vms(self):
        app = make_app(
            {"v1": (0.2, 0.2, 0.2), "v2": (0.4, 0.4, 0.2)},
            {("v1", "v2"): 0.2},
        )
        req = representative_request(app, UNIT_REF)
        assert (req.cpu, req.mem) == (pytest.approx(0.3), pytest.approx(0.3))
        assert req.nw == pytest.approx(0.2)

    def test_single_vm_is_its_own_demand(self):
        app = make_app({"v1": (0.25, 0.5, 0.0)}, {})
        req = representative_request(app, UNIT_REF)
        assert (req.cpu, req.mem, req.nw) == (0.25, 0.5, 0.0)

    def test_demand_at_the_validation_bound_is_capped(self):
        # validation admits a normalized demand up to 1 + _EPS
        app = make_app({"v1": (1 + 5e-10, 1 + 5e-10, 0.0)}, {})
        validate_application(app, UNIT_REF)
        req = representative_request(app, UNIT_REF)
        assert (req.cpu, req.mem, req.nw) == (1.0, 1.0, 0.0)

    def test_empty_app_rejected(self):
        app = Application(id="empty", vms=(), traffic={})
        with pytest.raises(WorkloadError):
            representative_request(app, UNIT_REF)

    def test_category3_mean_close_to_table_values(self):
        import statistics

        spec = category_spec(3, app_count=150, seed=9)
        apps = generate_workload(spec)
        # VMs within an app share its traffic draw, so aggregate per app
        for target, dim in ((500.0, "cpu"), (700.0, "mem"), (100.0, "nic")):
            app_means = [
                sum(getattr(v.demand, dim) for v in a.vms) / len(a.vms) for a in apps
            ]
            mean = statistics.fmean(app_means)
            stderr = statistics.pstdev(app_means) / len(app_means) ** 0.5
            assert abs(mean - target) <= 3 * stderr + 0.02 * target, \
                f"{dim} mean {mean:.1f} not within 3 standard errors of {target}"


def bw_to(rows, vm_id, group):
    """Reference: bandwidth between one VM and the members of a VM group,
    summed in the order of the VM's row in rows, an app's traffic-peers table."""
    return sum(bw for peer, bw in rows.get(vm_id, {}).items() if peer in group)


def bw_between(app, xs, ys):
    """Bandwidth between two disjoint VM groups, summed over bw_to."""
    rows = reference_traffic_peers(app.traffic)
    return sum(bw_to(rows, x, ys) for x in sorted(xs))


class TestBwBetween:
    def clique(self, n=4, bw=10.0):
        ids = [f"v{i}" for i in range(n)]
        traffic = {(a, b): bw for i, a in enumerate(ids) for b in ids[i + 1:]}
        return make_app({v: (0.1, 0.1, bw * (n - 1)) for v in ids}, traffic)

    def test_single_pair(self):
        app = make_app({"v1": (0.1, 0.1, 50.0), "v2": (0.1, 0.1, 50.0)},
                       {("v1", "v2"): 50.0})
        assert bw_between(app, {"v1"}, {"v2"}) == 50.0

    def test_empty_side_is_zero(self):
        app = self.clique()
        assert bw_between(app, {"v0", "v1"}, set()) == 0.0

    def test_clique_cross_edges(self):
        app = self.clique(4, 10.0)
        assert bw_between(app, {"v0", "v1"}, {"v2", "v3"}) == 40.0

    def test_symmetry_and_partition_additivity(self):
        app = self.clique(5, 7.0)
        xs = {"v0", "v1"}
        rest = {"v2", "v3", "v4"}
        assert bw_between(app, xs, rest) == bw_between(app, rest, xs)
        assert bw_between(app, xs, rest) == pytest.approx(
            bw_between(app, xs, {"v2"}) + bw_between(app, xs, {"v3", "v4"}))


@st.composite
def indexed_apps(draw):
    """An app over canonical edges inserted in random order, its VMs in
    random order, and a random VM group."""
    ids = [f"v{i}" for i in range(draw(st.integers(1, 7)))]
    pairs = draw(st.permutations(list(itertools.combinations(ids, 2))))
    traffic = {pair: draw(st.floats(0, 1000)) for pair in pairs if draw(st.booleans())}
    vms = tuple(VM(id=v, demand=ResourceVector(0.1, 0.1, 1.0))
                for v in draw(st.permutations(ids)))
    group = draw(st.sets(st.sampled_from(ids)))
    return Application(id="app", vms=vms, traffic=traffic), group


class TestTrafficIndex:
    @settings(max_examples=200, deadline=None)
    @given(indexed_apps())
    def test_index_matches_a_traffic_order_scan(self, instance):
        app, group = instance
        traffic = app.traffic
        rows = workload.traffic_peers(traffic, traffic.values())
        totals = workload._row_totals(traffic, traffic.values())
        for v in app.vms:
            assert vm_of(app, v.id) is v
            assert totals.get(v.id, 0) == reference_row_total(
                bw for (a, b), bw in app.traffic.items() if v.id in (a, b))
            assert bw_to(rows, v.id, group) == sum(
                bw for (a, b), bw in app.traffic.items()
                if (a == v.id and b in group) or (b == v.id and a in group))

    def test_application_is_immutable(self):
        app = make_app({"v1": (0.1, 0.1, 0.2), "v2": (0.1, 0.1, 0.2)}, {("v1", "v2"): 0.2})
        with pytest.raises(FrozenInstanceError):
            app.traffic = {}


class TestGenerator:
    def test_seeded_determinism(self):
        spec = category_spec(1, app_count=10, seed=7)
        a = generate_workload(spec)
        b = generate_workload(spec)
        assert [(x.id, x.vms, sorted(x.traffic.items())) for x in a] == \
               [(x.id, x.vms, sorted(x.traffic.items())) for x in b]

    def test_different_seeds_differ(self):
        a = generate_workload(category_spec(1, app_count=5, seed=1))
        b = generate_workload(category_spec(1, app_count=5, seed=2))
        assert [x.vms for x in a] != [x.vms for x in b]

    def test_category2_traffic_skew(self):
        # pooled over the workload, the top 10% of edges carry >= 80% of traffic
        for seed in range(10):
            apps = generate_workload(category_spec(2, app_count=25, seed=seed))
            weights = sorted((bw for a in apps for bw in a.traffic.values()),
                             reverse=True)
            top = weights[:max(1, len(weights) // 10)]
            assert sum(top) >= 0.8 * sum(weights), f"seed {seed} not skewed enough"

    def test_category3_sizes_within_range(self):
        apps = generate_workload(category_spec(3, app_count=15, seed=3))
        assert all(10 <= len(a.vms) <= 15 for a in apps)

    def test_generated_apps_pass_invariants(self):
        for category in (1, 2, 3):
            spec = category_spec(category, app_count=8, seed=5)
            for app in generate_workload(spec):
                validate_application(app, spec.reference)
                rows = reference_traffic_peers(app.traffic)
                for v in app.vms:
                    assert v.demand.nic == reference_row_total(rows.get(v.id, {}).values())

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((1, 2, 3)), st.integers(0, 40), st.integers())
    def test_matches_the_reference_generator(self, category, app_count, seed):
        # category 2 takes the skewed-traffic branch; repr also pins each
        # traffic dict's insertion order and every float's last bit
        spec = category_spec(category, app_count, seed)
        apps, expected = generate_workload(spec), reference_generate_workload(spec)
        assert apps == expected
        assert repr(apps) == repr(expected)

    def test_apps_of_more_than_100_vms_have_ids_in_index_order(self):
        # every id is padded to the width of the largest index, so the ids
        # sort as their indices do and every generated key is canonical
        spec = replace(category_spec(3, 2, 0), vms_per_app=(101, 101))
        apps = generate_workload(spec)
        assert apps == reference_generate_workload(spec)
        for app in apps:
            validate_application(app, spec.reference)
            ids = tuple(v.id for v in app.vms)
            assert ids == tuple(sorted(ids))
            assert ids[0] == f"{app.id}v000" and ids[-1] == f"{app.id}v100"

    def test_generated_apps_are_validated(self):
        # a reference host whose NIC is below the generated NIC demands
        spec = category_spec(3, 4, 0)
        host = replace(spec.reference.host, nic=50.0)
        spec = replace(spec, reference=replace(spec.reference, host=host))
        with pytest.raises(WorkloadError, match="exceeds the reference host"):
            generate_workload(spec)

    def test_degenerate_range_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(app_count=1, vms_per_app=(5, 2),
                         mean_demand=ResourceVector(1, 1, 1), traffic_density=0.5,
                         seed=0, reference=UNIT_REF)


def workload_doc(apps):
    """apps as a load_workload document, with every NIC demand declared."""
    return {"apps": [
        {"id": a.id,
         "vms": [{"id": v.id, "cpu_mhz": v.demand.cpu, "mem_mb": v.demand.mem,
                  "nic_mbps": v.demand.nic} for v in a.vms],
         "edges": [{"a": x, "b": y, "mbps": bw} for (x, y), bw in a.traffic.items()]}
        for a in apps]}


def loaded(apps, reference):
    """apps written to a JSON file and read back through load_workload."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "wl.json")
        with open(path, "w") as fh:
            json.dump(workload_doc(apps), fh)
        return load_workload(path, reference)


def row_sums(traffic):
    """Each VM's traffic_peers row added left to right, as (vm, float.hex)
    pairs in the rows' key order."""
    return [(v, float(reference_row_total(row.values())).hex())
            for v, row in workload.traffic_peers(traffic, traffic.values()).items()]


class TestRowTotals:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((1, 2, 3)), st.integers(0, 40), st.integers(),
           st.randoms(use_true_random=False))
    def test_one_pass_totals_equal_the_row_sums(self, category, app_count, seed, rng):
        # the shuffled copy inserts the same edges in another order, which
        # reorders both the rows and the one-pass terms
        spec = category_spec(category, app_count, seed)
        generated = generate_workload(spec)
        reloaded = loaded(generated, spec.reference)
        assert reloaded == generated
        for app in generated + reloaded + [fig1_instance()[1]]:
            items = list(app.traffic.items())
            rng.shuffle(items)
            for traffic in (app.traffic, dict(items)):
                totals = workload._row_totals(traffic, traffic.values())
                assert [(v, float(t).hex()) for v, t in totals.items()] == row_sums(traffic)
            edges, by_vm = sorted_edges(app), workload._edges_by_vm(app)
            assert edges == tuple(sorted(app.traffic.items()))
            items = list(app.traffic.items())
            for v in (vm.id for vm in app.vms):
                assert [items[i] for i in by_vm[v]] == [e for e in edges if v in e[0]]


class TestRowBuilds:
    @pytest.mark.parametrize("category", (1, 2, 3))
    def test_only_unified_builds_rows_once_per_attempt(self, monkeypatch, category):
        # counted over generating and loading 16 apps, then a run of each scheme
        spec = category_spec(category, app_count=16, seed=category)
        built, attempted = [], []
        build = workload.traffic_peers

        def counted_build(pairs, bws):
            built.append(bws)
            return build(pairs, bws)

        def counted_body(body):
            def attempt(state, app, config, reaches):
                attempted.append(app._bws)
                return body(state, app, config, reaches)
            return attempt

        monkeypatch.setattr(workload, "traffic_peers", counted_build)
        monkeypatch.setattr(placement, "traffic_peers", counted_build)
        for name, body in placement._SCHEME_BODIES.items():
            monkeypatch.setitem(placement._SCHEME_BODIES, name, counted_body(body))
        apps = loaded(generate_workload(spec), spec.reference)
        assert built == []
        for scheme in SCHEMES:
            built.clear()
            attempted.clear()
            run_experiment(ExperimentConfig(topology=category_topology(category), workload=apps,
                                            seed=category,
                                            rrf_request=category_rrf_request(category)),
                           SchemeConfig(scheme=scheme))
            assert attempted
            expected = attempted if scheme == "UNIFIED" else []
            assert list(map(id, built)) == list(map(id, expected)), scheme


@contextmanager
def constructions():
    """Every (app, traffic dict) pair Application() is given inside the block."""
    made, init = [], Application.__init__

    def recording(self, id, vms, traffic):
        init(self, id, vms, traffic)
        made.append((self, traffic))

    with mock.patch.object(Application, "__init__", recording):
        yield made


class TestResidentSet:
    @pytest.mark.parametrize("category", (1, 2, 3))
    def test_an_app_keeps_only_its_fields_and_tables_after_a_compare(self, category):
        # nothing a generator, loader or scheme builds stays on the app but
        # the cached total_vm_traffic, which UNIFIED and NETW read
        spec = category_spec(category, app_count=16, seed=category)
        with constructions() as made:
            generated = generate_workload(spec)
            reloaded = loaded(generated, spec.reference)
        kept = {"id", "vms", "_xs", "_ys", "_bws", "_order"}
        for apps in (generated, reloaded):
            for app in apps:
                assert set(vars(app)) == kept, app.id
            compare_schemes(ExperimentConfig(topology=category_topology(category),
                                             workload=apps, seed=category,
                                             rrf_request=category_rrf_request(category)),
                            ["UNIFIED", "LOCAL", "NETW"])
            for app in apps:
                assert set(vars(app)) == kept | {"total_vm_traffic"}, app.id
        assert list(map(id, (app for app, _ in made))) == list(map(id, generated + reloaded))
        for app, traffic in made:
            # an edge's ends are its VMs' own id strings and each bandwidth is
            # the given dict's own float; the app holds no key tuple
            own_ids = {id(v.id) for v in app.vms}
            assert all(id(x) in own_ids and id(y) in own_ids for x, y in zip(app._xs, app._ys))
            assert len(app._bws) == len(traffic)
            assert all(a is b for a, b in zip(app._bws, traffic.values())), app.id
            assert not any(isinstance(item, tuple) for name in ("_xs", "_ys", "_bws", "_order")
                           for item in getattr(app, name)), app.id


def check_round_trip(app, traffic):
    """app, built from traffic, gives it back in order, lists its edges in
    sorted order, and has the repr and == of the dict-backed reference."""
    assert list(app.traffic.items()) == list(traffic.items())
    assert all(a is b for a, b in zip(app.traffic.values(), traffic.values()))
    assert sorted_edges(app) == tuple(sorted(traffic.items()))
    ref = ReferenceApplication(app.id, app.vms, traffic)
    assert repr(app) == repr(ref)
    others = [dict(reversed(traffic.items())), dict(list(traffic.items())[1:]),
              {**traffic, ("x", "y"): 1.0}]
    for other in others:
        assert (app == Application(app.id, app.vms, other)) == \
            (ref == ReferenceApplication(app.id, app.vms, other))
    assert (app == app) == (ref == ref)


class TestEdgeTuples:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((1, 2, 3)), st.integers(0, 40), st.integers(), st.data())
    def test_the_traffic_dict_round_trips(self, category, app_count, seed, data):
        # generated and loaded apps, and every break malformed_apps draws:
        # self, non-canonical and unknown-VM edges, NaN bandwidths
        spec = category_spec(category, app_count, seed)
        with constructions() as made:
            loaded(generate_workload(spec), spec.reference)
            data.draw(malformed_apps())
            Application("empty", (), {})
        assert len(made) == 2 * app_count + 2
        for app, traffic in made:
            check_round_trip(app, traffic)


class TestNoRebuiltView:
    @pytest.mark.parametrize("category", (1, 2, 3))
    def test_runtime_paths_read_the_edge_tuples(self, monkeypatch, tmp_path, category):
        # the traffic getter rebuilds a view; generating, loading, validating
        # and a three-scheme compare never call it
        spec = category_spec(category, app_count=16, seed=category)
        path = tmp_path / "wl.json"
        path.write_text(json.dumps(workload_doc(generate_workload(spec))))

        def run(tag):
            apps = generate_workload(spec)
            reloaded = load_workload(str(path), spec.reference)
            for app in apps + reloaded:
                validate_application(app, spec.reference)
            csvs = []
            for i, source in enumerate((apps, reloaded)):
                out = tmp_path / f"{tag}{i}.csv"
                compare_schemes(ExperimentConfig(topology=category_topology(category),
                                                 workload=source, seed=category,
                                                 rrf_request=category_rrf_request(category),
                                                 output_path=str(out)),
                                list(SCHEMES))
                csvs.append(out.read_text())
            return csvs

        expected = run("plain")

        def refuse(*args):
            raise AssertionError("a runtime path rebuilt a view of the app")

        monkeypatch.setattr(Application, "traffic", property(refuse))
        assert run("patched") == expected


class TestLoader:
    def doc(self):
        return {
            "apps": [
                {
                    "id": "a",
                    "vms": [{"id": "v1", "cpu_mhz": 100, "mem_mb": 100},
                            {"id": "v2", "cpu_mhz": 100, "mem_mb": 100},
                            {"id": "v3", "cpu_mhz": 100, "mem_mb": 100}],
                    "edges": [{"a": "v1", "b": "v2", "mbps": 40},
                              {"a": "v3", "b": "v2", "mbps": 10}],
                },
                {
                    "id": "b",
                    "vms": [{"id": "v1", "cpu_mhz": 50, "mem_mb": 50,
                             "nic_mbps": 200},
                            {"id": "v2", "cpu_mhz": 50, "mem_mb": 50},
                            {"id": "v3", "cpu_mhz": 50, "mem_mb": 50}],
                    "edges": [{"a": "v1", "b": "v2", "mbps": 25}],
                },
            ]
        }

    def ref(self):
        return Reference(host=ResourceVector(1000, 1000, 1000), link=1000)

    def load(self, tmp_path, doc):
        path = tmp_path / "wl.json"
        path.write_text(json.dumps(doc))
        return load_workload(str(path), self.ref())

    def test_two_apps_with_three_vms(self, tmp_path):
        apps = self.load(tmp_path, self.doc())
        assert [a.id for a in apps] == ["a", "b"]
        assert all(len(a.vms) == 3 for a in apps)

    def test_edges_symmetrized_and_nic_derived(self, tmp_path):
        apps = self.load(tmp_path, self.doc())
        a = apps[0]
        assert a.traffic == {("v1", "v2"): 40.0, ("v2", "v3"): 10.0}
        assert workload._row_totals(a.traffic, a.traffic.values())["v2"] == 50.0
        assert vm_of(a, "v2").demand.nic == 50.0      # derived from rows
        assert vm_of(apps[1], "v1").demand.nic == 200.0  # declared wins

    def test_unknown_vm_rejected_with_diagnostic(self, tmp_path):
        doc = self.doc()
        doc["apps"][0]["edges"].append({"a": "v1", "b": "ghost", "mbps": 5})
        with pytest.raises(WorkloadError, match=r"apps\[0\].*edges\[2\].*ghost"):
            self.load(tmp_path, doc)

    def test_duplicate_edge_rejected(self, tmp_path):
        doc = self.doc()
        doc["apps"][0]["edges"].append({"a": "v2", "b": "v1", "mbps": 5})
        with pytest.raises(WorkloadError, match="duplicate"):
            self.load(tmp_path, doc)

    def test_self_edge_rejected(self, tmp_path):
        doc = self.doc()
        doc["apps"][0]["edges"].append({"a": "v1", "b": "v1", "mbps": 5})
        with pytest.raises(WorkloadError, match="self-edge"):
            self.load(tmp_path, doc)

    def test_declared_nic_below_rows_rejected(self, tmp_path):
        doc = self.doc()
        doc["apps"][0]["vms"][0]["nic_mbps"] = 10  # v1 carries 40
        with pytest.raises(WorkloadError, match="NIC demand"):
            self.load(tmp_path, doc)

    def test_demand_above_reference_rejected(self, tmp_path):
        doc = self.doc()
        doc["apps"][0]["vms"][0]["cpu_mhz"] = 2000
        with pytest.raises(WorkloadError, match="exceeds"):
            self.load(tmp_path, doc)

    def test_nan_bandwidth_rejected(self, tmp_path):
        doc = self.doc()
        doc["apps"][0]["edges"][1]["mbps"] = float("nan")
        with pytest.raises(WorkloadError,
                           match=r"apps\[0\]: app a: edge \(v2, v3\) bandwidth nan is negative "
                                 r"or not finite"):
            self.load(tmp_path, doc)

    def test_nan_demand_rejected(self, tmp_path):
        doc = self.doc()
        doc["apps"][1]["vms"][2]["cpu_mhz"] = float("nan")
        with pytest.raises(WorkloadError, match=r"apps\[1\]: app b: VM v3 demand .* not finite"):
            self.load(tmp_path, doc)

    def test_unparsable_nic_names_its_vm(self, tmp_path):
        doc = self.doc()
        doc["apps"][0]["vms"][0]["nic_mbps"] = "lots"
        with pytest.raises(WorkloadError,
                           match=r"apps\[0\]: vms\[0\]: nic_mbps must be a number, got 'lots'$"):
            self.load(tmp_path, doc)

    @pytest.mark.parametrize("entry,key", [
        ("edges", "mbps"), ("vms", "cpu_mhz"), ("vms", "mem_mb"), ("vms", "nic_mbps")])
    def test_booleans_are_not_numbers(self, tmp_path, entry, key):
        # float() once read true as 1.0
        doc = self.doc()
        doc["apps"][1][entry][0][key] = True
        with pytest.raises(WorkloadError, match=rf"wl\.json: apps\[1\]: {entry}\[0\]: {key} "
                                                r"must be a number, got True$"):
            self.load(tmp_path, doc)

    def test_empty_app_rejected(self, tmp_path):
        doc = {"apps": [{"id": "a", "vms": [], "edges": []}]}
        with pytest.raises(WorkloadError, match="no VMs"):
            self.load(tmp_path, doc)


def validation_error(validate, app, reference):
    """The WorkloadError text validate raises for app, or None if it passes."""
    try:
        validate(app, reference)
    except WorkloadError as exc:
        return str(exc)
    return None


@st.composite
def malformed_apps(draw):
    """An app whose VMs and edges may break each check validate_application
    makes: NaN, infinite or over-reference demands, a NIC demand below its
    traffic total (near the tolerance too), a duplicate VM id, self,
    non-canonical or unknown-VM edges, and NaN, infinite or negative
    bandwidths. Each break is rare, so most apps reach the later checks."""
    def rarely(bad, good):
        return draw(bad if draw(st.integers(0, 9)) == 9 else good)

    host = draw(st.sampled_from((UNIT_REF.host, ResourceVector(4000.0, 8192.0, 10000.0))))
    ids = [f"v{i}" for i in range(draw(st.integers(1, 5)))]
    ends = st.sampled_from(ids[:2] + ["ghost"])
    pairs = list(itertools.combinations(ids, 2))
    traffic = {}
    for _ in range(draw(st.integers(0, len(pairs)))):
        key = rarely(st.tuples(ends, ends), st.sampled_from(pairs))
        traffic[key] = rarely(st.sampled_from((math.nan, math.inf, -1.0)),
                              st.floats(0, 0.5 * host.nic))
    rows = {v: sum(row.values()) for v, row in reference_traffic_peers(traffic).items()}
    vm_ids = draw(st.permutations(ids))
    if rarely(st.just(True), st.just(False)):
        vm_ids.append(draw(st.sampled_from(ids)))
    vms = []
    for v in vm_ids:
        row = rows.get(v, 0)
        row = row if not row < 0 else 0.0  # a negative bandwidth's total is no demand
        bad_nic = st.one_of(st.floats(0, 2 * host.nic), st.sampled_from((math.nan, math.inf)))
        if row == row:  # mostly below the total, by up to twice the tolerance
            near = st.sampled_from([max(row - d, 0.0) for d in (5e-10, 2e-9)])
            bad_nic = st.one_of(st.floats(0, row), near, bad_nic)
        nic = rarely(bad_nic, st.just(row))
        share = st.floats(0, 1)
        bad = st.tuples(st.sampled_from((1 + 5e-10, 1 + 2e-9, 1.5, math.nan, math.inf)), share)
        cpu, mem = draw(st.permutations(rarely(bad, st.tuples(share, share))))
        vms.append(VM(id=v, demand=ResourceVector(cpu * host.cpu, mem * host.mem, nic)))
    return Application(id="app", vms=tuple(vms), traffic=traffic), Reference(host, 1.0)


class TestValidatorReference:
    @settings(max_examples=400, deadline=None)
    @given(malformed_apps())
    def test_raises_what_the_reference_raises(self, instance):
        app, reference = instance
        assert validation_error(validate_application, app, reference) == \
            validation_error(reference_validate_application, app, reference)
