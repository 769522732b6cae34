"""The category table in fixtures, pinned to literal values: each category's
fabric (as README's category table states it), workload spec, RRF request
and evaluation app count; its fabrics at other sizes; and bench/scale.py,
which builds its fabric with category_topology(category, hosts)."""

import subprocess
import sys
from pathlib import Path

import pytest

from dcfrag.fixtures import (category_eval_apps, category_rrf_request, category_spec,
                             category_topology)
from dcfrag.metrics import MultiRequest
from dcfrag.topology import Reference, ResourceVector, build_clos, build_tree
from dcfrag.workload import WorkloadSpec

ROOT = Path(__file__).resolve().parent.parent


def fabric_facts(t):
    hosts = [(h.id, h.capacity, h.free) for h in sorted(t.hosts.values(), key=lambda h: h.id)]
    links = [(l.id, l.a, l.b, l.capacity, l.free) for l in sorted(t.links.values(), key=lambda l: l.id)]
    return hosts, links, t.reference


# README's category table: tree64 is 16 racks of 4 hosts (4000 MHz, 8192 MB)
# at 10 Gbps with 32:1 uplinks; clos64-5g and clos64-10g are 4 pods of 4 edges
# of 4 hosts (8000 MHz, 16384 MB) at 5 and 10 Gbps with 4:1 and 96:1 cores;
# a host's NIC matches its fabric's link
LITERAL_FABRICS = {
    1: lambda: build_tree(num_tors=16, hosts_per_tor=4,
                          host_capacity=ResourceVector(4000.0, 8192.0, 10000.0),
                          link_capacity=10000.0, oversub_ratio=32.0),
    2: lambda: build_clos(pods=4, hosts_per_edge=4, edges_per_pod=4,
                          host_capacity=ResourceVector(8000.0, 16384.0, 5000.0),
                          link_capacity=5000.0, core_oversub=4.0),
    3: lambda: build_clos(pods=4, hosts_per_edge=4, edges_per_pod=4,
                          host_capacity=ResourceVector(8000.0, 16384.0, 10000.0),
                          link_capacity=10000.0, core_oversub=96.0),
}


@pytest.mark.parametrize("category", [1, 2, 3])
def test_64_hosts_is_the_literal_fabric(category):
    assert fabric_facts(category_topology(category)) == fabric_facts(LITERAL_FABRICS[category]())


def test_specs_are_the_literal_presets():
    assert category_spec(1, 7, 3) == WorkloadSpec(
        app_count=7, vms_per_app=(2, 14), mean_demand=ResourceVector(400.0, 200.0, 193.0),
        traffic_density=0.9, seed=3,
        reference=Reference(host=ResourceVector(4000.0, 8192.0, 10000.0), link=10000.0),
        skewed_traffic=False, demand_noise=0.35, traffic_weight=0.5, traffic_burst=(0.12, 5.0))
    assert category_spec(2, 0, 11) == WorkloadSpec(
        app_count=0, vms_per_app=(2, 18), mean_demand=ResourceVector(620.0, 438.0, 225.0),
        traffic_density=0.35, seed=11,
        reference=Reference(host=ResourceVector(8000.0, 16384.0, 5000.0), link=5000.0),
        skewed_traffic=True, demand_noise=0.05, traffic_weight=0.0, traffic_burst=None)
    assert category_spec(3, 128, 0) == WorkloadSpec(
        app_count=128, vms_per_app=(10, 15), mean_demand=ResourceVector(500.0, 700.0, 100.0),
        traffic_density=0.5, seed=0,
        reference=Reference(host=ResourceVector(8000.0, 16384.0, 10000.0), link=10000.0),
        skewed_traffic=False, demand_noise=0.35, traffic_weight=0.5, traffic_burst=(0.1, 6.0))


@pytest.mark.parametrize("category,request_,eval_apps", [
    (1, MultiRequest(cpu=400 / 4000, mem=200 / 8192, nw=200 / 10000), 64),
    (2, MultiRequest(cpu=600 / 8000, mem=400 / 16384, nw=200 / 5000), 72),
    (3, MultiRequest(cpu=500 / 8000, mem=700 / 16384, nw=200 / 10000), 64),
])
def test_requests_and_eval_apps_are_the_literal_presets(category, request_, eval_apps):
    assert category_rrf_request(category) == request_
    assert category_eval_apps(category) == eval_apps


def test_unknown_category_is_refused():
    accessors = (category_topology, category_eval_apps, category_rrf_request,
                 lambda category: category_spec(category, 1, 0))
    for accessor in accessors:
        for category in (0, 4):
            with pytest.raises(ValueError, match="unknown category"):
                accessor(category)


@pytest.mark.parametrize("category,hosts,reaches", [(1, 256, 64), (3, 256, 16)])
def test_larger_fabrics_keep_rack_and_pod_size(category, hosts, reaches):
    t = category_topology(category, hosts)
    assert len(t.hosts) == hosts
    assert len(t.reaches) == reaches
    assert all(len(r.hosts) == hosts // reaches for r in t.reaches)


@pytest.mark.parametrize("category,hosts", [(1, 66), (1, 4), (3, 8), (3, 24), (2, 0)])
def test_sizes_that_would_round_down_are_refused(category, hosts):
    with pytest.raises(ValueError, match="multiple of"):
        category_topology(category, hosts)


# 12 hosts is 3 racks and 48 hosts is 3 pods: multiples, but the builders
# need an even count of them
@pytest.mark.parametrize("category,hosts", [(1, 12), (3, 48)])
def test_an_odd_count_of_racks_or_pods_is_refused(category, hosts):
    with pytest.raises(ValueError, match=f"even count of .*; got {hosts}$"):
        category_topology(category, hosts)


# 66 hosts is no multiple of a rack; 68 hosts is 17 racks, and a tree needs
# an even number of them
@pytest.mark.parametrize("hosts,problem", [("66", "multiple of 4"), ("68", "even count of racks")])
def test_scale_script_reports_a_bad_size_as_a_usage_error(hosts, problem):
    run = subprocess.run([sys.executable, str(ROOT / "bench" / "scale.py"),
                          "--hosts", hosts, "--category", "1"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert run.stderr.startswith("usage: bench/scale.py")
    assert problem in run.stderr
    assert "Traceback" not in run.stderr


def test_scale_script_keys_an_app_count_other_than_the_host_count():
    run = subprocess.run([sys.executable, str(ROOT / "bench" / "scale.py"),
                          "--hosts", "64", "--category", "2", "--apps", "32"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0
    assert run.stdout.startswith("category 2, 64 hosts, 32 apps: ")


def test_scale_script_refuses_an_app_count_below_one():
    run = subprocess.run([sys.executable, str(ROOT / "bench" / "scale.py"),
                          "--hosts", "64", "--category", "2", "--apps", "0"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and "--apps must be at least 1" in run.stderr
