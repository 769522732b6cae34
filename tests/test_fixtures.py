"""The category fabrics at any size: fixtures._category_fabric and
bench/scale.py, which builds its fabric with it."""

import subprocess
import sys
from pathlib import Path

import pytest

from dcfrag.fixtures import _category_fabric, category_topology

ROOT = Path(__file__).resolve().parent.parent


def fabric_facts(t):
    hosts = [(h.id, h.capacity, h.free) for h in sorted(t.hosts.values(), key=lambda h: h.id)]
    links = [(l.id, l.a, l.b, l.capacity, l.free) for l in sorted(t.links.values(), key=lambda l: l.id)]
    return hosts, links


@pytest.mark.parametrize("category", [1, 2, 3])
def test_64_hosts_is_the_category_topology(category):
    assert fabric_facts(_category_fabric(category, 64)) == fabric_facts(category_topology(category))


@pytest.mark.parametrize("category,hosts,reaches", [(1, 256, 64), (3, 256, 16)])
def test_larger_fabrics_keep_rack_and_pod_size(category, hosts, reaches):
    t = _category_fabric(category, hosts)
    assert len(t.hosts) == hosts
    assert len(t.reaches) == reaches
    assert all(len(r.hosts) == hosts // reaches for r in t.reaches)


@pytest.mark.parametrize("category,hosts", [(1, 66), (1, 4), (3, 8), (3, 24), (2, 0)])
def test_sizes_that_would_round_down_are_refused(category, hosts):
    with pytest.raises(ValueError, match="multiple of"):
        _category_fabric(category, hosts)


def test_unknown_category_is_refused():
    with pytest.raises(ValueError, match="unknown category"):
        _category_fabric(4, 64)


# 66 hosts is no multiple of a rack; 68 hosts is 17 racks, and a tree needs
# an even number of them
@pytest.mark.parametrize("hosts,problem", [("66", "multiple of 4"), ("68", "num_tors must be even")])
def test_scale_script_reports_a_bad_size_as_a_usage_error(hosts, problem):
    run = subprocess.run([sys.executable, str(ROOT / "bench" / "scale.py"),
                          "--hosts", hosts, "--category", "1"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert run.stderr.startswith("usage: bench/scale.py")
    assert problem in run.stderr
    assert "Traceback" not in run.stderr
