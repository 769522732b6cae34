import json
import re
from pathlib import Path

import pytest

from dcfrag.cli import main
from dcfrag.topology import load_topology
from dcfrag.workload import load_workload

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReaches:
    def test_fig4_prints_two_reaches(self, capsys):
        code, out, _ = run_cli(capsys, "reaches", "--topology", "fig4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == [
            "r0: hosts=h1,h2 switches=s1",
            "r1: hosts=h3,h4 switches=s2",
        ]

    def test_topology_file_accepted(self, capsys, tmp_path):
        doc = {
            "reference_host": {"cpu_mhz": 1000, "mem_mb": 1000, "nic_mbps": 1000},
            "reference_link_mbps": 1000,
            "hosts": [{"id": f"h{i}", "cpu_mhz": 1000, "mem_mb": 1000} for i in range(2)],
            "switches": [{"id": "s1", "level": 0}],
            "links": [{"a": f"h{i}", "b": "s1", "capacity_mbps": 1000} for i in range(2)],
        }
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "reaches", "--topology", str(path))
        assert code == 0 and out.startswith("r0:")


    def test_unknown_topology_lists_the_built_ins(self, capsys):
        code, _, err = run_cli(capsys, "reaches", "--topology", "nope")
        assert code == 1
        assert err == ("dcfrag: error: 'nope' is neither an existing file nor a built-in "
                       "topology: ('fig4', 'fig3-like', 'tree64', 'clos64-5g', 'clos64-10g')\n")


class TestMetrics:
    def test_fragmentation_fixed_point_output(self, capsys):
        code, out, _ = run_cli(capsys, "metrics", "--topology", "fig3-like",
                               "--request", "mem=0.25")
        assert code == 0
        assert out.splitlines()[0] == "resource,size_cpu,size_mem,size_nw,T,N,index"
        assert "0.166666667" in out

    def test_multi_request_emits_rrf_rows(self, capsys):
        code, out, _ = run_cli(capsys, "metrics", "--topology", "fig4",
                               "--request", "cpu=0.2,mem=0.2,nw=0.2")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        resources = [r.split(",")[0] for r in rows]
        assert resources == ["cpu", "mem", "nw"]
        assert rows[-1].endswith("0.428571429")

    def test_unknown_topology_name_fails_validation(self, capsys):
        code, _, err = run_cli(capsys, "metrics", "--topology", "nope",
                               "--request", "mem=0.25")
        assert code == 1
        assert "error" in err

    def test_bad_request_fails_validation(self, capsys):
        code, _, err = run_cli(capsys, "metrics", "--topology", "fig4",
                               "--request", "mem=1.5")
        assert code == 1 and "error" in err


HEADER = "resource,size_cpu,size_mem,size_nw,T,N,index"

# Full `dcfrag metrics` stdout, recorded before the single-dimension request
# and report types were folded into MultiRequest and RRFReport.
METRICS_OUTPUT = {
    ("fig3-like", "mem=0.25"): [
        "mem,0.000000000,0.250000000,0.000000000,1.200000000,4,0.166666667"],
    ("fig3-like", "cpu=0.3"): [
        "cpu,0.300000000,0.000000000,0.000000000,1.250000000,4,0.040000000"],
    ("fig4", "nw=0.2"): [
        "nw,0.000000000,0.000000000,0.200000000,1.050000000,4,0.238095238"],
    ("fig4", "cpu=0.2,mem=0.2,nw=0.2"): [
        "cpu,0.200000000,0.200000000,0.200000000,1.600000000,6,0.250000000",
        "mem,0.200000000,0.200000000,0.200000000,1.600000000,6,0.250000000",
        "nw,0.200000000,0.200000000,0.200000000,1.050000000,3,0.428571429"],
    ("fig4", "cpu=0.2,mem=0.3"): [
        "cpu,0.200000000,0.300000000,0.000000000,1.600000000,4,0.500000000",
        "mem,0.200000000,0.300000000,0.000000000,1.600000000,4,0.250000000"],
    ("fig4", "mem=0.2,nw=0.1"): [
        "mem,0.000000000,0.200000000,0.100000000,1.600000000,8,0.000000000",
        "nw,0.000000000,0.200000000,0.100000000,1.050000000,4,0.619047619"],
    ("tree64", "nw=0.02"): [
        "nw,0.000000000,0.000000000,0.020000000,32.000000000,1600,0.000000000"],
    ("tree64", "cpu=0.15"): [
        "cpu,0.150000000,0.000000000,0.000000000,64.000000000,384,0.100000000"],
    ("clos64-10g", "mem=0.1,nw=0.05"): [
        "mem,0.000000000,0.100000000,0.050000000,64.000000000,640,0.000000000",
        "nw,0.000000000,0.100000000,0.050000000,32.000000000,320,0.500000000"],
}


class TestMetricsOutput:
    @pytest.mark.parametrize("topology, request_", list(METRICS_OUTPUT),
                             ids=[f"{t}-{r}" for t, r in METRICS_OUTPUT])
    def test_full_stdout_is_pinned(self, capsys, topology, request_):
        code, out, err = run_cli(capsys, "metrics", "--topology", topology,
                                 "--request", request_)
        assert code == 0 and err == ""
        assert out == "\n".join([HEADER, *METRICS_OUTPUT[topology, request_]]) + "\n"


class TestUsageErrors:
    def test_missing_topology_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reaches"])
        assert exc.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reaches", "--topology", "fig4", "--frobnicate"])
        assert exc.value.code == 1

    def test_no_workload_source_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, "place", "--topology", "fig4")
        assert code == 1 and "--workload or --generate" in err

    @pytest.mark.parametrize("generate, missing", [("apps=3", "category"),
                                                   ("category=1", "apps")])
    def test_generate_without_a_required_key_is_an_error(self, capsys, generate, missing):
        code, out, err = run_cli(capsys, "compare", "--topology", "tree64",
                                 "--generate", generate)
        assert code == 1 and out == ""
        assert err.startswith(f"dcfrag: error: --generate needs {missing}=N")

    @pytest.mark.parametrize("argv, message", [
        (("compare", "--topology", "tree64", "--generate", "category=x,apps=3"),
         "--generate category must be an integer, got 'x'"),
        (("compare", "--topology", "tree64", "--generate", "category=1,apps=3,seed=q"),
         "--generate seed must be an integer, got 'q'"),
        (("place", "--topology", "tree64", "--generate", "category=1,apps=1.5"),
         "--generate apps must be an integer, got '1.5'"),
        (("metrics", "--topology", "fig4", "--request", "cpu=abc"),
         "--request cpu must be a number, got 'abc'"),
    ], ids=["category", "seed", "apps", "request"])
    def test_unparsable_number_names_its_key(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"dcfrag: error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (("metrics", "--topology", "fig4", "--request", "mem=0.1,mem=0.9"),
         "duplicate --request key 'mem'"),
        (("compare", "--topology", "tree64", "--generate", "category=1,apps=3,apps=5"),
         "duplicate --generate key 'apps'"),
    ], ids=["request", "generate"])
    def test_repeated_key_is_an_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"dcfrag: error: {message}\n"


def _shaped(doc, path, value):
    """A copy of doc with the entry at path (keys and indices) set to value."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


_TOPO = {"reference_host": {"cpu_mhz": 1000, "mem_mb": 1000, "nic_mbps": 1000},
         "reference_link_mbps": 1000,
         "hosts": [{"id": f"h{i}", "cpu_mhz": 1000, "mem_mb": 1000} for i in range(2)],
         "switches": [{"id": "s0", "level": 0}],
         "links": [{"a": f"h{i}", "b": "s0", "capacity_mbps": 1000} for i in range(2)]}
_WL = {"apps": [{"id": "a",
                 "vms": [{"id": "v1", "cpu_mhz": 100, "mem_mb": 100},
                         {"id": "v2", "cpu_mhz": 100, "mem_mb": 100}],
                 "edges": [{"a": "v1", "b": "v2", "mbps": 10}]}]}


class TestBadFileShapes:
    @pytest.mark.parametrize("kind, doc, message", [
        pytest.param("workload", 5, "missing top-level 'apps' list", id="workload-int"),
        pytest.param("workload", _shaped(_WL, ("apps", 0, "vms"), 5),
                     "apps[0]: app a: 'vms' and 'edges' must be lists", id="vms-int"),
        pytest.param("workload", _shaped(_WL, ("apps", 0, "vms"), [5]),
                     "apps[0]: vms[0]: expected an object, got 5", id="vm-int"),
        pytest.param("workload", _shaped(_WL, ("apps", 0, "edges"), 5),
                     "apps[0]: app a: 'vms' and 'edges' must be lists", id="edges-int"),
        pytest.param("workload", {"apps": _WL["apps"] * 2},
                     "apps[1]: duplicate app id 'a'", id="duplicate-app-id"),
        pytest.param("topology", 5, "expected a JSON object at the top level",
                     id="topology-int"),
        pytest.param("topology", _shaped(_TOPO, ("hosts",), [5]),
                     "hosts[0]: expected an object, got 5", id="host-int"),
        pytest.param("topology", _shaped(_TOPO, ("switches",), 5),
                     "'switches' must be a list", id="switches-int"),
    ])
    def test_shape_error_names_the_file_and_entry(self, capsys, tmp_path, kind, doc, message):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        if kind == "workload":
            argv = ("place", "--topology", "tree64", "--workload", str(path),
                    "--request", "cpu=0.1,mem=0.1,nw=0.01")
        else:
            argv = ("metrics", "--topology", str(path), "--request", "cpu=0.1")
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"dcfrag: error: {path}: {message}\n"


class TestPlaceAndCompare:
    def test_place_generated_category(self, capsys, tmp_path):
        out_file = tmp_path / "run.csv"
        code, out, _ = run_cli(capsys, "place", "--topology", "tree64",
                               "--generate", "category=1,apps=4", "--seed", "3",
                               "--scheme", "UNIFIED", "--out", str(out_file))
        assert code == 0
        assert out.startswith("scheme=UNIFIED placed=")
        lines = out_file.read_text().splitlines()
        assert lines[0] == "apps_placed,placeable_requests,rrf_index"
        assert len(lines) >= 2

    def test_workload_file_without_request_is_an_error(self, capsys, tmp_path):
        wl = {"apps": [{"id": "a",
                        "vms": [{"id": "v1", "cpu_mhz": 100, "mem_mb": 100},
                                {"id": "v2", "cpu_mhz": 100, "mem_mb": 100}],
                        "edges": [{"a": "v1", "b": "v2", "mbps": 10}]}]}
        path = tmp_path / "wl.json"
        path.write_text(json.dumps(wl))
        code, _, err = run_cli(capsys, "place", "--topology", "tree64",
                               "--workload", str(path))
        assert code == 1 and "--request" in err

    def test_zero_capacity_host_is_an_error(self, capsys, tmp_path):
        # two racks: h1 has no cpu, the other rack no free memory; the zero-cpu
        # VM once reached bal_pack's division by h1's cpu capacity
        hosts = [{"id": f"h{i}", "cpu_mhz": 1000, "mem_mb": 1000} for i in range(4)]
        hosts[1]["cpu_mhz"] = 0
        for h in hosts[2:]:
            h["free_mem_mb"] = 0
        links = [{"a": f"h{i}", "b": f"s{i // 2}", "capacity_mbps": 1000} for i in range(4)]
        links += [{"a": s, "b": "core", "capacity_mbps": 500} for s in ("s0", "s1")]
        topo = {"reference_host": {"cpu_mhz": 1000, "mem_mb": 1000, "nic_mbps": 1000},
                "reference_link_mbps": 1000, "hosts": hosts, "links": links,
                "switches": [{"id": "s0", "level": 0}, {"id": "s1", "level": 0},
                             {"id": "core", "level": 1}]}
        wl = {"apps": [{"id": "a", "vms": [{"id": "v1", "cpu_mhz": 0, "mem_mb": 100}]}]}
        (tmp_path / "topo.json").write_text(json.dumps(topo))
        (tmp_path / "wl.json").write_text(json.dumps(wl))
        code, out, err = run_cli(capsys, "place", "--topology", str(tmp_path / "topo.json"),
                                 "--workload", str(tmp_path / "wl.json"), "--scheme", "UNIFIED",
                                 "--request", "cpu=0.1,mem=0.1,nw=0.01")
        assert code == 1 and out == ""
        assert err == (f"dcfrag: error: {tmp_path / 'topo.json'}: hosts[1]: host h1: "
                       f"cpu capacity 0.0 must be > 0\n")

    def test_compare_defaults_to_all_schemes(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--topology", "tree64",
                               "--generate", "category=1,apps=3", "--seed", "1")
        assert code == 0
        assert out.startswith("order=")
        schemes = {line.split()[0] for line in out.strip().splitlines()[1:]}
        assert schemes == {"scheme=LOCAL", "scheme=NETW", "scheme=UNIFIED"}

    def test_compare_rejects_duplicate_schemes(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--topology", "tree64",
                                 "--generate", "category=1,apps=3", "--seed", "1",
                                 "--scheme", "UNIFIED", "--scheme", "UNIFIED")
        assert code == 1 and out == ""
        assert "duplicate scheme names" in err


class TestReadmeExamples:
    def test_json_examples_load(self, capsys, tmp_path):
        # the README's topology file, then its workload file
        blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.DOTALL)
        assert len(blocks) == 2
        topo, wl = tmp_path / "topo.json", tmp_path / "wl.json"
        topo.write_text(blocks[0])
        wl.write_text(blocks[1])
        t = load_topology(str(topo))
        assert sorted(t.hosts) == ["h0", "h1"]
        assert [a.id for a in load_workload(str(wl), t.reference)] == ["app0"]
        code, out, _ = run_cli(capsys, "metrics", "--topology", str(topo),
                               "--request", "cpu=0.1,mem=0.1")
        assert code == 0 and out.startswith("resource,")
