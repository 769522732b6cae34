import json

import pytest

from dcfrag.cli import main


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
