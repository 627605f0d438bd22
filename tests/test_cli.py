"""CLI behavior: exit codes, formats, batching, determinism."""

from __future__ import annotations

import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

import pytest

from maxnik.cli import main


def run_cli(capsys, argv, stdin: str | None = None):
    if stdin is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            code = main(argv)
        finally:
            sys.stdin = old
    else:
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_certify_k7_minus(capsys):
    code, out, _ = run_cli(capsys, ["certify", "F^~~w"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "MAXNIK"
    assert payload["certificate"]["rule"] == "per-non-edge"


def test_certify_k10_is_ik(capsys):
    from maxnik.graphs import complete_graph, graph6_encode, join
    big = join(complete_graph(5), complete_graph(5))  # K10
    code, out, _ = run_cli(capsys, ["certify", graph6_encode(big)])
    assert code == 0
    assert json.loads(out)["verdict"] == "NOT_MAXNIK"


def test_certify_unknown_exit_code(capsys):
    # subdividing an edge of E9 keeps it knotless, kills the 2-apex and
    # axiom routes, and leaves no clique cutset: nothing here decides it
    from maxnik.catalog import named_graph
    from maxnik.graphs import Graph, graph6_encode
    e9 = named_graph("E9").graph
    u, v = e9.edges()[0]
    rows = list(e9.without_edge(u, v).rows) + [0]
    rows[u] |= 1 << 9
    rows[v] |= 1 << 9
    rows[9] = (1 << u) | (1 << v)
    subdivided = Graph(10, rows)
    code, out, _ = run_cli(capsys, ["certify", graph6_encode(subdivided)])
    assert code == 2
    assert json.loads(out)["verdict"] == "UNKNOWN"


def test_classify_output(capsys):
    code, out, _ = run_cli(capsys, ["classify", "F^~~w"])
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 7 and payload["size"] == 20
    assert payload["maximal_2apex"] is True
    assert payload["necessary_conditions"]["all_pass"] is True


def test_batch_stdin(capsys):
    code, out, _ = run_cli(capsys, ["classify", "-"], stdin="C~\nD~{\n")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["order"] == 4
    assert json.loads(lines[1])["planar"] is False


def test_construct_size_22_unrepresentable(capsys):
    code, out, err = run_cli(capsys, ["construct", "--size", "22"])
    assert code == 1
    assert "22" in err


def test_construct_named_graph6_format(capsys):
    code, out, _ = run_cli(capsys, ["construct", "--named", "K7^-",
                                    "--format", "graph6"])
    assert code == 0
    assert out.strip() == "F^~~w"


@pytest.mark.parametrize("name", ["nosuch", "K65", "K\u00b2", "K\u0663", "K03"])
def test_construct_unknown_name_is_a_clean_error(capsys, name):
    code, out, err = run_cli(capsys, ["construct", "--named", name])
    assert (code, out) == (1, "")
    assert err == f"error: unknown graph name {name!r}\n"


def test_construct_family(capsys):
    code, out, _ = run_cli(capsys, ["construct", "--family", "npp5", "--k", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 14 and payload["size"] == 31


def test_construct_prime_order(capsys):
    code, out, _ = run_cli(capsys, ["construct", "--prime-order", "9",
                                    "--format", "json"])
    assert code == 0
    assert json.loads(out)["size"] == 30


def test_construct_prime_order_64(capsys):
    code, out, _ = run_cli(capsys, ["construct", "--prime-order", "64",
                                    "--format", "json"])
    assert code == 0
    assert json.loads(out)["size"] == 5 * 64 - 15


def test_minor_query(capsys):
    code, out, _ = run_cli(capsys, ["minor", "--host", "D~{", "--pattern", "C~"])
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert len(payload["branch_sets"]) == 4


def test_closure_counts(capsys):
    code, out, _ = run_cli(capsys, ["closure", "--seed", "k7", "--moves", "dy"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 14
    code, out, _ = run_cli(capsys, ["closure", "--seed", "k7",
                                    "--moves", "dy,yd", "--format", "graph6"])
    assert code == 0
    assert len(out.strip().splitlines()) == 20


def test_prime_command(capsys):
    code, out, _ = run_cli(capsys, ["prime", "F^~~w"])
    assert code == 0
    payload = json.loads(out)
    assert payload["prime"] is False
    assert len(payload["witness_cutset"]) == 5
    assert payload["decomposition"]["prime"] is False


def test_prime_command_on_k1(capsys):
    code, out, err = run_cli(capsys, ["prime", "@"])
    assert (code, err) == (0, "")
    assert out == ('{"decomposition": {"graph6": "@", "prime": true}, '
                   '"graph6": "@", "prime": true, "witness_cutset": null}\n')


def test_prime_command_rejects_disconnected_input(capsys):
    code, out, err = run_cli(capsys, ["prime", "C`"])  # two disjoint edges
    assert (code, out) == (1, "")
    assert "connected" in err


def test_enumerate_triangulations(capsys):
    code, out, _ = run_cli(capsys, ["enumerate", "--order", "6",
                                    "--kind", "triangulation"])
    assert code == 0
    assert json.loads(out)["count"] == 2


def test_enumerate_maxnik_order7(capsys):
    code, out, _ = run_cli(capsys, ["enumerate", "--order", "7",
                                    "--kind", "maxnik", "--format", "graph6"])
    assert code == 0
    assert out.strip() == "F^~~w"


def test_tables(capsys):
    code, out, _ = run_cli(capsys, ["tables", "--which", "ve"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[6] == {"order": 7, "min_ratio": "20/7"}
    code, out, _ = run_cli(capsys, ["tables", "--which", "deg"])
    assert code == 0
    assert json.loads(out)["discrepancies"]


def test_determinism(capsys):
    _, first, _ = run_cli(capsys, ["certify", "HxHYs}]"])
    _, second, _ = run_cli(capsys, ["certify", "HxHYs}]"])
    assert first == second


def test_certify_json_round_trips_through_validator(capsys):
    from maxnik.certify import Certificate, validate_certificate
    _, out, _ = run_cli(capsys, ["certify", "HxHYs}]"])
    payload = json.loads(out)
    cert = Certificate.from_json(payload["certificate"])
    assert validate_certificate(cert) == []


def test_library_dump(capsys):
    code, out, _ = run_cli(capsys, ["library"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["patterns"]) == 73
    code, out, _ = run_cli(capsys, ["library", "--format", "graph6"])
    assert len(out.strip().splitlines()) == 73


def test_usage_error_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--order", "6", "--kind", "bogus"])
    assert exc.value.code == 64


def test_parse_error_exit_1(capsys):
    code, _, err = run_cli(capsys, ["classify", "!!!"])
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_workers_setting_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("MAXNIK_WORKERS", value)
    code, out, err = run_cli(capsys, ["certify", "-"], stdin="F^~~w\nF?~vw\n")
    assert code == 64
    assert out == ""
    assert "MAXNIK_WORKERS" in err


@pytest.mark.parametrize("value", ["1", "2"])
def test_workers_setting_keeps_output(capsys, monkeypatch, value):
    monkeypatch.delenv("MAXNIK_WORKERS", raising=False)
    _, serial, _ = run_cli(capsys, ["certify", "-"], stdin="F^~~w\nF?~vw\n")
    monkeypatch.setenv("MAXNIK_WORKERS", value)
    code, out, _ = run_cli(capsys, ["certify", "-"], stdin="F^~~w\nF?~vw\n")
    assert code == 0
    assert out == serial


def test_construct_size_over_the_order_cap_out_of_range(capsys):
    code, out, err = run_cli(capsys, ["construct", "--size", "178"])
    assert code == 1
    assert out == ""
    assert "65 vertices" in err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_certify_batch_isolates_a_bad_line(capsys, monkeypatch, workers):
    monkeypatch.delenv("MAXNIK_WORKERS", raising=False)
    singles = [run_cli(capsys, ["certify", g6])[1] for g6 in ("F^~~w", "F?~vw")]
    monkeypatch.setenv("MAXNIK_WORKERS", workers)
    code, out, _ = run_cli(capsys, ["certify", "-"], stdin="F^~~w\n!!\nF?~vw\n")
    assert code == 1
    lines = out.splitlines(keepends=True)
    assert len(lines) == 3
    assert [lines[0], lines[2]] == singles
    bad = json.loads(lines[1])
    assert bad["graph6"] == "!!" and "out of graph6 range" in bad["error"]


def test_classify_batch_isolates_a_bad_line(capsys):
    _, single, _ = run_cli(capsys, ["classify", "C~"])
    code, out, _ = run_cli(capsys, ["classify", "-"], stdin="!!\nC~\n")
    assert code == 1
    lines = out.splitlines(keepends=True)
    assert json.loads(lines[0]).keys() == {"graph6", "error"}
    assert lines[1:] == [single]


def test_prime_batch_isolates_bad_and_disconnected_lines(capsys):
    _, single, _ = run_cli(capsys, ["prime", "C~"])
    code, out, err = run_cli(capsys, ["prime", "-"], stdin="C~\n!!\nC`\n")
    assert (code, err) == (1, "")
    lines = out.splitlines(keepends=True)
    assert len(lines) == 3
    assert lines[0] == single
    bad = json.loads(lines[1])
    assert bad == {"graph6": "!!", "error": bad["error"]}
    assert "out of graph6 range" in bad["error"]
    disconnected = json.loads(lines[2])
    assert disconnected["graph6"] == "C`" and "connected" in disconnected["error"]


def test_prime_positional_bad_graph_exits_1(capsys):
    code, out, err = run_cli(capsys, ["prime", "!!"])
    assert (code, out) == (1, "")
    assert "out of graph6 range" in err


@pytest.mark.parametrize("fmt, digest", [
    ("json", "cf31e4ab5a1c09cc6c07bbadb433b34c2075f0e0d9d8f804a5722b3acc9a4f15"),
    ("graph6", "6a282e595d30b77966e0191bbc46d863843e139149a2174fe7c9235c392a4c8c"),
])
def test_library_output_pinned(capsys, fmt, digest):
    # canonical keys name and order the library: sha256 of its stdout
    code, out, _ = run_cli(capsys, ["library", "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_readme_command_examples(capsys):
    # the first sh block under "Command line" in README.md, run line by line
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1]
    lines = [ln for ln in block.split("```", 1)[0].splitlines() if ln.startswith("maxnik ")]
    counts = {"library": 73, "closure": 20}  # as the comments state
    assert "maxnik construct --size 22" in "\n".join(lines)
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        code, out, err = run_cli(capsys, argv)
        assert code == (1 if argv[:3] == ["construct", "--size", "22"] else 0), (line, err)
        if argv[0] in counts:
            assert str(counts[argv[0]]) in line
        if argv[0] == "library":
            assert len(out.splitlines()) == counts["library"]
        if argv[0] == "closure":
            assert json.loads(out)["count"] == counts["closure"]


def test_prime_batch_output_does_not_depend_on_cache_state(capsys, monkeypatch):
    """``prime -`` gives each planner graph the same record whatever the
    decomposition cache holds: read forward from cold, reversed over the
    trees the forward run kept, and split over two workers from cold."""
    from maxnik import primality
    from maxnik.construct import size_construct
    from maxnik.graphs import graph6_encode
    lines = [graph6_encode(size_construct(n)[1]) for n in range(20, 178) if n != 22]
    monkeypatch.delenv("MAXNIK_WORKERS", raising=False)
    primality._decompose.cache_clear()
    runs = [run_cli(capsys, ["prime", "-"], stdin="\n".join(lines) + "\n"),
            run_cli(capsys, ["prime", "-"], stdin="\n".join(reversed(lines)) + "\n")]
    primality._decompose.cache_clear()
    monkeypatch.setenv("MAXNIK_WORKERS", "2")
    runs.append(run_cli(capsys, ["prime", "-"], stdin="\n".join(lines) + "\n"))
    records = []
    for code, out, err in runs:
        assert (code, err) == (0, "")
        by_graph6 = {json.loads(line)["graph6"]: line for line in out.splitlines()}
        assert sorted(by_graph6) == sorted(lines)
        records.append(by_graph6)
    assert records[0] == records[1] == records[2]
    assert list(records[0]) == lines
