import json

import pytest

from semtree.cli import _embedder_for_index, _load_config_file, build_parser, main
from semtree.embed import RemoteEmbedder
from semtree.llm import prompt_hash
from semtree.search import SearchConfig, recommend, render_rerank_prompt, tree_search
from semtree.summarize import render_summary_prompt
from semtree.tree import load_tree
from conftest import read_index, write_index


@pytest.fixture()
def catalog(tmp_path):
    rows = [
        {"id": "log-a", "name": "loga", "description": "structured logging for services"},
        {"id": "log-b", "name": "logb", "description": "rotating file log handler"},
        {"id": "web-a", "name": "weba", "description": "http client with retries"},
        {"id": "web-b", "name": "webb", "description": "async http server framework"},
        {"id": "db-a", "name": "dba", "description": "postgres connection pooling"},
        {"id": "db-b", "name": "dbb", "description": "sqlite migration runner"},
    ]
    path = tmp_path / "catalog.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


@pytest.fixture()
def pairs(tmp_path):
    rows = [
        {"intent": "structured logging for services", "target_id": "log-a"},
        {"intent": "http client with retries", "target_id": "web-a"},
        {"intent": "sqlite migration runner", "target_id": "db-b"},
    ]
    path = tmp_path / "pairs.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- ingest ---------------------------------------------------------------

def test_ingest_prints_stats(catalog, capsys):
    code, out, _ = run(capsys, "ingest", str(catalog))
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 6
    assert doc["min_words"] >= 1


def test_ingest_malformed_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a"\n')
    code, _, err = run(capsys, "ingest", str(bad))
    assert code == 1
    assert "line 1" in err


def test_ingest_null_name_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "description": "x"}\n'
                   '{"id": "b", "name": null, "description": "y"}\n')
    code, _, err = run(capsys, "ingest", str(bad))
    assert code == 1
    assert "line 2: name null" in err


def test_ingest_extra_not_an_object_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "description": "x", "extra": [1, 2]}\n')
    code, _, err = run(capsys, "ingest", str(bad))
    assert code == 1
    assert "line 1" in err and "extra" in err


@pytest.fixture()
def surrogate_catalog(tmp_path):
    """A two-line catalog whose second description holds a lone surrogate."""
    path = tmp_path / "surrogate.jsonl"
    path.write_text('{"id": "a", "description": "json parsing"}\n'
                    '{"id": "b", "description": "yaml \\ud800 parsing"}\n')
    return path


def test_ingest_lone_surrogate_exits_1(surrogate_catalog, capsys):
    code, _, err = run(capsys, "ingest", str(surrogate_catalog))
    assert code == 1
    assert err.startswith("error:") and "line 2" in err and "surrogate" in err


def test_build_lone_surrogate_exits_1_and_leaves_the_out_file(surrogate_catalog, tmp_path,
                                                              capsys):
    out = tmp_path / "index.semtree"
    out.write_bytes(b"an older index")
    code, _, err = run(capsys, "build", str(surrogate_catalog), "--out", str(out))
    assert code == 1
    assert err.startswith("error:") and "line 2" in err
    assert out.read_bytes() == b"an older index"


def test_ingest_missing_file_exits_1(tmp_path, capsys):
    code, _, err = run(capsys, "ingest", str(tmp_path / "nope.jsonl"))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("command", [
    "search --index {dir} --intent x",
    "ingest {dir}",
    "build {catalog} --out {dir}",
    "--config {dir} build {catalog} --out {out}",
], ids=["search_index", "ingest", "build_out", "config"])
def test_directory_in_place_of_a_file_exits_1(command, catalog, tmp_path, capsys):
    argv = command.format(dir=tmp_path, catalog=catalog, out=tmp_path / "i.json").split()
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "error:" in err and "Is a directory" in err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err


# --- build / stats --------------------------------------------------------

def test_build_writes_index_and_stats(catalog, tmp_path, capsys):
    out_path = tmp_path / "index.json"
    code, out, _ = run(capsys, "build", str(catalog), "--out", str(out_path),
                       "--dim", "64")
    assert code == 0
    stats = json.loads(out)
    assert stats["nodes"] >= 6
    assert out_path.exists()

    code, out, _ = run(capsys, "stats", "--index", str(out_path))
    assert code == 0
    assert json.loads(out) == stats


def test_double_build_byte_identical(catalog, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "build", str(catalog), "--out", str(a), "--dim", "64")[0] == 0
    assert run(capsys, "build", str(catalog), "--out", str(b), "--dim", "64")[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_and_flag_precedence(catalog, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 48}))
    idx1 = tmp_path / "i1.json"
    code, _, _ = run(capsys, "--config", str(cfg), "build", str(catalog),
                     "--out", str(idx1))
    assert code == 0
    assert read_index(idx1)[0]["config"]["embedder"]["dim"] == 48

    idx2 = tmp_path / "i2.json"
    code, _, _ = run(capsys, "--config", str(cfg), "build", str(catalog),
                     "--out", str(idx2), "--dim", "32")
    assert code == 0
    assert read_index(idx2)[0]["config"]["embedder"]["dim"] == 32


@pytest.mark.parametrize("text, named", [
    ('{"dim": null}', "'dim'"),
    ('{"dim": [1]}', "'dim'"),
    ('{"seed": {"v": 1}}', "'seed'"),
    ('"seed"', "JSON object"),
    ('{"dimm": 64}', "unknown setting 'dimm'"),
    ('{"rerank": "false"}', "'rerank'"),
    ('{"dim": true}', "'dim'"),
    ('{"dim": "64"}', "'dim'"),
    pytest.param('{"soft_threshold": 1' + "0" * 400 + '}', "'soft_threshold'",
                 id="overflowing_float"),
])
def test_config_file_of_non_scalar_settings_exits_1(catalog, tmp_path, capsys, text, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out, err = run(capsys, "--config", str(cfg), "build", str(catalog),
                         "--out", str(tmp_path / "i.json"))
    assert code == 1
    assert out == ""
    assert "error:" in err and named in err


@pytest.mark.parametrize("data", [b"", b"\xff{}"])
def test_config_file_that_is_not_json_exits_1(catalog, tmp_path, capsys, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(data)
    code, out, err = run(capsys, "--config", str(cfg), "build", str(catalog),
                         "--out", str(tmp_path / "i.json"))
    assert code == 1
    assert out == ""
    assert f"error: config file {cfg}: not a JSON document" in err


@pytest.mark.parametrize("dim", ["0", "-3"])
def test_build_dim_below_one_exits_1(catalog, tmp_path, capsys, dim):
    code, out, err = run(capsys, "build", str(catalog), "--out", str(tmp_path / "i.json"),
                         "--dim", dim)
    assert code == 1
    assert out == ""
    assert "error:" in err and "dim must be >= 1" in err


@pytest.mark.parametrize("flag, value", [
    ("--target-dim", "0"), ("--target-dim", "-3"),
    ("--soft-threshold", "0"), ("--soft-threshold", "1.5"), ("--soft-threshold", "nan"),
    ("--max-top", "0"), ("--max-top", "-1"),
])
def test_build_setting_out_of_range_exits_1(catalog, tmp_path, capsys, flag, value):
    code, out, err = run(capsys, "build", str(catalog), "--out", str(tmp_path / "i.json"),
                         "--dim", "64", flag, value)
    assert code == 1
    assert out == ""
    assert "error:" in err and flag[2:].replace("-", "_") in err


@pytest.mark.parametrize("seed", [str(2**63), str(2**64)])
def test_build_seed_beyond_64_bits_exits_1(catalog, tmp_path, capsys, seed):
    # The embedder's hash key is the seed's 8 bytes; 2**63 overflowed them.
    out = tmp_path / "i.json"
    code, stdout, err = run(capsys, "build", str(catalog), "--out", str(out), "--seed", seed)
    assert code == 1
    assert stdout == "" and "Traceback" not in err
    assert f"error: embedding seed must be in [-2**63, 2**63), got {seed}" in err
    assert not out.exists()


def test_build_from_config_file_matches_flags(catalog, tmp_path, capsys):
    settings = {"seed": 3, "dim": 48, "target_dim": 4, "soft_threshold": 0.3,
                "max_depth": 3, "max_top": 2}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    by_file, by_flags = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["--config", str(cfg), "build", str(catalog), "--out", str(by_file)]) == 0
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in settings.items()]
    assert main(["build", str(catalog), "--out", str(by_flags), *flags]) == 0
    assert by_file.read_bytes() == by_flags.read_bytes()
    header = read_index(by_file)[0]
    assert header["config"]["stopping"] == {"max_depth": 3, "max_top_level_nodes": 2}
    assert header["config"]["cluster"]["soft_threshold"] == 0.3


# --- search ---------------------------------------------------------------

@pytest.fixture()
def built_index(catalog, tmp_path, capsys):
    path = tmp_path / "index.json"
    assert main(["build", str(catalog), "--out", str(path), "--dim", "64"]) == 0
    capsys.readouterr()
    return path


def test_search_exact_description_ranks_first(built_index, capsys):
    code, out, _ = run(capsys, "search", "--index", str(built_index),
                       "--intent", "postgres connection pooling", "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"][0]["artifact_id"] == "db-a"
    assert len(doc["entries"]) <= 3
    assert doc["node_evaluations"] > 0


def test_search_defaults_come_from_the_library(built_index, capsys):
    doc = json.loads(run(capsys, "search", "--index", str(built_index),
                         "--intent", "http client")[1])
    assert len(doc["entries"]) == SearchConfig().final_k


def test_search_k_alone_widens_the_beam(built_index, capsys):
    doc = json.loads(run(capsys, "search", "--index", str(built_index),
                         "--intent", "http client", "--k", "20")[1])
    assert len(doc["entries"]) == 6  # the whole catalog


def test_config_file_search_settings_take_effect(built_index, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 2, "beam": 3}))
    index = load_tree(str(built_index))
    direct = recommend(index, "http client", SearchConfig(beam_width=3, final_k=2),
                       _embedder_for_index(index, object(), {}))
    search = ["search", "--index", str(built_index), "--intent", "http client"]
    for argv in (["--config", str(cfg), *search], [*search, "--k", "2", "--beam", "3"]):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        doc = json.loads(out)
        assert [e["artifact_id"] for e in doc["entries"]] == direct.ids()
        assert doc["node_evaluations"] == direct.node_evaluations

    # a flag beats the file
    code, out, _ = run(capsys, "--config", str(cfg), *search, "--k", "4")
    assert code == 0 and len(json.loads(out)["entries"]) == 4


def test_config_file_rerank_takes_effect(built_index, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rerank": True, "llm_stub": str(tmp_path / "missing.json")}))
    code, out, err = run(capsys, "--config", str(cfg), "search", "--index", str(built_index),
                         "--intent", "http client")
    assert code == 1
    assert out == ""
    assert "error:" in err and "missing.json" in err


def test_search_missing_index_exits_1(tmp_path, capsys):
    code, _, err = run(capsys, "search", "--index", str(tmp_path / "no.json"),
                       "--intent", "x")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("k", ["0", "-1"])
def test_search_nonpositive_k_exits_1(built_index, capsys, k):
    code, out, err = run(capsys, "search", "--index", str(built_index),
                         "--intent", "http client", "--k", k)
    assert code == 1
    assert out == ""
    assert "final_k" in err


BEAM_BELOW_ONE = [["--beam", "0"], ["--beam", "-3", "--k", "1"], ["--beam", "0", "--k", "3"]]
BEAM_BELOW_ONE_IDS = ["zero", "negative_with_k_1", "zero_with_k_3"]


@pytest.mark.parametrize("flags", BEAM_BELOW_ONE, ids=BEAM_BELOW_ONE_IDS)
def test_search_beam_below_one_exits_1(built_index, capsys, flags):
    # a k wider than the beam widens the beam, but not one below 1
    code, out, err = run(capsys, "search", "--index", str(built_index),
                         "--intent", "http client", *flags)
    assert code == 1
    assert out == ""
    assert "error: beam_width must be >= 1" in err


@pytest.mark.parametrize("flags", BEAM_BELOW_ONE, ids=BEAM_BELOW_ONE_IDS)
def test_bench_tree_beam_below_one_exits_1(built_index, catalog, pairs, tmp_path, capsys,
                                            flags):
    report_path = tmp_path / "report.json"
    code, out, err = run(capsys, "bench", "--solution", "tree", "--index", str(built_index),
                         "--catalog", str(catalog), "--pairs", str(pairs),
                         "--out", str(report_path), *flags)
    assert code == 1
    assert out == ""
    assert "error: beam_width must be >= 1" in err
    assert not report_path.exists()


def test_config_file_beam_below_one_exits_1(built_index, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beam": 0, "k": 1}))
    code, out, err = run(capsys, "--config", str(cfg), "search", "--index", str(built_index),
                         "--intent", "http client")
    assert code == 1
    assert "error: beam_width must be >= 1" in err


def test_search_missing_llm_stub_exits_1(built_index, tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "search", "--index", str(built_index),
                         "--intent", "http client", "--rerank", "--llm-stub", str(missing))
    assert code == 1
    assert out == ""
    assert "error:" in err and "missing.json" in err


STUB_KINDS = ["list", "string", "int-valued", "not-json", "not-utf-8"]


def write_malformed_stub(path, kind, prompt):
    """A stub file that is a JSON list, a JSON string, an object that maps
    ``prompt``'s hash to a number, text that is not JSON, or that object
    with a reply in bytes that are not UTF-8."""
    key = prompt_hash(prompt)
    path.write_bytes({"list": b"[]", "string": b'"a reply"',
                      "int-valued": json.dumps({key: 5}).encode(),
                      "not-json": b"a reply",
                      "not-utf-8": f'{{"{key}": "a r\xe9ply"}}'.encode("latin-1")}[kind])
    return path


@pytest.mark.parametrize("kind", STUB_KINDS)
def test_build_malformed_llm_stub_exits_1(catalog, tmp_path, capsys, kind):
    build = ["build", str(catalog), "--dim", "64", "--max-top", "1"]
    offline = tmp_path / "offline.json"
    assert run(capsys, *build, "--out", str(offline))[0] == 0
    index = load_tree(str(offline))  # the build sends this level-1 cluster's prompt
    prompt = render_summary_prompt(
        [f"{index.nodes[c].name}: {index.nodes[c].summary}"
         for c in index.nodes["L1-0"].children])
    stub = write_malformed_stub(tmp_path / "stub.json", kind, prompt)
    out_path = tmp_path / "recorded.json"
    code, out, err = run(capsys, *build, "--out", str(out_path), "--llm-stub", str(stub))
    assert code == 1
    assert out == "" and "Traceback" not in err
    assert f"error: stub file {stub} is not a JSON object of prompt hash" in err
    assert not out_path.exists()


@pytest.mark.parametrize("kind", STUB_KINDS)
def test_search_rerank_malformed_llm_stub_exits_1(built_index, tmp_path, capsys, kind):
    intent = "http client"
    index = load_tree(str(built_index))
    embedder = _embedder_for_index(index, object(), {})
    candidates = tree_search(index, intent, SearchConfig(beam_width=10, final_k=3), embedder)
    prompt = render_rerank_prompt(  # the prompt this search's re-rank sends
        intent, [(aid, index.summaries[index.leaf_rows[aid]]) for aid in candidates.ids()])
    stub = write_malformed_stub(tmp_path / "stub.json", kind, prompt)
    code, out, err = run(capsys, "search", "--index", str(built_index), "--intent", intent,
                         "--k", "3", "--rerank", "--llm-stub", str(stub))
    assert code == 1
    assert out == "" and "Traceback" not in err
    assert f"error: stub file {stub} is not a JSON object of prompt hash" in err


def test_recorded_replies_reach_the_index_and_the_ranking(catalog, tmp_path, capsys):
    build = ["build", str(catalog), "--dim", "64", "--max-top", "1"]
    offline = tmp_path / "offline.json"
    assert run(capsys, *build, "--out", str(offline))[0] == 0
    # Level 1's clusters come from the leaf rows, so the offline build
    # shows which children one cluster's prompt lists.
    index = load_tree(str(offline))
    node = index.nodes["L1-0"]
    prompt = render_summary_prompt(
        [f"{index.nodes[c].name}: {index.nodes[c].summary}" for c in node.children])
    stub = tmp_path / "build-stub.json"
    stub.write_text(json.dumps({prompt_hash(prompt): "Recorded Feature: a recorded reply"}))
    recorded = tmp_path / "recorded.json"
    assert run(capsys, *build, "--out", str(recorded), "--llm-stub", str(stub))[0] == 0
    index = load_tree(str(recorded))
    assert index.provenance["summarizer"] == "ReplayClient"
    named = [n for n in index.nodes.values() if n.name == "Recorded Feature"]
    assert [(n.id, n.summary, n.children) for n in named] == [
        ("L1-0", "a recorded reply", node.children)]

    intent = "http client"
    embedder = _embedder_for_index(index, object(), {})
    candidates = tree_search(index, intent, SearchConfig(beam_width=10, final_k=3), embedder)
    reversed_ids = candidates.ids()[::-1]
    prompt = render_rerank_prompt(
        intent, [(aid, index.summaries[index.leaf_rows[aid]]) for aid in candidates.ids()])
    stub = tmp_path / "search-stub.json"
    stub.write_text(json.dumps({prompt_hash(prompt): json.dumps(reversed_ids)}))
    code, out, err = run(capsys, "search", "--index", str(recorded), "--intent", intent,
                         "--k", "3", "--rerank", "--llm-stub", str(stub))
    assert code == 0, err
    assert [e["artifact_id"] for e in json.loads(out)["entries"]] == reversed_ids[:3]
    assert reversed_ids[:3] != candidates.ids()[:3]


def test_search_index_with_stored_dim_0_exits_1(built_index, capsys):
    header, payload = read_index(built_index)
    header["config"]["embedder"]["dim"] = 0
    write_index(built_index, header, payload)
    code, out, err = run(capsys, "search", "--index", str(built_index), "--intent", "x")
    assert code == 1
    assert out == ""
    assert "error:" in err and "dim must be >= 1" in err


@pytest.mark.parametrize("field, value", [("dim", 64.0), ("dim", True), ("seed", 0.5),
                                          ("seed", "0"), ("seed", None)])
def test_search_index_with_a_stored_non_integer_setting_exits_1(built_index, capsys, field,
                                                                value):
    header, payload = read_index(built_index)
    header["config"]["embedder"][field] = value
    write_index(built_index, header, payload)
    code, out, err = run(capsys, "search", "--index", str(built_index), "--intent", "x")
    assert code == 1
    assert out == ""
    assert f"error: embedding {field} must be an integer, got {value!r}" in err
    assert "Traceback" not in err


def test_search_ignores_an_unknown_stored_embedder_key(built_index, capsys):
    header, payload = read_index(built_index)
    header["config"]["embedder"]["colour"] = "blue"
    write_index(built_index, header, payload)
    code, out, err = run(capsys, "search", "--index", str(built_index), "--intent", "x")
    assert code == 0, err
    assert json.loads(out)["entries"]


# --- bench ----------------------------------------------------------------

def test_bench_unknown_solution_exits_2(catalog, pairs, tmp_path, capsys):
    code, _, err = run(capsys, "bench", "--solution", "mystery",
                       "--catalog", str(catalog), "--pairs", str(pairs),
                       "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert "tfidf" in err and "tree" in err


def test_bench_wordavg_requires_vectors(catalog, pairs, tmp_path, capsys):
    code, _, err = run(capsys, "bench", "--solution", "wordavg",
                       "--catalog", str(catalog), "--pairs", str(pairs),
                       "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert "--vectors" in err


def test_bench_wordavg_non_finite_vector_exits_1(catalog, pairs, tmp_path, capsys):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("http 1.0 0.0\nlogging nan 1.0\n")
    code, _, err = run(capsys, "bench", "--solution", "wordavg", "--vectors", str(vectors),
                       "--catalog", str(catalog), "--pairs", str(pairs),
                       "--out", str(tmp_path / "r.json"))
    assert code == 1
    assert f"error: word-vector file {vectors}: line 2: non-finite value" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_bench_wordavg_vectors_not_utf8_exit_1_naming_the_file(catalog, pairs, tmp_path,
                                                               capsys):
    vectors = tmp_path / "vectors.txt"
    vectors.write_bytes(b"http 1.0 0.0\nlogg\xe9ing 0.0 1.0\n")
    code, _, err = run(capsys, "bench", "--solution", "wordavg", "--vectors", str(vectors),
                       "--catalog", str(catalog), "--pairs", str(pairs),
                       "--out", str(tmp_path / "r.json"))
    assert code == 1
    assert f"error: word-vector file {vectors}: 'utf-8' codec" in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("text", ["2 0\nhttp\nlogging\n", "http\nlogging 1.0\n"],
                         ids=["header-dim-0", "word-alone"])
def test_bench_wordavg_vectors_that_score_nothing_exit_1(catalog, pairs, tmp_path, capsys,
                                                          text):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text(text)
    code, _, err = run(capsys, "bench", "--solution", "wordavg", "--vectors", str(vectors),
                       "--catalog", str(catalog), "--pairs", str(pairs),
                       "--out", str(tmp_path / "r.json"))
    assert code == 1
    assert "line 1: " in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_bench_wordavg_reads_the_same_vectors_with_and_without_a_header(catalog, pairs, tmp_path,
                                                                        capsys):
    rows = ["structured 1.0 0.0", "logging 0.5 0.5", "http -1.0 0.5", "retries 0.2 0.9",
            "sqlite 0.0 1.0", "runner 0.3 -0.4"]
    reports = []
    for name, header in (("plain", []), ("header", [f"{len(rows)} 2"])):
        vectors = tmp_path / f"vectors-{name}.txt"
        vectors.write_text("\n".join(header + rows) + "\n")
        code, out, _ = run(capsys, "bench", "--solution", "wordavg", "--vectors", str(vectors),
                           "--catalog", str(catalog), "--pairs", str(pairs),
                           "--out", str(tmp_path / f"r-{name}.json"))
        assert code == 0
        reports.append(json.loads(out)["metrics"])
    assert reports[0] == reports[1] and reports[0]


def test_bench_tree_requires_index(catalog, pairs, tmp_path, capsys):
    code, _, err = run(capsys, "bench", "--solution", "tree",
                       "--catalog", str(catalog), "--pairs", str(pairs),
                       "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert "--index" in err


def test_bench_tfidf_report_and_csv(catalog, pairs, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code, out, _ = run(capsys, "bench", "--solution", "tfidf",
                       "--catalog", str(catalog), "--pairs", str(pairs),
                       "--out", str(report_path), "--csv", str(csv_path))
    assert code == 0
    summary = json.loads(out)
    report = json.loads(report_path.read_text())
    assert summary["metrics"] == report["metrics"]
    # intents are verbatim descriptions, so tf-idf must solve all of them
    assert report["metrics"]["p@1"] == 1.0
    assert len(report["records"]) == 3
    assert csv_path.read_text().splitlines()[0].startswith("solution,")


def test_bench_tree_matches_direct_eval(catalog, pairs, built_index, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "bench", "--solution", "tree",
                       "--catalog", str(catalog), "--pairs", str(pairs),
                       "--out", str(report_path), "--index", str(built_index))
    assert code == 0

    # cross-check: rerun the same pipeline through the library API
    from semtree.catalog import load_library, load_pairs
    from semtree.cli import _embedder_for_index
    from semtree.metrics import run_benchmark
    from semtree.search import SearchConfig, recommend
    from semtree.tree import load_tree

    lib = load_library(str(catalog))
    samples = load_pairs(str(pairs), lib)
    index = load_tree(str(built_index))
    embedder = _embedder_for_index(index, object(), {})
    cfg = SearchConfig(beam_width=10, final_k=5)
    direct = run_benchmark(
        "tree", lambda intent: recommend(index, intent, cfg, embedder), samples)
    assert json.loads(out)["metrics"] == direct.metrics


def test_bench_llm_stub_degrades_gracefully(catalog, pairs, tmp_path, capsys):
    stub = tmp_path / "stub.json"
    stub.write_text("{}")  # no recorded responses: every call fails
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "bench", "--solution", "llm",
                       "--catalog", str(catalog), "--pairs", str(pairs),
                       "--out", str(report_path), "--llm-stub", str(stub))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert len(report["records"]) == 3  # no sample aborted the run


@pytest.mark.parametrize("k", ["0", "-2"])
def test_bench_llm_nonpositive_k_exits_1(catalog, pairs, tmp_path, capsys, k):
    stub = tmp_path / "stub.json"
    stub.write_text("{}")
    report_path = tmp_path / "report.json"
    code, out, err = run(capsys, "bench", "--solution", "llm", "--k", k,
                         "--catalog", str(catalog), "--pairs", str(pairs),
                         "--out", str(report_path), "--llm-stub", str(stub))
    assert code == 1
    assert out == ""
    assert "final_k" in err
    assert not report_path.exists()


# --- remote providers -------------------------------------------------------

PROVIDER_COMMANDS = {
    "search-rerank": ("LLM_API_BASE", "search --index {index} --intent x --rerank"),
    "bench-llm": ("LLM_API_BASE",
                  "bench --solution llm --catalog {catalog} --pairs {pairs} --out {out}"),
    "build-remote": ("EMBED_API_BASE", "build {catalog} --out {out} --provider remote"),
}


@pytest.mark.parametrize("name", sorted(PROVIDER_COMMANDS))
def test_unset_provider_endpoint_exits_1(name, catalog, pairs, built_index, tmp_path,
                                         capsys, monkeypatch):
    base_env, command = PROVIDER_COMMANDS[name]
    monkeypatch.delenv(base_env, raising=False)
    argv = command.format(index=built_index, catalog=catalog, pairs=pairs,
                          out=tmp_path / "out.json").split()
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"error: no endpoint configured: set {base_env}" in err
    assert "Traceback" not in err


def test_remote_index_embedder_takes_the_config_endpoint(built_index, tmp_path,
                                                        monkeypatch):
    monkeypatch.delenv("EMBED_API_BASE", raising=False)
    header, payload = read_index(built_index)
    header["config"]["embedder"]["provider"] = "remote"
    write_index(built_index, header, payload)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"embed_endpoint": "http://localhost:9/embed"}))
    args = build_parser().parse_args(["--config", str(cfg), "search",
                                      "--index", str(built_index), "--intent", "x"])
    embedder = _embedder_for_index(load_tree(args.index), args,
                                   _load_config_file(args.config))
    assert isinstance(embedder, RemoteEmbedder)
    assert embedder.cfg.endpoint == "http://localhost:9/embed"


# --- secrets never reach logs or reports ----------------------------------

def test_secrets_absent_from_output_and_logs(catalog, pairs, tmp_path, capsys,
                                             caplog, monkeypatch):
    sentinel = "sk-sentinel-9f8e7d6c"
    monkeypatch.setenv("LLM_API_KEY", sentinel)
    monkeypatch.setenv("EMBED_API_KEY", sentinel)
    idx = tmp_path / "index.json"
    report = tmp_path / "report.json"
    with caplog.at_level("DEBUG"):
        assert main(["build", str(catalog), "--out", str(idx), "--dim", "64"]) == 0
        assert main(["search", "--index", str(idx), "--intent", "http client"]) == 0
        assert main(["bench", "--solution", "bm25", "--catalog", str(catalog),
                     "--pairs", str(pairs), "--out", str(report)]) == 0
    captured = capsys.readouterr()
    assert sentinel not in captured.out
    assert sentinel not in captured.err
    assert sentinel not in caplog.text
    assert sentinel.encode() not in idx.read_bytes()
    assert sentinel not in report.read_text()
