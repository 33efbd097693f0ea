import json
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from cyclecert.cli import main
from cyclecert.crossing import convex_drawing
from cyclecert.cyclic_core import (
    BoundSpec,
    Direction,
    equality_certificate,
    find_rotation,
    total,
    verify_certificate,
)
from cyclecert.formats import (
    certificate_from_json,
    certificate_to_json,
    decomposition_from_json,
    decomposition_to_json,
    drawing_from_json,
    drawing_to_json,
    dump_json,
    equality_from_json,
    equality_to_json,
    fraction_from_json,
    fraction_to_json,
    graph_from_json,
    graph_to_json,
    parse_graph_spec,
    parse_int,
    partition_from_json,
    partition_to_json,
)
from cyclecert.graphs import cartesian_cycles, circulant, complete, complete_bipartite, cycle
from cyclecert.structures import (
    EdgeDecomposition,
    Piece,
    VertexPartition,
    star_decomposition_bipartite,
)


def test_fraction_roundtrip():
    for fr in [F(0), F(5, 3), F(-7, 2), F(4)]:
        assert fraction_from_json(fraction_to_json(fr)) == fr


def test_fraction_parse_rejects_bad_shapes():
    with pytest.raises(ValueError):
        fraction_from_json({"num": 1})
    with pytest.raises(ValueError):
        fraction_from_json({"num": 1, "den": 0})
    with pytest.raises(ValueError):
        fraction_from_json({"num": 1, "den": -2})
    with pytest.raises(ValueError):
        fraction_from_json({"num": 1.5, "den": 2})
    with pytest.raises(ValueError):
        fraction_from_json({"num": True, "den": 2})


def test_certificate_roundtrip():
    cert = find_rotation([0, 0, 4, 0], 5, Direction.BELOW)
    doc = certificate_to_json(cert, F(5))
    clone, h = certificate_from_json(json.loads(dump_json(doc)))
    assert clone == cert and h == F(5)


def test_certificate_parse_rejects_mismatched_n():
    cert = find_rotation([0, 0, 4, 0], 5, Direction.BELOW)
    doc = certificate_to_json(cert, F(5))
    doc["n"] = 3
    with pytest.raises(ValueError):
        certificate_from_json(doc)
    del doc["n"]
    with pytest.raises(ValueError):
        certificate_from_json(doc)


def test_certificate_parse_rejects_bad_direction():
    cert = find_rotation([0, 0, 4, 0], 5, Direction.BELOW)
    doc = certificate_to_json(cert, F(5))
    doc["direction"] = "sideways"
    with pytest.raises(ValueError):
        certificate_from_json(doc)


def test_dump_json_is_one_line_that_parses_back():
    cert = find_rotation([0, F(1, 2), 4, F(-3, 7)], 5, Direction.BELOW)
    doc = {"found": True, "certificate": certificate_to_json(cert, F(5)), "note": "a\nb"}
    text = dump_json(doc)
    assert text.endswith("\n") and text.count("\n") == 1
    assert json.loads(text) == doc


def _one_entry_certificate(entry):
    return {"direction": "below", "k": 1, "n": 1, "h": {"num": 5, "den": 1}, "prefix": [entry]}


@pytest.mark.parametrize(
    "entry",
    [
        {"num": 1, "den": 2},
        {"num": 2, "den": 4},
        {"num": -6, "den": 3},
        {"num": 0, "den": 7},
        {"num": 1, "den": 0},
        {"num": 1, "den": -2},
        {"num": -2, "den": -4},
        {"num": True, "den": 2},
        {"num": 1, "den": True},
        {"num": 1.5, "den": 2},
        {"num": 1, "den": 2.0},
        {"num": 1, "den": 2, "extra": 0},
        {"num": 1},
        {"den": 2},
        {"num": 1, "denominator": 2},
        {},
        1.5,
        3,
        None,
        [1, 2],
    ],
    ids=repr,
)
def test_prefix_reader_agrees_with_fraction_from_json(entry):
    try:
        want = fraction_from_json(entry)
    except ValueError:
        want = None
    try:
        cert, _ = certificate_from_json(_one_entry_certificate(entry))
        got = cert.prefix_sums[0]
    except ValueError:
        got = None
    assert got == want
    if want is not None:
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_prefix_reader_normalizes_unreduced_entries():
    cert, _ = certificate_from_json(_one_entry_certificate({"num": 2, "den": 4}))
    assert cert.prefix_sums == (F(1, 2),)


def test_prefix_reader_puts_the_entries_over_the_lcm_of_their_denominators():
    doc = _one_entry_certificate({"num": 1, "den": 2})
    doc["prefix"] += [{"num": 2, "den": 3}, {"num": 3, "den": 4}]
    doc["n"] = 3
    cert, _ = certificate_from_json(doc)
    assert (cert.prefix_sums.scaled, cert.prefix_sums.den) == ((6, 8, 9), 12)
    assert cert.prefix_sums == (F(1, 2), F(2, 3), F(3, 4))


def _odd_primes(count):
    primes = []
    c = 3
    while len(primes) < count:
        if all(c % p for p in primes if p * p <= c):
            primes.append(c)
        c += 2
    return primes


def test_a_reader_given_the_list_refuses_a_table_over_distinct_primes_in_small_memory():
    # Over the lcm of its dens this table would take about 29 MB and seconds.
    n = 4000
    doc = {"direction": "below", "k": 1, "n": n, "h": {"num": n, "den": 1},
           "prefix": [{"num": 1, "den": p} for p in _odd_primes(n)]}
    xs = [0] * n
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="prefix entry 1 is 1/3, but every prefix sum"):
            certificate_from_json(doc, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    with pytest.raises(ValueError, match="prefix entry 1 is 1/3"):
        equality_from_json({"h": {"num": n, "den": 1}, "epsilon": {"num": 1, "den": 2},
                            "below": doc, "above": doc}, xs)


def test_a_reader_given_the_list_takes_every_entry_that_is_an_integer_over_d():
    xs = [F(1, 2), 1, F(-1, 2)]  # with h = 4/3, D is 6
    found = find_rotation(xs, F(4, 3), Direction.BELOW)
    doc = json.loads(dump_json(certificate_to_json(found, F(4, 3))))
    for entry in doc["prefix"]:  # dens 4 and 2, and 4 does not divide 6
        entry["num"] *= 2
        entry["den"] *= 2
    cert, h = certificate_from_json(doc, xs)
    assert cert == found and hash(cert) == hash(found) and cert == certificate_from_json(doc)[0]
    assert cert.prefix_sums.den == 2 and verify_certificate(xs, h, cert)
    # 1/4 is no integer over 6; without the list the reader takes it
    doc["prefix"][0] = {"num": 1, "den": 4}
    with pytest.raises(ValueError, match="prefix entry 1 is 1/4, but every prefix sum of the list is an integer over 6"):
        certificate_from_json(doc, xs)
    cert, h = certificate_from_json(doc)
    assert cert.prefix_sums.den == 4 and not verify_certificate(xs, h, cert)


@pytest.mark.parametrize("prefix", [5, None, "1/2", {"num": 1, "den": 2}])
def test_certificate_parse_rejects_a_prefix_that_is_not_a_list(prefix):
    doc = _one_entry_certificate({"num": 1, "den": 2})
    doc["prefix"] = prefix
    with pytest.raises(ValueError):
        certificate_from_json(doc)


def _mixed_list(rng, n):
    dens = (1, 2, 3, 4, 5, 6, 8, 12)
    return [F(rng.randint(-50, 50), rng.choice(dens)) for _ in range(n)]


@pytest.mark.parametrize("n", [1_000, 10_000, 100_000])
def test_large_certificates_survive_the_json_round_trip(n):
    xs = _mixed_list(random.Random(n), n)
    s = total(xs)
    for h, direction in ((s + 1, Direction.BELOW), (s - 1, Direction.ABOVE)):
        cert = find_rotation(xs, h, direction)
        back = certificate_from_json(json.loads(dump_json(certificate_to_json(cert, h))))
        assert back == (cert, h)
        assert verify_certificate(xs, back[1], back[0])


def test_a_found_certificate_equals_its_json_round_trip_with_equal_hashes():
    xs = [F(1, 2), -3, 2, F(1, 3), F(-5, 6), 4]
    h = total(xs) + F(1, 5)
    cert = find_rotation(xs, h, Direction.BELOW)
    doc = json.loads(dump_json(certificate_to_json(cert, h)))
    back, _ = certificate_from_json(doc)
    assert back == cert and hash(back) == hash(cert)
    # unreduced entries read back to the same canonical table
    for entry in doc["prefix"]:
        entry["num"] *= 3
        entry["den"] *= 3
    again, _ = certificate_from_json(doc)
    assert (again.prefix_sums.scaled, again.prefix_sums.den) == (cert.prefix_sums.scaled, cert.prefix_sums.den)
    assert again == cert and hash(again) == hash(cert)


def test_certificate_json_writes_each_entry_in_lowest_terms():
    xs = [F(1, 2), F(1, 2), F(1, 3)]
    cert = find_rotation(xs, 2, Direction.BELOW)
    assert cert.prefix_sums.den == 6
    doc = certificate_to_json(cert, F(2))
    assert [(p["num"], p["den"]) for p in doc["prefix"]] == [(p.numerator, p.denominator) for p in cert.prefix_sums]
    assert any(p["den"] != 6 for p in doc["prefix"])


def test_certify_sum_output_is_pinned_byte_for_byte(capsys):
    assert main(["certify", "sum", "--list", "3,-1/2,2,-2", "--h", "4"]) == 0
    assert capsys.readouterr().out == (
        '{"found":true,"certificate":{"direction":"below","k":2,"n":4,"h":{"num":4,"den":1},'
        '"prefix":[{"num":-1,"den":2},{"num":3,"den":2},{"num":-1,"den":2},{"num":5,"den":2}]}}\n'
    )


def test_equality_roundtrip():
    bound = BoundSpec(h=4, epsilon=F(1, 4))
    eq = equality_certificate([0, 0, 4, 0], bound)
    doc = equality_to_json(eq, bound)
    clone, bound2 = equality_from_json(json.loads(dump_json(doc)))
    assert clone == eq and bound2 == bound


def test_equality_parse_rejects_inconsistent_bounds():
    bound = BoundSpec(h=4, epsilon=F(1, 4))
    eq = equality_certificate([0, 0, 4, 0], bound)
    doc = equality_to_json(eq, bound)
    with pytest.raises(ValueError, match="lacks field 'below'"):
        equality_from_json({key: value for key, value in doc.items() if key != "below"})
    with pytest.raises(ValueError, match="must be an object"):
        equality_from_json([doc])
    doc["epsilon"] = fraction_to_json(F(1, 2))
    with pytest.raises(ValueError):
        equality_from_json(doc)


@pytest.mark.parametrize("spec", ["cycle:5", "torus:3:4", "circulant:12:1,4", "complete:5", "kmn:2:3"])
def test_graph_file_round_trip(tmp_path, spec):
    g = parse_graph_spec(spec)
    path = tmp_path / "g.json"
    path.write_text(dump_json(graph_to_json(g)), encoding="utf-8")
    assert parse_graph_spec(f"@{path}") == g


def test_graph_file_rejects_malformed(tmp_path):
    cases = {
        "text.txt": ("4 4\n0 1\n1 2\n2 3\n0 3\n", "not valid JSON"),
        "cut.json": ('{"n": 4, "edges": [[0, 1]', "not valid JSON"),
        "deep.json": ("[" * 100_000 + "]" * 100_000, "nests too deeply"),
        "list.json": ("[[0, 1]]", "object with n and edges"),
        "bool.json": ('{"n": true, "edges": []}', "n must be an integer, got True"),
        "float.json": ('{"n": 4.0, "edges": []}', "n must be an integer, got 4.0"),
    }
    for name, (text, detail) in cases.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=detail):
            parse_graph_spec(f"@{tmp_path / name}")
    with pytest.raises(ValueError, match="cannot read"):
        parse_graph_spec(f"@{tmp_path / 'missing.json'}")


def test_parse_int_takes_ascii_digits_with_an_optional_sign():
    assert [parse_int(t) for t in ("0", "17", "-4", "+9", "007")] == [0, 17, -4, 9, 7]
    # int() would read the first four
    for bad in ("1_0", "\u0663", " 3", "3 ", "", "-", "+-1", "0x10", "1.0"):
        with pytest.raises(ValueError, match="decimal digits"):
            parse_int(bad)
    with pytest.raises(ValueError, match="^in spec: expected"):
        parse_int("x", "in spec: ")


def test_graph_specs_take_plain_decimal_digits():
    for spec in ("cycle:1_0", "torus:3:\u0664", "circulant:12:1,4_0", "kmn:2: 3"):
        with pytest.raises(ValueError, match="decimal digits"):
            parse_graph_spec(spec)
    assert parse_graph_spec("circulant:8:1, 4") == circulant(8, [1, 4])


def test_circulant_strides_refuse_an_empty_item():
    for spec in ("circulant:12:1,,4", "circulant:12:1,4,", "circulant:12:"):
        with pytest.raises(ValueError, match="empty item"):
            parse_graph_spec(spec)


def test_graph_json_roundtrip():
    g = complete_bipartite(2, 3)
    assert graph_from_json(graph_to_json(g)) == g


def test_graph_spec_families():
    assert parse_graph_spec("cycle:5") == cycle(5)
    assert parse_graph_spec("torus:3:4") == cartesian_cycles(3, 4)
    assert parse_graph_spec("circulant:8:1,4") == circulant(8, [1, 4])
    assert parse_graph_spec("complete:4") == complete(4)
    assert parse_graph_spec("kmn:2:3") == complete_bipartite(2, 3)
    assert parse_graph_spec(" CYCLE:5 ") == cycle(5)


def test_graph_spec_rejects_unknown():
    with pytest.raises(ValueError):
        parse_graph_spec("moebius:5")
    with pytest.raises(ValueError):
        parse_graph_spec("cycle:5:6")
    with pytest.raises(ValueError):
        parse_graph_spec("cycle:x")
    with pytest.raises(ValueError):
        parse_graph_spec("")


def test_graph_spec_file_reference(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(dump_json(graph_to_json(cycle(4))), encoding="utf-8")
    assert parse_graph_spec(f"@{path}") == cycle(4)
    with pytest.raises(ValueError):
        parse_graph_spec(f"@{tmp_path / 'missing.json'}")


def test_partition_roundtrip_preserves_order():
    p = VertexPartition((frozenset({3, 4, 5}), frozenset({0, 1, 2})))
    doc = partition_to_json(p)
    assert doc["parts"] == [[3, 4, 5], [0, 1, 2]]
    assert partition_from_json(doc) == p


def test_partition_parse_rejects_bad_shape():
    with pytest.raises(ValueError):
        partition_from_json({"parts": "nope"})
    with pytest.raises(ValueError):
        partition_from_json([])
    for part in ([0, [1]], [0, "1"], [0, 1.0], [0, True], 5):
        with pytest.raises(ValueError):
            partition_from_json({"parts": [part, [2, 3]]})


def test_decomposition_roundtrip():
    dec = star_decomposition_bipartite(2, 3)
    assert decomposition_from_json(decomposition_to_json(dec)) == dec


def test_decomposition_parse_normalizes_edges():
    doc = {"pieces": [{"vertices": [0, 1], "edges": [[1, 0]]}]}
    dec = decomposition_from_json(doc)
    assert dec.pieces[0].edges == frozenset({(0, 1)})


def test_decomposition_parse_rejects_missing_fields():
    with pytest.raises(ValueError):
        decomposition_from_json({"pieces": [{"vertices": [0, 1]}]})
    with pytest.raises(ValueError):
        decomposition_from_json({})
    for pieces in (5, [5], [{"vertices": 5, "edges": []}], [{"vertices": [0, 1], "edges": [[0]]}],
                   [{"vertices": [0, 1], "edges": 7}], [{"vertices": [0, 1], "edges": [[0, "1"]]}]):
        with pytest.raises(ValueError):
            decomposition_from_json({"pieces": pieces})


def test_drawing_roundtrip_inline_graph():
    d = convex_drawing(complete(5))
    doc = drawing_to_json(d)
    assert doc["surface"] == "plane"
    clone = drawing_from_json(json.loads(dump_json(doc)))
    assert clone == d


def test_drawing_refuses_a_spec_string_graph():
    doc = {**drawing_to_json(convex_drawing(complete(5))), "graph": "complete:5"}
    with pytest.raises(ValueError, match="object with n and edges"):
        drawing_from_json(doc)


def test_drawing_refuses_a_file_graph(tmp_path, monkeypatch):
    # the file exists and holds a valid graph, named relative to the working
    # directory and by its absolute path
    (tmp_path / "hexagon.json").write_text(dump_json(graph_to_json(cycle(6))), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for graph in ("@hexagon.json", f"@{tmp_path / 'hexagon.json'}"):
        with pytest.raises(ValueError, match="object with n and edges"):
            drawing_from_json({"surface": "plane", "graph": graph, "crossings": []})


def test_drawing_rejects_unknown_surface():
    with pytest.raises(ValueError, match="unsupported surface"):
        drawing_from_json({"surface": "torus", "graph": graph_to_json(cycle(4)), "crossings": []})


def test_drawing_rejects_bad_crossing_entries():
    square = graph_to_json(cycle(4))
    with pytest.raises(ValueError, match=r"crossing pair \[\[0, 1\]\] is not two edges"):
        drawing_from_json({"graph": square, "crossings": [[[0, 1]]]})
    with pytest.raises(ValueError, match="crossings must be a list"):
        drawing_from_json({"graph": square, "crossings": "nope"})
    with pytest.raises(ValueError, match=r"crossing pair \[\[0, 1\], 5\]: edge 5 is not two vertex ids"):
        drawing_from_json({"graph": square, "crossings": [[[0, 1], 5]]})


@pytest.mark.parametrize(
    "graph",
    [{"n": 4, "edges": [5]}, {"n": 4, "edges": 5}, {"n": 4, "edges": [[0, 1, 2]]},
     {"n": "4", "edges": []}, {"n": 4, "edges": [[0, None]]}, {"n": 4}],
    ids=repr,
)
def test_inline_graph_rejects_bad_shapes(graph):
    with pytest.raises(ValueError):
        drawing_from_json({"graph": graph, "crossings": []})
