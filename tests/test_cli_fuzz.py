"""Seeded mutations of the CLI's argv and of the JSON files it reads.

Whatever the input, `cli.main` must exit 0, 1, 2 or 3 and print exactly one
JSON line on stdout.  A traceback exits 1 and would read as "refuted".
"""

import copy
import json
import random

from cyclecert.cli import main
from cyclecert.formats import dump_json

SEED = 20261018

# Values a mutated file field may take instead of its own.
JUNK_VALUES = [None, 5, -1, 0, 1.5, True, "x", "", [], {}, [1, 2], {"num": 1, "den": 0}]

# Tokens a mutated argv may take instead of one of its own.  No "-h": help
# text is the one output that is not JSON.
JUNK_ARGS = ["", "x", "0", "-1", "3", "1/0", "5/2", "-7/3", "1,2,,3", "--list", "--bogus",
             "torus:3:3", "cycle:0", "kmn:0:2", "columns:3:3", "columns:3", "@missing.txt",
             "0-1,1-2", "nan", "1e9", "below", "above", "equality"]


def _call(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code in (0, 1, 2, 3), (argv, code, out)
    assert out.endswith("\n") and out.count("\n") == 1, (argv, out)
    return code, json.loads(out)


def _base_documents(capsys):
    """One valid document per kind of file; certificates as `certify sum` prints them."""
    _, cert = _call(capsys, ["certify", "sum", "--list", "0,1/2,4,-3/7", "--h", "5"])
    _, eq = _call(capsys, ["certify", "sum", "--list", "0,0,4,0", "--h", "4",
                           "--direction", "equality", "--epsilon", "1/4"])
    return {
        "certificate": cert,
        "bare certificate": cert["certificate"],
        "equality": eq,
        "partition": {"parts": [[0, 3, 6], [1, 4, 7], [2, 5, 8]]},
        "decomposition": {
            "pieces": [
                {"vertices": [0, 2, 3, 4], "edges": [[0, 2], [0, 3], [0, 4]]},
                {"vertices": [1, 2, 3, 4], "edges": [[1, 2], [1, 3], [1, 4]]},
            ]
        },
        "drawing": {
            "surface": "plane",
            "graph": {"n": 6, "edges": [[0, 2], [2, 4], [0, 4], [1, 3], [3, 5], [1, 5]]},
            "crossings": [[[0, 2], [1, 3]], [[2, 4], [3, 5]]],
        },
        "graph": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]},
    }


def _readers(path):
    """The argv that reads each kind of file from `path`."""
    cert_argv = ["certify", "verify", "--list", "0,1/2,4,-3/7", "--certificate", path]
    return {
        "certificate": cert_argv,
        "bare certificate": cert_argv,
        "equality": ["certify", "verify", "--list", "0,0,4,0", "--certificate", path],
        "partition": ["partition", "check", "--graph", "torus:3:3", "--partition", path,
                      "--transitive"],
        "decomposition": ["decomposition", "check", "--graph", "kmn:2:3", "--decomposition",
                          path, "--transitive"],
        "drawing": ["drawing", "parity", "--drawing", path, "--cycle-a", "0-2,2-4,0-4",
                    "--cycle-b", "1-3,3-5,1-5"],
        "graph": ["generate", "--graph", f"@{path}"],
    }


def _slots(doc):
    """(container, key) for every value nested in doc."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield doc, key
        yield from _slots(value)


def _mutate_document(rng, doc):
    """The document with one value dropped, retyped or nested, or the text cut short."""
    doc = copy.deepcopy(doc)
    how = rng.choice(["drop", "swap", "nest", "truncate", "root"])
    if how == "truncate":
        text = dump_json(doc)
        return text[: rng.randrange(len(text))]
    if how == "root":
        return dump_json(rng.choice(JUNK_VALUES))
    container, key = rng.choice(list(_slots(doc)))
    if how == "drop":
        del container[key]
    elif how == "swap":
        container[key] = copy.deepcopy(rng.choice(JUNK_VALUES))
    else:
        container[key] = rng.choice([[container[key]], {"value": container[key]}])
    return dump_json(doc)


def _mutate_argv(rng, argv):
    """argv with one token dropped, replaced, cut short or swapped with the next."""
    argv = list(argv)
    i = rng.randrange(len(argv))
    how = rng.choice(["drop", "replace", "truncate", "swap"])
    if how == "drop":
        del argv[i]
    elif how == "replace":
        argv[i] = rng.choice(JUNK_ARGS)
    elif how == "truncate":
        argv[i] = argv[i][: rng.randrange(len(argv[i]) + 1)]
    elif i + 1 < len(argv):
        argv[i], argv[i + 1] = argv[i + 1], argv[i]
    return argv


def test_mutated_files_give_one_json_line_and_a_known_exit(capsys, tmp_path):
    rng = random.Random(SEED)
    bases = _base_documents(capsys)
    path = tmp_path / "input.json"
    readers = _readers(str(path))
    for kind, doc in bases.items():
        path.write_text(dump_json(doc), encoding="utf-8")
        assert _call(capsys, readers[kind])[0] == 0, kind
        for _ in range(60):
            path.write_text(_mutate_document(rng, doc), encoding="utf-8")
            _call(capsys, readers[kind])


def test_mutated_argv_gives_one_json_line_and_a_known_exit(capsys, tmp_path):
    rng = random.Random(SEED + 1)
    bases = _base_documents(capsys)
    paths = {}
    for kind in ("certificate", "equality", "partition", "decomposition", "drawing"):
        paths[kind] = str(tmp_path / f"{kind}.json")
        (tmp_path / f"{kind}.json").write_text(dump_json(bases[kind]), encoding="utf-8")
    pieces = str(tmp_path / "pieces.json")
    (tmp_path / "pieces.json").write_text(dump_json({"pieces": [
        {"vertices": [0, 2, 4], "edges": [[0, 2], [2, 4], [0, 4]]},
        {"vertices": [1, 3, 5], "edges": [[1, 3], [3, 5], [1, 5]]},
    ]}), encoding="utf-8")
    commands = [
        ["certify", "sum", "--list", "0,1/2,4,-3/7", "--h", "5", "--direction", "below"],
        ["certify", "sum", "--list", "0,0,4,0", "--h", "4", "--direction", "equality",
         "--epsilon", "1/4"],
        ["certify", "verify", "--list", "0,1/2,4,-3/7", "--certificate", paths["certificate"]],
        ["certify", "verify", "--list", "0,0,4,0", "--certificate", paths["equality"]],
        ["domination", "solve", "--graph", "torus:3:3", "--variant", "paired", "--mode", "min",
         "--budget-nodes", "100000"],
        ["domination", "corollary", "--graph", "torus:3:3", "--partition", "columns:3:3",
         "--h", "3", "--mode", "search", "--budget-nodes", "100000"],
        ["partition", "check", "--graph", "torus:3:3", "--partition", paths["partition"],
         "--transitive"],
        ["partition", "find", "--graph", "cycle:6", "--t", "3", "--budget-nodes", "1000"],
        ["decomposition", "check", "--graph", "kmn:2:3", "--decomposition",
         paths["decomposition"], "--transitive"],
        ["drawing", "check", "--drawing", paths["drawing"]],
        ["drawing", "convex", "--graph", "cycle:5", "--order", "0,2,4,1,3"],
        ["drawing", "parity", "--drawing", paths["drawing"], "--cycle-a", "0-2,2-4,0-4",
         "--cycle-b", "1-3,3-5,1-5"],
        ["drawing", "certify", "--drawing", paths["drawing"], "--pieces", pieces, "--h", "2",
         "--direction", "below"],
        ["generate", "--graph", "torus:3:3"],
    ]
    for argv in commands:
        _call(capsys, argv)
        for _ in range(25):
            _call(capsys, _mutate_argv(rng, argv))
