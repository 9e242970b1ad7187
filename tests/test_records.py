"""The shared BENCH record header, validator helper and publisher."""

import json
import os

from repro.records import check_header, header, publish, require


def _validate(document):
    problems = []
    if check_header(document, "demo", 1, problems):
        require(problems, isinstance(document.get("values"), list),
                "'values' is not a list")
    return problems


def test_header_carries_provenance():
    document = header("demo", 1)
    assert sorted(document) == ["cpu_count", "kind", "python",
                                "revision", "schema"]
    assert document["kind"] == "demo" and document["schema"] == 1
    assert document["cpu_count"] == (os.cpu_count() or 1)
    assert _validate(dict(document, values=[])) == []


def test_check_header_names_each_bad_field():
    assert _validate([]) == ["document is not an object"]
    document = dict(header("demo", 1), values=[])
    for field, value in (("schema", 2), ("kind", "other"),
                         ("revision", None), ("python", 3),
                         ("cpu_count", 0)):
        problems = _validate(dict(document, **{field: value}))
        assert len(problems) == 1 and field in problems[0], problems
    # the retired revision field names are not read
    legacy = dict(document, git_rev=document["revision"])
    del legacy["revision"]
    assert _validate(legacy) == ["'revision' is not a string"]


def test_publish_writes_only_a_clean_record(tmp_path):
    path = tmp_path / "sub" / "BENCH_demo.json"
    bad = dict(header("demo", 1), values="nope")
    assert publish(bad, str(path), _validate) == ["'values' is not a list"]
    assert not path.exists()
    good = dict(header("demo", 1), values=(3, 1))
    assert publish(good, str(path), _validate) == []
    text = path.read_text()
    # what was validated is the sorted, indented JSON that was written
    assert text == json.dumps(json.loads(text), indent=2,
                              sort_keys=True) + "\n"
    assert json.loads(text)["values"] == [3, 1]
    assert os.listdir(path.parent) == [path.name]
