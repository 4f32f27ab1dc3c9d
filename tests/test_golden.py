import json

from record_golden import GOLDEN, golden_outputs


def test_golden_outputs_unchanged(tmp_path):
    # blocked sets, the community walk, reach sums and evaluate's output
    # bytes, recorded by tests/record_golden.py; a mismatch means an
    # output moved, and the key says which
    expected = json.loads(GOLDEN.read_text())
    got = golden_outputs(tmp_path)
    for key, value in expected.items():
        assert got.get(key) == value, key
    assert got.keys() == expected.keys()
