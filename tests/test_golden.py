"""The constructed commands keep their output bytes (``golden.json``, written by ``golden.py``).

On a platform whose key the file holds, each digested stream's SHA-256
must match. On every platform, that key or another, each stream's text
must match with its numbers masked, and its numbers the stored ones at
the file's relative tolerance, so no platform passes unchecked.
"""

import numpy as np
import pytest

import golden

DATA = golden.load()


def test_file_lists_the_commands_of_the_script():
    assert [(c["name"], c["argv"], list(c["streams"])) for c in DATA["commands"]] == [
        (name, argv, streams) for name, argv, streams in golden.COMMANDS]
    assert DATA["rtol"] == golden.RTOL
    assert all(set(d) == {c["name"] for c in DATA["commands"]} for d in DATA["digests"].values())


@pytest.mark.parametrize("command", DATA["commands"], ids=lambda c: c["name"])
def test_command_keeps_its_output(command, tmp_path):
    code, texts = golden.run(command["argv"], tmp_path)
    assert code == command["exit"]
    digests = DATA["digests"].get(golden.digest_key())
    if digests is not None:
        assert {s: golden.sha256(texts[s]) for s in command["streams"]} == digests[command["name"]]
    for stream, held in command["streams"].items():
        text, values = golden.cells(texts[stream])
        assert text == held["text"], stream
        assert len(values) == len(held["values"]), stream
        np.testing.assert_allclose(values, held["values"], rtol=DATA["rtol"], atol=0, err_msg=stream)
