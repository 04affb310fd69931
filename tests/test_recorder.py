"""The benchmark's reference recorder reproduces every committed reference.

``perfbench/record.py`` writes the files the benchmark's correctness gate
compares with, at full benchmark size; ``perfbench/test_smoke.py`` runs only
tiny subsets.  Here each recorder runs in process, writes nothing, and its
payload, dumped as the recorder dumps it, must equal the committed file
byte for byte, so a change to any output the benchmark pins shows here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def recorder():
    """perfbench/record.py, loaded by path, with the quasinv it imports;
    sys.path is restored afterwards."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        path = PERFBENCH / "record.py"
        spec = importlib.util.spec_from_file_location("_perfbench_record",
                                                      path)
        record = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(record)
        q, cli = record.wl.import_quasinv()
        yield record, q, cli


@pytest.mark.parametrize("name", ["verify_even", "check_stream",
                                  "oracle_ladder"])
def test_recorder_reproduces_the_reference(recorder, name):
    record, q, cli = recorder
    args = (q, cli) if name == "verify_even" else (q,)
    payload = getattr(record, f"record_{name}")(*args)
    # the dump of record._write
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    assert text == (record.wl.REFERENCE_DIR / f"{name}.json").read_text()
