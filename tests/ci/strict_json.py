"""The reports of the console-script step are strict JSON (no NaN or
Infinity), and the fields that step relies on hold: init is the --init
default, a missed fit says so, and a validate run whose fits all failed
summarizes nothing.

Not collected by pytest.  Run it in the directory holding fresh-fit/,
even-fit/ and failed-runs/:

    python tests/ci/strict_json.py
"""

import json


def reject(constant):
    raise ValueError(f"{constant} is not JSON")


with open("fresh-fit/estimate.json", encoding="utf-8") as f:
    report = json.load(f, parse_constant=reject)
assert report["init"] == [0.5, 1.5, 2.0], report["init"]
with open("even-fit/estimate.json", encoding="utf-8") as f:
    assert json.load(f, parse_constant=reject)["converged"] is False
with open("failed-runs/validate.json", encoding="utf-8") as f:
    harness = json.load(f, parse_constant=reject)
assert harness["summary"]["alpha"] == {"mean": None, "sd": None}, harness["summary"]
assert harness["runs"][1]["residual_norm"] is None, harness["runs"][1]
