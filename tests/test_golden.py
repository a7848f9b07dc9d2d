"""Seeded outputs pinned across commits.

Each case runs ``skysearch run`` at a fixed seed and compares the sha256 of
``record.json``, ``trajectory.csv`` and ``solver_trace.csv`` with values
captured before the three flight loops were merged into one flight object.
The cases cover both built-in scenarios in all three modes, including hybrid
flights that inspect and offboard flights that confirm. A pure refactor must
keep every hash. A change that deliberately alters the random draw streams
(for example drawing the planner's Gaussian noise in blocks from numpy)
updates the hashes here and says so in CHANGES.md.

Criterion 10 of the acceptance suite only compares two runs of the same
code; this module compares the code with its earlier self.
"""

import hashlib
import json

import pytest

from skysearch import cli

FILES = ("record.json", "trajectory.csv", "solver_trace.csv")

# (scenario, mode, seed, outcome, inspections, sha256 of FILES; None = not written)
CASES = [
    ("l1", "mission", 7, "Confirmed", 0, (
        "63ce1a93b6089582cd4093056ad8de89e38fabe9e742546468648b06cd703f45",
        "bb839dce09c636a5fcb9f2b86bb7ee85fb1ad8a41ce09e537bbff97d32b6b211",
        None)),
    ("l1", "offboard", 3, "Confirmed", 0, (
        "779dd4d375cbbf1843dc8753c72cb0016e54b4cd2ff14db3123314291554276f",
        "49925afaef1f920068d011deb5d4c6a380483a82707f83a2b6a7bd7bdfe4aae3",
        "baa4137fc9a45a3fd31c30d88778ce62299384d1706325e8e4f739ecfd62a440")),
    ("l1", "hybrid", 2, "SurveyCompleteNoVictim", 1, (
        "9b57afc55bf6d7647c61c02227cb5a95a740a1097c91edc718dbe81a0ff15d7f",
        "9c2be28d11ea529bd5e71f6a3459e2afed0d2ae35a14a02547cfdfbe5dafc9fb",
        "fac7d4609e47aedff7895baddbb8f554aab8dd2c02aea1516f4fc28f670c4fa2")),
    ("l2", "mission", 7, "SurveyCompleteNoVictim", 0, (
        "30f0c4a30a3470e94e7c8be8ed9fad33c601b9ab20c38bf250f3295667838313",
        "bb839dce09c636a5fcb9f2b86bb7ee85fb1ad8a41ce09e537bbff97d32b6b211",
        None)),
    ("l2", "offboard", 5, "Confirmed", 0, (
        "a97c06eb2376013c53533f5bdd5107e81c53717af0c38be0a04d91ac5f4b8a6e",
        "641de81971991fbaac533cbd9209467493c788d76ff6ccce07d43f716bb47d95",
        "eacd6d9b9c2f2c695f0859996c86b08864790ce9f04226b528876e9a8205a7aa")),
    ("l2", "hybrid", 1, "Confirmed", 1, (
        "fe981b7a7c435c6f3253aa58f2e97f5fb2d158fe41a5c5f49d3598a45d5bb418",
        "b6565c8c3995dd1a64bc6efcf8024dcc80ae3de84aed648b6a126533260b1edd",
        "25bb7226c0bf980a60693fb2d78410c2fd98d86f48c4fb9b6397bfac6da7ba17")),
]


@pytest.mark.parametrize("scenario, mode, seed, outcome, inspections, hashes", CASES,
                         ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in CASES])
def test_seeded_outputs_unchanged(tmp_path, capsys, scenario, mode, seed, outcome,
                                  inspections, hashes):
    assert cli.cli_main(["run", "--scenario", scenario, "--mode", mode,
                         "--seed", str(seed), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    record = json.loads((tmp_path / "record.json").read_text())
    assert record["outcome"] == outcome
    assert sum(e == "HybridInspecting" for _, e in record["mode_events"]) == inspections
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                if (tmp_path / name).exists() else None for name in FILES)
    assert dict(zip(FILES, got)) == dict(zip(FILES, hashes))
