"""Seeded outputs pinned across commits.

Each ``run`` case runs ``skysearch run`` at a fixed seed and compares the
sha256 of ``record.json``, ``trajectory.csv`` and ``solver_trace.csv`` with
values captured before the three flight loops were merged into one flight
object. The batch cases pin every file that ``batch``, ``compare`` and
``heatmap`` write, captured before the commands shared one output writer.
The cases cover both built-in scenarios in all three modes, including hybrid
flights that inspect and confirm and offboard flights that confirm. A pure
refactor must keep every hash. A change that deliberately alters the random
draw streams (for example a new way of drawing the model's Gaussian noise)
updates the hashes here and says so in CHANGES.md. Mission flights draw no
model noise, so their hashes outlive such a change.

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
        "99cc99105418b5b86528cd09f0d14f10ed9e082fb5e067214375f1de6dfb6c43",
        "998c9106975d1a9306617daf81e96cb727785ed60ec91bb5cda2353b319d86ea",
        "b73094afc95815efe0ac90c4823178d0bf47e50a8c90aad44d2e379f004cede2")),
    ("l1", "hybrid", 2, "SurveyCompleteNoVictim", 2, (
        "93e5bb0a2662481fb0139c18192db4607857c7e11138ae09011fb5b7a1c11c83",
        "65a5d834e79e6b94155d311495e55f584c9698a9abc017d44f1dd5496b3fc95b",
        "5d75dd8741c267f7c7e66d9d0b67e279fabd8dfbde2e8ade6ec7a99d94cf8522")),
    ("l2", "mission", 7, "SurveyCompleteNoVictim", 0, (
        "30f0c4a30a3470e94e7c8be8ed9fad33c601b9ab20c38bf250f3295667838313",
        "bb839dce09c636a5fcb9f2b86bb7ee85fb1ad8a41ce09e537bbff97d32b6b211",
        None)),
    ("l2", "offboard", 5, "Timeout", 0, (
        "b0ecb5dc282e572da190f5511936375bc02403eaec35a57cde70368ce409a403",
        "4e399f8b944770f311c5ad2bfdf871d1375f7f24f319ef2b87a746161b2e82b2",
        "18c1bf19273bfee5a323a8ae15b6be83945d36bc5a38dd0ee43960d554f74acc")),
    ("l2", "hybrid", 1, "SurveyCompleteNoVictim", 2, (
        "a304665e3ad9aed9957e27961d8d4f675717af930ed23fa552494eba54b9e459",
        "3433323367d3570977590142c7f6edc40d46d27fb98cfe75ebeba8dc45d6b4c3",
        "0a83cca2c26d80d82a05af8c3aa2b6429b2c41d8c09958282b4f8a7df9b81566")),
    ("l2", "hybrid", 5, "Confirmed", 2, (
        "87daacdb545003ef8e146781614411000cecb0aae9f482011e7b99102c9afc11",
        "91830f10d6d185f7868fab7fc245d097af772718569f42068ae9437cf24c23de",
        "d97be5002a8f73d9e45f2c2c7c49e20abea3fe5b5eb66254eff137ea690a2616")),
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


# (command line, {file: sha256}); the files must be exactly the ones written
BATCH_CASES = [
    (["batch", "--scenario", "l1", "--mode", "offboard", "--runs", "2", "--seed", "4"], {
        "metrics.csv": "67199417c58f844eb96fe9544a6e01f25858230fdbfb7f849f509276002cd4a7",
        "records_offboard.jsonl":
            "fe5ab957c165590dffb95f6c72d13d0efeb1af94787d464492c977ae6fd4fa94"}),
    (["compare", "--scenario", "l2", "--runs", "2", "--seed", "6"], {
        "metrics.csv": "55d30124f807f92112229f7c1392455644c269f69f430e42d3f592da3ed44e16",
        "records_mission.jsonl":
            "6bce16ec1d985b7137a1d9f22e2c252188e9f50091900103299f07ca72447f1e",
        "records_offboard.jsonl":
            "0e2b726f4c6675a6014919da0643981b6d188a9290b602b69ebae9c7ade31569",
        "records_hybrid.jsonl":
            "a46af472693bd0ed150133150baa4bac60e09e2bf99cb65d11741bab8b75927b"}),
    (["heatmap", "--scenario", "l1", "--mode", "mission", "--runs", "3", "--seed", "8",
      "--cell", "0.5"], {
        "records_mission.jsonl":
            "519b2bed8a6a6604e110189f7325912861f31837343a3bc60007ad883610ebd2",
        "heatmap_mission.csv": "f6ab606c102535b12b73c7a79f61f17c748dc749737cf5c528aa1b11598cd8e5",
        "heatmap_mission.pgm": "3322dce7fa6a76408bf3ecd858c2700a877a4990277d199c73b1812245777b38"}),
]


@pytest.mark.parametrize("args, hashes", BATCH_CASES, ids=[c[0][0] for c in BATCH_CASES])
def test_seeded_batch_outputs_unchanged(tmp_path, capsys, args, hashes):
    assert cli.cli_main(args + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == hashes
