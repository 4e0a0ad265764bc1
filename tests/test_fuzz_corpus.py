"""Corpus round-trip contract: every checked-in witness deserializes,
replays bit-identically under two different world seeds, and reproduces
its recorded oracle verdict.  This mirrors CI's ``repro fuzz replay``
gate, but per-witness so a regression names its witness."""

import json

import pytest

from repro.cli import main
from repro.core.errors import ConfigurationError
from repro.fuzz import (
    DEFAULT_CORPUS,
    Witness,
    design_named,
    execute_sequence,
    load_corpus,
    load_witness,
    replay_corpus,
    replay_witness,
    save_witness,
)
from repro.fuzz.steps import VOCABULARY

CORPUS = sorted(load_corpus(DEFAULT_CORPUS), key=lambda w: w.name)


def _witness_params():
    return pytest.mark.parametrize(
        "witness", CORPUS, ids=[w.name for w in CORPUS]
    )


def test_corpus_is_not_empty():
    assert len(CORPUS) >= 1, "the fuzz corpus must hold at least one witness"


def test_corpus_covers_known_weak_families():
    # The paper's unauthenticated-unbind family (Belkin/Orvibo) and the
    # forged-device family (TP-LINK/D-LINK) must both stay represented.
    kinds = {(w.design, w.finding["kind"]) for w in CORPUS}
    assert ("Belkin", "silent-ownership-transfer") in kinds
    assert any(k == "forged-device-accepted" for _, k in kinds)


@_witness_params()
def test_witness_deserializes_cleanly(witness):
    assert witness.name
    assert witness.kind in ("safety", "model", "differential")
    assert witness.designs
    assert witness.sequence, "a witness must have at least one step"
    for step in witness.sequence:
        assert step in VOCABULARY, f"unknown step {step!r}"
    for name in witness.designs:
        design_named(name)  # raises on unknown designs


@_witness_params()
def test_witness_reproduces_recorded_verdict(witness):
    result = replay_witness(witness)
    assert result.ok, "\n".join(result.problems)


@_witness_params()
def test_witness_replays_bit_identically_on_two_seeds(witness):
    if witness.kind == "differential":
        pytest.skip("differential witnesses compare designs, not seeds")
    design = design_named(witness.design)
    first = execute_sequence(design, witness.sequence, seed=11)
    second = execute_sequence(design, witness.sequence, seed=77)
    assert first.trace == second.trace
    assert first.finding_keys() == second.finding_keys()
    # ... and both agree with the recorded trace.
    assert first.trace == witness.trace


@_witness_params()
def test_witness_json_round_trips(witness):
    data = witness.to_data()
    clone = Witness.from_data(json.loads(json.dumps(data)))
    assert clone.to_data() == data


def test_replay_corpus_checks_every_file():
    results = replay_corpus(DEFAULT_CORPUS)
    assert len(results) == len(CORPUS)
    assert all(result.ok for result in results)


def test_save_and_load_round_trip(tmp_path):
    witness = CORPUS[0]
    path = save_witness(witness, tmp_path)
    assert path.name == f"{witness.name}.json"
    assert load_witness(path).to_data() == witness.to_data()


def test_unknown_schema_is_rejected(tmp_path):
    data = CORPUS[0].to_data()
    data["schema"] = 999
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ConfigurationError):
        load_witness(path)


@pytest.mark.parametrize("field, value, named", [
    ("kind", None, "missing field 'kind'"),
    ("seed", "x", "malformed field"),
    ("designs", 7, "malformed field"),
], ids=["missing-kind", "bad-seed", "bad-designs"])
def test_malformed_witness_is_one_error_line(field, value, named, tmp_path, capsys):
    data = CORPUS[0].to_data()
    if value is None:
        del data[field]
    else:
        data[field] = value
    (tmp_path / "bad.json").write_text(json.dumps(data), encoding="utf-8")
    assert main(["fuzz", "replay", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: witness ") and named in err
    assert err.count("\n") == 1


def test_empty_corpus_is_an_error(tmp_path):
    with pytest.raises(ConfigurationError):
        replay_corpus(tmp_path)
