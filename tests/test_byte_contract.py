"""The byte contract: every CLI report and pair-state text of the seeded
corpora in byte_corpus.py keeps the digest recorded in
tests/data/byte_contract.json. A failure names the entries that moved."""

import pytest

import byte_corpus


def _check(got: dict[str, str], expected: dict[str, str]) -> None:
    assert list(got) == list(expected), "the corpus itself changed: regenerate the data file"
    moved = [name for name in got if got[name] != expected[name]]
    if moved:
        listed = "\n  ".join(moved[:25])
        more = f"\n  ... and {len(moved) - 25} more" if len(moved) > 25 else ""
        pytest.fail(f"{len(moved)} of {len(got)} entries moved:\n  {listed}{more}", pytrace=False)


def test_cli_reports_keep_their_bytes(tmp_path, monkeypatch):
    # --out writes and the directory case run in a scratch working directory
    monkeypatch.chdir(tmp_path)
    _check(byte_corpus.cli_digests(), byte_corpus.load()["cli"])


def test_pair_state_texts_keep_their_bytes():
    _check(byte_corpus.state_digests(), byte_corpus.load()["states"])


def test_corpus_covers_the_planned_argv_sets():
    data = byte_corpus.load()
    assert len(data["cli"]) == len(byte_corpus.cli_argvs())
    # every exchange set, 300 seeded dmatrix and frames sets, 16 exclusion
    # and 8 impossibility sets, each before its subcommand's error cases
    names = list(data["cli"])
    assert names[:338] == [
        f"exchange --sa2 {a} --sb2 {b} --case {c}"
        for a in range(13) for b in range(13) for c in ("first", "second")
    ]
    assert [n.split()[0] for n in names[338:938]] == ["dmatrix"] * 300 + ["frames"] * 300
    assert [n.split()[0] for n in names[938:962]] == ["exclusion"] * 16 + ["impossibility"] * 8
    assert len({name.split("/")[0] for name in data["states"]}) == byte_corpus.N_PAIRS
