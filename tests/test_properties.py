"""Property tests: cut files fail by contract, and BPE round-trips text."""

from pathlib import Path

import pytest

from copysum.bpe import Vocabulary, train_bpe
from copysum.errors import ContractError
from copysum.model import ModelConfig, PrefixLM
from copysum.text import WORD_END, normalize_text

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

FIXTURE_VOCAB = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "vocab.txt"
LETTERS = "abdefgiklmnoprstuvz"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A tiny-preset checkpoint and the fixture vocabulary, as bytes."""
    root = tmp_path_factory.mktemp("cuts")
    vocab = Vocabulary.load(FIXTURE_VOCAB)
    config = ModelConfig.preset("tiny", vocab_size=len(vocab), max_positions=64)
    PrefixLM(config, seed=0).save(root / "model.bin")
    return root, (root / "model.bin").read_bytes(), FIXTURE_VOCAB.read_bytes()


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_a_cut_file_is_a_contract_error(files, data):
    root, checkpoint, vocab = files
    for raw, load in ((checkpoint, PrefixLM.load), (vocab, Vocabulary.load)):
        cut = root / "cut"
        cut.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
        with pytest.raises(ContractError):
            load(cut)


@pytest.fixture(scope="module")
def letters_vocab():
    """Every letter occurs inside and at the end of a training word."""
    corpus = [f"{c}{c} {c}a{c}e {LETTERS[::-1]}" for c in LETTERS]
    return train_bpe(corpus, target_size=80)


@settings(deadline=None, max_examples=60)
@given(text=st.text(alphabet=LETTERS + LETTERS.upper() + " \t\n" + WORD_END, max_size=40))
def test_bpe_round_trips_normalized_text(letters_vocab, text):
    assert letters_vocab.decode(letters_vocab.encode(text)) == normalize_text(text)
