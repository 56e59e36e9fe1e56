from pathlib import Path

import numpy as np
import pytest

from copysum import bpe
from copysum.bpe import (
    END_TOKEN,
    MASK_TOKEN,
    START_TOKEN,
    Vocabulary,
    train_bpe,
)
from copysum.errors import ConfigError, ContractError
from copysum.text import normalize_text


def test_first_merge_is_most_frequent_pair():
    # "aaab aab" pair counts: (a,a) x3 vs (a,b·) x2, so "aa" merges first
    vocab = train_bpe(["aaab aab"], target_size=7)
    assert vocab.merges[0] == ("a", "a")
    assert len(vocab.merges) == 1


def test_empty_corpus_rejected():
    with pytest.raises(ConfigError):
        train_bpe([], target_size=100)
    with pytest.raises(ConfigError):
        train_bpe(["   ", ""], target_size=100)


def test_training_is_deterministic():
    corpus = ["the cat sat on the mat", "the mat sat still", "cats and mats"]
    a = train_bpe(corpus, target_size=64)
    b = train_bpe(corpus, target_size=64)
    assert a.merges == b.merges
    assert a.id_to_token == b.id_to_token


def test_target_size_too_small_rejected():
    with pytest.raises(ConfigError):
        train_bpe(["abc"], target_size=5)


def test_specials_present_once_and_never_merged():
    vocab = train_bpe(["abc abd abe", "bcd bce"], target_size=40)
    for tok in (START_TOKEN, END_TOKEN, MASK_TOKEN):
        assert vocab.id_to_token.count(tok) == 1
    merged = {l + r for l, r in vocab.merges}
    assert not merged & {START_TOKEN, END_TOKEN, MASK_TOKEN}


def test_headline_round_trip():
    corpus = [
        "Missing Pennsylvania toddler found dead",
        "a toddler who was reportedly abducted in pennsylvania has been found",
    ]
    vocab = train_bpe(corpus, target_size=80)
    ids = vocab.encode("Missing Pennsylvania toddler")
    assert vocab.decode(ids) == "missing pennsylvania toddler"


def test_encode_empty_text():
    vocab = train_bpe(["some words"], target_size=32)
    assert vocab.encode("") == []
    assert vocab.encode("   \t  ") == []


def test_encode_never_emits_specials():
    vocab = train_bpe(["start end mask [start]"], target_size=64)
    ids = vocab.encode("start end mask [start] mask")
    assert not set(ids) & set(vocab.special_ids)
    # even surface text spelling a special token maps to ordinary symbols
    unk = vocab.token_to_id["[UNK]"]
    assert {vocab.start_id, vocab.end_id, vocab.mask_id}.isdisjoint(
        vocab.encode("[start] [end] [mask] zzz")
    )
    assert unk in vocab.encode("zzz")  # unknown chars go to UNK, nothing else


def test_round_trip_on_random_samples():
    rng = np.random.default_rng(5)
    lexicon = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
    corpus = [
        " ".join(rng.choice(lexicon, size=rng.integers(3, 9)))
        for _ in range(40)
    ]
    vocab = train_bpe(corpus, target_size=120)
    for _ in range(100):
        text = " ".join(rng.choice(lexicon, size=rng.integers(1, 12)))
        noisy = "  " + text.upper() + " \t "
        assert vocab.decode(vocab.encode(noisy)) == normalize_text(noisy)


def test_encoding_is_deterministic():
    vocab = train_bpe(["banana bandana cabana"], target_size=48)
    assert vocab.encode("banana cabana") == vocab.encode("banana cabana")


def test_unknown_character_policies():
    replace = train_bpe(["plain words only"], target_size=48, unk_policy="replace")
    ids = replace.encode("plain qqq")
    assert replace.token_to_id["[UNK]"] in ids

    strict = train_bpe(["plain words only"], target_size=48, unk_policy="error")
    with pytest.raises(ContractError):
        strict.encode("plain qqq")


def test_decode_unknown_id_rejected():
    vocab = train_bpe(["abc"], target_size=16)
    with pytest.raises(ContractError):
        vocab.decode([len(vocab) + 3])


def test_vocabulary_file_round_trip(tmp_path):
    corpus = ["the quick brown fox", "the slow brown dog", "quick quick slow"]
    vocab = train_bpe(corpus, target_size=72)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.id_to_token == vocab.id_to_token
    assert loaded.merges == vocab.merges
    assert loaded.unk_policy == vocab.unk_policy
    text = "the quick brown dog dog"
    assert loaded.encode(text) == vocab.encode(text)
    # saving again is byte-identical
    path2 = tmp_path / "vocab2.txt"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_vocab_size_cap_respected():
    corpus = ["aa ab ac ad ae af ag ah ai aj " * 3]
    vocab = train_bpe(corpus, target_size=30)
    assert len(vocab) <= 30


def test_every_truncation_of_a_vocabulary_file_names_it(tmp_path):
    vocab = train_bpe(["bad keg lim fad gem kid"] * 2, target_size=40)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    raw = path.read_bytes()
    cut = tmp_path / "cut.txt"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(ContractError) as exc:
            Vocabulary.load(cut)
        assert str(exc.value).startswith(f"{cut}: ")


FIXTURE_VOCAB = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "vocab.txt"


def test_encoding_leaves_equality_alone():
    a, b = Vocabulary.load(FIXTURE_VOCAB), Vocabulary.load(FIXTURE_VOCAB)
    a.encode("bebe dadi kaki")
    assert a == b


def test_word_cache_stays_at_its_bound(monkeypatch):
    monkeypatch.setattr(bpe, "WORD_CACHE_SIZE", 8)
    small = Vocabulary.load(FIXTURE_VOCAB)
    words = [a + b + c for a in "bdfg" for b in "aei" for c in "km"]
    text = " ".join(words)
    ids = small.encode(text)
    assert small._encode_word.cache_info().currsize == 8
    assert ids == small.encode(text) == Vocabulary.load(FIXTURE_VOCAB).encode(text)
