"""Property tests: cut or bit-flipped files fail by contract, BPE round-trips
text, gradients of random graphs and of the attention and residual
layer-norm nodes match finite differences, both searches keep their pool
invariants, and padded batches keep the prefix mask rule."""

import contextlib
import math
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from copysum import autodiff as ad
from copysum.autodiff import Parameter
from copysum.bpe import Vocabulary, train_bpe
from copysum.decoding import SearchConfig, beam_search, best_first_search
from copysum.errors import ContractError
from copysum.model import JointBatch, JointSequence, ModelConfig, PrefixLM
from copysum.text import WORD_END, normalize_text

from conftest import TableLM, assert_grads_close

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
FIXTURE_VOCAB = ROOT / "perfbench" / "fixtures" / "vocab.txt"
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


def layout_offsets(raw: bytes) -> list[int]:
    """Offsets of a checkpoint's header bytes and, for every entry, of its
    name length, name, flag byte, ndim and dims: all but the values."""
    (meta_len,) = struct.unpack_from("<I", raw, 8)
    offsets = list(range(16 + meta_len))
    offset = 16 + meta_len
    while offset < len(raw):
        (name_len,) = struct.unpack_from("<H", raw, offset)
        ndim = raw[offset + 3 + name_len]
        shape = struct.unpack_from(f"<{ndim}I", raw, offset + 4 + name_len)
        head = 4 + name_len + 4 * ndim
        offsets += range(offset, offset + head)
        offset += head + 8 * math.prod(shape)
    return offsets


@pytest.fixture(scope="module")
def flip_sites(files):
    return layout_offsets(files[1])


@settings(deadline=None, max_examples=400)
@given(data=st.data())
def test_a_flipped_bit_loads_or_is_a_contract_error(files, flip_sites, data):
    """No other exception: a flip may still load, as one in a value does."""
    root, checkpoint, _ = files
    flipped = bytearray(checkpoint)
    flipped[data.draw(st.sampled_from(flip_sites))] ^= 1 << data.draw(st.integers(0, 7))
    (root / "flipped").write_bytes(bytes(flipped))
    with contextlib.suppress(ContractError):
        PrefixLM.load(root / "flipped")


@pytest.fixture(scope="module")
def letters_vocab():
    """Every letter occurs inside and at the end of a training word."""
    corpus = [f"{c}{c} {c}a{c}e {LETTERS[::-1]}" for c in LETTERS]
    return train_bpe(corpus, target_size=80)


@settings(deadline=None, max_examples=60)
@given(text=st.text(alphabet=LETTERS + LETTERS.upper() + " \t\n" + WORD_END, max_size=40))
def test_bpe_round_trips_normalized_text(letters_vocab, text):
    assert letters_vocab.decode(letters_vocab.encode(text)) == normalize_text(text)


GRAPH_OPS = {
    "add": lambda x, y: x + y,
    "mul": lambda x, y: x * y,
    # hands its parent a view of the upstream gradient, as add does
    "reshape": lambda x, _: ad.reshape(ad.reshape(x, (3, 2)), (2, 3)),
}


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(
        st.tuples(st.sampled_from(sorted(GRAPH_OPS)), st.integers(0, 20), st.integers(0, 20)),
        min_size=1, max_size=6,
    ),
)
def test_random_graph_gradients_match_finite_differences(seed, steps):
    """A DAG over three parameters: each step applies an op to any earlier
    nodes, so parameters and intermediates feed several consumers."""
    rng = np.random.default_rng(seed)
    params = [Parameter(rng.uniform(-1.5, 1.5, size=(2, 3)), name=n) for n in "abc"]

    def loss_fn():
        nodes = list(params)
        for op, i, j in steps:
            nodes.append(GRAPH_OPS[op](nodes[i % len(nodes)], nodes[j % len(nodes)]))
        return ad.tensor_sum(nodes[-1])

    assert_grads_close(params, loss_fn)


# Bias on forbidden attention edges in the finite-difference checks.
# MASK_BIAS (-1e9) would do as well for the op, but float64 spacing at 1e9
# is 1.2e-7, too coarse for a finite difference to resolve the scores.
MASKED = -30.0


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    lengths=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    heads=st.integers(1, 2),
    head=st.integers(1, 3),
    dropped=st.booleans(),
    data=st.data(),
)
def test_attention_gradients_match_finite_differences(seed, lengths, heads, head, dropped,
                                                      data):
    """Padded prefix masks with a pad row in every example, whose mask row
    is all zero, with a dropout mask and without; a dropout mask of the
    wrong shape is a contract error."""
    rng = np.random.default_rng(seed)
    width = max(lengths) + 1
    batch = JointBatch(np.zeros((len(lengths), width), dtype=np.int64),
                       np.array([data.draw(st.integers(1, n)) for n in lengths]),
                       np.array(lengths))
    mask = batch.attention_mask()
    assert not mask[:, -1].any()  # every example's last row is a pad row
    mask_bias = ((1.0 - mask) * MASKED)[:, None]
    shape = (len(lengths) * width, heads * head)
    q, k, v = (Parameter(rng.normal(size=shape), name=n) for n in "qkv")
    keep = rng.random((len(lengths), heads, width, width)) >= 0.25 if dropped else None
    upstream = rng.normal(size=shape)

    def loss_fn():
        return ad.tensor_sum(ad.attention(q, k, v, mask_bias, keep, 0.25, heads) * upstream)

    assert_grads_close([q, k, v], loss_fn)
    with pytest.raises(ContractError):
        ad.attention(q, k, v, mask_bias, np.ones(mask_bias.size * heads, dtype=bool), 0.25,
                     heads)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 5),
    hidden=st.integers(2, 6),
    dropped=st.booleans(),
)
def test_residual_layer_norm_gradients_match_finite_differences(seed, rows, hidden, dropped):
    """With a dropout mask and without; a dropout mask of the wrong shape is
    a contract error."""
    rng = np.random.default_rng(seed)
    x, y = (Parameter(rng.normal(size=(rows, hidden)), name=n) for n in "xy")
    gain, bias = (Parameter(rng.normal(1.0, 0.5, size=hidden), name=n)
                  for n in ("gain", "bias"))
    keep = rng.random((rows, hidden)) >= 0.25 if dropped else None
    upstream = rng.normal(size=(rows, hidden))

    def loss_fn():
        out = ad.residual_layer_norm(x, y, keep, 0.25, gain, bias)
        return ad.tensor_sum(out * upstream)

    assert_grads_close([x, y, gain, bias], loss_fn)
    with pytest.raises(ContractError):
        ad.residual_layer_norm(x, y, np.ones(rows * hidden, dtype=bool), 0.25, gain, bias)


@settings(deadline=None, max_examples=200)
@given(
    n_rows=st.integers(1, 6),
    rest=st.lists(st.integers(1, 3), max_size=3),
    picks=st.lists(st.integers(0, 5), max_size=14),
    seed=st.integers(0, 2**32 - 1),
)
def test_gather_gradients_are_add_at_scatters(n_rows, rest, picks, seed):
    """``embedding`` and ``take_rows`` send each row's gradient back to the
    row it came from, as ``np.add.at`` does: duplicate, unsorted or no
    indices, over rows of 1-D to 4-D arrays."""
    idx = np.array([i % n_rows for i in picks], dtype=np.int64)
    rng = np.random.default_rng(seed)
    upstream = rng.normal(size=(len(idx), *rest))
    expected = np.zeros((n_rows, *rest))
    np.add.at(expected, idx, upstream)
    for gather in (ad.embedding, ad.take_rows):
        p = Parameter(rng.normal(size=(n_rows, *rest)))
        ad.tensor_sum(gather(p, idx) * upstream).backward()
        assert np.max(np.abs(p.grad - expected), initial=0.0) <= 1e-15, gather.__name__


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 10**6),
    vocab_size=st.integers(3, 8),
    k=st.integers(1, 4),
    max_len=st.integers(2, 6),
    blocking=st.booleans(),
    pool_size=st.none() | st.integers(1, 6),
    extra_capacity=st.integers(0, 12),
)
def test_search_pool_invariants(seed, vocab_size, k, max_len, blocking, pool_size,
                                extra_capacity):
    end_id = vocab_size - 1
    config = SearchConfig(
        end_id=end_id, k=k, heap_capacity=k + extra_capacity, answer_pool_size=pool_size,
        max_summary_len=max_len, trigram_blocking=blocking,
    )
    lm = TableLM(vocab_size, seed)
    for search in (best_first_search, beam_search):
        pool, diag = search(lm, config)
        assert len(pool) <= config.pool_size
        for hyp in pool:
            assert hyp.ids[-1] == end_id and end_id not in hyp.ids[:-1]
            if blocking:
                trigrams = list(zip(hyp.ids, hyp.ids[1:], hyp.ids[2:]))
                assert len(set(trigrams)) == len(trigrams)
        if search is best_first_search and diag.evictions == 0:
            scores = [hyp.score for hyp in pool]
            assert scores == sorted(scores, reverse=True)


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_padded_batch_mask_is_the_prefix_rule(data):
    """Row i of example b sees column j iff j <= max(i, source_len - 1);
    pad rows and pad columns see and are seen by nothing."""
    lengths = data.draw(st.lists(st.integers(1, 11), min_size=1, max_size=5))
    seqs = [
        JointSequence.build(np.zeros(length, dtype=np.int64),
                            data.draw(st.integers(1, length)))
        for length in lengths
    ]
    batch = JointBatch.pad(seqs)
    width = max(lengths)
    expected = np.zeros((len(seqs), width, width))
    for b, seq in enumerate(seqs):
        for i in range(len(seq)):
            for j in range(len(seq)):
                expected[b, i, j] = float(j <= max(i, seq.source_len - 1))
    np.testing.assert_array_equal(batch.attention_mask(), expected)


def test_a_failing_property_reports_its_example(tmp_path):
    """Under the repository's pytest settings, warnings are errors; a failing
    ``@given`` test still ends in a failure with its falsifying example,
    not an internal error."""
    (tmp_path / "test_fails.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_small(n):
            assert n < 10
    """))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 1, result.stdout[-2000:] + result.stderr[-2000:]
    assert "Falsifying example" in result.stdout
