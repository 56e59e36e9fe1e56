"""Byte-pair-encoding tokenizer with START/END/MASK specials.

Training iteratively merges the most frequent adjacent symbol pair, ties
broken lexicographically so two runs over the same corpus produce the same
merge list. Words carry an end-of-word marker fused onto their final
character, which makes decoding a pure string join: round-trips are exact
on normalized text as long as every symbol is known.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ConfigError, ContractError
from .text import WORD_END, normalize_text

START_TOKEN = "[START]"
END_TOKEN = "[END]"
MASK_TOKEN = "[MASK]"
UNK_TOKEN = "[UNK]"

VOCAB_HEADER = "#copysum-vocab v1"


@dataclass
class Vocabulary:
    """Immutable after training: id<->token bijection plus ordered merges."""

    id_to_token: list[str]
    merges: list[tuple[str, str]]
    unk_policy: str = "replace"  # or "error"
    token_to_id: dict[str, int] = field(init=False)
    merge_rank: dict[tuple[str, str], int] = field(init=False)
    _word_cache: dict[str, tuple[int, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ContractError("duplicate token in vocabulary")
        self.merge_rank = {pair: i for i, pair in enumerate(self.merges)}
        self._word_cache = {}

    def __len__(self) -> int:
        return len(self.id_to_token)

    @property
    def start_id(self) -> int:
        return self.token_to_id[START_TOKEN]

    @property
    def end_id(self) -> int:
        return self.token_to_id[END_TOKEN]

    @property
    def mask_id(self) -> int:
        return self.token_to_id[MASK_TOKEN]

    @cached_property
    def special_ids(self) -> frozenset[int]:
        """START, END, MASK and, if present, UNK (computed once)."""
        ids = {self.start_id, self.end_id, self.mask_id}
        if UNK_TOKEN in self.token_to_id:
            ids.add(self.token_to_id[UNK_TOKEN])
        return frozenset(ids)

    @cached_property
    def ordinary_ids(self) -> np.ndarray:
        """Sorted ids of every non-special token (read-only, computed once)."""
        specials = np.fromiter(self.special_ids, dtype=np.int64)
        ids = np.setdiff1d(np.arange(len(self), dtype=np.int64), specials)
        ids.flags.writeable = False
        return ids

    # -- encoding / decoding ---------------------------------------------

    def _merge_word(self, word: str) -> list[str]:
        symbols = list(word[:-1]) + [word[-1] + WORD_END]
        while len(symbols) > 1:
            best_rank = None
            for pair in zip(symbols, symbols[1:]):
                rank = self.merge_rank.get(pair)
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank = rank
            if best_rank is None:
                break
            left, right = self.merges[best_rank]
            out: list[str] = []
            i = 0
            while i < len(symbols):
                if i + 1 < len(symbols) and symbols[i] == left and symbols[i + 1] == right:
                    out.append(left + right)
                    i += 2
                else:
                    out.append(symbols[i])
                    i += 1
            symbols = out
        return symbols

    def _encode_word(self, word: str) -> tuple[int, ...]:
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        ids = []
        for sym in self._merge_word(word):
            tok_id = self.token_to_id.get(sym)
            if tok_id is None:
                if self.unk_policy == "error":
                    raise ContractError(f"symbol {sym!r} not in vocabulary")
                tok_id = self.token_to_id[UNK_TOKEN]
            ids.append(tok_id)
        result = tuple(ids)
        self._word_cache[word] = result
        return result

    def encode(self, text: str) -> list[int]:
        """Token ids for normalized ``text``; never emits special ids."""
        ids: list[int] = []
        for word in normalize_text(text).split():
            ids.extend(self._encode_word(word))
        return ids

    def decode(self, ids: Iterable[int]) -> str:
        """Inverse of encode on normalized text. Unknown ids are an error."""
        pieces = []
        for i in ids:
            if not 0 <= i < len(self.id_to_token):
                raise ContractError(f"token id {i} out of range")
            pieces.append(self.id_to_token[i])
        return "".join(pieces).replace(WORD_END, " ").strip()

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        lines = [VOCAB_HEADER, f"#unk_policy {self.unk_policy}", f"#tokens {len(self.id_to_token)}"]
        lines.extend(self.id_to_token)
        lines.append(f"#merges {len(self.merges)}")
        lines.extend(f"{l}\t{r}" for l, r in self.merges)
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Read a saved vocabulary; a malformed file raises ``ContractError`` naming it."""
        try:
            lines = Path(path).read_text(encoding="utf-8").split("\n")
        except UnicodeDecodeError as exc:
            raise ContractError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
        if not lines or lines[0] != VOCAB_HEADER:
            raise ContractError(f"{path}: not a vocabulary file")

        def field_at(i: int, key: str) -> str:
            prefix = f"#{key} "
            if i >= len(lines):
                raise ContractError(f"{path}: ends at line {len(lines)}, before {prefix!r}")
            if not lines[i].startswith(prefix):
                raise ContractError(f"{path}: line {i + 1} should start with {prefix!r}")
            return lines[i][len(prefix):]

        def count_at(i: int, key: str) -> int:
            value = field_at(i, key)
            if not value.isdigit():
                raise ContractError(f"{path}: line {i + 1}: bad {key} count {value!r}")
            return int(value)

        unk_policy = field_at(1, "unk_policy")
        n_tokens = count_at(2, "tokens")
        tokens = lines[3 : 3 + n_tokens]
        merges_at = 3 + n_tokens
        n_merges = count_at(merges_at, "merges")
        merges = []
        for i in range(merges_at + 1, merges_at + 1 + n_merges):
            pair = lines[i].split("\t") if i < len(lines) else []
            if len(pair) != 2:
                raise ContractError(f"{path}: line {i + 1} should be a tab-separated merge")
            merges.append((pair[0], pair[1]))
        if len(lines) <= merges_at + 1 + n_merges:  # save() ends the last line
            raise ContractError(f"{path}: truncated after its last merge")
        missing = {START_TOKEN, END_TOKEN, MASK_TOKEN} - set(tokens)
        if missing:
            raise ContractError(f"{path}: special tokens missing: {sorted(missing)}")
        return cls(id_to_token=tokens, merges=merges, unk_policy=unk_policy)


def _pair_counts(words: dict[tuple[str, ...], int]) -> Counter:
    counts: Counter = Counter()
    for symbols, freq in words.items():
        for pair in zip(symbols, symbols[1:]):
            counts[pair] += freq
    return counts


def _apply_merge(words: dict[tuple[str, ...], int], pair: tuple[str, str]) -> dict:
    left, right = pair
    merged = left + right
    out: dict[tuple[str, ...], int] = {}
    for symbols, freq in words.items():
        if left in symbols:
            new: list[str] = []
            i = 0
            while i < len(symbols):
                if i + 1 < len(symbols) and symbols[i] == left and symbols[i + 1] == right:
                    new.append(merged)
                    i += 2
                else:
                    new.append(symbols[i])
                    i += 1
            symbols = tuple(new)
        out[symbols] = out.get(symbols, 0) + freq
    return out


def train_bpe(
    corpus: Iterable[str],
    target_size: int,
    unk_policy: str = "replace",
) -> Vocabulary:
    """Learn a vocabulary of at most ``target_size`` tokens from text lines.

    Merges are picked by descending pair frequency (lexicographic smallest
    pair on ties) and stop early once no pair occurs at least twice.
    """
    if unk_policy not in ("replace", "error"):
        raise ConfigError(f"unknown unk_policy {unk_policy!r}")
    word_freq: Counter = Counter()
    for line in corpus:
        word_freq.update(normalize_text(line).split())
    if not word_freq:
        raise ConfigError("cannot train a vocabulary on an empty corpus")

    words: dict[tuple[str, ...], int] = {}
    for word, freq in word_freq.items():
        symbols = tuple(word[:-1]) + (word[-1] + WORD_END,)
        words[symbols] = words.get(symbols, 0) + freq

    alphabet = sorted({sym for symbols in words for sym in symbols})
    specials = [START_TOKEN, END_TOKEN, MASK_TOKEN]
    if unk_policy == "replace":
        specials.append(UNK_TOKEN)
    base = len(specials) + len(alphabet)
    if target_size <= base:
        raise ConfigError(
            f"target_size {target_size} leaves no room for merges "
            f"({len(alphabet)} base symbols + {len(specials)} specials)"
        )

    merges: list[tuple[str, str]] = []
    budget = target_size - base
    for _ in range(budget):
        counts = _pair_counts(words)
        if not counts:
            break
        # max frequency, then lexicographically smallest pair
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if best[1] < 2:
            break
        merges.append(best[0])
        words = _apply_merge(words, best[0])

    # distinct merge paths can yield the same surface string; keep one id
    id_to_token = specials + alphabet
    seen = set(id_to_token)
    for left, right in merges:
        tok = left + right
        if tok not in seen:
            seen.add(tok)
            id_to_token.append(tok)
    return Vocabulary(id_to_token=id_to_token, merges=merges, unk_policy=unk_policy)
