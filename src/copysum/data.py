"""Corpus ingestion and a synthetic source/summary pair generator.

The synthetic corpus stands in for large news datasets at desk scale: each
summary is a subsampled span of its source in which some words are swapped
for "paraphrases" from a disjoint lexicon under a fixed substitution table,
so a small model can actually learn the unseen-word predictions that the
copy-control experiments measure.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, CorpusError
from .seeding import named_rng
from .text import normalize_text


@dataclass
class CorpusRecord:
    id: str
    source: str
    summary: str
    meta: dict = field(default_factory=dict)


_ABBREVIATIONS = {
    "mr", "mrs", "ms", "dr", "prof", "st", "jr", "sr", "vs", "etc", "inc",
    "corp", "co", "gen", "sen", "rep", "gov", "lt", "col", "no", "dept",
    "u.s", "u.k", "u.n", "e.g", "i.e",
}


def first_sentence(text: str) -> str:
    """Leading sentence, skipping periods that end abbreviations or numbers."""
    text = " ".join(text.split())
    for match in re.finditer(r"[.!?]", text):
        end = match.end()
        if end < len(text) and text[end] != " ":
            continue  # mid-token, e.g. "3.5" or "u.s."
        if match.group() == ".":
            word = text[: match.start()].rsplit(" ", 1)[-1].lower()
            word = word.rstrip(".")
            if word in _ABBREVIATIONS or len(word) == 1:
                continue
        return text[:end]
    return text


def _parse_pairs_line(line: str, line_no: int) -> CorpusRecord | None:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(obj, dict):
        return None
    source = normalize_text(str(obj.get("source", "")))
    summary = normalize_text(str(obj.get("summary", "")))
    if not source or not summary:
        return None
    meta = {k: v for k, v in obj.items() if k not in ("id", "source", "summary")}
    return CorpusRecord(
        id=str(obj.get("id", f"rec-{line_no}")), source=source, summary=summary, meta=meta
    )


def ingest(path, fmt: str = "pairs") -> tuple[list[CorpusRecord], dict]:
    """Read source/summary pairs; skips (and counts) malformed entries.

    "pairs" is one JSON object per line with source and summary fields;
    "article" is title line + article body in blank-line-separated blocks,
    pairing the first body sentence with the title.
    """
    if fmt not in ("pairs", "article"):
        raise ConfigError(f"unknown corpus format {fmt!r}")
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"{path}: unreadable ({exc})") from exc

    records: list[CorpusRecord] = []
    malformed = 0
    total = 0
    if fmt == "pairs":
        for line_no, line in enumerate(raw.split("\n")):
            if not line.strip():
                continue
            total += 1
            record = _parse_pairs_line(line, line_no)
            if record is None:
                malformed += 1
            else:
                records.append(record)
    else:
        blocks = [b for b in re.split(r"\n\s*\n", raw) if b.strip()]
        for block_no, block in enumerate(blocks):
            total += 1
            lines = block.strip().split("\n")
            title = normalize_text(lines[0])
            body = " ".join(lines[1:]).strip()
            source = normalize_text(first_sentence(body)) if body else ""
            if not title or not source:
                malformed += 1
                continue
            records.append(CorpusRecord(id=f"art-{block_no}", source=source, summary=title))

    if total == 0:
        raise CorpusError(f"{path}: empty corpus")
    if malformed > 0.1 * total:
        raise CorpusError(
            f"{path}: {malformed}/{total} records malformed (above the 10% limit)"
        )
    return records, {"records": len(records), "malformed": malformed}


def write_pairs(records: list[CorpusRecord], path) -> None:
    lines = []
    for r in records:
        obj = {"id": r.id, "source": r.source, "summary": r.summary}
        obj.update(r.meta)
        lines.append(json.dumps(obj, sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- synthetic corpus -------------------------------------------------------

# Disjoint character families so no BPE subword can bridge the two lexicons:
# content words use b..m consonants with a/e/i, paraphrases n..z with o/u.
_CONTENT_CONSONANTS = "bdfgklm"
_CONTENT_VOWELS = "aei"
_PARAPHRASE_CONSONANTS = "nprstvz"
_PARAPHRASE_VOWELS = "ou"


def _syllable_words(consonants: str, vowels: str, count: int) -> list[str]:
    words = [c + v for c in consonants for v in vowels]
    words += [a + b for a in list(words) for b in words]
    if count > len(words):
        raise ConfigError(f"lexicon of {count} words exceeds capacity {len(words)}")
    return words[:count]


SPAN_START_MAX = 2  # summaries align with the source lead, like titles


@dataclass
class SynthConfig:
    content_words: int = 80
    n_train: int = 2000
    n_valid: int = 200
    n_test: int = 200
    source_len: tuple = (10, 16)
    summary_len: tuple = (4, 7)
    paraphrase_fraction: float = 0.33
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.paraphrase_fraction <= 1.0:
            raise ConfigError("paraphrase_fraction must be in [0, 1]")
        if self.summary_len[1] > self.source_len[0]:
            raise ConfigError(
                "summary length range must fit inside the shortest source "
                f"({self.summary_len} vs {self.source_len})"
            )


def synth_generate(config: SynthConfig) -> dict[str, list[CorpusRecord]]:
    """Deterministic train/valid/test splits of paired word sequences.

    Substitution probability varies by word (mean = paraphrase_fraction),
    so partial unseen-token training shifts decode behavior gradually
    instead of all at once. Every record's meta carries its realized
    unseen-word fraction so category statistics can be audited afterwards.
    """
    content = _syllable_words(_CONTENT_CONSONANTS, _CONTENT_VOWELS, config.content_words)
    paraphrase = _syllable_words(
        _PARAPHRASE_CONSONANTS, _PARAPHRASE_VOWELS, config.content_words
    )
    substitute = dict(zip(content, paraphrase))
    frac = config.paraphrase_fraction
    spread = min(frac, 1.0 - frac)
    n = len(content)
    sub_prob = {
        w: frac + spread * (2.0 * (i + 0.5) / n - 1.0) for i, w in enumerate(content)
    }

    splits = {"train": config.n_train, "valid": config.n_valid, "test": config.n_test}
    out: dict[str, list[CorpusRecord]] = {}
    for split, count in splits.items():
        rng = named_rng(config.seed, f"synth-{split}")
        records = []
        for i in range(count):
            src_len = int(rng.integers(config.source_len[0], config.source_len[1] + 1))
            sum_len = int(rng.integers(config.summary_len[0], config.summary_len[1] + 1))
            source_words = [content[j] for j in rng.integers(0, len(content), src_len)]
            start_cap = min(SPAN_START_MAX, src_len - sum_len)
            start = int(rng.integers(0, start_cap + 1))
            summary_words = source_words[start : start + sum_len]
            # a shuffle that picks nothing; every later draw, and so every
            # seeded corpus, depends on the state it leaves
            rng.choice(sum_len, size=sum_len, replace=False)
            replaced = rng.random(sum_len) < np.array(
                [sub_prob[w] for w in summary_words]
            )
            summary_words = [
                substitute[w] if hit else w for w, hit in zip(summary_words, replaced)
            ]
            source_set = set(source_words)
            unseen = sum(1 for w in summary_words if w not in source_set) / sum_len
            records.append(
                CorpusRecord(
                    id=f"{split}-{i:05d}",
                    source=" ".join(source_words),
                    summary=" ".join(summary_words),
                    meta={"unseen_fraction": round(unseen, 4)},
                )
            )
        out[split] = records
    return out
