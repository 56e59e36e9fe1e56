"""Copy-rate measurement and ROUGE-style lexical overlap.

Copy rate is the percentage of summary n-grams that appear verbatim in the
source text, computed over whitespace words on normalized text so it is
independent of any tokenizer. ROUGE here is the plain clipped-count /
longest-common-subsequence form without stemming; parity with the official
toolkit is not claimed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import ContractError
from .text import split_words

COPY_NS = (1, 2, 3, 4)


def _ngrams(words: list[str], n: int) -> list[tuple[str, ...]]:
    return [tuple(words[i : i + n]) for i in range(len(words) - n + 1)]


def copy_counts(summary_text: str, source_text: str, n: int) -> tuple[int, int]:
    """(summary n-grams found anywhere in the source, summary n-grams).

    The second is below 1 when the summary has fewer than n words.
    """
    summary_words = split_words(summary_text)
    denominator = len(summary_words) - n + 1
    if denominator < 1:
        return 0, denominator
    source_set = set(_ngrams(split_words(source_text), n))
    return sum(1 for gram in _ngrams(summary_words, n) if gram in source_set), denominator


def copy_rate(summary_text: str, source_text: str, n: int) -> float | None:
    """Percent of summary n-grams found anywhere in the source.

    None when the summary has fewer than n words (excluded from averages).
    """
    if n < 1:
        raise ContractError(f"n must be >= 1, got {n}")
    hits, denominator = copy_counts(summary_text, source_text, n)
    return 100.0 * hits / denominator if denominator >= 1 else None


def copy_rate_profile(summary_text: str, source_text: str) -> dict:
    """Per-summary rates for n=1..4 plus their average over defined n."""
    rates = {n: copy_rate(summary_text, source_text, n) for n in COPY_NS}
    defined = [r for r in rates.values() if r is not None]
    rates["average"] = sum(defined) / len(defined) if defined else None
    return rates


def corpus_copy_rates(pairs: list[tuple[str, str]]) -> dict:
    """Micro (pooled counts, the headline) and macro (mean of per-summary) rates."""
    micro: dict = {}
    macro: dict = {}
    for n in COPY_NS:
        hits, total, per_summary = 0, 0, []
        for summary, source in pairs:
            num, denom = copy_counts(summary, source, n)
            if denom < 1:
                continue
            hits += num
            total += denom
            per_summary.append(100.0 * num / denom)
        micro[n] = 100.0 * hits / total if total else None
        macro[n] = sum(per_summary) / len(per_summary) if per_summary else None
    for rates in (micro, macro):
        defined = [rates[n] for n in COPY_NS if rates[n] is not None]
        rates["average"] = sum(defined) / len(defined) if defined else None
    return {"micro": micro, "macro": macro}


@dataclass
class RougeScore:
    precision: float
    recall: float
    f1: float


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def rouge_n(candidate: str, reference: str, n: int) -> RougeScore:
    """Clipped n-gram overlap precision/recall/F1."""
    if n < 1:
        raise ContractError(f"n must be >= 1, got {n}")
    cand = Counter(_ngrams(split_words(candidate), n))
    ref = Counter(_ngrams(split_words(reference), n))
    overlap = sum(min(count, ref[gram]) for gram, count in cand.items())
    cand_total = sum(cand.values())
    ref_total = sum(ref.values())
    precision = overlap / cand_total if cand_total else 0.0
    recall = overlap / ref_total if ref_total else 0.0
    return RougeScore(precision, recall, _f1(precision, recall))


def _lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        row = [0]
        for j, y in enumerate(b, 1):
            row.append(prev[j - 1] + 1 if x == y else max(row[-1], prev[j]))
        prev = row
    return prev[-1]


def rouge_l(candidate: str, reference: str) -> RougeScore:
    """Longest-common-subsequence precision/recall/F1."""
    cand = split_words(candidate)
    ref = split_words(reference)
    lcs = _lcs_length(cand, ref)
    precision = lcs / len(cand) if cand else 0.0
    recall = lcs / len(ref) if ref else 0.0
    return RougeScore(precision, recall, _f1(precision, recall))


def evaluate_system(
    system: str,
    hypotheses: list[str],
    references: list[str],
    sources: list[str],
) -> tuple[dict, dict]:
    """One report row (copy rates vs sources, mean ROUGE F vs references)."""
    if not (len(hypotheses) == len(references) == len(sources)):
        raise ContractError(
            f"line counts differ: {len(hypotheses)} hypotheses, "
            f"{len(references)} references, {len(sources)} sources"
        )
    stats = {"empty_references": sum(1 for r in references if not split_words(r))}
    copy = corpus_copy_rates(list(zip(hypotheses, sources)))

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    row = {"system": system}
    for n in COPY_NS:
        row[f"copy_{n}"] = copy["micro"][n]
        row[f"copy_{n}_macro"] = copy["macro"][n]
    row["copy_avg"] = copy["micro"]["average"]
    row["copy_avg_macro"] = copy["macro"]["average"]
    row["rouge_1_f"] = mean([rouge_n(h, r, 1).f1 for h, r in zip(hypotheses, references)])
    row["rouge_2_f"] = mean([rouge_n(h, r, 2).f1 for h, r in zip(hypotheses, references)])
    row["rouge_l_f"] = mean([rouge_l(h, r).f1 for h, r in zip(hypotheses, references)])
    return row, stats


REPORT_COLUMNS = [
    ("system", "System"),
    ("copy_1", "1-gram"),
    ("copy_2", "2-gram"),
    ("copy_3", "3-gram"),
    ("copy_4", "4-gram"),
    ("copy_avg", "Average"),
    ("rouge_1_f", "R-1"),
    ("rouge_2_f", "R-2"),
    ("rouge_l_f", "R-L"),
]


def format_report(rows: list[dict]) -> str:
    """Aligned text table mirroring the copy-rate / ROUGE layout."""

    def fmt(key, value):
        if value is None:
            return "-"
        if key == "system":
            return str(value)
        if key.startswith("rouge"):
            return f"{100.0 * value:.2f}"
        return f"{value:.2f}"

    table = [[fmt(key, row.get(key)) for key, _ in REPORT_COLUMNS] for row in rows]
    headers = [header for _, header in REPORT_COLUMNS]
    widths = [
        max(len(headers[i]), *(len(line[i]) for line in table)) if table else len(headers[i])
        for i in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for line in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
    return "\n".join(lines)
