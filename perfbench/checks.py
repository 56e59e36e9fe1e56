"""Output checks computed apart from the program.

Each check returns a list of human-readable faults; an empty list passes.
N-gram counts here are written afresh (lower-cased whitespace words) and
do not call ``copysum.metrics``; the scores are compared with the plain
numpy reference forward in ``reference.py``.
"""

from __future__ import annotations

import math
from collections import Counter

# Decoded scores are written rounded to 6 digits.
SCORE_TOL = 5e-7 + 1e-9
LOSS_TOL = 1e-9
# Central differences at h=1e-5 are good to ~1e-9 here; compare relative
# to max(|analytic|, |numeric|, GRAD_FLOOR).
GRAD_RTOL = 1e-5
GRAD_FLOOR = 1e-3
METRIC_TOL = 1e-9
COPY_NS = (1, 2, 3, 4)


def words_of(text: str) -> list[str]:
    return text.lower().split()


def _grams(words, n):
    return [tuple(words[i : i + n]) for i in range(len(words) - n + 1)]


def has_repeated_trigram(seq) -> bool:
    grams = _grams(list(seq), 3)
    return len(grams) != len(set(grams))


def copy_counts(summary: str, source: str, n: int) -> tuple[int, int]:
    """(summary n-grams found in the source, summary n-grams)."""
    source_grams = set(_grams(words_of(source), n))
    grams = _grams(words_of(summary), n)
    return sum(g in source_grams for g in grams), len(grams)


def own_copy_rate(summary: str, source: str, n: int) -> float | None:
    hits, total = copy_counts(summary, source, n)
    return 100.0 * hits / total if total else None


def own_evaluation(hypotheses, references, sources) -> dict:
    """Corpus copy rates (pooled and per-summary mean) and mean ROUGE-1 F1."""
    row = {}
    for n in COPY_NS:
        counts = [copy_counts(h, s, n) for h, s in zip(hypotheses, sources)]
        counts = [(hit, tot) for hit, tot in counts if tot]
        hits = sum(hit for hit, _ in counts)
        total = sum(tot for _, tot in counts)
        row[f"copy_{n}"] = 100.0 * hits / total if total else None
        row[f"copy_{n}_macro"] = (
            sum(100.0 * hit / tot for hit, tot in counts) / len(counts) if counts else None
        )
    for suffix in ("", "_macro"):
        defined = [row[f"copy_{n}{suffix}"] for n in COPY_NS if row[f"copy_{n}{suffix}"] is not None]
        row[f"copy_avg{suffix}"] = sum(defined) / len(defined) if defined else None
    f1s = []
    for h, r in zip(hypotheses, references):
        cand, ref = Counter(words_of(h)), Counter(words_of(r))
        overlap = sum((cand & ref).values())
        p = overlap / sum(cand.values()) if cand else 0.0
        q = overlap / sum(ref.values()) if ref else 0.0
        f1s.append(2 * p * q / (p + q) if p + q else 0.0)
    row["rouge_1_f"] = sum(f1s) / len(f1s) if f1s else 0.0
    return row


def _close(a, b, tol) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


def check_record(row: dict, source: str, hyp_ids, summary_text: str, ref_score: float) -> list[str]:
    """One decoded record against the reference score and own counts.

    ``hyp_ids`` are the tokens the search scored (END included) and
    ``summary_text`` their detokenized text, both taken apart from ``row``.
    """
    rid = row.get("id")
    faults = []
    if row.get("failed"):
        return [f"{rid}: decode failed"]
    summary = row["summary"]
    if summary != summary_text:
        faults.append(f"{rid}: summary {summary!r} is not the text of its tokens {summary_text!r}")
    if row["score"] is None or abs(row["score"] - ref_score) > SCORE_TOL:
        faults.append(f"{rid}: score {row['score']} but reference log-prob {ref_score:.9f}")
    if has_repeated_trigram(hyp_ids) or has_repeated_trigram(words_of(summary)):
        faults.append(f"{rid}: repeated trigram in {summary!r}")
    own = own_copy_rate(summary, source, 1)
    if not _close(row["copy_rate"], None if own is None else round(own, 2), 1e-9):
        faults.append(f"{rid}: copy_rate {row['copy_rate']} but own count gives {own}")
    if row["length"] != len(words_of(summary)):
        faults.append(f"{rid}: length {row['length']} for {len(words_of(summary))} words")
    return faults


def check_evaluation(program_row: dict, hypotheses, references, sources) -> list[str]:
    own = own_evaluation(hypotheses, references, sources)
    return [
        f"evaluate_system {key}={program_row.get(key)} but own count gives {value}"
        for key, value in own.items()
        if not _close(program_row.get(key), value, METRIC_TOL)
    ]


def check_loss(program_loss: float, reference_loss: float) -> list[str]:
    if not abs(program_loss - reference_loss) <= LOSS_TOL:
        return [f"loss {program_loss!r} but reference forward gives {reference_loss!r}"]
    return []


def check_gradients(samples) -> list[str]:
    """``samples``: (name, index, analytic, central-difference) tuples."""
    faults = []
    for name, index, analytic, numeric in samples:
        scale = max(abs(analytic), abs(numeric), GRAD_FLOOR)
        if not abs(analytic - numeric) <= GRAD_RTOL * scale:
            faults.append(f"grad {name}{index}: autodiff {analytic!r} vs central difference {numeric!r}")
    return faults


def check_loss_trend(first: float, last: float, vocab_size: int) -> list[str]:
    if not (math.isfinite(last) and last < math.log(vocab_size) and last < first):
        return [f"last train loss {last} not finite and below ln(V)={math.log(vocab_size):.4f} "
                f"and the first epoch's {first}"]
    return []
