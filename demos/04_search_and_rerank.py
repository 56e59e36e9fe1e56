"""Drive both search strategies with a hand-specified toy language model and
compare the rerankers on the resulting candidate pool.

Run: python3 demos/04_search_and_rerank.py
"""

import math

import numpy as np

from copysum import RerankConfig, SearchConfig, beam_search, best_first_search
from copysum.decoding import rerank, rowwise

# Vocabulary: 0=END, 1="rain", 2="heavy", 3="floods"
NAMES = {0: "<end>", 1: "rain", 2: "heavy", 3: "floods"}
TABLE = {
    (): [0.05, 0.5, 0.4, 0.05],
    (1,): [0.3, 0.05, 0.05, 0.6],
    (2,): [0.1, 0.8, 0.05, 0.05],
    (1, 3): [0.9, 0.03, 0.03, 0.04],
    (2, 1): [0.4, 0.05, 0.05, 0.5],
    (2, 1, 3): [0.95, 0.02, 0.02, 0.01],
}


@rowwise  # beam search scores its whole beam in one call
def toy_lm(prefix):
    probs = TABLE.get(prefix, [0.7, 0.1, 0.1, 0.1])
    return np.log(np.asarray(probs))


config = SearchConfig(
    end_id=0, k=3, answer_pool_size=4, max_summary_len=5, trigram_blocking=False
)

for name, runner in (("best-first", best_first_search), ("beam", beam_search)):
    pool, _ = runner(toy_lm, config)
    print(f"{name} pool:")
    for hyp in pool:
        words = " ".join(NAMES[i] for i in hyp.ids)
        print(f"  {hyp.score:8.4f}  {words}")

pool, _ = best_first_search(toy_lm, config)

# Plain score favors the shortest candidate; length normalization and the
# brevity-penalty variant change the winner.
print("\nreranking the best-first pool:")
for method in ("none", "length_norm"):
    ranked = rerank(pool, RerankConfig(method=method))
    best = ranked[0]
    words = " ".join(NAMES[i] for i in best.hypothesis.ids)
    print(f"  {method:>12}: {words}  (score {best.rerank_score:.4f})")

# The soft-bounded word reward pushes toward a target length. Token ids
# stand in for words here, so feed the reward term directly: with a strong
# coefficient and target 3 the longer candidate overtakes.
sigma = lambda x: 1.0 / (1.0 + math.exp(-x))
for coeff in (0.25, 2.0):
    rewards = {
        h.ids: h.score + coeff * sum(sigma(3 - i) for i in range(1, len(h.ids)))
        for h in pool
    }
    words = " ".join(NAMES[i] for i in max(rewards, key=rewards.get))
    print(f"  sbwr r={coeff}, target 3: {words}")
