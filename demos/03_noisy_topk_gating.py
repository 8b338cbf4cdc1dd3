"""Inside the sparse mixture of experts: noisy top-k routing, the sparse
dispatch, and the two balancing losses.

Run: python demos/03_noisy_topk_gating.py
"""

import numpy as np

from flowmoe import (
    MoEHead,
    RngState,
    Tensor,
    TrainConfig,
    importance_loss,
    load_loss,
    load_probability,
    moe_forward,
    noisy_gate,
)

rng = RngState(1)
config = TrainConfig(n_experts=8, top_k=2, expert_hidden=4, n_classes=9)
head = MoEHead(config, 16, rng)   # 16 input features per sample
head.router.w_gate.data = 0.5 * rng.normal((16, 8))   # pretend it was trained
head.router.w_noise.data = 0.2 * rng.normal((16, 8))

x = Tensor(rng.normal((4, 16)))

# The router scores every expert, perturbs the scores with learned
# input-dependent Gaussian noise, keeps the top k, and softmaxes the rest.
decision = noisy_gate(head.router, x, config.top_k, noise_enabled=True, rng=rng)
print("gate rows (2 nonzeros each, summing to 1):")
for row, picks in zip(decision.gates.data, decision.selected_indices):
    print(" ", np.round(row, 3), "selected:", picks)

# Only the selected experts actually run; the result still equals the full
# weighted sum over all experts because the other gates are exactly zero.
logits = moe_forward(head.experts, decision, x)
print("\nclass logits shape:", logits.data.shape)

# Importance: total gate mass per expert over the batch.  Its squared
# coefficient of variation penalizes routers that favor a few experts.
imp = importance_loss(decision.gates)
print("importance per expert:", np.round(decision.gates.data.sum(axis=0), 3))
print("importance loss:", float(imp.data))

# Load: the probability each expert would make the cut if its noise were
# re-drawn.  This is smooth, so rarely-selected experts still get gradient.
p = load_probability(decision, config.top_k)
print("expected load per expert:", np.round(p.data.sum(axis=0), 3))
print("load loss:", float(load_loss(p).data))

# With noise off (evaluation), routing is deterministic.
head.eval()
eval_a, _ = head(x)
eval_b, _ = head(x)
print("\neval-mode routing deterministic:", (eval_a.data == eval_b.data).all())
