"""Synthetic planted-relevance retrieval task for end-to-end tests.

Each query has one relevant corpus item: the query's latent vector pushed
through a fixed hidden rotation plus Gaussian noise, offset into a separate
corpus cluster. Zero-shot cosine is informative (the rotation is moderate)
but suboptimal; an adapter that undoes the rotation on the corpus cluster
recovers a large nDCG margin.
"""

from __future__ import annotations

import numpy as np

from embadapt import EmbeddingTable, RelevanceSet


def _random_rotation(dim: int, strength: float, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(np.eye(dim) + strength * g)
    return q * np.sign(np.diag(r))


def planted_task(
    n_queries: int = 200,
    n_corpus: int = 1000,
    dim: int = 32,
    seed: int = 0,
    rotation_strength: float = 0.18,
    noise_scale: float = 0.6,
    cluster_offset: float = 1.0,
) -> tuple[EmbeddingTable, EmbeddingTable, RelevanceSet]:
    """Returns (query table, corpus table, relevance set) with 1 positive/query."""
    assert n_corpus >= n_queries
    rng = np.random.default_rng(seed)
    rotation = _random_rotation(dim, rotation_strength, rng)
    mu_q = cluster_offset * rng.standard_normal(dim) / np.sqrt(dim)
    mu_c = cluster_offset * rng.standard_normal(dim) / np.sqrt(dim)

    latent = rng.standard_normal((n_corpus, dim))
    corpus_vecs = latent @ rotation.T + mu_c
    corpus_vecs[:n_queries] += noise_scale * rng.standard_normal((n_queries, dim))
    query_vecs = latent[:n_queries] + mu_q

    qids = [f"q{i:04d}" for i in range(n_queries)]
    cids = [f"c{j:04d}" for j in range(n_corpus)]
    q_table = EmbeddingTable(qids, query_vecs.astype(np.float32), "synthetic-v1")
    c_table = EmbeddingTable(cids, corpus_vecs.astype(np.float32), "synthetic-v1")
    rels = RelevanceSet([(qids[i], cids[i], 1.0) for i in range(n_queries)])
    return q_table, c_table, rels


def seeded_output_layers(model, seed: int):
    """Give each network of an adapter the non-zero output layer that the
    benchmark's fixed checkpoint gives f (the same draws for f), so the model
    is not the identity. Returns the model."""
    rng = np.random.default_rng(seed)
    for _, params in model.trainable():
        params.w2[...] = rng.normal(0.0, 0.5 / np.sqrt(params.hidden), params.w2.shape)
        params.b2[...] = rng.normal(0.0, 0.05, params.b2.shape)
    return model
