"""Seeded input generators for the benchmark workloads.

Every table has the corpus schema the engine is built for
(doc_id: string, tokens: list<int32>, n_tok: int32, source: string) and is
a pure function of (seed, row count, id prefix): the same arguments give
the same bytes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

VOCAB = 50257
SOURCES = ("web", "books", "code", "wiki", "news", "forum", "papers", "legal")
# skewed like a crawl-heavy pretraining mix: one source holds over half the rows
SOURCE_P = (0.55, 0.20, 0.10, 0.06, 0.04, 0.03, 0.015, 0.005)
# each source draws from its own slice of the vocabulary, so blocks that
# hold one source have narrower token ranges than scan-order blocks
SOURCE_VOCAB = (VOCAB, 32_000, 8_192, 40_000, 20_000, 16_384, 45_000, 12_000)
DOMAINS = ("example", "archive", "mirror", "static", "docs", "blog", "cdn",
           "press", "library", "forum")
TLDS = ("com", "org", "net", "io", "de", "fr")

# lengths: log-normal, (mu, sigma, min, max) in tokens
LONG_LEN = (5.75, 0.55, 64, 2048)   # median ~310, mean ~360 tokens
SHORT_LEN = (3.2, 0.5, 4, 160)      # median ~25 tokens

_ZIPF_CDF = None


def source_counts(n_rows: int) -> np.ndarray:
    """Rows per source: SOURCE_P of ``n_rows`` exactly (largest remainders
    round), so every seed gives tables of the same make-up and the seed
    changes only which rows are which and their values."""
    share = np.asarray(SOURCE_P) * n_rows
    counts = np.floor(share).astype(np.int64)
    rest = np.argsort(counts - share)[: n_rows - int(counts.sum())]
    counts[rest] += 1
    return counts


def _zipf(rng: np.random.Generator, n: int) -> np.ndarray:
    """Zipf(1.1) token ids over [0, VOCAB) by inverse CDF."""
    global _ZIPF_CDF
    if _ZIPF_CDF is None:
        p = 1.0 / np.power(np.arange(1, VOCAB + 1, dtype=np.float64), 1.1)
        _ZIPF_CDF = np.cumsum(p / p.sum())
    return np.searchsorted(_ZIPF_CDF, rng.random(n)).astype(np.int32)


def _tokens(rng: np.random.Generator, src_idx: np.ndarray,
            lengths: tuple) -> tuple[pa.Array, np.ndarray]:
    mu, sigma, lo, hi = lengths
    n_tok = np.clip(rng.lognormal(mu, sigma, len(src_idx)), lo, hi)
    n_tok = n_tok.astype(np.int32)
    values = _zipf(rng, int(n_tok.sum()))
    caps = np.repeat(np.asarray(SOURCE_VOCAB, dtype=np.int32)[src_idx], n_tok)
    np.mod(values, caps, out=values)
    offsets = np.concatenate(([0], np.cumsum(n_tok))).astype(np.int32)
    # 5% of rows repeat one token over their middle half (boilerplate runs)
    for r in rng.choice(len(src_idx), size=max(1, len(src_idx) // 20),
                        replace=False):
        a, b = int(offsets[r]), int(offsets[r + 1])
        values[a + (b - a) // 4: a + 3 * (b - a) // 4] = rng.integers(0, VOCAB)
    tok = pa.ListArray.from_arrays(pa.array(offsets), pa.array(values))
    return tok, n_tok


def _doc_ids(rng: np.random.Generator, src_idx: np.ndarray, prefix: str,
             url: bool) -> list[str]:
    n = len(src_idx)
    # unique per table: the row's position, written in a seeded order
    serial = rng.permutation(n)
    if not url:
        return [f"{SOURCES[s]}/{prefix}{k:09d}" for s, k in zip(src_idx, serial)]
    dom = rng.integers(0, len(DOMAINS), n)
    tld = rng.integers(0, len(TLDS), n)
    year = rng.integers(2009, 2025, n)
    month = rng.integers(1, 13, n)
    slug = rng.integers(0, 16 ** 8, n)
    return [f"https://www.{DOMAINS[d]}.{TLDS[t]}/{SOURCES[s]}/{y}/{m:02d}/"
            f"article-{prefix}{k:09d}-{g:08x}.html?utm_source=crawl&utm_medium={SOURCES[s]}"
            for d, t, s, y, m, k, g in zip(dom, tld, src_idx, year, month,
                                           serial, slug)]


def make_docs(seed: int, n_rows: int, *, short: bool, prefix: str = "d") -> pa.Table:
    """Generate ``n_rows`` documents.

    ``short=False``: hundreds of tokens per row and compact ids (~1.4 KB/row,
    token integers dominate). ``short=True``: tens of tokens and long
    URL-like ids (~200 B/row, strings weigh as much as tokens).
    ``prefix`` keeps ids of different deliveries of one store disjoint."""
    rng = np.random.default_rng([seed, n_rows, int(short), sum(prefix.encode())])
    src_idx = rng.permutation(np.repeat(np.arange(len(SOURCES)),
                                        source_counts(n_rows)))
    tok, n_tok = _tokens(rng, src_idx, SHORT_LEN if short else LONG_LEN)
    return pa.table({
        "doc_id": pa.array(_doc_ids(rng, src_idx, prefix, short), pa.string()),
        "tokens": tok,
        "n_tok": pa.array(n_tok, pa.int32()),
        "source": pa.array([SOURCES[i] for i in src_idx], pa.string()),
    })
